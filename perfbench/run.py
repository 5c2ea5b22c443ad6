#!/usr/bin/env python3
"""The repository benchmark (manifest: BENCHMARK.json at the repo root).

Measure one workload::

    python3 perfbench/run.py --workload star_xl_checked --seed 1 --seconds 30 --trace 0

Every timed leg is a fresh interpreter (perfbench/workload.py), started
one after another with no concurrency.  ``--trace 0`` reports the
end-to-end metrics: each of the seed's inputs runs once, then repeats
while another sample fits in ``--seconds``; timings and memory are
medians over the samples, set-up time over at least three set-ups, and
the paper's counts are means over the inputs.  ``--trace 1`` runs one untraced and one traced
sample and reports the per-layer metrics: layer self times from the
traced sample's spans, the tracing overhead, and the time no layer
accounts for.  The last stdout line is the JSON result; the lines
before it name every metric with its unit.

All three workloads in turn, with a table::

    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Compare two result sets (directories of results files, written under
``.perfbench/results/`` by every run)::

    python3 perfbench/run.py compare BASE_DIR NEW_DIR
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import provenance  # noqa: E402
import stats  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import INPUTS, WORKLOADS  # noqa: E402

WORK_DIR = ROOT / ".perfbench"
MAX_SAMPLES = 12
SETUP_PROBES = 2
PAPER_COUNTS = ("rounds", "total_activations", "max_activated_edges", "max_activated_degree")


def manifest() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# ----------------------------------------------------------------------
# legs and samples
# ----------------------------------------------------------------------


def spawn(workload: str, seed: int, index: int, n, role: str, archive=None, spans=None) -> dict:
    """Run one leg to completion; returns its wall, peak RSS, exit code
    and JSON record.  The peak RSS is this child's own ``wait4`` rusage,
    not ``RUSAGE_CHILDREN`` (a high-water mark over every child so far)."""
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--input", str(index), "--role", role]
    if n:
        cmd += ["--n", str(n)]
    if archive:
        cmd += ["--archive", str(archive)]
    if spans:
        cmd += ["--spans", str(spans)]
    err_path = WORK_DIR / "tmp" / f"stderr-{os.getpid()}.txt"
    with open(err_path, "wb") as err:
        origin = time.monotonic()
        proc = subprocess.Popen(
            cmd + ["--origin", repr(origin)], stdout=subprocess.PIPE, stderr=err, cwd=ROOT,
        )
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr_tail = err_path.read_bytes()[-2000:].decode(errors="replace")
    err_path.unlink()
    lines = out.decode(errors="replace").strip().splitlines()
    try:
        record = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        record = None
    return {
        "role": role,
        "origin": origin,
        "wall_s": end - origin,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "rc": proc.returncode,
        "record": record,
        "stderr": stderr_tail if proc.returncode else "",
    }


def leg_failures(leg: dict) -> list:
    """Why a leg counts as failed (empty when it passed)."""
    rec = leg["record"]
    why = []
    if leg["rc"] != 0:
        why.append(f"{leg['role']} exited {leg['rc']}")
    if not isinstance(rec, dict):
        why.append(f"{leg['role']} printed no result record")
        return why
    red = [name for name, cell in (rec.get("verdicts") or {}).items() if cell != "ok"]
    if red:
        where = "offline audit" if leg["role"] == "audit" else "invariant"
        why.append(f"{where} red: {', '.join(red)}")
    if leg["role"] == "run" and not rec.get("target_ok", False):
        why.append("target missing")
    if leg["role"] == "audit" and not rec.get("verdicts"):
        why.append("offline audit returned no verdicts")
    return why


def run_sample(work, seed, index, n, spans_dir=None) -> dict:
    """One full execution of the workload on input ``index`` (run leg,
    plus audit leg)."""
    tag = f"{work.name}-{seed}-{index}-{os.getpid()}-{time.monotonic_ns()}"
    archive = WORK_DIR / "tmp" / f"{tag}.rtb" if work.archive else None
    spans = {}
    if spans_dir is not None:
        spans = {role: spans_dir / f"{tag}-{role}.json" for role in ("run", "audit")}
    legs = [spawn(work.name, seed, index, n, "run", archive, spans.get("run"))]
    sample = {"input": index, "legs": legs}
    try:
        if archive is not None:
            sample["archive_bytes"] = archive.stat().st_size if archive.exists() else 0
            if legs[0]["rc"] == 0:
                legs.append(
                    spawn(work.name, seed, index, n, "audit", archive, spans.get("audit"))
                )
            else:
                legs.append({"role": "audit", "rc": None, "record": None, "wall_s": 0.0,
                             "peak_rss_mb": 0.0, "stderr": "not run"})
    finally:
        if archive is not None and archive.exists():
            archive.unlink()
    sample["failures"] = [why for leg in legs for why in leg_failures(leg)]
    run_rec = legs[0]["record"] or {}
    sample["counts"] = run_rec.get("counts")
    sample["n"] = run_rec.get("n")
    sample["setup_s"] = (
        run_rec["setup_t"] - legs[0]["origin"] if run_rec.get("setup_t") else None
    )
    sample["wall_s"] = sum(leg["wall_s"] for leg in legs)
    sample["run_wall_s"] = legs[0]["wall_s"]
    sample["peak_rss_mb"] = max(leg["peak_rss_mb"] for leg in legs)
    if spans_dir is not None:
        sample["spans"] = {
            role: str(path) for role, path in spans.items() if path.exists()
        }
    return sample


def setup_probe(work, seed, n) -> dict:
    archive = WORK_DIR / "tmp" / f"setup-{os.getpid()}.rtb" if work.archive else None
    try:
        leg = spawn(work.name, seed, 0, n, "setup", archive)
    finally:
        if archive is not None and archive.exists():
            archive.unlink()
    rec = leg["record"] or {}
    failures = [] if leg["rc"] == 0 and rec.get("setup_t") else [f"setup probe exited {leg['rc']}"]
    return {
        "setup_s": rec["setup_t"] - leg["origin"] if rec.get("setup_t") else None,
        "failures": failures,
    }


def count_drift(samples) -> list:
    """A paper count that differs between runs of one input is a failure."""
    drift = []
    for index in sorted({s["input"] for s in samples}):
        seen = [s["counts"] for s in samples if s["input"] == index and s.get("counts")]
        drift += [
            f"{key} drifted between runs of input {index}: {sorted({c[key] for c in seen})}"
            for key in PAPER_COUNTS
            if len({c[key] for c in seen}) > 1
        ]
    return drift


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def end_to_end(samples, setups) -> dict:
    """Per-metric sample lists.  Timings and memory are taken over every
    sample; each paper count is one value, its mean over the run's
    inputs (the first :data:`INPUTS` samples)."""
    good = [s for s in samples if not s["failures"] and s["counts"]]
    values = {
        "wall_s": [s["wall_s"] for s in good],
        "setup_s": [v for v in [s["setup_s"] for s in good] + setups if v is not None],
        # Node-rounds are executed by the run leg alone.
        "node_rounds_per_s": [s["n"] * s["counts"]["rounds"] / s["run_wall_s"] for s in good],
        "peak_rss_mb": [s["peak_rss_mb"] for s in good],
    }
    first = [s for s in good if s is samples[s["input"]]]
    for key in PAPER_COUNTS:
        values[key] = [sum(s["counts"][key] for s in first) / len(first)] if first else []
    return values


def per_layer(untraced: dict, traced: dict) -> dict:
    """Layer metrics of one traced sample (see BENCHMARK.json per_layer)."""
    dumps = []
    for path in traced.get("spans", {}).values():
        with open(path) as f:
            dumps.append(json.load(f))
    nodes = [node for d in dumps for node in d["nodes"]]
    counters: dict = {}
    for d in dumps:
        for key, value in d["counters"].items():
            counters[key] = counters.get(key, 0) + value
    self_s = tracing.self_times(nodes)
    calls = tracing.call_counts(nodes)
    run_rec = traced["legs"][0]["record"] or {}
    rounds = (run_rec.get("counts") or {}).get("rounds", 0)
    traced_wall = sum(node["total_s"] for node in nodes if node["parent"] is None)
    audit_leg = next((leg for leg in traced["legs"] if leg["role"] == "audit"), None)
    requested = counters.get("engine.apply_requested", 0)
    strikes = run_rec.get("strikes", 0)
    out = {
        "trace.wall_s": traced_wall,
        "trace.unaccounted_s": self_s.get("process", 0.0),
        "trace.overhead_frac": (traced["wall_s"] - untraced["wall_s"]) / untraced["wall_s"],
        "engine.runner_self_s": self_s.get("engine.runner", 0.0),
        "engine.apply_calls": calls.get("engine.apply", 0),
        "engine.apply_yield": (
            counters.get("engine.apply_effective", 0) / requested if requested else 0.0
        ),
        "core.kernel_rounds": calls.get("core.kernel_step", 0),
        "core.program_calls": calls.get("core.program", 0),
        "core.assist_share": counters.get("core.assist_rounds", 0) / rounds if rounds else 0.0,
        "dynamics.strikes": calls.get("dynamics.strike", 0),
        "dynamics.drops": counters.get("dynamics.drops", 0),
        "dynamics.damaged_share": run_rec.get("damaged", 0) / strikes if strikes else 0.0,
        "mem.after_graph_mb": run_rec.get("rss_graph_mb") or 0.0,
        "mem.after_setup_mb": run_rec.get("rss_setup_mb") or 0.0,
        "audit_s": audit_leg["wall_s"] if audit_leg else 0.0,
        "archive_bytes": traced.get("archive_bytes", 0),
    }
    for name in SPAN_METRICS:
        out[f"{name}_s"] = self_s.get(name, 0.0)
    return out


#: Span names reported as ``<name>_s`` self times.  With the process
#: root (trace.unaccounted_s) and engine.runner (engine.runner_self_s)
#: they cover every span the tracer records.
SPAN_METRICS = tuple(sorted(
    {layer[3] for layer in tracing.LAYERS} - {"engine.runner"}
    | {"bench.imports", "bench.scenario", "bench.output", "bench.check"}
))


# ----------------------------------------------------------------------
# one run of one workload
# ----------------------------------------------------------------------


def measure(work, seed: int, seconds: float, trace: bool, n=None) -> dict:
    (WORK_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    samples: list = []
    setups: list = []
    if trace:
        spans_dir = WORK_DIR / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        samples.append(run_sample(work, seed, 0, n))
        samples.append(run_sample(work, seed, 0, n, spans_dir=spans_dir))
    else:
        start = time.monotonic()
        # Set-up probes first: the first also warms the file cache and
        # the bytecode cache for the timed samples.
        for _ in range(SETUP_PROBES):
            setups.append(setup_probe(work, seed, n))
        # Every input once, then repeats while another sample still fits.
        while len(samples) < MAX_SAMPLES:
            samples.append(run_sample(work, seed, len(samples) % INPUTS, n))
            if len(samples) >= INPUTS:
                elapsed = time.monotonic() - start
                if elapsed + samples[-1]["wall_s"] > seconds:
                    break
    failures = [why for s in samples + setups for why in s["failures"]]
    drift = count_drift(samples)
    attempted = len(samples) + len(setups)
    failed = sum(1 for s in samples + setups if s["failures"])
    if drift:
        failures += drift
        failed = attempted
    spec = manifest()
    result = {
        "workload": work.name,
        "n": n or work.n,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "samples": samples,
        "setup_probes": [s["setup_s"] for s in setups],
    }
    if trace:
        layer = per_layer(samples[0], samples[1])
        layer["bench.failed_frac"] = failed / attempted
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        result["metrics"] = {
            name: {"value": layer[name], "unit": units[name], "samples": 1}
            for name in units
        }
    else:
        values = end_to_end(samples, [s["setup_s"] for s in setups if s["setup_s"]])
        result["metrics"] = {}
        for m in spec["end_to_end"]:
            vals = values[m["name"]] or [0.0]
            summ = stats.summary(vals)
            result["metrics"][m["name"]] = {
                "value": summ["median"], "unit": m["unit"], "samples": summ["n"],
                "q1": summ["q1"], "q3": summ["q3"],
            }
    versions = next(
        (leg["record"]["versions"] for s in samples for leg in s["legs"]
         if isinstance(leg.get("record"), dict) and "versions" in leg["record"]),
        {},
    )
    result["provenance"] = provenance.stamp(ROOT, seed, versions)
    return result


def save(result: dict, results_dir: Path) -> Path:
    out_dir = results_dir / result["workload"]
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / (
        f"seed{result['seed']}-trace{result['trace']}-{time.time_ns()}.json"
    )
    with open(path, "w") as f:
        json.dump(result, f, indent=1)
    return path


def describe(result: dict) -> None:
    """Human-readable lines: provenance, every metric with its unit."""
    prov = result["provenance"]
    host = prov["host"]
    print(
        f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
        f"git={prov['git_sha'][:12]} src={prov['src_digest']} python={prov['python']} "
        f"numpy={prov.get('numpy')} host={host['cpu_model']!r} nproc={host['nproc']} "
        f"mem={host['mem_total_kb']}kB"
    )
    for name, m in result["metrics"].items():
        extra = ""
        if "q1" in m:
            extra = f"  (median of {m['samples']}; q1 {m['q1']:.6g}, q3 {m['q3']:.6g})"
        print(f"{result['workload']:20s} {name:42s} {m['value']:>14.6g} {m['unit']}{extra}")
    for why in result["failures"]:
        print(f"FAILED: {why}")


def public(result: dict) -> dict:
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in result["metrics"].items()
        },
    }


def table(results: list) -> None:
    """One row per metric, one column per workload."""
    print(f"\n{'metric':42s} {'unit':6s} " + " ".join(f"{r['workload']:>20s}" for r in results))
    for name in results[0]["metrics"]:
        unit = results[0]["metrics"][name]["unit"]
        cells = " ".join(f"{r['metrics'][name]['value']:>20.6g}" for r in results)
        print(f"{name:42s} {unit:6s} {cells}")
    print("correct".ljust(49) + " ".join(f"{str(r['correct']):>20s}" for r in results))


# ----------------------------------------------------------------------
# compare mode
# ----------------------------------------------------------------------


def load_results(path: Path) -> list:
    files = [path] if path.is_file() else sorted(path.rglob("*.json"))
    out = []
    for file in files:
        with open(file) as f:
            data = json.load(f)
        if isinstance(data, dict) and "workload" in data and "metrics" in data:
            out.append(data)
    return out


def compare(base_path: Path, new_path: Path) -> int:
    spec = manifest()
    base = [r for r in load_results(base_path) if r["trace"] == 0]
    new = [r for r in load_results(new_path) if r["trace"] == 0]
    hosts = {json.dumps(r["provenance"]["host"], sort_keys=True) for r in base + new}
    mixed_hosts = len(hosts) > 1
    if mixed_hosts:
        print("WARNING: the result sets come from different hosts; every verdict "
              "below is unresolved:")
        for h in sorted(hosts):
            print(f"  host {h}")
    print(f"{'workload@n':26s} {'metric':22s} {'base median [q1, q3]':34s} "
          f"{'new median [q1, q3]':34s} {'new/base':>9s}  verdict")
    worse = 0
    # Runs are comparable only at the same workload size.
    def key(r):
        return r["workload"], r.get("n")

    for wkey in sorted({key(r) for r in base} & {key(r) for r in new}, key=str):
        wname = f"{wkey[0]}@{wkey[1]}"
        b_runs = sorted((r for r in base if key(r) == wkey), key=lambda r: r["seed"])
        n_runs = sorted((r for r in new if key(r) == wkey), key=lambda r: r["seed"])
        for m in spec["end_to_end"]:
            name = m["name"]
            bv = [r["metrics"][name]["value"] for r in b_runs if name in r["metrics"]]
            nv = [r["metrics"][name]["value"] for r in n_runs if name in r["metrics"]]
            if not bv or not nv:
                continue
            by_seed = {r["seed"]: r["metrics"][name]["value"] for r in n_runs}
            pairs = [
                (r["metrics"][name]["value"], by_seed[r["seed"]])
                for r in b_runs if r["seed"] in by_seed
            ]
            v = stats.verdict(bv, nv, better=m["better"], bound=m["bound"],
                              pairs=pairs if len(pairs) == len(bv) else None)
            if mixed_hosts:
                v = "unresolved"
            worse += v == "worse"
            bs, ns = stats.summary(bv), stats.summary(nv)
            ratio = ns["median"] / bs["median"] if bs["median"] else float("nan")
            print(
                f"{wname:26s} {name:22s} "
                f"{_fmt(bs, m['unit']):34s} {_fmt(ns, m['unit']):34s} "
                f"{ratio:9.4f}  {v} (base {bs['median']:.6g} {m['unit']}, "
                f"{bs['n']} vs {ns['n']} runs)"
            )
        # The paper's counts repeat exactly for one seed on one source tree.
        for count in PAPER_COUNTS:
            b_seed = {
                (r["seed"], r["provenance"]["src_digest"]): r["metrics"][count]["value"]
                for r in b_runs
            }
            for r in n_runs:
                was = b_seed.get((r["seed"], r["provenance"]["src_digest"]))
                if was is not None and was != r["metrics"][count]["value"]:
                    print(f"FAILED: {wname} {count} drifted at seed {r['seed']} on identical "
                          f"sources: {was} vs {r['metrics'][count]['value']}")
                    worse += 1
    return 1 if worse else 0


def _fmt(s: dict, unit: str) -> str:
    return f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] {unit}"


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base", type=Path)
        parser.add_argument("new", type=Path)
        args = parser.parse_args(argv[1:])
        return compare(args.base, args.new)

    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n", type=int, default=None,
                        help="override the workload size (quick checks only)")
    parser.add_argument("--results", type=Path, default=WORK_DIR / "results",
                        help="directory for the results files")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else manifest()["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = measure(WORKLOADS[name], args.seed, seconds, bool(args.trace), n=args.n)
        path = save(result, args.results)
        describe(result)
        print(f"# results file: {path.relative_to(ROOT) if path.is_relative_to(ROOT) else path}")
        results.append(result)
    if len(results) == 1:
        print(json.dumps(public(results[0])))
    else:
        table(results)
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{r['workload']}.{name}": m
                for r in results for name, m in public(r)["metrics"].items()
            },
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
