"""Fast checks of the benchmark itself (about a minute)::

    python3 perfbench/selftest.py

Not collected by the repository's pytest run (its testpaths are
``tests`` and ``benchmarks``, and this file is not named ``test_*``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import stats  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import INPUTS, WORKLOADS  # noqa: E402

#: Sizes that keep every workload's leg under a few seconds.
TINY = {"star_xl_checked": 2000, "wreath_rand_archive": 256, "star_heal_strikes": 512}


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


class SelfTimeArithmetic(unittest.TestCase):
    def test_synthetic_span_tree(self):
        clock = FakeClock()
        tr = tracing.Tracer(origin=0.0, clock=clock)
        clock.t = 1.0
        tr.enter("a")              # a: 1 .. 10
        clock.t = 2.0
        tr.enter("b")              # b: 2 .. 5
        clock.t = 3.0
        tr.enter("c", hot=True)    # c: 3 .. 4 (aggregate only)
        clock.t = 4.0
        tr.exit()
        clock.t = 5.0
        tr.exit()
        clock.t = 6.0
        tr.enter("b")              # b again: 6 .. 8
        clock.t = 8.0
        tr.exit()
        clock.t = 10.0
        tr.exit()
        clock.t = 12.0
        tr.finish()
        dump = tr.dump()
        self_s = tracing.self_times(dump["nodes"])
        self.assertEqual(self_s, {"process": 3.0, "a": 4.0, "b": 4.0, "c": 1.0})
        self.assertEqual(tracing.call_counts(dump["nodes"])["b"], 2)
        self.assertAlmostEqual(sum(self_s.values()), 12.0)
        names = [s[1] for s in dump["spans"]]
        self.assertEqual(names, ["process", "a", "b", "b"])  # no record for hot "c"
        by_id = {s[0]: s for s in dump["spans"]}
        self.assertEqual(by_id[by_id[2][4]][1], "a")  # b's parent is a

    def test_generator_steps_are_timed(self):
        clock = FakeClock()
        tr = tracing.Tracer(origin=0.0, clock=clock)

        def gen():
            for i in range(3):
                clock.t += 1.0
                yield i

        wrapped = tr.wrap(gen, "g")
        out = []
        for item in wrapped():
            clock.t += 10.0  # consumer time is not the generator's
            out.append(item)
        tr.finish()
        self.assertEqual(out, [0, 1, 2])
        self.assertAlmostEqual(tracing.self_times(tr.dump()["nodes"])["g"], 3.0)


class Wrapping(unittest.TestCase):
    def test_install_keeps_probed_attributes_and_uninstalls(self):
        sys.path.insert(0, str(ROOT / "src"))
        from repro.conformance_arrays import ArrayConnectivityChecker
        from repro.engine.dense import DenseNetwork

        apply_before = DenseNetwork.__dict__["apply"]
        raw_before = ArrayConnectivityChecker.accepts_raw_rounds
        tr = tracing.Tracer(origin=0.0)
        tracing.install(tr)
        try:
            self.assertIsNot(DenseNetwork.__dict__["apply"], apply_before)
            self.assertEqual(ArrayConnectivityChecker.accepts_raw_rounds, raw_before)
        finally:
            tr.uninstall()
        self.assertIs(DenseNetwork.__dict__["apply"], apply_before)


def fake_leg(role, red=False, rc=0):
    record = {"role": role, "ok": not red, "verdicts": {"connectivity": "ok"}}
    if red:
        record["verdicts"]["rounds:log"] = "FAIL: round 9 > bound"
    if role == "run":
        record.update(target_ok=True, n=8, setup_t=100.25, strikes=0, damaged=0,
                      counts={k: 5 for k in run.PAPER_COUNTS})
    if role == "setup":
        record = {"role": "setup", "ok": True, "setup_t": 100.25}
    return {"role": role, "origin": 100.0, "wall_s": 1.0, "peak_rss_mb": 10.0,
            "rc": rc, "record": record, "stderr": ""}


class FailureCounting(unittest.TestCase):
    def measure_with(self, legs):
        queue = list(legs)
        original = run.spawn
        run.spawn = lambda *a, **k: queue.pop(0)
        try:
            return run.measure(WORKLOADS["star_xl_checked"], 0, 0.0, False)
        finally:
            run.spawn = original

    # A run is two set-up probes, then one sample per input when
    # --seconds leaves no time for repeats.
    def test_injected_red_verdict_counts_as_failed(self):
        runs = [fake_leg("run", red=True)] + [fake_leg("run")] * (INPUTS - 1)
        result = self.measure_with([fake_leg("setup"), fake_leg("setup")] + runs)
        self.assertEqual((result["attempted"], result["failed"]), (INPUTS + 2, 1))
        self.assertFalse(result["correct"])
        self.assertIn("invariant red: rounds:log", result["failures"])

    def test_clean_run_and_nonzero_exit(self):
        runs = [fake_leg("run")] * INPUTS
        clean = self.measure_with([fake_leg("setup"), fake_leg("setup")] + runs)
        self.assertEqual((clean["attempted"], clean["failed"]), (INPUTS + 2, 0))
        self.assertTrue(clean["correct"])
        self.assertEqual(clean["metrics"]["setup_s"]["value"], 0.25)
        self.assertEqual(clean["metrics"]["rounds"]["value"], 5)
        crashed = self.measure_with([fake_leg("setup"), fake_leg("setup", rc=1)] + runs)
        self.assertEqual(crashed["failed"], 1)

    def test_count_drift_is_a_failure(self):
        a = {"input": 0, "counts": {k: 5 for k in run.PAPER_COUNTS}}
        b = {"input": 0, "counts": {**a["counts"], "rounds": 6}}
        other_input = {**b, "input": 1}
        self.assertEqual(run.count_drift([a, a, other_input]), [])
        self.assertEqual(len(run.count_drift([a, b])), 1)


class CompareVerdicts(unittest.TestCase):
    def test_pair_rule(self):
        base = [10.0 + 0.01 * i for i in range(10)]
        faster = [v * 0.8 for v in base]
        self.assertEqual(stats.verdict(base, faster, better="lower", bound=0.1), "better")
        self.assertEqual(stats.verdict(base, [v * 1.2 for v in base], better="lower",
                                       bound=0.1), "worse")
        self.assertEqual(stats.verdict(base, base, better="lower", bound=0.1), "not-worse")
        # Fewer than ten pairs: no gain can be claimed.
        self.assertEqual(stats.verdict(base[:5], faster[:5], better="lower", bound=0.1),
                         "not-worse")
        wide = [5.0, 10.0, 15.0, 20.0]
        self.assertEqual(stats.verdict(wide, [11.0, 12.0, 13.0, 14.0], better="lower",
                                       bound=0.1), "unresolved")


class TinyWorkloads(unittest.TestCase):
    """A tiny-n pass of each workload, traced and untraced: every metric
    of BENCHMARK.json is printed by name with its unit, and the outputs
    check out.  Runs in a private results directory."""

    @classmethod
    def setUpClass(cls):
        cls.spec = run.manifest()
        run.WORK_DIR.mkdir(exist_ok=True)
        cls.tmp = Path(tempfile.mkdtemp(dir=run.WORK_DIR))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def run_bench(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "0",
             "--seconds", "1", "--trace", str(trace), "--n", str(TINY[workload]),
             "--results", str(self.tmp)],
            capture_output=True, text=True, timeout=300, cwd=ROOT,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        return lines, json.loads(lines[-1])

    def test_every_workload_prints_every_metric(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    lines, result = self.run_bench(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    wanted = {m["name"]: m["unit"] for m in self.spec[key]}
                    self.assertEqual(set(result["metrics"]), set(wanted))
                    for name, unit in wanted.items():
                        self.assertEqual(result["metrics"][name]["unit"], unit)
                        self.assertTrue(
                            any(line.split()[1:2] == [name] and line.split()[3] == unit
                                for line in lines if line.startswith(workload)),
                            name,
                        )
                    metrics = {k: v["value"] for k, v in result["metrics"].items()}
                    if trace:
                        layer_sum = sum(
                            v for k, v in metrics.items()
                            if k.endswith("_s") and k not in ("trace.wall_s", "audit_s")
                        )
                        self.assertAlmostEqual(layer_sum, metrics["trace.wall_s"], places=6)
                    else:
                        for m in self.spec["end_to_end"]:
                            self.assertGreater(metrics[m["name"]], 0, m["name"])

    def test_leaves_git_status_unchanged(self):
        if not (ROOT / ".git").exists() or shutil.which("git") is None:
            self.skipTest("not a git checkout")
        before = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True).stdout
        self.run_bench("wreath_rand_archive", 1)
        after = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                               capture_output=True, text=True).stdout
        self.assertEqual(before, after)


if __name__ == "__main__":
    unittest.main()
