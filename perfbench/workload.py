"""One leg of a workload, in a fresh interpreter (started by run.py).

Roles:

* ``run``   — the workload's ``python -m repro ...`` invocation, making
  the same public calls the CLI makes (``graphs.make``, the scenario
  runner with the CLI's observers, ``measure``, the result tables);
* ``audit`` — the offline ``check-trace --jobs 1`` of the run's archive;
* ``setup`` — the ``run`` leg cut at the first ``on_run_start``, to time
  set-up alone.

``--origin`` is the parent's ``time.monotonic()`` stamp taken just
before it started this process; ``CLOCK_MONOTONIC`` is system-wide, so
stamps taken here are measured from process start.  With ``--spans
PATH`` the layers are traced (see tracer.py) and the spans are written
to PATH once, at the end.  The last stdout line is a JSON record of the
leg; the exit code is 1 when a verdict is red or the target is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

from workloads import WORKLOADS, input_seed  # noqa: E402

_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_mb() -> float:
    """Current resident set size of this process."""
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * _PAGE / 2**20


class SetupStamp:
    """A no-op round observer that stamps the first ``on_run_start``.

    Placed first in the observer list, so the stamp precedes every other
    observer's run-start work.  Takes raw rounds, so it adds no
    ``frozenset`` materialization to the round loop.
    """

    accepts_raw_rounds = True

    def __init__(self, exit_at_start: bool) -> None:
        self.exit_at_start = exit_at_start
        self.t = None
        self.rss = None

    def on_run_start(self, network) -> None:
        if self.t is not None:
            return
        self.t = time.monotonic()
        self.rss = rss_mb()
        if self.exit_at_start:
            print(json.dumps({"role": "setup", "ok": True, "setup_t": self.t}), flush=True)
            os._exit(0)

    def on_round_start(self, round_no) -> None:
        pass

    def on_round(self, record) -> None:
        pass

    def on_perturbation(self, record) -> None:
        pass

    def on_run_end(self, metrics) -> None:
        pass


def run_leg(work, seed, n, archive, span, exit_at_start) -> dict:
    """``seed`` is the input's seed (see workloads.input_seed)."""
    from repro import analysis, conformance, graphs
    from repro.analysis import print_table
    from repro.dynamics import AdversarySpec, make_adversary
    from repro.dynamics.recovery import wreath_target
    from repro.engine import resolve_backend, trace_sink_for
    from repro.registry import check_cell, get_scenario

    spec = get_scenario(work.algorithm)
    adversary = None
    if work.adversary:
        adversary = AdversarySpec(
            kind=work.adversary["kind"], rate=work.adversary["rate"],
            seed=seed, policy=work.adversary["policy"],
        )
    check_cell(
        spec, family=work.family, backend=work.backend, adversary=adversary,
        params={}, trace=False,
    )
    graph = graphs.make(work.family, n, seed=seed)
    rss_graph = rss_mb()

    stamp = SetupStamp(exit_at_start)
    observers: list = [stamp]
    sink = None
    if archive:
        check_cell(spec, trace=True)
        sink = trace_sink_for(archive)
        observers.append(sink)
    checkers = conformance.make_checkers(spec.invariants) if work.check else []
    observers.extend(checkers)
    kwargs = {"observers": observers, "backend": work.backend}
    if adversary is not None:
        kwargs["adversary"] = make_adversary(adversary)
    with span("bench.scenario"):
        try:
            result = spec.runner(graph, **kwargs)
        finally:
            if sink is not None:
                sink.close()

    row = analysis.measure(work.algorithm, work.family, graph, result).as_dict()
    with span("bench.output"):
        if adversary is not None:
            row["adversary"] = adversary.label()
        row["backend"] = resolve_backend(work.backend)
        print_table([row], title=f"{spec.description} on {work.family} (n={row['n']})")
        recovery = getattr(result, "recovery", None)
        if recovery is not None:
            print_table([recovery.as_dict()], title="recovery")
        verdicts = [c.verdict() for c in checkers]
        if verdicts:
            print_table([{v.invariant: v.cell for v in verdicts}], title="invariants")
    with span("bench.check"):
        if work.algorithm == "wreath":
            target_ok = bool(wreath_target(result.final_graph()))
        else:
            target_ok = row["final_diameter"] <= 2
        strikes = getattr(result, "strikes", None) or []
    return {
        "role": "run",
        "ok": target_ok and all(v.ok for v in verdicts),
        "verdicts": {v.invariant: v.cell for v in verdicts},
        "target_ok": target_ok,
        "n": row["n"],
        "counts": {
            key: row[key]
            for key in ("rounds", "total_activations", "max_activated_edges",
                        "max_activated_degree")
        },
        "final_diameter": row["final_diameter"],
        "setup_t": stamp.t,
        "rss_graph_mb": rss_graph,
        "rss_setup_mb": stamp.rss,
        "strikes": len(strikes),
        "damaged": sum(1 for s in strikes if s.damaged),
    }


def audit_leg(work, seed, n, archive, span) -> dict:
    from repro import conformance, graphs
    from repro.analysis import print_table
    from repro.registry import get_scenario

    spec = get_scenario(work.algorithm)
    graph = graphs.make(work.family, n, seed=seed)
    verdicts = conformance.check_trace_parallel(
        graph, archive, spec.invariants, jobs=1, baselines="chained",
    )
    with span("bench.output"):
        print_table(
            [{v.invariant: v.cell for v in verdicts}],
            title=f"offline audit: {archive} ({work.algorithm}/{work.family} n={n})",
        )
    return {
        "role": "audit",
        "ok": bool(verdicts) and all(v.ok for v in verdicts),
        "verdicts": {v.invariant: v.cell for v in verdicts},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="benchmark seed")
    parser.add_argument("--input", type=int, default=0, help="input index within the seed")
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--role", choices=("run", "audit", "setup"), default="run")
    parser.add_argument("--origin", type=float, default=None)
    parser.add_argument("--archive", default=None)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    origin = args.origin if args.origin is not None else time.monotonic()
    work = WORKLOADS[args.workload]
    n = args.n or work.n

    tracer = None
    if args.spans:
        from tracer import Tracer, install

        tracer = Tracer(origin)
        tracer.enter("bench.imports")
    sys.path.insert(0, str(ROOT / "src"))
    import networkx
    import numpy

    import repro.analysis  # noqa: F401  (the CLI's import set)
    import repro.cli  # noqa: F401
    if tracer is not None:
        tracer.exit()
        install(tracer)

    def span(name):
        return tracer.span(name) if tracer is not None else contextlib.nullcontext()

    seed = input_seed(args.seed, args.input)
    if args.role == "audit":
        record = audit_leg(work, seed, n, args.archive, span)
    else:
        record = run_leg(
            work, seed, n, args.archive if work.archive else None, span,
            exit_at_start=args.role == "setup",
        )
    record["versions"] = {"numpy": numpy.__version__, "networkx": networkx.__version__}
    if tracer is not None:
        tracer.finish()
        from provenance import stamp

        dump = tracer.dump()
        dump["provenance"] = stamp(ROOT, args.seed, record["versions"])
        dump["input"] = args.input
        dump["workload"] = work.name
        dump["role"] = args.role
        with open(args.spans, "w") as f:
            json.dump(dump, f)
    print(json.dumps(record), flush=True)
    return 0 if record["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
