"""The benchmark's workloads: what each one runs, and why.

Each workload is one `repro` CLI invocation (plus, for the archive
workload, the offline ``check-trace`` audit of what it wrote), run by
workload.py in a fresh interpreter.  The benchmark seed picks
:data:`INPUTS` inputs per run: input ``i`` of seed ``s`` uses the UID
permutation ``graphs.make(..., seed=s * INPUTS + i + 1)`` and, for the
self-healing workload, the same number as the adversary's seed.  Every
benchmark seed, 0 included, thus gives random UIDs, and no two seeds
share an input.  Averaging the paper's counts over several inputs keeps
their run-to-run spread well inside the bounds; one input alone moves
the star's round count by whole 5-round phases.

The sizes are set so that every input of a run fits in ``run_seconds``
on a 2-CPU host, with time left for repeats; this is well below the
CLI's xlarge cell (n = 10^5 takes 25-38 s for one star input there).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    algorithm: str
    family: str
    n: int
    backend: str
    check: bool  # online --check (the scenario's declared invariants)
    archive: bool  # --trace-out <tmp>.rtb, then check-trace --jobs 1
    adversary: dict | None  # AdversarySpec fields besides the seed
    why: str


#: Distinct inputs per benchmark run.
INPUTS = 4


def input_seed(seed: int, index: int) -> int:
    """The UID permutation (and adversary) seed of input ``index``."""
    return seed * INPUTS + index + 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="star_xl_checked",
            algorithm="star", family="ring", n=20_000, backend="bulk",
            check=True, archive=False, adversary=None,
            why="the xlarge-tier checked star cell, scaled to n=20000: the star kernel "
                "owns every round, so apply, metrics, the array checkers and setup dominate",
        ),
        Workload(
            name="wreath_rand_archive",
            algorithm="wreath", family="ring", n=1024, backend="bulk",
            check=False, archive=True, adversary=None,
            why="barrier run: per-node compose/transition, runner bookkeeping "
                "and the rebuild assist; conformance reads a .rtb archive offline",
        ),
        Workload(
            name="star_heal_strikes",
            algorithm="star-heal", family="ring", n=4096, backend="bulk",
            check=True, archive=False,
            adversary={"kind": "drop", "policy": "reroute", "rate": 0.1},
            why="three rerouting edge-drop strikes between engine runs: "
                "EdgeDropAdversary.strike dominates, engine rounds are small",
        ),
    )
}
