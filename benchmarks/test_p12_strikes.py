"""P12 — self-healing at scale: near-linear edge-drop strikes.

A rerouting edge-drop strike on a spanning-tree target (star, wreath)
spends almost every drop on a bridge.  The drop path searches both
sides of each cut in lockstep and stops when the smaller side runs out,
so a drop costs time proportional to the smaller side rather than the
whole component (``repro.dynamics.adversary``).  The seeded schedules
are pinned byte for byte in ``tests/test_dynamics_adversary.py``; these
gates only measure.

Numbers from a 2-CPU Linux host (Python 3.11), one run each through
the CLI, ring, bulk backend:

* n=8192: star 1.91 s vs star-heal (drop, reroute) 16.84 s with the
  walk-then-sort drop path (8.8x); star 1.62 s vs star-heal 3.75 s with
  the lockstep search (2.3x).
* n=1e5: star-heal ``--check`` all green in 73.0 s, peak RSS 1151 MB.

Each leg is the real CLI in a fresh interpreter, timed from process
start to exit, so imports, strikes, setup and output all count.  The
ratio gate compares two legs measured back to back on the same box,
so a slow CI machine cannot skew it; the n=1e5 cell records an
absolute ceiling and stays in the local slow tier.
"""

import json
import os
import subprocess
import sys
import time

import pytest

RATIO_N = 8192
#: star-heal may cost at most 3x plain star at the same n (measured
#: 2.3x; 8.8x before the lockstep search).
HEAL_OVER_PLAIN_CEILING = 3.0

XLARGE_N = 100_000
#: The n=1e5 checked star-heal cell (measured 73.0 s).
XLARGE_CHECKED_WALL_CEILING_S = 240.0

_HEAL = ("--adversary", "drop", "--adversary-policy", "reroute")

#: One CLI run in a fresh interpreter; the last stdout line is its exit
#: code and peak RSS (the CLI's own tables come first).
_LEG = """\
import json, resource
from repro.cli import main
code = main({argv!r})
print(json.dumps({{
    "code": code,
    "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
}}))
"""


def _run_cli(*argv: str, timeout_s: float) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _LEG.format(argv=list(argv))],
        capture_output=True, text=True, env=env, timeout=timeout_s,
    )
    wall = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr[-2000:]
    leg = json.loads(proc.stdout.strip().splitlines()[-1])
    leg["wall_s"] = wall
    return leg


def _star_leg(algorithm: str, n: int, *extra: str, timeout_s: float) -> dict:
    return _run_cli(
        "-a", algorithm, "-f", "ring", "--n", str(n), "--backend", "bulk",
        *extra, timeout_s=timeout_s,
    )


@pytest.mark.slow
def test_p12_star_heal_over_plain_gate(experiment_rows, bench_engine):
    """star-heal ring n=8192 (three rerouting drop strikes) costs <= 3x
    plain star at the same n, both end to end through the CLI."""
    plain = _star_leg("star", RATIO_N, timeout_s=600)
    heal = _star_leg("star-heal", RATIO_N, *_HEAL, timeout_s=600)
    assert plain["code"] == 0 and heal["code"] == 0
    ratio = heal["wall_s"] / plain["wall_s"]
    experiment_rows(
        "P12 self-healing strikes",
        {"workload": f"star-heal ring n={RATIO_N}",
         "plain_ms": round(plain["wall_s"] * 1e3, 1),
         "heal_ms": round(heal["wall_s"] * 1e3, 1),
         "ratio": round(ratio, 2)},
    )
    bench_engine(
        "star-heal", RATIO_N, "bulk", heal["wall_s"] * 1e3,
        rss_kb=heal["rss_kb"], plain_ms=round(plain["wall_s"] * 1e3, 1),
        heal_over_plain=round(ratio, 3),
    )
    assert ratio <= HEAL_OVER_PLAIN_CEILING, (
        f"star-heal/star = {heal['wall_s']:.1f}/{plain['wall_s']:.1f} s = "
        f"{ratio:.2f}x exceeds {HEAL_OVER_PLAIN_CEILING}x at n={RATIO_N}"
    )


@pytest.mark.slow
def test_p12_xlarge_star_heal_checked(experiment_rows, bench_engine):
    """star-heal ring n=1e5 with ``--check``: every invariant green (the
    CLI exits 1 on red) under a 240 s ceiling."""
    heal = _star_leg(
        "star-heal", XLARGE_N, *_HEAL, "--check",
        timeout_s=3 * XLARGE_CHECKED_WALL_CEILING_S,
    )
    assert heal["code"] == 0, "an online invariant went red"
    experiment_rows(
        "P12 self-healing strikes",
        {"workload": f"star-heal ring n={XLARGE_N} --check",
         "plain_ms": "-", "heal_ms": round(heal["wall_s"] * 1e3, 1),
         "ratio": f"rss={heal['rss_kb'] // 1024}MB"},
    )
    bench_engine(
        "star-heal-checked", XLARGE_N, "bulk", heal["wall_s"] * 1e3,
        rss_kb=heal["rss_kb"],
    )
    assert heal["wall_s"] < XLARGE_CHECKED_WALL_CEILING_S, (
        f"checked star-heal at n={XLARGE_N} took {heal['wall_s']:.0f} s"
    )
