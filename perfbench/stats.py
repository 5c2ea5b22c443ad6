"""Medians, quartiles and the compare verdict.

The verdict follows the pair rule for small sandboxes: a gain is
claimed only when the new side wins at least nine tenths of at least
ten pairs (ties count for neither) and the medians differ by more than
the base side's own quartile spread.  A regression is a new median
worse than the base median by more than the metric's bound.  When the
base spread is wider than the bound the result is unresolved, unless
every new run reads better than every base run.
"""

from __future__ import annotations

import statistics

MIN_PAIRS = 10
WIN_SHARE = 0.9


def summary(values) -> dict:
    values = list(values)
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def spread(values) -> float:
    """Quartile distance as a share of the median (0 for one value)."""
    s = summary(values)
    return (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0


def verdict(base, new, *, better: str, bound: float, pairs=None) -> str:
    """``better``, ``worse``, ``unresolved`` or ``not-worse``.

    ``pairs`` are (base, new) values of runs made together; by default
    the two lists are paired in order.
    """
    sign = 1.0 if better == "higher" else -1.0
    b, n = summary(base), summary(new)
    if pairs is None:
        pairs = list(zip(base, new))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    base_iqr = b["q3"] - b["q1"]
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and sign * (n["median"] - b["median"]) > base_iqr
    ):
        return "better"
    if sign * (b["median"] - n["median"]) > bound * abs(b["median"]):
        return "worse"
    if b["median"] and base_iqr / abs(b["median"]) > bound:
        if not all(sign * (y - x) > 0 for x in base for y in new):
            return "unresolved"
    return "not-worse"
