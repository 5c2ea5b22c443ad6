"""External (adversarial) dynamics: perturbation schedules over a run.

The paper's model is *actively* dynamic — the algorithm alone reshapes
the topology.  This module adds the complementary *externally* dynamic
behaviour studied by the passively/adversarially dynamic literature
(Emek & Uitto's finite-state dynamic networks, Parzych & Daymude's
adaptive self-organization): an :class:`Adversary` emits per-round
:class:`Perturbation` batches — edge drops, node crashes, node joins —
that the runner applies at round boundaries, outside the model's
legality rules (DESIGN.md note 8).

Every adversary is seeded and deterministic: the same (initial network,
program, adversary seed) always produces the same perturbation sequence,
so perturbed runs sweep in parallel byte-identically to serial ones.

Connectivity policies
---------------------
The engine's algorithms assume a connected network, so each stochastic
adversary takes a ``policy``:

* ``"skip"`` — a drop/crash that would disconnect the current network is
  skipped (mirrors the engine's legality guard: connectivity is never
  broken);
* ``"reroute"`` — the drop/crash happens, and the adversary immediately
  re-wires the cut with fresh external edges between the separated
  components (models churn in an overlay: a failed link or relay is
  replaced by a new, different link).

Adversary-created edges fold into the external baseline edge set
``E(1)`` (they were not activated by the algorithm, so they must not
count toward the paper's activation measures).
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from itertools import islice
from typing import Mapping

from ..engine.actions import edge_key
from ..errors import ConfigurationError

POLICIES = ("skip", "reroute")

ADVERSARY_KINDS = ("drop", "crash", "churn")


@dataclass(frozen=True)
class Perturbation:
    """One round boundary's worth of external events.

    ``round`` is the round at whose *beginning* the events are visible.
    ``drops``/``adds`` are canonical edge keys; ``crashes`` is a tuple of
    uids; ``joins`` is a tuple of ``(uid, attach_uids)`` pairs — the new
    node joins with external edges to each uid in ``attach_uids``.
    """

    round: int
    drops: tuple = ()
    adds: tuple = ()
    crashes: tuple = ()
    joins: tuple = ()

    def __bool__(self) -> bool:
        return bool(self.drops or self.adds or self.crashes or self.joins)

    def summary(self) -> str:
        parts = []
        if self.drops:
            parts.append(f"-{len(self.drops)}e")
        if self.adds:
            parts.append(f"+{len(self.adds)}e")
        if self.crashes:
            parts.append(f"-{len(self.crashes)}v")
        if self.joins:
            parts.append(f"+{len(self.joins)}v")
        return f"r{self.round}:" + ",".join(parts or ["noop"])


@dataclass(frozen=True)
class AdversarySpec:
    """A picklable, hashable description of an adversary.

    Sweep cells and CLI flags carry specs, not adversary instances: the
    instance (with its RNG state) is constructed *inside* each cell via
    :func:`make_adversary`, which is what keeps parallel perturbed sweeps
    byte-identical to serial ones.
    """

    kind: str = "drop"
    rate: float = 0.1
    seed: int = 1
    policy: str = "skip"
    start: int = 5
    period: int = 5

    def __post_init__(self) -> None:
        if self.kind not in ADVERSARY_KINDS:
            raise ConfigurationError(
                f"unknown adversary kind {self.kind!r}; known: {ADVERSARY_KINDS}"
            )
        if self.policy not in POLICIES:
            raise ConfigurationError(
                f"unknown adversary policy {self.policy!r}; known: {POLICIES}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigurationError(f"adversary rate must be in [0, 1], got {self.rate}")
        if self.period < 1 or self.start < 1:
            raise ConfigurationError("adversary start/period must be >= 1")

    def label(self) -> str:
        """Deterministic identifier covering every spec field, so a row's
        recorded adversary is reproducible from its label alone."""
        return (
            f"{self.kind}(rate={self.rate:g},seed={self.seed},"
            f"policy={self.policy},start={self.start},period={self.period})"
        )


def make_adversary(spec) -> "Adversary":
    """Instantiate a fresh adversary from a spec (or a kind string)."""
    if isinstance(spec, Adversary):
        return spec
    if isinstance(spec, str):
        spec = AdversarySpec(kind=spec)
    if not isinstance(spec, AdversarySpec):
        raise ConfigurationError(f"cannot build an adversary from {spec!r}")
    common = dict(
        rate=spec.rate, seed=spec.seed, policy=spec.policy,
        start=spec.start, period=spec.period,
    )
    if spec.kind == "drop":
        return EdgeDropAdversary(**common)
    if spec.kind == "crash":
        return CrashAdversary(**common)
    return ChurnSchedule(**common)


# ----------------------------------------------------------------------
# graph helpers (operate on the Network read protocol: nodes/neighbors)
# ----------------------------------------------------------------------


def _mutable_adj(network) -> dict:
    """A private adjacency copy the policy machinery may mutate."""
    return {u: set(network.neighbors(u)) for u in network.nodes}


def _component(adj: dict, start) -> set:
    """The component of ``start``."""
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def _components(adj: dict) -> dict:
    """Map every node to its component's sorted member list (one list
    object shared by all members of the component)."""
    comp_of: dict = {}
    for start in adj:
        if start not in comp_of:
            members = sorted(_component(adj, start))
            for w in members:
                comp_of[w] = members
    return comp_of


def _walk(adj: dict, start, seen: set):
    """Depth-first search from ``start`` that yields after every
    adjacency step, so two searches can run in lockstep."""
    stack = [start]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
            yield v


_DONE = object()


def _cut_side(adj: dict, u, v) -> tuple | None:
    """Whether ``u`` and ``v`` are separated, in time proportional to
    the smaller side.

    Searches from ``u`` and ``v`` in lockstep, one adjacency step each.
    Returns None the moment a search reaches a node the other has seen
    (still connected); otherwise ``(end, side)`` for the search that ran
    out first: its start node and the full node set of its side.
    """
    seen_u, seen_v = {u}, {v}
    walk_u, walk_v = _walk(adj, u, seen_u), _walk(adj, v, seen_v)
    while True:
        w = next(walk_u, _DONE)
        if w is _DONE:
            return u, seen_u
        if w in seen_v:
            return None
        w = next(walk_v, _DONE)
        if w is _DONE:
            return v, seen_v
        if w in seen_u:
            return None


def _connected(adj: dict) -> bool:
    if len(adj) <= 1:
        return True
    return len(_component(adj, next(iter(adj)))) == len(adj)


def _reroute_pair(comp_a: set, comp_b: set, forbidden) -> tuple | None:
    """The lexicographically smallest cross-component pair != forbidden."""
    for a in sorted(comp_a):
        for b in sorted(comp_b):
            if edge_key(a, b) != forbidden:
                return edge_key(a, b)
    return None


# ----------------------------------------------------------------------
# adversaries
# ----------------------------------------------------------------------


class Adversary:
    """Base protocol: a seeded generator of per-round perturbations.

    Subclasses implement :meth:`strike` — produce one perturbation from
    the current network state.  :meth:`perturb` is what the runner calls
    every round boundary; it gates strikes on ``start``/``period`` so
    that off-rounds cost one integer comparison.  :meth:`reset` rewinds
    the RNG so one instance can drive several identical runs.
    """

    name = "adversary"

    def __init__(self, rate: float = 0.1, seed: int = 1, *,
                 policy: str = "skip", start: int = 5, period: int = 5) -> None:
        if policy not in POLICIES:
            raise ConfigurationError(
                f"unknown adversary policy {policy!r}; known: {POLICIES}"
            )
        self.rate = rate
        self.seed = seed
        self.policy = policy
        self.start = start
        self.period = period
        self.reset()

    def reset(self) -> None:
        """Rewind to the initial RNG state (fresh run, same schedule)."""
        self._rng = random.Random(self.seed)
        # High-watermark of every integer uid ever observed or created.
        # Fresh join uids must clear it: a crashed node's uid may exceed
        # every *surviving* uid, and uids are never reused.
        self._uid_floor = -1

    def perturb(self, network, round_no: int) -> Perturbation | None:
        """The runner's round-boundary hook (gated on start/period)."""
        if round_no < self.start or (round_no - self.start) % self.period:
            return None
        return self.strike(network, round_no)

    def strike(self, network, round_no: int) -> Perturbation | None:
        """Produce one perturbation from the current state (ungated)."""
        raise NotImplementedError

    # -- shared policy machinery ---------------------------------------

    def _drop_edges(self, network, candidates: list, adj: dict) -> tuple[list, list]:
        """Apply the connectivity policy to an ordered candidate list.

        Mutates ``adj`` as drops/reroutes are accepted, so later
        candidates see earlier decisions.  Returns (drops, adds).

        Invariant: a node's strike-start component does not change
        during the strike — "skip" restores every disconnecting drop and
        "reroute" reconnects the two sides of every cut it makes.  So
        the components are computed once, and the far side of a cut is
        its component minus the side the lockstep search exhausted.
        ``_reroute_pair`` only reads the two smallest labels of each
        side, so a drop costs time proportional to the smaller side.
        """
        drops: list = []
        adds: list = []
        comp_of = _components(adj) if self.policy == "reroute" else None
        for u, v in candidates:
            key = edge_key(u, v)
            adj[u].discard(v)
            adj[v].discard(u)
            cut = _cut_side(adj, u, v)
            if cut is None:
                drops.append(key)
                continue
            repair = None
            if comp_of is not None:
                end, side = cut
                near = heapq.nsmallest(2, side)
                far = list(islice((w for w in comp_of[u] if w not in side), 2))
                repair = _reroute_pair(*((near, far) if end == u else (far, near)), key)
            if repair is None:  # skip, or two singletons: nothing else can reconnect
                adj[u].add(v)
                adj[v].add(u)
                continue
            a, b = repair
            adj[a].add(b)
            adj[b].add(a)
            drops.append(key)
            adds.append(repair)
        return drops, adds

    def _crash_nodes(self, network, candidates: list, adj: dict) -> tuple[list, list]:
        """Crash candidates under the connectivity policy (mutates adj)."""
        crashes: list = []
        adds: list = []
        for u in candidates:
            if len(adj) <= 2:  # never crash the network down to nothing
                break
            removed = adj.pop(u)
            for v in removed:
                adj[v].discard(u)
            if not _connected(adj):
                if self.policy == "skip":
                    adj[u] = removed
                    for v in removed:
                        adj[v].add(u)
                    continue
                # reroute: chain the shattered components back together
                comps = []
                seen: set = set()
                for w in sorted(adj):
                    if w not in seen:
                        comp = _component(adj, w)
                        seen |= comp
                        comps.append(min(comp))
                anchor = comps[0]
                for other in comps[1:]:
                    adj[anchor].add(other)
                    adj[other].add(anchor)
                    adds.append(edge_key(anchor, other))
            crashes.append(u)
        return crashes, adds


class EdgeDropAdversary(Adversary):
    """Drops each active edge independently with probability ``rate``."""

    name = "drop"

    def strike(self, network, round_no: int) -> Perturbation | None:
        rng = self._rng
        candidates = [e for e in sorted(network.edges()) if rng.random() < self.rate]
        if not candidates:
            return None
        adj = _mutable_adj(network)
        drops, adds = self._drop_edges(network, candidates, adj)
        if not drops:
            return None
        return Perturbation(round=round_no, drops=tuple(drops), adds=tuple(adds))


class CrashAdversary(Adversary):
    """Crashes each node independently with probability ``rate``."""

    name = "crash"

    def strike(self, network, round_no: int) -> Perturbation | None:
        rng = self._rng
        candidates = [u for u in sorted(network.nodes) if rng.random() < self.rate]
        if not candidates:
            return None
        adj = _mutable_adj(network)
        crashes, adds = self._crash_nodes(network, candidates, adj)
        if not crashes:
            return None
        return Perturbation(round=round_no, crashes=tuple(crashes), adds=tuple(adds))


class ChurnSchedule(Adversary):
    """Concurrent churn: crashes like :class:`CrashAdversary` plus joins.

    Each strike joins ``Binomial(1, rate)`` fresh nodes (new maximal
    integer UIDs), each attached to ``fanout`` distinct surviving nodes,
    and crashes existing nodes at the same ``rate`` under the policy.
    """

    name = "churn"

    def __init__(self, rate: float = 0.1, seed: int = 1, *,
                 policy: str = "skip", start: int = 5, period: int = 5,
                 fanout: int = 2) -> None:
        self.fanout = fanout
        super().__init__(rate, seed, policy=policy, start=start, period=period)

    def strike(self, network, round_no: int) -> Perturbation | None:
        rng = self._rng
        candidates = [u for u in sorted(network.nodes) if rng.random() < self.rate]
        wants_join = rng.random() < self.rate
        adj = _mutable_adj(network)
        # Observe the uid watermark before anything crashes this strike:
        # uids are never reused, even after their node is long gone.
        ints = [u for u in adj if isinstance(u, int)]
        all_int = len(ints) == len(adj)
        if ints:
            self._uid_floor = max(self._uid_floor, max(ints))
        crashes, adds = self._crash_nodes(network, candidates, adj)
        joins: list = []
        if wants_join:
            if not all_int:
                raise ConfigurationError(
                    "node joins require integer UIDs so fresh labels stay comparable"
                )
            uid = self._uid_floor + 1
            self._uid_floor = uid
            survivors = sorted(adj)
            attach = tuple(rng.sample(survivors, min(self.fanout, len(survivors))))
            joins.append((uid, attach))
        if not crashes and not joins:
            return None
        return Perturbation(
            round=round_no,
            adds=tuple(adds),
            crashes=tuple(crashes),
            joins=tuple(joins),
        )


class ScriptedAdversary(Adversary):
    """A deterministic one-shot schedule: ``{round: events}``.

    ``events`` is either a :class:`Perturbation` or a mapping with any of
    the keys ``drops``/``adds``/``crashes``/``joins``.  No connectivity
    policy is applied — the script is trusted verbatim (the engine's
    guard still catches a script that disconnects a guarded run).
    """

    name = "scripted"

    def __init__(self, script: Mapping | None = None) -> None:
        self._script = dict(script or {})
        super().__init__(rate=0.0, seed=0)

    def perturb(self, network, round_no: int) -> Perturbation | None:
        return self.strike(network, round_no)

    def strike(self, network, round_no: int) -> Perturbation | None:
        events = self._script.get(round_no)
        if events is None:
            return None
        if isinstance(events, Perturbation):
            if events.round != round_no:
                events = Perturbation(
                    round=round_no, drops=events.drops, adds=events.adds,
                    crashes=events.crashes, joins=events.joins,
                )
            return events
        return Perturbation(
            round=round_no,
            drops=tuple(edge_key(u, v) for u, v in events.get("drops", ())),
            adds=tuple(edge_key(u, v) for u, v in events.get("adds", ())),
            crashes=tuple(events.get("crashes", ())),
            joins=tuple((uid, tuple(att)) for uid, att in events.get("joins", ())),
        )
