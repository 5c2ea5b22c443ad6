"""Tests for the adversary schedules (repro.dynamics.adversary)."""

import hashlib
import random

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dynamics import (
    AdversarySpec,
    ChurnSchedule,
    CrashAdversary,
    EdgeDropAdversary,
    Perturbation,
    ScriptedAdversary,
    make_adversary,
)
from repro.dynamics.adversary import _cut_side, _reroute_pair
from repro.dynamics.scenarios import run_star_self_healing, run_wreath_self_healing
from repro.engine import Network
from repro.engine.actions import edge_key
from repro.errors import ConfigurationError
from repro.graphs import families


def ring_network(n: int = 12) -> Network:
    return Network(nx.cycle_graph(n))


def star_network(n: int = 12) -> Network:
    return Network(nx.star_graph(n - 1))


class TestSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="kind"):
            AdversarySpec(kind="meteor")

    def test_rejects_unknown_policy(self):
        with pytest.raises(ConfigurationError, match="policy"):
            AdversarySpec(policy="hope")

    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError, match="rate"):
            AdversarySpec(rate=1.5)

    def test_label_covers_every_field(self):
        spec = AdversarySpec(kind="drop", rate=0.25, seed=9, policy="reroute")
        assert spec.label() == "drop(rate=0.25,seed=9,policy=reroute,start=5,period=5)"
        # differently scheduled adversaries must be distinguishable in rows
        other = AdversarySpec(kind="drop", rate=0.25, seed=9, policy="reroute", start=2, period=2)
        assert other.label() != spec.label()

    def test_make_adversary_from_kind_string(self):
        assert isinstance(make_adversary("drop"), EdgeDropAdversary)
        assert isinstance(make_adversary("crash"), CrashAdversary)
        assert isinstance(make_adversary("churn"), ChurnSchedule)

    def test_make_adversary_passes_instances_through(self):
        adv = EdgeDropAdversary(0.5, seed=3)
        assert make_adversary(adv) is adv

    def test_spec_is_hashable_and_picklable(self):
        import pickle

        spec = AdversarySpec(kind="crash", rate=0.2, seed=4)
        assert hash(spec) == hash(pickle.loads(pickle.dumps(spec)))


class TestGating:
    def test_no_strike_before_start(self):
        adv = EdgeDropAdversary(1.0, seed=1, start=10, period=5)
        assert adv.perturb(ring_network(), 9) is None

    def test_period_gates_rounds(self):
        adv = EdgeDropAdversary(1.0, seed=1, start=4, period=3)
        assert adv.perturb(ring_network(), 5) is None
        assert adv.perturb(ring_network(), 6) is None
        assert adv.perturb(ring_network(), 7) is not None

    def test_strike_bypasses_gating(self):
        adv = EdgeDropAdversary(1.0, seed=1, start=100, period=50)
        assert adv.strike(ring_network(), 1) is not None


class TestEdgeDrop:
    def test_deterministic_given_seed(self):
        a = EdgeDropAdversary(0.5, seed=3)
        b = EdgeDropAdversary(0.5, seed=3)
        assert a.strike(ring_network(), 5) == b.strike(ring_network(), 5)

    def test_reset_rewinds_the_schedule(self):
        adv = EdgeDropAdversary(0.5, seed=3)
        first = adv.strike(ring_network(), 5)
        adv.strike(ring_network(), 6)
        adv.reset()
        assert adv.strike(ring_network(), 5) == first

    def test_different_seeds_differ(self):
        dense = Network(nx.complete_graph(12))
        a = EdgeDropAdversary(0.5, seed=3).strike(dense, 5)
        dense = Network(nx.complete_graph(12))
        b = EdgeDropAdversary(0.5, seed=4).strike(dense, 5)
        assert a != b

    def test_skip_policy_never_disconnects(self):
        net = ring_network(16)
        adv = EdgeDropAdversary(1.0, seed=1, policy="skip")
        pert = adv.strike(net, 5)
        net.apply_external(drops=pert.drops, adds=pert.adds)
        assert net.is_connected()

    def test_skip_policy_on_a_tree_is_powerless(self):
        # Every star edge is a bridge: nothing can be dropped.
        adv = EdgeDropAdversary(1.0, seed=1, policy="skip")
        assert adv.strike(star_network(10), 5) is None

    def test_reroute_policy_rewires_tree_drops(self):
        net = star_network(10)
        adv = EdgeDropAdversary(1.0, seed=1, policy="reroute")
        pert = adv.strike(net, 5)
        assert pert.drops and len(pert.adds) == len(pert.drops)
        net.apply_external(drops=pert.drops, adds=pert.adds)
        assert net.is_connected()

    def test_rate_zero_is_silent(self):
        assert EdgeDropAdversary(0.0, seed=1).strike(ring_network(), 5) is None


class TestCrash:
    def test_crash_preserves_connectivity_skip(self):
        net = Network(nx.path_graph(12))
        adv = CrashAdversary(0.9, seed=2, policy="skip")
        pert = adv.strike(net, 5)
        if pert is not None:
            net.apply_external(crashes=pert.crashes, adds=pert.adds)
        assert net.is_connected()

    def test_crash_reroute_reconnects(self):
        net = Network(nx.path_graph(12))
        adv = CrashAdversary(0.6, seed=2, policy="reroute")
        pert = adv.strike(net, 5)
        assert pert is not None and pert.crashes
        net.apply_external(crashes=pert.crashes, adds=pert.adds)
        assert net.is_connected()
        assert all(u not in net.nodes for u in pert.crashes)

    def test_never_crashes_below_two_nodes(self):
        net = Network(nx.path_graph(2))
        adv = CrashAdversary(1.0, seed=2, policy="reroute")
        assert adv.strike(net, 5) is None


class TestChurn:
    def test_joins_get_fresh_max_uids(self):
        net = ring_network(8)
        adv = ChurnSchedule(0.9, seed=5, policy="reroute")
        pert = adv.strike(net, 5)
        assert pert is not None
        for uid, attach in pert.joins:
            assert uid >= 8
            assert attach  # joined nodes arrive connected
        net.apply_external(crashes=pert.crashes, adds=pert.adds, joins=pert.joins)
        assert net.is_connected()

    def test_join_uids_never_collide_across_strikes(self):
        net = ring_network(8)
        adv = ChurnSchedule(0.9, seed=5, policy="reroute")
        seen = set()
        for r in (5, 10, 15, 20):
            pert = adv.strike(net, r)
            if pert is None:
                continue
            for uid, attach in pert.joins:
                assert uid not in seen
                seen.add(uid)
            net.apply_external(
                drops=pert.drops, adds=pert.adds, crashes=pert.crashes, joins=pert.joins
            )
        assert net.is_connected()


class TestScripted:
    def test_script_fires_on_named_rounds_only(self):
        adv = ScriptedAdversary({5: {"drops": [(0, 1)]}})
        net = ring_network(6)
        assert adv.perturb(net, 4) is None
        pert = adv.perturb(net, 5)
        assert pert.drops == ((0, 1),)
        assert adv.perturb(net, 6) is None

    def test_script_accepts_perturbation_values(self):
        pert = Perturbation(round=3, crashes=(2,))
        adv = ScriptedAdversary({3: pert})
        assert adv.perturb(ring_network(), 3).crashes == (2,)

    def test_script_normalizes_edge_keys(self):
        adv = ScriptedAdversary({2: {"drops": [(4, 1)], "joins": [(99, [0, 2])]}})
        pert = adv.perturb(ring_network(), 2)
        assert pert.drops == ((1, 4),)
        assert pert.joins == ((99, (0, 2)),)


# ----------------------------------------------------------------------
# schedule identity: the lockstep drop path against the walk-then-sort
# drop path it replaced
# ----------------------------------------------------------------------

# The two functions below are a verbatim copy of the replaced drop path,
# kept only as the reference the rewrite must match byte for byte.


def _component(adj: dict, start, stop_at=None) -> set:
    """The component of ``start``; with ``stop_at``, abandon the walk the
    moment that node is reached (early-exit reachability test)."""
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                if v == stop_at:
                    seen.add(v)
                    return seen
                seen.add(v)
                stack.append(v)
    return seen


def _drop_edges(self, network, candidates: list, adj: dict) -> tuple[list, list]:
    """Apply the connectivity policy to an ordered candidate list.

    Mutates ``adj`` as drops/reroutes are accepted, so later
    candidates see earlier decisions.  Returns (drops, adds).
    """
    drops: list = []
    adds: list = []
    for u, v in candidates:
        adj[u].discard(v)
        adj[v].discard(u)
        # Early-exit walk: on a non-bridge (the common case) this
        # stops as soon as it finds v, instead of scanning the graph.
        comp_u = _component(adj, u, stop_at=v)
        if v in comp_u:
            drops.append(edge_key(u, v))
            continue
        if self.policy == "skip":
            adj[u].add(v)
            adj[v].add(u)
            continue
        comp_v = _component(adj, v)
        repair = _reroute_pair(comp_u, comp_v, edge_key(u, v))
        if repair is None:  # two singletons: nothing else can reconnect
            adj[u].add(v)
            adj[v].add(u)
            continue
        a, b = repair
        adj[a].add(b)
        adj[b].add(a)
        drops.append(edge_key(u, v))
        adds.append(repair)
    return drops, adds


class _OracleEdgeDrop(EdgeDropAdversary):
    _drop_edges = _drop_edges


def _shape(kind: str, n: int, rng: random.Random) -> nx.Graph:
    if kind == "tree":
        g = nx.Graph()
        g.add_node(0)
        g.add_edges_from((i, rng.randrange(i)) for i in range(1, n))
        return g
    if kind == "ring":
        return nx.cycle_graph(max(n, 3))
    if kind == "star":
        return nx.star_graph(n - 1)
    if kind == "path":
        return nx.path_graph(n)
    return nx.gnp_random_graph(n, rng.choice((0.1, 0.2, 0.4)), seed=rng.randrange(2**32))


def _shuffled(g: nx.Graph, rng: random.Random) -> nx.Graph:
    labels = rng.sample(range(10 * g.number_of_nodes() + 10), g.number_of_nodes())
    return nx.relabel_nodes(g, dict(zip(g.nodes, labels)))


_KINDS = ("tree", "ring", "star", "path", "gnp")


@st.composite
def _strike_targets(draw) -> nx.Graph:
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(_KINDS), min_size=1, max_size=3))
    parts = [_shape(kind, draw(st.integers(2, 30)), rng) for kind in kinds]
    # several kinds make a disconnected union
    return _shuffled(nx.disjoint_union_all(parts), rng)


@given(
    graph=_strike_targets(),
    policy=st.sampled_from(("skip", "reroute")),
    rate=st.sampled_from((0.1, 0.5, 1.0)),
    seed=st.integers(0, 2**16),
)
def test_strike_schedule_matches_the_replaced_drop_path(graph, policy, rate, seed):
    new = EdgeDropAdversary(rate, seed=seed, policy=policy)
    old = _OracleEdgeDrop(rate, seed=seed, policy=policy)
    net = Network(graph, require_connected=False)
    for round_no in (5, 10, 15):
        pert = new.strike(net, round_no)
        assert pert == old.strike(net, round_no)
        if pert is not None:
            net.apply_external(drops=pert.drops, adds=pert.adds)


def _adjacency(g: nx.Graph) -> dict:
    return {u: set(g.neighbors(u)) for u in g.nodes}


class TestCutSide:
    def test_bridge_returns_the_exhausted_smaller_side(self):
        adj = _adjacency(nx.path_graph(10))
        adj[7].discard(8)
        adj[8].discard(7)
        assert _cut_side(adj, 7, 8) == (8, {8, 9})

    def test_leaf_drop_stops_at_the_leaf(self):
        adj = _adjacency(nx.star_graph(50))
        adj[0].discard(3)
        adj[3].discard(0)
        assert _cut_side(adj, 0, 3) == (3, {3})


#: sha256 of ``repr`` of the strike perturbations, recorded with the
#: walk-then-sort drop path: any change to a seeded schedule fails here.
_GOLDEN_SCHEDULES = {
    ("star", 1): "4ec0b1aa57a5c78059f745692fb2e76ad03e291859b2a3741ccee1889452fe92",
    ("star", 2): "246a2fec8e19c99b7e102c380e81da681ed3a66f81229fc593cd0cee2abac1ce",
    ("star", 3): "bd9dec9ec3675686bdd7d2a94aeb6146ddaf333557bb9abf146548cf74f1ebe2",
    ("wreath", 1): "6ea983f54183b6404691e32c56aa329ac7f7787c07af7d2dafb4fa41f1fcd176",
    ("wreath", 2): "e29bb5a6b6e479c6c36687a46d51460aeab5f464831d3903b4279ea729fc1581",
    ("wreath", 3): "c6f615f76e9585601370e9ac4814b33bd13c35199f194b0344e1f7b71ac76b13",
}

_HEALERS = {"star": run_star_self_healing, "wreath": run_wreath_self_healing}


@pytest.mark.parametrize("scenario,seed", sorted(_GOLDEN_SCHEDULES))
def test_self_healing_schedules_are_golden(scenario, seed):
    spec = AdversarySpec(kind="drop", rate=0.1, seed=seed, policy="reroute")
    result = _HEALERS[scenario](families.make("ring", 256), adversary=spec)
    perts = tuple(record.perturbation for record in result.strikes)
    digest = hashlib.sha256(repr(perts).encode()).hexdigest()
    assert digest == _GOLDEN_SCHEDULES[scenario, seed]
