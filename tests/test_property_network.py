"""Property suite: Network invariants under random action sequences.

Random connected graphs are driven through random *mixed* (legal and
illegal) ``RoundActions`` batches, checking after every round:

* adjacency symmetry — ``v in N(u)`` iff ``u in N(v)``;
* original-edge immutability — ``E(1)`` never changes under ``apply``;
* the incremental :class:`ConnectivityTracker` always agrees with a
  fresh networkx recomputation on the snapshot graph;
* strict mode rejects the first illegal action *atomically* — the
  network state (nodes, adjacency, active edges, round counter) is
  untouched by a rejected batch;
* the shared array union-find ``_uf_fold`` agrees with networkx
  components batch by batch;
* the dense backend's :class:`DenseNetwork` stays observably equal to
  the reference :class:`Network` under the same action stream (the
  state-level arm of the cross-backend differential oracle).
"""

import networkx as nx
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from repro.engine import ConnectivityTracker, Network, RoundActions, edge_key  # noqa: E402
from repro.engine.dense import DenseConnectivityTracker, DenseNetwork, _uf_fold  # noqa: E402
from repro.errors import ProtocolViolation  # noqa: E402


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------


@st.composite
def connected_graphs(draw):
    """A random connected graph: random spanning tree + extra edges."""
    n = draw(st.integers(min_value=2, max_value=20))
    parents = [draw(st.integers(min_value=0, max_value=i - 1)) for i in range(1, n)]
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from((i, parents[i - 1]) for i in range(1, n))
    extra = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=n,
        )
    )
    g.add_edges_from((u, v) for u, v in extra if u != v)
    return g


@st.composite
def action_rounds(draw, n):
    """A sequence of per-round request batches, legal and illegal mixed.

    Requests are raw ``(actor, u, v)`` triples over node ids ``0..n``
    (``n`` itself is an unknown node), so self-loops, unknown nodes,
    already-active edges, distance>2 pairs, and activate/deactivate
    conflicts all occur naturally.
    """
    node = st.integers(min_value=0, max_value=n)  # n is unknown on purpose
    request = st.tuples(node, node)
    rounds = draw(
        st.lists(
            st.tuples(
                st.lists(request, max_size=6),  # activation requests
                st.lists(request, max_size=4),  # deactivation requests
            ),
            min_size=1,
            max_size=8,
        )
    )
    return rounds


def _batch(acts, dacts) -> RoundActions:
    actions = RoundActions()
    for u, v in acts:
        actions.request_activation(u, u, v)
    for u, v in dacts:
        actions.request_deactivation(u, u, v)
    return actions


def _observable_state(net) -> tuple:
    """Everything a program or the runner can see of a network."""
    return (
        set(net.nodes),
        {u: set(net.neighbors(u)) for u in net.nodes},
        set(net.edges()),
        set(net.original_edges),
        set(net.activated_edges()),
        net.num_active_edges,
        net.round,
    )


# ----------------------------------------------------------------------
# invariants
# ----------------------------------------------------------------------


@given(data=st.data())
def test_invariants_under_random_actions(data):
    graph = data.draw(connected_graphs())
    rounds = data.draw(action_rounds(graph.number_of_nodes()))
    net = Network(graph)
    tracker = ConnectivityTracker(net)
    original = set(net.original_edges)

    for acts, dacts in rounds:
        activations, deactivations = net.apply(_batch(acts, dacts), strict=False)
        tracker.update(activations, deactivations)

        # Adjacency symmetry, and neighbors() consistency with edges().
        for u in net.nodes:
            for v in net.neighbors(u):
                assert u in net.neighbors(v)
                assert net.has_edge(u, v) and net.has_edge(v, u)
        assert {edge_key(u, v) for u in net.nodes for v in net.neighbors(u)} == set(
            net.edges()
        )

        # E(1) is immutable under model-rule application.
        assert set(net.original_edges) == original

        # Incremental connectivity agrees with a fresh recomputation.
        snapshot = net.snapshot_graph()
        assert tracker.is_connected() == nx.is_connected(snapshot)

        # The effective sets are disjoint and were applied.
        assert not activations & deactivations
        for e in activations:
            assert net.has_edge(*e)
        for e in deactivations:
            assert not net.has_edge(*e)


@given(data=st.data())
def test_strict_rejection_leaves_state_untouched(data):
    graph = data.draw(connected_graphs())
    n = graph.number_of_nodes()
    net = Network(graph)

    # Drive a few legal-ish rounds first so state is not pristine.
    for acts, dacts in data.draw(action_rounds(n)):
        net.apply(_batch(acts, dacts), strict=False)

    kind = data.draw(st.sampled_from(["unknown", "self-loop", "distance"]))
    actions = RoundActions()
    if kind == "unknown":
        actions.request_activation(0, 0, n + 5)
    elif kind == "self-loop":
        actions.request_activation(1, 1, 1)
    else:
        # Guaranteed illegal: a complete graph has no distance-2 pair, so
        # pick any currently inactive pair; if none exists, fall back to
        # an unknown node.
        inactive = [
            (u, v)
            for u in net.nodes
            for v in net.nodes
            if u < v and not net.has_edge(u, v) and not net.common_neighbor_exists(u, v)
        ]
        if inactive:
            u, v = inactive[0]
            actions.request_activation(u, u, v)
        else:
            actions.request_activation(0, 0, n + 5)

    before = _observable_state(net)
    with pytest.raises(ProtocolViolation):
        net.apply(actions, strict=True)
    assert _observable_state(net) == before


@given(data=st.data())
def test_dense_network_matches_reference(data):
    graph = data.draw(connected_graphs())
    rounds = data.draw(action_rounds(graph.number_of_nodes()))
    ref = Network(graph)
    dense = DenseNetwork(graph)
    ref_tracker = ConnectivityTracker(ref)
    dense_tracker = DenseConnectivityTracker(dense)

    assert _observable_state(dense) == _observable_state(ref)
    for acts, dacts in rounds:
        ra, rd = ref.apply(_batch(acts, dacts), strict=False)
        da, dd = dense.apply(_batch(acts, dacts), strict=False)
        assert set(da) == set(ra)
        assert set(dd) == set(rd)
        assert _observable_state(dense) == _observable_state(ref)
        # Canonical neighbor views must agree element-for-element in
        # iteration order, not just as sets (the trace-identity keystone).
        for u in ref.nodes:
            assert list(ref.neighbors(u)) == list(dense.neighbors(u))
        assert dense_tracker.update(da, dd) == ref_tracker.update(ra, rd)
        assert dense_tracker.components == ref_tracker.components

    # Strict mode raises the same violation text on both backends.
    actions = RoundActions()
    actions.request_activation(0, 0, graph.number_of_nodes() + 7)
    with pytest.raises(ProtocolViolation) as ref_exc:
        ref.apply(actions, strict=True)
    with pytest.raises(ProtocolViolation) as dense_exc:
        dense.apply(actions, strict=True)
    assert str(ref_exc.value) == str(dense_exc.value)


@given(data=st.data())
def test_dense_external_mutation_matches_reference(data):
    graph = data.draw(connected_graphs())
    n = graph.number_of_nodes()
    ref = Network(graph)
    dense = DenseNetwork(graph)
    # Persistent guards, rebuilt after each strike: crashes leave dead
    # indices in the array union-find, joins grow its index space.
    ref_tracker = ConnectivityTracker(ref)
    dense_tracker = DenseConnectivityTracker(dense)
    node = st.integers(min_value=0, max_value=n + 2)
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        drops = data.draw(st.lists(st.tuples(node, node), max_size=3))
        adds = data.draw(st.lists(st.tuples(node, node), max_size=3))
        crashes = data.draw(st.lists(node, max_size=2))
        joins = data.draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=n, max_value=n + 4),
                    st.lists(st.integers(min_value=0, max_value=n - 1), max_size=3),
                ),
                max_size=2,
            )
        )
        drops = [edge_key(u, v) for u, v in drops if u != v]
        joins = [(uid, tuple(att)) for uid, att in joins]
        rd, ra = ref.apply_external(drops=drops, adds=adds, crashes=crashes, joins=joins)
        dd, da = dense.apply_external(drops=drops, adds=adds, crashes=crashes, joins=joins)
        assert (set(dd), set(da)) == (set(rd), set(ra))
        assert _observable_state(dense) == _observable_state(ref)
        for u in ref.nodes:
            assert list(ref.neighbors(u)) == list(dense.neighbors(u))
        assert dense_tracker.rebuild() == ref_tracker.rebuild()
        assert dense_tracker.components == ref_tracker.components


@given(data=st.data())
def test_uf_fold_matches_networkx(data):
    """Folding edge batches one after another leaves every index pointing
    at the smallest index of its component, and the merge counts add up
    to n minus the component count."""
    np = pytest.importorskip("numpy")
    n = data.draw(st.integers(min_value=1, max_value=30))
    node = st.integers(min_value=0, max_value=n - 1)
    g = nx.empty_graph(n)
    parent = np.arange(n, dtype=np.int64)
    components = n
    for batch in data.draw(st.lists(st.lists(st.tuples(node, node), max_size=12), max_size=5)):
        uu = np.array([u for u, _ in batch], dtype=np.int64)
        vv = np.array([v for _, v in batch], dtype=np.int64)
        parent, merges = _uf_fold(parent, uu, vv)
        components -= merges
        g.add_edges_from(batch)
        assert components == nx.number_connected_components(g)
        for comp in nx.connected_components(g):
            root = min(comp)
            assert all(parent[x] == root for x in comp)
