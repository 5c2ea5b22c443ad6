"""Index-interned network state: the bulk backend's data layer.

:class:`DenseNetwork`, :class:`DenseConnectivityTracker`, and
:class:`DenseContext` are the state the bulk backend
(:mod:`repro.engine.bulk`) runs on.  They answer the same read protocol
as :class:`~repro.engine.network.Network`, :class:`ConnectivityTracker`
and :class:`~repro.engine.program.Context`, so the bulk backend produces
a **byte-identical JSONL trace** and **equal Metrics** to the reference
backend (``tests/test_backend_differential`` is the oracle).  What
changes is the machinery, not the model:

* node uids are interned to dense ints ``0..n-1`` once at construction
  (joins extend the index space; indices, like uids, are never reused);
* adjacency is a slot array of per-node int-index sets, and the active /
  original edge sets are sets of packed int pairs
  (``min_idx << 32 | max_idx``) — membership tests hash one small int
  instead of a tuple of uids;
* the connectivity guard's union-find runs on numpy index arrays
  (:func:`_uf_fold`, shared with the array connectivity audit);
* each round's effective activations and deactivations are applied in
  one batched pass over the packed-pair sets.

Program-visible views stay in uid space (contexts speak uids by API
contract) and are built through :func:`repro.engine.actions.canonical_view`
on both backends, so neighbor iteration order — and therefore every
trace — is a pure function of network contents.  DESIGN.md ("Engine
backends") spells out the equivalence argument.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from ..errors import ConfigurationError, ProtocolViolation
from .actions import RoundActions, canonical_view, edge_key
from .network import _validate_label_comparability

#: Bits reserved for the minor index in a packed edge pair.  2**32 nodes
#: is far beyond any simulable size, and packed keys stay machine-sized.
_SHIFT = 32
_MASK = (1 << _SHIFT) - 1


def _pack(i: int, j: int) -> int:
    """Canonical packed key of the undirected index pair ``(i, j)``."""
    return (i << _SHIFT) | j if i < j else (j << _SHIFT) | i


class DenseNetwork:
    """Index-interned actively dynamic network state.

    API-compatible with :class:`repro.engine.network.Network` (the full
    read protocol plus :meth:`apply` / :meth:`apply_external`), with all
    membership-style queries answered from the interned index space.
    """

    def __init__(self, graph: nx.Graph, *, require_connected: bool = True) -> None:
        if graph.number_of_nodes() == 0:
            raise ConfigurationError("initial graph must have at least one node")
        if require_connected and graph.number_of_nodes() > 1 and not nx.is_connected(graph):
            raise ConfigurationError("initial graph G_s must be connected")
        self._nodes = frozenset(graph.nodes())
        _validate_label_comparability(self._nodes)
        # Intern in sorted uid order: when uids are exactly 0..n-1 (every
        # built-in workload family) the interning is the identity map and
        # all index->uid translation vanishes from the hot paths.
        uid_of = sorted(graph.nodes())
        idx_of = {u: i for i, u in enumerate(uid_of)}
        self._uid_of: list = uid_of
        self._idx_of: dict = idx_of
        self._identity: bool = all(type(u) is int for u in uid_of) and uid_of == list(
            range(len(uid_of))
        )
        self._iadj: list[set[int]] = [
            {idx_of[v] for v in graph.neighbors(u)} for u in uid_of
        ]
        self._orig_pairs: set[int] = {
            _pack(idx_of[u], idx_of[v]) for u, v in graph.edges()
        }
        self._active_pairs: set[int] = set(self._orig_pairs)
        #: ``|E(i) \ E(1)|`` maintained incrementally by :meth:`apply`
        #: (and recomputed after external strikes): the per-round
        #: ``num_activated_edges`` read must not pay an O(active) set
        #: difference each emitted round.
        self._n_activated: int = 0
        # Per-index canonical neighborhood snapshot slots (None = stale).
        self._frozen: list = [None] * len(uid_of)
        self._original_view: frozenset | None = None
        self.round = 1

    # ------------------------------------------------------------------
    # read access (uid space, answered from the index space)
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> frozenset:
        return self._nodes

    @property
    def n(self) -> int:
        return len(self._nodes)

    @property
    def original_edges(self) -> frozenset:
        """The external baseline edge set ``E(1)`` as uid edge keys."""
        view = self._original_view
        if view is None:
            view = self._original_view = frozenset(
                self._unpack(p) for p in self._orig_pairs
            )
        return view

    def _unpack(self, p: int) -> tuple:
        """The uid edge key of a packed index pair."""
        if self._identity:
            return (p >> _SHIFT, p & _MASK)
        uid_of = self._uid_of
        return edge_key(uid_of[p >> _SHIFT], uid_of[p & _MASK])

    def _freeze(self, i: int) -> frozenset:
        members = self._iadj[i]
        if not self._identity:
            uid_of = self._uid_of
            members = [uid_of[j] for j in members]
        view = canonical_view(members)
        self._frozen[i] = view
        return view

    def neighbors(self, u) -> frozenset:
        """``N_1(u)`` as a canonical read-only snapshot (see Network)."""
        i = self._idx_of[u]
        view = self._frozen[i]
        return view if view is not None else self._freeze(i)

    def degree(self, u) -> int:
        return len(self._iadj[self._idx_of[u]])

    def has_edge(self, u, v) -> bool:
        i = self._idx_of.get(u)
        if i is None:
            return False
        return self._idx_of.get(v) in self._iadj[i]

    def is_original(self, u, v) -> bool:
        i = self._idx_of.get(u)
        j = self._idx_of.get(v)
        if i is None or j is None:
            return False
        return _pack(i, j) in self._orig_pairs

    def edges(self):
        unpack = self._unpack
        return (unpack(p) for p in self._active_pairs)

    @property
    def num_active_edges(self) -> int:
        return len(self._active_pairs)

    def activated_edges(self) -> set:
        """``E(i) \\ E(1)``: currently active edges not in the baseline."""
        unpack = self._unpack
        return {unpack(p) for p in self._active_pairs - self._orig_pairs}

    @property
    def num_activated_edges(self) -> int:
        """``|E(i) \\ E(1)|`` from the incrementally maintained counter."""
        return self._n_activated

    def potential_neighbors(self, u) -> set:
        """``N_2(u)``: nodes at distance exactly two from ``u``."""
        iadj = self._iadj
        i = self._idx_of[u]
        direct = iadj[i]
        result: set = set()
        for j in direct:
            result.update(iadj[j])
        result -= direct
        result.discard(i)
        uid_of = self._uid_of
        return {uid_of[j] for j in result}

    def common_neighbor_exists(self, u, v) -> bool:
        a = self._iadj[self._idx_of[u]]
        b = self._iadj[self._idx_of[v]]
        if len(a) > len(b):
            a, b = b, a
        return not b.isdisjoint(a)

    def snapshot_graph(self) -> nx.Graph:
        g = nx.Graph()
        g.add_nodes_from(self._nodes)
        g.add_edges_from(self.edges())
        return g

    def is_connected(self) -> bool:
        n = len(self._nodes)
        if n <= 1:
            return True
        iadj = self._iadj
        start = self._idx_of[next(iter(self._nodes))]
        seen = {start}
        stack = [start]
        while stack:
            i = stack.pop()
            for j in iadj[i]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return len(seen) == n

    # ------------------------------------------------------------------
    # round application (batched, one pass per effective set)
    # ------------------------------------------------------------------

    def apply(self, actions: RoundActions, *, strict: bool = True) -> tuple[set, set]:
        """Apply one round's actions; same legality pipeline as Network.

        Filtering and conflict resolution run entirely on packed index
        pairs; the effective sets are translated back to uid edge keys
        only once, while being applied in one batched pass.
        """
        if not actions.activations and not actions.deactivations:
            # Idle round: nothing to filter, nothing to apply.
            self.round += 1
            return set(), set()

        idx_of = self._idx_of
        iadj = self._iadj
        active = self._active_pairs

        act_pairs: set = set()
        for actor, u, v in actions.activations:
            i = idx_of.get(u)
            j = idx_of.get(v)
            if i is None or j is None:
                if strict:
                    raise ProtocolViolation(
                        f"node {actor} activated ({u}, {v}) referencing an unknown node"
                    )
                continue
            if i == j:
                if strict:
                    raise ProtocolViolation(f"node {actor} attempted a self-loop at {u}")
                continue
            pair = (i << _SHIFT) | j if i < j else (j << _SHIFT) | i
            if pair in active:
                # Activating an already active edge has no effect (model rule).
                continue
            a, b = iadj[i], iadj[j]
            if len(a) > len(b):
                a, b = b, a
            if b.isdisjoint(a):
                if strict:
                    raise ProtocolViolation(
                        f"node {actor} activated {edge_key(u, v)} "
                        f"but endpoints are not at distance 2"
                    )
                continue
            act_pairs.add(pair)

        dac_pairs: set = set()
        for actor, u, v in actions.deactivations:
            i = idx_of.get(u)
            j = idx_of.get(v)
            if i is None or j is None:
                if strict:
                    raise ProtocolViolation(
                        f"node {actor} deactivated ({u}, {v}) referencing an unknown node"
                    )
                continue
            pair = (i << _SHIFT) | j if i < j else (j << _SHIFT) | i
            if pair not in active and pair not in act_pairs:
                # Deactivating an inactive edge has no effect (model rule),
                # unless it was activated this very round (conflict below).
                continue
            dac_pairs.add(pair)

        # Conflict rule: endpoints disagreeing about an edge leave it as it was.
        conflicted = act_pairs & dac_pairs
        act_pairs -= conflicted
        dac_pairs -= conflicted
        dac_pairs = {p for p in dac_pairs if p in active}

        frozen = self._frozen
        uid_of = self._uid_of
        identity = self._identity
        orig = self._orig_pairs
        n_activated = self._n_activated
        activations: set = set()
        deactivations: set = set()
        for pair in act_pairs:
            i, j = pair >> _SHIFT, pair & _MASK
            active.add(pair)
            if pair not in orig:
                n_activated += 1
            iadj[i].add(j)
            iadj[j].add(i)
            frozen[i] = None
            frozen[j] = None
            activations.add((i, j) if identity else edge_key(uid_of[i], uid_of[j]))
        for pair in dac_pairs:
            i, j = pair >> _SHIFT, pair & _MASK
            active.discard(pair)
            if pair not in orig:
                n_activated -= 1
            iadj[i].discard(j)
            iadj[j].discard(i)
            frozen[i] = None
            frozen[j] = None
            deactivations.add((i, j) if identity else edge_key(uid_of[i], uid_of[j]))
        self._n_activated = n_activated

        self.round += 1
        return activations, deactivations

    # ------------------------------------------------------------------
    # external (adversarial) mutation — outside the model's legality rules
    # ------------------------------------------------------------------

    def apply_external(self, *, drops=(), adds=(), crashes=(), joins=()) -> tuple[set, set]:
        """Apply one adversary strike (same semantics as Network).

        Crashed nodes' index slots are retired, never reused — exactly
        like uids.  Joined nodes extend the interning tables.
        """
        dropped: set = set()
        added: set = set()
        nodes = set(self._nodes)
        uid_of = self._uid_of
        idx_of = self._idx_of
        iadj = self._iadj
        active = self._active_pairs
        orig = self._orig_pairs
        frozen = self._frozen
        self._original_view = None

        for u in crashes:
            if u not in nodes or len(nodes) <= 1:
                continue
            i = idx_of[u]
            for j in iadj[i]:
                pair = _pack(i, j)
                dropped.add(edge_key(u, uid_of[j]))
                active.discard(pair)
                orig.discard(pair)
                iadj[j].discard(i)
                frozen[j] = None
            iadj[i] = set()
            frozen[i] = None
            del idx_of[u]
            nodes.discard(u)
            # Purge the crashed node's remaining (deactivated-original)
            # baseline pairs — mirrors the reference backend exactly.
            orig.difference_update(
                [p for p in orig if p >> _SHIFT == i or p & _MASK == i]
            )

        for u, v in drops:
            i = idx_of.get(u)
            j = idx_of.get(v)
            if i is None or j is None or j not in iadj[i]:
                continue
            pair = _pack(i, j)
            dropped.add(edge_key(u, v))
            active.discard(pair)
            orig.discard(pair)
            iadj[i].discard(j)
            iadj[j].discard(i)
            frozen[i] = None
            frozen[j] = None

        for uid, attach in joins:
            if uid in nodes:
                continue
            i = len(uid_of)
            if self._identity and not (type(uid) is int and uid == i):
                self._identity = False
            uid_of.append(uid)
            idx_of[uid] = i
            iadj.append(set())
            frozen.append(None)
            nodes.add(uid)
            for v in attach:
                j = idx_of.get(v)
                if j is None or j == i:
                    continue
                pair = _pack(i, j)
                added.add(edge_key(uid, v))
                active.add(pair)
                orig.add(pair)
                iadj[i].add(j)
                iadj[j].add(i)
                frozen[j] = None

        for u, v in adds:
            i = idx_of.get(u)
            j = idx_of.get(v)
            if i is None or j is None or i == j or j in iadj[i]:
                continue
            pair = _pack(i, j)
            added.add(edge_key(u, v))
            active.add(pair)
            orig.add(pair)
            iadj[i].add(j)
            iadj[j].add(i)
            frozen[i] = None
            frozen[j] = None

        self._nodes = frozenset(nodes)
        # Strikes touch both ``active`` and ``orig`` in ways the
        # incremental counter cannot track cheaply; they are rare
        # (inter-episode), so one exact recompute keeps it honest.
        self._n_activated = len(active - orig)
        return dropped, added


def _uf_fold(parent, uu, vv):
    """Fold edges into a flat union-find: min-label hooking with full
    path compression, iterated to fixpoint.  ``parent`` must be fully
    compressed (every entry points at its root) and may be overwritten.
    Returns the fully compressed result and the number of components
    merged away (each hooked root stops being a root, and no new root
    appears), so callers count components without scanning the array.

    The one array union-find: the bulk connectivity guard and the array
    connectivity audit (:mod:`repro.conformance_arrays`) share this code
    and keep separate state.
    """
    p = parent
    merges = 0
    while True:
        ru, rv = p[uu], p[vv]
        diff = ru != rv
        if not diff.any():
            return p, merges
        hi = np.maximum(ru[diff], rv[diff])
        np.minimum.at(p, hi, np.minimum(ru[diff], rv[diff]))
        # Count the distinct hooked roots by sorting: np.unique imports
        # numpy.ma on first use (~10 ms per process).
        hi.sort()
        merges += 1 + int(np.count_nonzero(hi[1:] != hi[:-1]))
        while True:
            q = p[p]
            if np.array_equal(q, p):
                break
            p = q


class DenseConnectivityTracker:
    """Connectivity guard on the interned index space.

    Same incremental contract as :class:`ConnectivityTracker` — each
    activation-only round folds into the union-find, a round with
    deactivations rebuilds it — over the shared array union-find
    (:func:`_uf_fold`) instead of uid-keyed dicts.
    """

    def __init__(self, network: DenseNetwork) -> None:
        self._network = network
        self._rebuild()

    def _rebuild(self) -> None:
        net = self._network
        size = len(net._uid_of)
        pairs = net._active_pairs
        keys = np.fromiter(pairs, np.int64, len(pairs))
        self._parent, merges = _uf_fold(
            np.arange(size, dtype=np.int64), keys >> _SHIFT, keys & _MASK
        )
        # Crashed indices are never reused: each is an edgeless root.
        self._components = net.n - merges

    @property
    def components(self) -> int:
        return self._components

    def rebuild(self) -> bool:
        """Full recompute (after external perturbations); return connectedness."""
        self._rebuild()
        return self._components <= 1

    def update(self, activations, deactivations) -> bool:
        """Fold one round's effective uid-space action sets."""
        if deactivations:
            self._rebuild()
        elif activations:
            idx_of = self._network._idx_of
            flat = np.fromiter(
                (idx_of[u] for e in activations for u in e), np.int64, 2 * len(activations)
            )
            self._parent, merges = _uf_fold(self._parent, flat[0::2], flat[1::2])
            self._components -= merges
        return self._components <= 1

    def is_connected(self) -> bool:
        return self._components <= 1


class DenseContext:
    """Per-node round view over a :class:`DenseNetwork` (same API as Context).

    Persistent across the whole run: ``round`` / ``barrier_epoch`` / ``n``
    are refreshed in the bulk runner's batched passes instead of per
    node per round, and reads resolve through the node's interned index
    and the network's shared snapshot slots.
    """

    __slots__ = (
        "uid",
        "round",
        "n",
        "barrier_epoch",
        "_idx",
        "_publics",
        "_actions",
        "_network",
        "_frozen",
        "_request_act",
        "_request_dact",
    )

    def __init__(self, uid, round_no, publics, actions, network, n, barrier_epoch):
        self.uid = uid
        self.round = round_no
        self.n = n
        self.barrier_epoch = barrier_epoch
        self._publics = publics
        self._actions = actions
        self._network = network
        self._idx = network._idx_of[uid]
        self._frozen = network._frozen
        self._request_act = actions.activations.append
        self._request_dact = actions.deactivations.append

    # -- reads ---------------------------------------------------------

    @property
    def neighbors(self) -> frozenset:
        """``N_1(uid)`` at the beginning of the round (immutable)."""
        view = self._frozen[self._idx]
        return view if view is not None else self._network._freeze(self._idx)

    def neighbor_public(self, v) -> dict:
        """The public record broadcast by neighbor ``v`` this round."""
        view = self._frozen[self._idx]
        if view is None:
            view = self._network._freeze(self._idx)
        if v in view:
            return self._publics[v]
        raise ProtocolViolation(f"{self.uid} read public state of non-neighbor {v}")

    def public_of(self, v) -> dict:
        """Unchecked public-record access (engine/analysis use only)."""
        return self._publics[v]

    def neighbor_publics(self) -> list:
        """All of this round's broadcasts, as ``(neighbor, record)`` pairs."""
        view = self._frozen[self._idx]
        if view is None:
            view = self._network._freeze(self._idx)
        publics = self._publics
        return [(v, publics[v]) for v in view]

    def neighbor_adjacency(self, v) -> frozenset:
        """Neighbor ``v``'s adjacency at the beginning of the round."""
        view = self._frozen[self._idx]
        if view is None:
            view = self._network._freeze(self._idx)
        if v in view:
            return self._network.neighbors(v)
        raise ProtocolViolation(f"{self.uid} read adjacency of non-neighbor {v}")

    def is_original(self, v, u=None) -> bool:
        """Whether edge ``(u or uid, v)`` belongs to ``E(1)``."""
        net = self._network
        if u is None:
            i = self._idx
        else:
            i = net._idx_of.get(u)
            if i is None:
                return False
        j = net._idx_of.get(v)
        if j is None:
            return False
        return _pack(i, j) in net._orig_pairs

    @property
    def degree(self) -> int:
        return len(self._network._iadj[self._idx])

    # -- writes --------------------------------------------------------

    def activate(self, v) -> None:
        """Request activation of edge ``(uid, v)`` this round."""
        self._request_act((self.uid, self.uid, v))

    def deactivate(self, v) -> None:
        """Request deactivation of edge ``(uid, v)`` this round."""
        self._request_dact((self.uid, self.uid, v))
