"""Cross-backend differential fuzzer: bulk vs reference, trace for trace.

The bulk backend's contract (DESIGN.md, "Engine backends" and "Phase
kernels & bulk backend") is strict: for every scenario and every
adversary schedule it must produce a **byte-identical JSONL trace** and
**equal Metrics** to the reference backend.  This suite samples
(algorithm, family, n, seed, adversary) cells across the whole scenario
registry and asserts exactly that.  Programs that are not bulk-sparse
(e.g. clique, and the per-node subclasses below) pin bulk's per-node
fallback loop to the same contract.

Two tiers: a small deterministic corpus that runs in CI, and a larger
``--runslow`` tier (``pytest --runslow``) that widens families, sizes,
seeds, and adversary schedules.
"""

import io
import re

import pytest

from repro.core.graph_to_star import GraphToStarProgram
from repro.core.graph_to_wreath import GraphToWreathProgram
from repro.dynamics import AdversarySpec, ChurnSchedule, ScriptedAdversary, make_adversary
from repro.engine import (
    BACKENDS,
    BinarySink,
    BinaryTraceReader,
    JsonlSink,
    Metrics,
    NodeProgram,
    SynchronousRunner,
    Trace,
    from_binary,
    iter_traces,
    run_program,
    to_binary,
)
from repro.engine.bulk import BulkRunner
from repro.engine.trace import PerturbationRecord
from repro.errors import ConfigurationError
from repro.graphs import families
from repro.registry import get_algorithm, scenario_names, scenarios

#: The backends differentially compared against "reference".
COMPARISON_BACKENDS = [b for b in BACKENDS if b != "reference"]


def _episode_traces(result):
    """The labelled JSONL trace(s) of any result shape (single run,
    self-healing episodes, or composition pipeline stages)."""
    return [(label, trace.to_jsonl()) for label, trace in iter_traces(result)]


def _run_cell(algorithm, family, n, seed, adversary_spec, backend):
    """Run one cell with all three trace forms: the in-memory Trace, a
    streaming JsonlSink, and a streaming BinarySink on the same
    observer pipeline."""
    runner = get_algorithm(algorithm)
    graph = families.make(family, n, seed=seed)
    sink = JsonlSink(io.StringIO())
    bsink = BinarySink(io.BytesIO(), meta={"provenance": None})
    kwargs = {"collect_trace": True, "backend": backend, "observers": [sink, bsink]}
    if adversary_spec is not None:
        kwargs["adversary"] = make_adversary(adversary_spec)
    result = runner(graph, **kwargs)
    bsink.close()
    return result, sink._fh.getvalue(), bsink._fh.getvalue()


def _binary_streamed_jsonl(data: bytes) -> str:
    """The streamed ``.rtb`` bytes, decoded segment by segment back to
    the JSONL the JsonlSink would have streamed for the same events."""
    out = []
    with BinaryTraceReader(data) as reader:
        for i in range(len(reader.segments)):
            seg = Trace()
            for rec in reader.iter_segment(i):
                if isinstance(rec, PerturbationRecord):
                    seg.append_perturbation(rec)
                else:
                    seg.append(rec)
            out.append(seg.to_jsonl())
    return "".join(out)


def _assert_cell_equivalent(algorithm, family, n, seed=0, adversary_spec=None):
    ref, ref_streamed, ref_binary = _run_cell(
        algorithm, family, n, seed, adversary_spec, "reference"
    )
    # The streaming sinks are the oracle's third and fourth forms:
    # byte-identical to the materialized traces, on every backend.
    materialized = "".join(payload for _, payload in _episode_traces(ref))
    recovery = getattr(ref, "recovery", None)
    for label_, trace in iter_traces(ref):
        # Binary conversion is lossless against the JSONL oracle over
        # the whole registry corpus (DESIGN.md, "Binary traces").
        assert from_binary(to_binary(trace)).to_jsonl() == trace.to_jsonl()
    for backend in COMPARISON_BACKENDS:
        alt, alt_streamed, alt_binary = _run_cell(
            algorithm, family, n, seed, adversary_spec, backend
        )
        label = f"{algorithm}/{family}/n={n}/seed={seed}/adv={adversary_spec}/{backend}"
        assert _episode_traces(alt) == _episode_traces(ref), f"trace diverged: {label}"
        assert alt.metrics == ref.metrics, f"metrics diverged: {label}"
        assert alt.rounds == ref.rounds, f"rounds diverged: {label}"
        assert ref_streamed == materialized, f"reference sink diverged: {label}"
        assert alt_streamed == materialized, f"{backend} sink diverged: {label}"
        assert alt_binary == ref_binary, f"{backend} binary sink diverged: {label}"
        assert _binary_streamed_jsonl(alt_binary) == materialized, (
            f"{backend} binary archive diverged from the JSONL oracle: {label}"
        )
        if recovery is not None:
            assert alt.recovery.as_dict() == recovery.as_dict(), f"recovery diverged: {label}"


# ----------------------------------------------------------------------
# CI corpus: small, deterministic, covers every engine-backed scenario
# ----------------------------------------------------------------------

CI_CORPUS = [
    ("star", "ring", 24, 0, None),
    ("star", "line", 17, 0, None),
    ("star", "gnp", 25, 0, None),
    ("star", "random_tree", 21, 3, None),
    ("star", "caterpillar", 24, 0, None),
    ("wreath", "ring", 20, 0, None),
    ("wreath", "line", 16, 2, None),
    ("thin-wreath", "ring", 16, 0, None),
    # random-UID ring cells: fresh UID permutations over the wreath
    # rebuild-assist path (repro.core.rebuild_arrays), so the splice
    # kernel's array rounds are differentially checked on placements
    # other than the canonical one
    ("wreath", "ring", 23, 7, None),
    ("wreath", "ring", 19, 13, None),
    ("thin-wreath", "ring", 21, 5, None),
    ("clique", "ring", 12, 0, None),
    ("star-heal", "ring", 16, 0, None),
    ("star-heal", "ring", 16, 0, AdversarySpec(kind="drop", rate=0.3, seed=5, policy="reroute")),
    ("wreath-heal", "ring", 16, 0, None),
    ("wreath-heal", "ring", 14, 0, AdversarySpec(kind="crash", rate=0.2, seed=3, policy="reroute")),
    # composition pipelines: transform-then-solve, end to end
    ("star+flood", "line", 24, 0, None),
    ("wreath+flood", "ring", 16, 0, None),
    ("flood-baseline", "gnp", 25, 0, None),
    ("star+leader", "random_tree", 21, 3, None),
    # seeded general-graph cells: the observer path on gnp/grid/regular3
    # with non-canonical UID permutations, not just the UID-structured
    # workloads (seed != 0 re-permutes the UIDs deterministically)
    ("star", "gnp", 25, 7, None),
    ("star", "grid", 25, 11, None),
    ("star", "regular3", 20, 5, None),
    ("wreath", "gnp", 20, 9, None),
    ("wreath", "grid", 16, 4, None),
    ("wreath", "regular3", 16, 3, None),
    ("thin-wreath", "gnp", 18, 2, None),
    ("thin-wreath", "grid", 16, 6, None),
    ("thin-wreath", "regular3", 14, 8, None),
    ("clique", "gnp", 16, 13, None),
    ("clique", "regular3", 12, 2, None),
    ("star+flood", "grid", 25, 5, None),
    ("flood-baseline", "regular3", 16, 7, None),
]


@pytest.mark.parametrize(
    "algorithm,family,n,seed,adv",
    CI_CORPUS,
    ids=[f"{a}-{f}-n{n}-s{s}-{'adv' if x else 'plain'}" for a, f, n, s, x in CI_CORPUS],
)
def test_ci_corpus_cell_equivalent(algorithm, family, n, seed, adv):
    _assert_cell_equivalent(algorithm, family, n, seed, adv)


def test_registry_is_fully_covered():
    """Every registered backend-capable scenario appears in some corpus cell."""
    engine_backed = {spec.name for spec in scenarios() if spec.supports_backend}
    covered = {cell[0] for cell in CI_CORPUS}
    assert engine_backed <= covered, f"uncovered scenarios: {engine_backed - covered}"


# ----------------------------------------------------------------------
# runner-level adversary paths (mid-run churn, crashes, scripted joins)
# ----------------------------------------------------------------------


class _Chatterer(NodeProgram):
    """A long-running program exercising messages, publics, and edges."""

    def public(self):
        return {"uid": self.uid, "seen": getattr(self, "_seen", 0)}

    def compose(self, ctx):
        if ctx.round % 3 == 0 and ctx.neighbors:
            return {v: ("ping", self.uid) for v in ctx.neighbors}
        return None

    def transition(self, ctx, inbox):
        self._seen = getattr(self, "_seen", 0) + len(inbox)
        for v, rec in ctx.neighbor_publics():
            assert rec["uid"] == v
        if ctx.round >= 30:
            self.halt()


@pytest.mark.parametrize("policy", ["skip", "reroute"])
def test_runner_churn_equivalent(policy):
    adversary_factory = lambda: ChurnSchedule(  # noqa: E731
        rate=0.3, seed=11, policy=policy, start=3, period=4
    )
    results = {}
    for backend in ["reference", *COMPARISON_BACKENDS]:
        graph = families.make("ring", 20)
        results[backend] = run_program(
            graph, _Chatterer, collect_trace=True,
            adversary=adversary_factory(), backend=backend,
        )
    ref = results["reference"]
    for backend in COMPARISON_BACKENDS:
        alt = results[backend]
        assert alt.trace.to_jsonl() == ref.trace.to_jsonl(), backend
        assert alt.metrics == ref.metrics, backend
        assert set(alt.programs) == set(ref.programs), backend
        assert {u: p.crashed for u, p in alt.programs.items()} == {
            u: p.crashed for u, p in ref.programs.items()
        }, backend


def test_runner_scripted_adversary_equivalent():
    script = {
        3: {"crashes": [2], "adds": [(0, 5)]},
        6: {"joins": [(100, (0, 7))]},
        9: {"drops": [(0, 5)], "adds": [(1, 9)]},
    }
    traces = {}
    for backend in ["reference", *COMPARISON_BACKENDS]:
        graph = families.make("ring", 12)
        res = run_program(
            graph, _Chatterer, collect_trace=True,
            adversary=ScriptedAdversary(dict(script)), backend=backend,
        )
        traces[backend] = (res.trace.to_jsonl(), res.metrics)
    for backend in COMPARISON_BACKENDS:
        assert traces[backend] == traces["reference"], backend


class _SetupReader(NodeProgram):
    """Records its neighbors' records as setup() sees them, and changes
    its own record during setup()."""

    def setup(self, ctx):
        self.saw = sorted((v, rec["ready"]) for v, rec in ctx.neighbor_publics())
        self.ready = True

    def public(self):
        return {"uid": self.uid, "ready": getattr(self, "ready", False)}

    def transition(self, ctx, inbox):
        if ctx.round >= 4:
            self.halt()


def test_adjacent_joiners_setup_equivalent():
    """Two nodes joining in one strike, the second attached to the
    first: each joiner's setup() reads the other's pre-setup record, on
    every backend."""
    script = {2: {"joins": [(100, (0,)), (101, (100,))]}}
    saw = {}
    for backend in ["reference", *COMPARISON_BACKENDS]:
        res = run_program(
            families.make("ring", 8), _SetupReader,
            adversary=ScriptedAdversary(dict(script)), backend=backend,
        )
        saw[backend] = {u: p.saw for u, p in res.programs.items()}
    assert saw["reference"][100] == [(0, True), (101, False)]
    assert saw["reference"][101] == [(100, False)]
    for backend in COMPARISON_BACKENDS:
        assert saw[backend] == saw["reference"], backend


def _churned_chatterer(backend):
    runner = SynchronousRunner(
        families.make("ring", 16), _Chatterer, collect_trace=True,
        check_connectivity=True, backend=backend,
        adversary=ChurnSchedule(rate=0.2, seed=7, policy="reroute", start=2, period=3),
    )
    return runner.run()


def _guarded_star(backend):
    runner = SynchronousRunner(
        families.make("ring", 512), GraphToStarProgram, collect_trace=True,
        check_connectivity=True, backend=backend,
    )
    result = runner.run()
    if backend == "bulk":
        assert runner._kernel is not None, "star did not take the kernel path"
    return result


def _guarded_wreath(backend):
    runner = SynchronousRunner(
        families.make("ring", 512), GraphToWreathProgram, collect_trace=True,
        check_connectivity=True, use_barrier=True, backend=backend,
    )
    return runner.run()


def test_runner_connectivity_guard_equivalent(monkeypatch):
    """The connectivity guard on bulk's sparse path with strikes, the
    star kernel and the wreath rebuild assist leaves traces
    byte-identical and Metrics equal to the guarded reference run."""
    import repro.core.rebuild_arrays as ra

    assisted = []
    step_round = ra.RebuildSim.step_round

    def counting(self, *args, **kwargs):
        assisted.append(self)
        return step_round(self, *args, **kwargs)

    monkeypatch.setattr(ra.RebuildSim, "step_round", counting)
    for cell in (_churned_chatterer, _guarded_star, _guarded_wreath):
        ref = cell("reference")
        assert ref.trace.all_connected(), cell.__name__
        for backend in COMPARISON_BACKENDS:
            alt = cell(backend)
            label = f"{cell.__name__}/{backend}"
            assert alt.trace.to_jsonl() == ref.trace.to_jsonl(), label
            assert alt.metrics == ref.metrics, label
    assert assisted, "wreath did not take the rebuild assist"


# ----------------------------------------------------------------------
# bulk's per-node fallback loop on the paper's own programs
# ----------------------------------------------------------------------


class _PerNodeWreath(GraphToWreathProgram):
    """GraphToWreath pinned to bulk's per-node loop (no wake parking)."""

    bulk_sparse = False


class _PerNodeStar(GraphToStarProgram):
    """GraphToStar pinned to bulk's per-node loop (no kernel, no parking)."""

    bulk_sparse = False
    phase_kernel = None


@pytest.mark.parametrize("family", ["ring", "increasing_ring"])
@pytest.mark.parametrize(
    "program,kwargs",
    [(_PerNodeWreath, {"use_barrier": True}), (_PerNodeStar, {})],
    ids=["wreath", "star"],
)
def test_pernode_fallback_equivalent(program, kwargs, family):
    """The kernels and the sparse wake path cover GraphToStar and
    GraphToWreath on bulk everywhere else; these cells keep the per-node
    loop byte-identical on the same programs at n=256."""
    graph = families.make(family, 256)
    results = {}
    for backend in BACKENDS:
        runner = SynchronousRunner(
            graph, program, collect_trace=True, backend=backend, **kwargs
        )
        results[backend] = runner.run()
        if backend == "bulk":
            assert not runner._sparse and runner._kernel is None
    ref, bulk = results["reference"], results["bulk"]
    assert bulk.trace.to_jsonl() == ref.trace.to_jsonl()
    assert bulk.metrics == ref.metrics


# ----------------------------------------------------------------------
# backend selection plumbing
# ----------------------------------------------------------------------


def test_backend_dispatch_and_validation(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    graph = families.make("ring", 8)
    ref = SynchronousRunner(graph, _Chatterer)
    assert type(ref) is SynchronousRunner and ref.backend == "reference"
    with pytest.raises(ConfigurationError):
        SynchronousRunner(graph, _Chatterer, backend="gpu")
    with pytest.raises(ConfigurationError):
        BulkRunner(graph, _Chatterer, backend="reference")


def test_bulk_backend_dispatch(monkeypatch):
    graph = families.make("ring", 8)
    bulk = SynchronousRunner(graph, _Chatterer, backend="bulk")
    assert isinstance(bulk, BulkRunner) and bulk.backend == "bulk"
    # One fast engine on top of the reference oracle, nothing in between.
    assert BulkRunner.__mro__ == (BulkRunner, SynchronousRunner, object)
    monkeypatch.setenv("REPRO_BACKEND", "bulk")
    assert isinstance(SynchronousRunner(graph, _Chatterer), BulkRunner)
    with pytest.raises(ConfigurationError):
        BulkRunner(graph, _Chatterer, backend="reference")


def test_retired_dense_backend_name_is_rejected(monkeypatch, capsys):
    """``dense`` is no longer a backend: every way of naming it ends in
    the unknown-backend ConfigurationError (exit 2 on the CLI) listing
    the two backends that remain."""
    from repro.analysis import SweepCell, SweepPlan
    from repro.cli import main

    known = str(BACKENDS)
    assert BACKENDS == ("reference", "bulk")
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    graph = families.make("ring", 8)
    with pytest.raises(ConfigurationError, match=re.escape(known)):
        SynchronousRunner(graph, _Chatterer, backend="dense")
    with pytest.raises(ConfigurationError, match=re.escape(known)):
        SweepPlan([SweepCell("star", "ring", 8, backend="dense")]).run()
    monkeypatch.setenv("REPRO_BACKEND", "dense")
    with pytest.raises(ConfigurationError, match=re.escape(known)):
        SynchronousRunner(graph, _Chatterer)
    assert main(["-a", "star", "-f", "ring", "--n", "8"]) == 2
    assert known in capsys.readouterr().err
    monkeypatch.delenv("REPRO_BACKEND")
    for argv in (
        ["-a", "star", "-f", "ring", "--n", "8", "--backend", "dense"],
        ["--backend", "dense", "sweep", "-a", "star", "-f", "ring", "--sizes", "8"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "'dense'" in err and "reference" in err and "bulk" in err


def test_backend_env_default(monkeypatch):
    graph = families.make("ring", 8)
    monkeypatch.setenv("REPRO_BACKEND", "bulk")
    assert isinstance(SynchronousRunner(graph, _Chatterer), BulkRunner)
    monkeypatch.setenv("REPRO_BACKEND", "bogus")
    with pytest.raises(ConfigurationError):
        SynchronousRunner(graph, _Chatterer)
    # An explicit argument always wins over the environment.
    monkeypatch.setenv("REPRO_BACKEND", "bulk")
    assert type(SynchronousRunner(graph, _Chatterer, backend="reference")) is SynchronousRunner


def test_metrics_equality_is_field_exact():
    """Metrics is the differential oracle's second channel: == must
    compare every field, including the per-round activation series."""
    a = Metrics(rounds=3, total_activations=5, per_round_activations=[2, 3, 0])
    b = Metrics(rounds=3, total_activations=5, per_round_activations=[2, 3, 0])
    assert a == b
    b.per_round_activations[-1] = 1
    assert a != b
    assert a != Metrics(rounds=3, total_activations=5)


# ----------------------------------------------------------------------
# --runslow tier: the wide corpus
# ----------------------------------------------------------------------

SLOW_ADVERSARIES = [
    None,
    AdversarySpec(kind="drop", rate=0.2, seed=2, policy="reroute"),
    AdversarySpec(kind="crash", rate=0.15, seed=9, policy="reroute", start=3, period=7),
    AdversarySpec(kind="churn", rate=0.2, seed=4, policy="reroute"),
]


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 1, 5])
@pytest.mark.parametrize(
    "family",
    ["ring", "line", "gnp", "random_tree", "grid", "caterpillar", "regular3"],
)
@pytest.mark.parametrize("n", [17, 33, 48])
def test_slow_star_grid(family, n, seed):
    _assert_cell_equivalent("star", family, n, seed)


@pytest.mark.slow
@pytest.mark.parametrize("algorithm", ["wreath", "thin-wreath", "clique"])
@pytest.mark.parametrize("family", ["ring", "line", "random_tree", "gnp", "regular3"])
@pytest.mark.parametrize("n", [16, 28])
def test_slow_committee_grid(algorithm, family, n):
    _assert_cell_equivalent(algorithm, family, n)


@pytest.mark.slow
@pytest.mark.parametrize("algorithm", ["wreath", "thin-wreath"])
@pytest.mark.parametrize("family", ["gnp", "grid", "regular3"])
@pytest.mark.parametrize("seed", [1, 4])
def test_slow_seeded_general_graph_grid(algorithm, family, seed):
    _assert_cell_equivalent(algorithm, family, 24, seed)


@pytest.mark.slow
@pytest.mark.parametrize("algorithm", ["star-heal", "wreath-heal"])
@pytest.mark.parametrize("adv", SLOW_ADVERSARIES)
@pytest.mark.parametrize("n", [16, 24])
def test_slow_heal_grid(algorithm, adv, n):
    _assert_cell_equivalent(algorithm, "ring", n, 0, adv)


@pytest.mark.slow
@pytest.mark.parametrize("algorithm", scenario_names("composition"))
@pytest.mark.parametrize("family", ["ring", "line", "gnp"])
@pytest.mark.parametrize("n", [17, 33])
def test_slow_composition_grid(algorithm, family, n):
    _assert_cell_equivalent(algorithm, family, n)


def test_is_original_parity_after_crash_of_deactivated_edge_endpoint():
    """Regression: a crashed node's *deactivated* original edges must
    leave E(1) on both backends, so is_original answers False for a
    node that no longer exists (previously the stale key survived on
    the reference backend only)."""
    import networkx as nx

    from repro.engine import Network, RoundActions
    from repro.engine.dense import DenseNetwork

    answers = {}
    for cls in (Network, DenseNetwork):
        net = cls(nx.cycle_graph(5))
        actions = RoundActions()
        actions.request_deactivation(0, 0, 1)
        net.apply(actions, strict=True)
        net.apply_external(crashes=[1])
        answers[cls.__name__] = (
            net.is_original(0, 1),
            net.is_original(1, 2),
            sorted(net.original_edges),
        )
    assert answers["Network"] == answers["DenseNetwork"]
    assert answers["Network"][0] is False and answers["Network"][1] is False
