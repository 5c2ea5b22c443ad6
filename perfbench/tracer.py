"""Span tracing for the benchmark's traced run.

The tracer wraps the public entry points of the program's layers at run
time (nothing under ``src/`` is edited) and records, for every call:

* a *calling-context node* — one per distinct (parent node, span name)
  pair — holding the call count, the summed duration, the summed
  duration of its child spans, and the first start / last end.  A
  node's self time is its duration minus the part its child spans
  cover, so the self times of every node, root included, add up to the
  root's duration exactly.  The root's self time is the time no wrapped
  layer accounts for (interpreter start, benchmark glue).
* for *coarse* layers (called at most a few times per round), one span
  record ``(id, name, start, end, parent id)`` per call.  Per-node
  program hooks run millions of times and are kept only as aggregates.

Everything stays in memory until :meth:`Tracer.finish`; the caller
writes :meth:`Tracer.dump` out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time

#: Class attributes the engine probes to pick an execution path.  The
#: tracer patches methods only, so these must read the same before and
#: after :func:`install` — checked there, so tracing never changes which
#: path runs.
PROBED_ATTRS = (
    "accepts_raw_rounds",
    "telemetry_probe",
    "bulk_sparse",
    "manages_public_dirty",
    "phase_kernel",
    "assist_rounds",
    "produces_actions",
)

#: Checker classes whose hooks are timed one span name per class.
CHECKERS = (
    ("repro.conformance_arrays", "ArrayConnectivityChecker"),
    ("repro.conformance_arrays", "ArrayTemporalLegalityChecker"),
    ("repro.conformance", "RoundBoundChecker"),
    ("repro.conformance", "EdgeBudgetChecker"),
    ("repro.conformance", "TotalActivationChecker"),
)
CHECKER_HOOKS = ("on_run_start", "on_round", "on_perturbation", "on_run_end")


def _apply_counts(tracer, args, result):
    actions = args[1]
    tracer.count("engine.apply_requested", len(actions.activations) + len(actions.deactivations))
    tracer.count("engine.apply_effective", len(result[0]) + len(result[1]))


def _assist_counts(tracer, args, result):
    if result:
        tracer.count("core.assist_rounds", 1)


def _strike_counts(tracer, args, result):
    if result is not None:
        tracer.count("dynamics.drops", len(result.drops))


#: The layer entry points: (module, owner class or None for a module
#: function, attribute, span name, hot, post-call counter hook).  ``hot``
#: layers run once per node per round and keep no per-call span record.
LAYERS = (
    ("repro.graphs", None, "make", "graphs.make", False, None),
    ("repro.engine.dense", "DenseNetwork", "__init__", "engine.network_init", False, None),
    ("repro.engine.network", "Network", "__init__", "engine.network_init", False, None),
    ("repro.engine.runner", "SynchronousRunner", "__init__", "engine.runner_init", False, None),
    ("repro.engine.runner", "SynchronousRunner", "run", "engine.runner", False, None),
    ("repro.engine.dense", "DenseNetwork", "apply", "engine.apply", False, _apply_counts),
    ("repro.engine.network", "Network", "apply", "engine.apply", False, _apply_counts),
    ("repro.engine.dense", "DenseNetwork", "apply_external", "engine.apply_external", False, None),
    ("repro.engine.network", "Network", "apply_external", "engine.apply_external", False, None),
    ("repro.engine.dense", "DenseNetwork", "snapshot_graph", "engine.snapshot_graph", False, None),
    ("repro.engine.network", "Network", "snapshot_graph", "engine.snapshot_graph", False, None),
    ("repro.engine.metrics", "MetricsRecorder", "record_round", "engine.metrics", False, None),
    ("repro.engine.metrics", "MetricsRecorder", "record_external", "engine.metrics", False, None),
    ("repro.core.graph_to_star", "StarDenseKernel", "init_state", "core.kernel_init", False, None),
    ("repro.core.graph_to_star", "StarDenseKernel", "step_round", "core.kernel_step", False, None),
    ("repro.core.graph_to_star", "StarDenseKernel", "apply_effective", "core.apply_effective",
     False, None),
    ("repro.core.graph_to_star", "StarDenseKernel", "finalize", "core.kernel_finalize", False, None),
    ("repro.core.graph_to_star", "GraphToStarProgram", "compose", "core.program", True, None),
    ("repro.core.graph_to_star", "GraphToStarProgram", "transition", "core.program", True, None),
    ("repro.core.graph_to_wreath", "GraphToWreathProgram", "compose", "core.program", True, None),
    ("repro.core.graph_to_wreath", "GraphToWreathProgram", "transition", "core.program", True,
     None),
    ("repro.core.graph_to_wreath", "WreathSpliceKernel", "assist_round", "core.assist", False,
     _assist_counts),
    ("repro.engine.tracebin", "BinarySink", "on_run_start", "tracebin.encode", False, None),
    ("repro.engine.tracebin", "BinarySink", "on_round", "tracebin.encode", False, None),
    ("repro.engine.tracebin", "BinarySink", "on_perturbation", "tracebin.encode", False, None),
    ("repro.engine.tracebin", "BinarySink", "on_run_end", "tracebin.encode", False, None),
    ("repro.engine.tracebin", "BinarySink", "close", "tracebin.encode", False, None),
    ("repro.engine.tracebin", "BinaryTraceReader", "iter_segment", "tracebin.decode", False, None),
    ("repro.conformance", None, "check_trace_parallel", "conformance.audit", False, None),
    ("repro.dynamics.adversary", "EdgeDropAdversary", "strike", "dynamics.strike", False,
     _strike_counts),
    ("repro.dynamics.scenarios", None, "star_target", "dynamics.target_check", False, None),
    ("repro.dynamics.scenarios", None, "wreath_target", "dynamics.target_check", False, None),
    ("repro.analysis", None, "measure", "analysis.measure", False, None),
) + tuple(
    (module, cls, hook, f"conformance.{cls}", False, None)
    for module, cls in CHECKERS
    for hook in CHECKER_HOOKS
)


class Node:
    """One calling-context node: every call of ``name`` under ``parent``."""

    __slots__ = ("name", "parent", "children", "calls", "total", "child", "first", "last")

    def __init__(self, name: str, parent: "Node | None") -> None:
        self.name = name
        self.parent = parent
        self.children: dict = {}
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.first = None
        self.last = None

    @property
    def self_time(self) -> float:
        return self.total - self.child

    def walk(self):
        yield self
        for c in self.children.values():
            yield from c.walk()


class Tracer:
    """Collects spans on one thread; ``origin`` is the root span's start
    (the parent's stamp taken just before it started this process)."""

    def __init__(self, origin: float, clock=time.monotonic) -> None:
        self.clock = clock
        self.root = Node("process", None)
        self.root.first = origin
        self.root.calls = 1
        # Frames: [node, start, child time so far, span id or None].
        self._stack = [[self.root, origin, 0.0, 0]]
        self.spans: list = [(0, "process", origin, None, None)]
        self.counters: dict = {}
        self._patched: list = []

    # -- span bookkeeping -------------------------------------------------

    def enter(self, name: str, hot: bool = False) -> None:
        parent = self._stack[-1]
        node = parent[0].children.get(name)
        if node is None:
            node = parent[0].children[name] = Node(name, parent[0])
        span_id = None
        if not hot:
            span_id = len(self.spans)
            self.spans.append(None)
        self._stack.append([node, self.clock(), 0.0, span_id])

    def exit(self) -> None:
        node, start, child, span_id = self._stack.pop()
        end = self.clock()
        dur = end - start
        node.calls += 1
        node.total += dur
        node.child += child
        if node.first is None:
            node.first = start
        node.last = end
        parent = self._stack[-1]
        parent[2] += dur
        if span_id is not None:
            pid = next(f[3] for f in reversed(self._stack) if f[3] is not None)
            self.spans[span_id] = (span_id, node.name, start, end, pid)

    @contextlib.contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def count(self, key: str, value=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def finish(self) -> None:
        """Close the root span.  Open frames (none in a clean run) are
        closed first so the self-time identity still holds."""
        while len(self._stack) > 1:
            self.exit()
        root = self._stack[0]
        end = self.clock()
        self.root.total = end - root[1]
        self.root.child = root[2]
        self.root.last = end
        self.spans[0] = (0, "process", root[1], end, None)

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn, name: str, hot: bool = False, post=None):
        enter, exit_ = self.enter, self.exit
        if inspect.isgeneratorfunction(fn):
            # Time each step of the generator, not its creation.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    enter(name, hot)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        exit_()
                    yield item

            return gen_wrapper

        if post is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                enter(name, hot)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_()

            return wrapper

        @functools.wraps(fn)
        def counting_wrapper(*args, **kwargs):
            enter(name, hot)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            post(self, args, result)
            return result

        return counting_wrapper

    def patch(self, owner, attr: str, name: str, hot: bool = False, post=None) -> None:
        """Replace ``owner.attr`` (a class's own method or a module
        function) by a timing wrapper; :meth:`uninstall` restores it."""
        raw = owner.__dict__[attr]
        if isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(raw.__func__, name, hot, post))
        elif isinstance(raw, classmethod):
            new = classmethod(self.wrap(raw.__func__, name, hot, post))
        else:
            new = self.wrap(raw, name, hot, post)
        setattr(owner, attr, new)
        self._patched.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    # -- output --------------------------------------------------------------

    def dump(self) -> dict:
        """The whole trace as plain data (nodes in depth-first order)."""
        ids = {}
        nodes = []
        for node in self.root.walk():
            ids[id(node)] = len(nodes)
            nodes.append({
                "id": len(nodes),
                "name": node.name,
                "parent": None if node.parent is None else ids[id(node.parent)],
                "calls": node.calls,
                "total_s": node.total,
                "self_s": node.self_time,
                "first": node.first,
                "last": node.last,
            })
        return {
            "nodes": nodes,
            "spans": [list(s) for s in self.spans if s is not None],
            "counters": dict(self.counters),
        }


def _probe_snapshot(owners) -> dict:
    return {
        (id(owner), attr): getattr(owner, attr)
        for owner in owners
        if isinstance(owner, type)
        for attr in PROBED_ATTRS
        if hasattr(owner, attr)
    }


def install(tracer: Tracer, layers=LAYERS) -> None:
    """Patch every layer entry point.  Raises if a probed class attribute
    reads differently afterwards (the engine would take another path)."""
    targets = []
    for module_name, cls_name, attr, name, hot, post in layers:
        module = importlib.import_module(module_name)
        owner = module if cls_name is None else getattr(module, cls_name)
        if attr in owner.__dict__:  # an inherited hook is timed under its defining class
            targets.append((owner, attr, name, hot, post))
    owners = [target[0] for target in targets]
    before = _probe_snapshot(owners)
    for target in targets:
        tracer.patch(*target)
    if _probe_snapshot(owners) != before:
        tracer.uninstall()
        raise RuntimeError("tracing changed a probed class attribute")


def self_times(nodes) -> dict:
    """Summed self time per span name over a dumped node list."""
    out: dict = {}
    for node in nodes:
        out[node["name"]] = out.get(node["name"], 0.0) + node["self_s"]
    return out


def call_counts(nodes) -> dict:
    out: dict = {}
    for node in nodes:
        out[node["name"]] = out.get(node["name"], 0) + node["calls"]
    return out
