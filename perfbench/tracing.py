"""Per-layer tracing of the pipeline from outside ``src/``.

``Tracer`` wraps each layer's public functions at the name its caller looks
them up by (for example ``shrinkcut.shrink.select_merge``, which
``run_shrink`` calls through its module globals), records a span per call,
and restores every original on exit. Nothing in the library changes.

Every ``*_s`` metric is *self* time: a span's duration minus the time covered
by the wrapped calls inside it. Merge penalties run ~40k times per op, so
they are timed and counted in aggregate rather than as one span each.
"""

from __future__ import annotations

import inspect
from collections import Counter
from time import perf_counter

import shrinkcut.pipeline as pipeline
import shrinkcut.shrink as shrink
import shrinkcut.solvers as solvers
from shrinkcut.qubo import evaluate_qubo

# (name, unit, better), in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("shrink.select_s", "s", "lower"),
    ("shrink.pairs_scored", "count", "lower"),
    ("shrink.merges", "count", "lower"),
    ("shrink.contract_s", "s", "lower"),
    ("shrink.local_update_s", "s", "lower"),
    ("shrink.recalcs", "count", "lower"),
    ("shrink.self_s", "s", "lower"),
    ("feasibility.penalty_s", "s", "lower"),
    ("feasibility.penalty_calls", "count", "lower"),
    ("feasibility.check_s", "s", "lower"),
    ("feasibility.repair_s", "s", "lower"),
    ("feasibility.repairs", "count", "lower"),
    ("feasibility.repair_iterations", "count", "lower"),
    ("sdp.solve_s", "s", "lower"),
    ("sdp.solves", "count", "lower"),
    ("sdp.sweeps", "count", "lower"),
    ("sdp.node_sweeps", "count", "lower"),
    ("sdp.cap_hit_rate", "ratio", "lower"),
    ("sdp.extract_s", "s", "lower"),
    ("spectral.laplacian_s", "s", "lower"),
    ("spectral.eigen_s", "s", "lower"),
    ("spectral.target_k", "count", "lower"),
    ("spectral.keep_all_rate", "ratio", "lower"),
    ("solvers.sa_s", "s", "lower"),
    ("solvers.sa_flip_attempts", "count", "lower"),
    ("solvers.exact_s", "s", "lower"),
    ("solvers.exact_states", "count", "lower"),
    ("qubo.build_s", "s", "lower"),
    ("qubo.quad_terms", "count", "lower"),
    ("maxcut.to_maxcut_s", "s", "lower"),
    ("maxcut.to_qubo_s", "s", "lower"),
    ("maxcut.edges", "count", "lower"),
    ("reconstruct.lift_s", "s", "lower"),
    ("reconstruct.decode_s", "s", "lower"),
    ("pipeline.local_search_s", "s", "lower"),
    ("pipeline.self_s", "s", "lower"),
    ("instances.load_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

LIFT_RTOL = 1e-9


def _arguments(fn, args, kwargs) -> dict:
    """A call's arguments by parameter name, defaults filled in."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    """Installs span wrappers on entry and restores the originals on exit.

    Counters go to the bucket of the current op (``begin_op``) or, outside
    any op, to ``setup``. Spans are kept in memory as tuples
    ``(op, span_id, parent_id, target, start, end)`` for ops below
    ``keep_spans``.
    """

    def __init__(self, keep_spans: int = 0) -> None:
        self.keep_spans = keep_spans
        self.setup: Counter = Counter()
        self.ops: list[Counter] = []
        self.problems: dict[int, list[str]] = {}
        self.spans: list[tuple] = []
        self.patched: list[tuple[object, str, object]] = []
        self._bucket = self.setup
        self._op: int | None = None
        self._stack: list[list] = []  # [span_id, child_seconds]
        self._next_span = 0
        self._models: dict[int, object] = {}

    # -- op bookkeeping ---------------------------------------------------

    def begin_op(self, index: int) -> None:
        self._op = index
        self._bucket = Counter()
        self.ops.append(self._bucket)
        self._models.clear()

    def end_op(self) -> None:
        self._op = None
        self._bucket = self.setup
        self._models.clear()

    def _problem(self, message: str) -> None:
        self.problems.setdefault(self._op, []).append(message)

    # -- wrappers -----------------------------------------------------------

    def _charge_parent(self, seconds: float) -> None:
        if self._stack:
            self._stack[-1][1] += seconds

    def _span(self, owner, attr: str, metric: str | None, hook=None) -> None:
        """Wrap ``owner.attr``; its self time goes to ``metric``.

        With ``metric`` None the call is not timed (its time stays with the
        caller) and only ``hook`` runs.

        ``hook(result, arguments)`` records counts after the call and may
        return a replacement result; its own cost is charged to no layer.
        """
        original = owner.__dict__[attr]
        target = f"{getattr(owner, '__name__', owner)}.{attr}"
        tracer = self

        def wrapper(*args, **kwargs):
            if metric is None:
                result = original(*args, **kwargs)
                hook(result, _arguments(original, args, kwargs))
                return result
            span_id = tracer._next_span
            tracer._next_span += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                duration = end - start
                tracer._bucket[metric] += duration - frame[1]
                tracer._charge_parent(duration)
                if tracer._op is not None and tracer._op < tracer.keep_spans:
                    tracer.spans.append((tracer._op, span_id, parent, target, start, end))
            if hook is not None:
                hook_start = perf_counter()
                replaced = hook(result, _arguments(original, args, kwargs))
                if replaced is not None:
                    result = replaced
                tracer._charge_parent(perf_counter() - hook_start)
            return result

        setattr(owner, attr, wrapper)
        self.patched.append((owner, attr, original))

    def _aggregate(self, fn, metric: str, count: str):
        """Time and count a hot callable in aggregate, without spans."""
        tracer = self

        def wrapper(*args):
            start = perf_counter()
            result = fn(*args)
            duration = perf_counter() - start
            tracer._bucket[metric] += duration
            tracer._bucket[count] += 1
            tracer._charge_parent(duration)
            return result

        return wrapper

    # -- hooks --------------------------------------------------------------

    def _on_build(self, model, call):
        self._bucket.update({"qubo.quad_terms": len(model.quad)})

    def _on_maxcut(self, graph, call):
        self._models[id(graph)] = call["model"]
        self._bucket.update({"maxcut.edges": len(graph.edges)})

    def _on_penalty(self, penalty, call):
        return self._aggregate(penalty, "feasibility.penalty_s", "feasibility.penalty_calls")

    def _on_shrink(self, result, call):
        stats = result.stats
        self._bucket.update({"shrink.merges": stats.merges, "shrink.recalcs": stats.recalcs})

    def _on_target(self, k, call):
        self._bucket.update(
            {
                "spectral.rules": 1,
                "spectral.target_k": k,
                "spectral.keep_all": int(k >= call["spectrum"].n),
            }
        )

    def _on_sdp(self, embedding, call):
        sweeps = embedding.sweeps_used
        self._bucket.update(
            {
                "sdp.solves": 1,
                "sdp.sweeps": sweeps,
                "sdp.node_sweeps": sweeps * call["graph"].n_nodes,
                "sdp.cap_hits": int(sweeps >= call["max_sweeps"]),
            }
        )

    def _on_select(self, merge, call):
        size = len(call["supernodes"])
        self._bucket.update({"shrink.pairs_scored": size * (size - 1) // 2})

    def _on_sa(self, solution, call):
        n = call["model"].n_vars
        sweeps = call["sweeps"] if call["sweeps"] is not None else 200 * n  # solve_sa's default
        self._bucket.update({"solvers.sa_flip_attempts": sweeps * n})

    def _on_exact(self, solution, call):
        self._bucket.update({"solvers.exact_states": 1 << call["model"].n_vars})

    def _on_repair(self, report, call):
        self._bucket.update(
            {"feasibility.repairs": 1, "feasibility.repair_iterations": report.iterations}
        )

    def _on_lift(self, lifted, call):
        model = self._models.get(id(call["original_graph"]))
        if model is None:
            self._problem("lift check: no QUBO model recorded for the lifted graph")
            return
        energy = evaluate_qubo(model, lifted.bits)
        scale = max(1.0, abs(energy), abs(lifted.energy))
        if abs(energy - lifted.energy) > LIFT_RTOL * scale:
            self._problem(
                f"lift check: evaluate_qubo gives {energy!r}, lifted energy is {lifted.energy!r}"
            )

    # -- install / restore ----------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def _install(self) -> None:
        span = self._span
        span(pipeline, "run_pipeline", "pipeline.self_s")
        span(pipeline, "load_instance", "instances.load_s")
        span(pipeline, "recommend_penalty", "qubo.build_s")
        for builder in ("build_mdkp_qubo", "build_mis_qubo", "build_qap_qubo"):
            span(pipeline, builder, "qubo.build_s", self._on_build)
        span(pipeline, "qubo_to_maxcut", "maxcut.to_maxcut_s", self._on_maxcut)
        span(pipeline, "make_penalty", "feasibility.penalty_s", self._on_penalty)
        span(pipeline, "run_shrink", "shrink.self_s", self._on_shrink)
        span(shrink, "laplacian", "spectral.laplacian_s")
        span(shrink, "symmetric_eigenvalues", "spectral.eigen_s")
        span(shrink, "select_target_size", None, self._on_target)
        span(shrink, "solve_maxcut_sdp", "sdp.solve_s", self._on_sdp)
        span(shrink, "extract_correlations", "sdp.extract_s")
        span(shrink, "select_merge", "shrink.select_s", self._on_select)
        span(shrink.WorkingGraph, "contract", "shrink.contract_s")
        span(shrink, "local_correlation_update", "shrink.local_update_s")
        span(pipeline, "graph_to_qubo", "maxcut.to_qubo_s")
        span(solvers, "solve_sa", "solvers.sa_s", self._on_sa)
        span(solvers, "solve_exact", "solvers.exact_s", self._on_exact)
        span(pipeline, "lift_solution", "reconstruct.lift_s", self._on_lift)
        span(pipeline, "decode_solution", "reconstruct.decode_s")
        span(pipeline, "is_feasible", "feasibility.check_s")
        span(pipeline, "repair", "feasibility.repair_s", self._on_repair)
        span(pipeline, "local_search", "pipeline.local_search_s")

    def restore(self) -> None:
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)


def layer_metrics(ops: list[Counter], setup: Counter, overhead_pct: float) -> dict[str, float]:
    """Per-op means over ``ops`` for every PER_LAYER name.

    Rates divide by their own base: ``sdp.cap_hit_rate`` by SDP solves,
    ``spectral.keep_all_rate`` by ops, and ``spectral.target_k`` is the mean
    over spectral-rule calls. A base of zero reports 0.
    """
    total: Counter = Counter()
    for counts in ops:
        total.update(counts)
    n_ops = len(ops)

    def ratio(num: str, den: float) -> float:
        return total[num] / den if den else 0.0

    values = {name: ratio(name, n_ops) for name, _, _ in PER_LAYER}
    values["sdp.cap_hit_rate"] = ratio("sdp.cap_hits", total["sdp.solves"])
    values["spectral.target_k"] = ratio("spectral.target_k", total["spectral.rules"])
    values["spectral.keep_all_rate"] = ratio("spectral.keep_all", n_ops)
    values["instances.load_s"] = float(setup["instances.load_s"])
    values["trace.overhead_pct"] = overhead_pct
    return values
