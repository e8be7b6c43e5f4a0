"""Span tracing of hypersheaf's layers, installed from outside the package.

The tracer replaces each target function with a timing wrapper wherever the
function is bound: in its defining module, in every package module that
imported it by name and in the package namespace.  For example
``jacobi_eigh`` is looked up both in ``spectral`` and in ``laplacian``, and
``model._apply_signless`` through ``model``'s globals.  Methods are wrapped
on their class.  ``uninstall`` puts every original back, so untraced ops run
the package exactly as shipped.

Each call records one span ``(name, start, end, parent, op)`` in memory; the
harness writes them out when the run ends.  A few boundaries also record
counts (blocks built, tape size, Jacobi dimension, spectral failures).
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

PACKAGE = "hypersheaf"

# (module, attribute) pairs; a dotted attribute names a method on a class.
# Besides the functions the metrics name, every tape op the model calls and
# the BlockComplexMatrix methods that do work are wrapped, so that their
# time counts as autodiff or blockmatrix self time rather than as their
# caller's.
TARGETS = (
    ("data", "generate_synthetic"),
    ("data", "write_dataset"),
    ("data", "read_dataset"),
    ("hypergraph", "write_hypergraph"),
    ("hypergraph", "read_hypergraph"),
    ("sheaf", "build_fixed_sheaf"),
    ("laplacian", "build_laplacian"),
    ("laplacian", "build_incidence"),
    ("laplacian", "build_degree_matrices"),
    ("laplacian", "_spd_inverse_sqrt"),
    ("laplacian", "apply_laplacian"),
    ("blockmatrix", "BlockComplexMatrix.__init__"),
    ("blockmatrix", "BlockComplexMatrix.matmul"),
    ("blockmatrix", "BlockComplexMatrix.apply"),
    ("blockmatrix", "BlockComplexMatrix.hermitian_defect"),
    ("blockmatrix", "BlockComplexMatrix.max_abs_imag"),
    ("blockmatrix", "BlockComplexMatrix.to_dense"),
    ("jacobi", "jacobi_eigh"),
    ("spectral", "verify_spectral_suite"),
    ("spectral", "dirichlet_energy"),
    ("autodiff", "Tape.backward"),
    *(("autodiff", op) for op in (
        "add", "sub", "mul", "div", "matmul", "transpose", "reshape", "concat", "gather",
        "segment_sum", "reduce_sum", "tanh", "relu", "sqrt", "softmax_cross_entropy",
    )),
    ("model", "train"),
    ("model", "loss_and_gradients"),
    ("model", "forward"),
    ("model", "_forward_tape"),
    ("model", "_predict_maps"),
    ("model", "_operator_blocks"),
    ("model", "_apply_signless"),
    ("model", "_layer_norm_pair"),
    ("model", "_adam_step"),
)

BYTES_PER_MIB = 2**20


def _count_blocks(args, result, counts):
    matrix = args[0]
    blocks = len(matrix.entries)
    counts["blockmatrix.blocks"] += blocks
    counts["blockmatrix.bytes"] += blocks * matrix.block_dim**2 * 16  # complex128


def _count_jacobi(args, result, counts):
    counts["jacobi.max_dim"] = max(counts["jacobi.max_dim"], len(args[0]))


def _count_spectral(args, result, counts):
    counts["spectral.failures"] += len(result.failures)


def _count_tape(args, result, counts):
    nodes = args[0].nodes
    counts["autodiff.steps"] += 1
    counts["autodiff.tape_nodes"] += len(nodes)
    counts["autodiff.tape_bytes"] += sum(node.value.nbytes for node in nodes)


# Run after the span closes, so the counting is not charged to the layer.
COUNTERS = {
    "blockmatrix.BlockComplexMatrix.__init__": _count_blocks,
    "jacobi.jacobi_eigh": _count_jacobi,
    "spectral.verify_spectral_suite": _count_spectral,
    "autodiff.Tape.backward": _count_tape,
}


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Tracer:
    """Records spans and counts for every call into a target while installed."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: dict[int, defaultdict] = defaultdict(lambda: defaultdict(float))
        self.missing: list[str] = []
        self.op = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._resolve()

    # --- installation --------------------------------------------------

    def _resolve(self) -> None:
        """Find every binding of every target; absent targets are listed as missing."""
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for module_name, attr in TARGETS:
            span = f"{module_name}.{attr}"
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            owner_name, _, method = attr.rpartition(".")
            if module is None:
                self.missing.append(span)
                continue
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = None if owner is None else owner.__dict__.get(method)
                if original is None:
                    self.missing.append(span)
                    continue
                self._patches.append((owner, method, original, self._wrap(original, span)))
                continue
            original = module.__dict__.get(attr)
            if original is None:
                self.missing.append(span)
                continue
            wrapper = self._wrap(original, span)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, original, wrapper))

    def install(self) -> None:
        for owner, key, _original, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _wrapper in self._patches:
            setattr(owner, key, original)

    def _wrap(self, fn, span: str):
        counter = COUNTERS.get(span)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (span, start, end, parent, self.op)
            if counter is not None:
                counter(args, result, self.counts[self.op])
            return result

        return traced

    @contextlib.contextmanager
    def root(self, name: str, op: int):
        """Open the span that parents every layer call of one op or set-up run."""
        self.op = op
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        self.install()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.uninstall()
            self._stack.pop()
            self.spans[index] = (name, start, end, -1, op)


# --- derived metrics ------------------------------------------------------------

# (metric, unit, scope, kind, argument).  Scope "setup" averages over traced
# set-up runs, "op" over traced ops and "step" over training steps; "run" is
# the largest value of any traced op.  Kinds:
#   "incl"  inclusive time of the named spans; a span nested in another named
#           span is not counted twice
#   "calls" number of the named spans
#   "self"  self time (duration minus child spans) of one layer's spans
#   "count" a count recorded at the named span, or by the harness when None
#   "rest"  the first metric minus the others: the part of a span the named
#           children do not cover
METRICS = (
    ("data.generate_s", "s", "setup", "incl", ("data.generate_synthetic",)),
    ("hypergraph.io_s", "s", "setup", "incl", (
        "data.write_dataset", "data.read_dataset",
        "hypergraph.write_hypergraph", "hypergraph.read_hypergraph",
    )),
    ("sheaf.build_s", "s", "setup", "incl", ("sheaf.build_fixed_sheaf",)),
    ("hypergraph.incidences", "count", "op", "count", ("hypergraph.incidences", None)),
    ("laplacian.build_s", "s", "op", "incl", ("laplacian.build_laplacian",)),
    ("laplacian.incidence_s", "s", "op", "incl", ("laplacian.build_incidence",)),
    ("laplacian.degrees_s", "s", "op", "incl", ("laplacian.build_degree_matrices",)),
    ("laplacian.inv_sqrt_s", "s", "op", "incl", ("laplacian._spd_inverse_sqrt",)),
    ("laplacian.product_s", "s", "op", "rest", (
        "laplacian.build_s", "laplacian.incidence_s", "laplacian.degrees_s", "laplacian.inv_sqrt_s",
    )),
    ("laplacian.apply_s", "s", "op", "incl", ("laplacian.apply_laplacian",)),
    ("blockmatrix.matmul_s", "s", "op", "incl", ("blockmatrix.BlockComplexMatrix.matmul",)),
    ("blockmatrix.apply_s", "s", "op", "incl", ("blockmatrix.BlockComplexMatrix.apply",)),
    ("blockmatrix.to_dense_s", "s", "op", "incl", ("blockmatrix.BlockComplexMatrix.to_dense",)),
    ("blockmatrix.blocks", "count", "op", "count", (
        "blockmatrix.blocks", "blockmatrix.BlockComplexMatrix.__init__",
    )),
    ("blockmatrix.block_mb", "MiB", "op", "count", (
        "blockmatrix.bytes", "blockmatrix.BlockComplexMatrix.__init__",
    )),
    ("jacobi.calls", "count", "op", "calls", ("jacobi.jacobi_eigh",)),
    ("jacobi.s", "s", "op", "incl", ("jacobi.jacobi_eigh",)),
    ("jacobi.max_dim", "count", "run", "count", ("jacobi.max_dim", "jacobi.jacobi_eigh")),
    ("spectral.verify_s", "s", "op", "incl", ("spectral.verify_spectral_suite",)),
    ("spectral.dirichlet_s", "s", "op", "incl", ("spectral.dirichlet_energy",)),
    ("spectral.failures", "count", "op", "count", (
        "spectral.failures", "spectral.verify_spectral_suite",
    )),
    ("autodiff.backward_s", "s", "op", "incl", ("autodiff.Tape.backward",)),
    ("autodiff.tape_nodes", "count", "step", "count", ("autodiff.tape_nodes", "autodiff.Tape.backward")),
    ("autodiff.tape_mb", "MiB", "step", "count", ("autodiff.tape_bytes", "autodiff.Tape.backward")),
    *(
        entry
        for op in ("gather", "segment_sum", "mul", "matmul")
        for entry in (
            (f"autodiff.{op}.calls", "count", "op", "calls", (f"autodiff.{op}",)),
            (f"autodiff.{op}_s", "s", "op", "incl", (f"autodiff.{op}",)),
        )
    ),
    ("model.loss_and_gradients_s", "s", "op", "incl", ("model.loss_and_gradients",)),
    ("model.forward_s", "s", "op", "incl", ("model.forward",)),
    ("model.predict_maps_s", "s", "op", "incl", ("model._predict_maps",)),
    ("model.operator_blocks_s", "s", "op", "incl", ("model._operator_blocks",)),
    ("model.signless_apply_s", "s", "op", "incl", ("model._apply_signless",)),
    ("model.layer_norm_s", "s", "op", "incl", ("model._layer_norm_pair",)),
    ("model.forward_tape_s", "s", "op", "incl", ("model._forward_tape",)),
    ("model.classifier_s", "s", "op", "rest", (
        "model.forward_tape_s", "model.predict_maps_s", "model.operator_blocks_s",
        "model.signless_apply_s", "model.layer_norm_s",
    )),
    ("model.adam_s", "s", "op", "incl", ("model._adam_step",)),
    *(
        (f"{layer}.self_s", "s", "op", "self", layer)
        for layer in (
            "bench", "data", "hypergraph", "sheaf", "laplacian", "blockmatrix",
            "jacobi", "spectral", "autodiff", "model",
        )
    ),
)

# Feeds model.classifier_s only; not reported on its own.
HELPER_METRICS = ("model.forward_tape_s",)
REPORTED = tuple(m[:2] for m in METRICS if m[0] not in HELPER_METRICS)


def _depends_on(kind: str, argument) -> tuple[str, ...]:
    if kind in ("incl", "calls"):
        return argument
    if kind == "count":
        return argument[1:] if argument[1] else ()
    return ()


def layer_metrics(tracer: Tracer, setup_ops: list[int], ops: list[int]) -> dict[str, float | None]:
    """Per-layer values from the recorded spans and counts.

    ``setup_ops`` and ``ops`` are the op ids of the traced set-up runs and of
    the traced ops.  A metric that depends on a target the package no longer
    has is ``None`` (missing), never 0.
    """
    if any(s is None for s in tracer.spans):
        raise RuntimeError("a span was left open")
    scopes = {"setup": set(setup_ops), "op": set(ops), "step": set(ops), "run": set(ops)}
    steps = sum(tracer.counts[op]["autodiff.steps"] for op in ops)
    divisor = {"setup": len(setup_ops), "op": len(ops), "step": steps, "run": 1}

    metrics_of_span: dict[str, list[int]] = defaultdict(list)
    for k, (_name, _unit, _scope, kind, argument) in enumerate(METRICS):
        if kind in ("incl", "calls"):
            for span in argument:
                metrics_of_span[span].append(k)
    totals = [0.0] * len(METRICS)
    self_time: dict[tuple[str, int], float] = defaultdict(float)

    # Spans are stored in call order, so a parent always precedes its children.
    ancestors: list[frozenset] = []
    child_time = [0.0] * len(tracer.spans)
    for name, start, end, parent, _op in tracer.spans:
        if parent == -1:
            ancestors.append(frozenset())
        else:
            ancestors.append(ancestors[parent] | {tracer.spans[parent][0]})
            child_time[parent] += end - start
    for (name, start, end, _parent, op), anc, child in zip(tracer.spans, ancestors, child_time):
        self_time[(layer_of(name), op)] += (end - start) - child
        for k in metrics_of_span.get(name, ()):
            _m, _u, scope, kind, argument = METRICS[k]
            if op not in scopes[scope]:
                continue
            if kind == "calls":
                totals[k] += 1
            elif not (anc & set(argument)):
                totals[k] += end - start

    values: dict[str, float | None] = {}
    missing = set(tracer.missing)
    for k, (name, unit, scope, kind, argument) in enumerate(METRICS):
        if any(span in missing for span in _depends_on(kind, argument)):
            values[name] = None
            continue
        if kind == "rest":
            head, *parts = (values[m] for m in argument)
            values[name] = None if None in parts or head is None else head - sum(parts)
            continue
        if kind == "self":
            total = sum(self_time[(argument, op)] for op in scopes[scope])
        elif kind == "count":
            recorded = [tracer.counts[op][argument[0]] for op in scopes[scope]]
            total = max(recorded, default=0.0) if scope == "run" else sum(recorded)
            if unit == "MiB":
                total /= BYTES_PER_MIB
        else:
            total = totals[k]
        values[name] = total / divisor[scope] if divisor[scope] else 0.0
    for helper in HELPER_METRICS:
        del values[helper]
    return values
