"""Span tracing from outside the program, by swapping module attributes.

A :class:`Tracer` replaces named functions of the ``dyadsync`` modules
(and methods of its model classes) with wrappers that record one span
per call: name, start, end, parent span and op id.  Nothing under
``src/`` changes; the originals are put back when the ``installed()``
block ends.  Spans stay in memory and are aggregated after the run.

The wrappers only see calls that go through the patched attribute at
call time.  ``dyadsync`` calls its own functions through module globals
(``T.matmul``, ``adam_step(...)``, ``add(matmul(...))``) or through the
model classes, so patching the module dict or the class reaches every
internal call site as well.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

# Phase a span belongs to: setup (before the measured ops), an op, or the
# run's closing stage (ingest-baselines fits and applies its classifier).
SETUP = "setup"
OPS = "ops"
FINISH = "finish"

TENSOR_OPS = (
    "matmul", "add", "multiply", "gelu", "layer_norm", "softmax_rows",
    "log_softmax", "dropout_apply", "reshape", "transpose", "reduce_mean",
)


class Tracer:
    """In-memory span recorder with self-time aggregation."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, op id, phase]
        self.spans: list = []
        # (phase, key) -> number; computed work that a span cannot carry
        self.counters: Counter = Counter()
        self.phase = SETUP
        self.op_id = -1
        self._stack: list = []
        self._patches: list = []

    def wrap(self, owner, attr: str, name, on_return=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``name`` is a fixed span name or a callable of the call's
        positional arguments returning one.  ``on_return(counters, phase,
        args, result)`` adds computed counts after each call.
        """
        original = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            index = len(spans)
            span = [label, clock(), 0.0, stack[-1] if stack else -1, self.op_id, self.phase]
            spans.append(span)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(self.counters, self.phase, args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced attribute for the block, then restore it."""
        install_targets(self)
        try:
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def aggregate(self, phase: str) -> dict:
        """name -> [calls, inclusive seconds, self seconds] within one phase.

        Self time is a span's duration minus the durations of its direct
        children; calls are sequential on one thread, so children never
        overlap each other.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _, _, span_phase) in enumerate(self.spans):
            if span_phase != phase:
                continue
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return out


def _owned_bytes(counters, phase, args, result) -> None:
    """Bytes of a forward-op output that owns its buffer (views are free)."""
    data = getattr(result, "data", None)
    if data is None or not data.flags.owndata or any(result is a for a in args):
        return
    counters[(phase, "out_bytes")] += data.nbytes


def _matmul_flops(counters, phase, args, result) -> None:
    _owned_bytes(counters, phase, args, result)
    a, b = (getattr(x, "shape", None) for x in args[:2])
    batch = 1
    for extent in result.data.shape[:-2]:
        batch *= extent
    counters[(phase, "matmul_flop")] += 2 * batch * a[-2] * a[-1] * b[-1]


def install_targets(tracer: Tracer) -> None:
    """The module attributes and model methods the traced run times."""
    from dyadsync import (baselines, checkpoint, csm_branch, evaluate, pose_io,
                          similarity, sttf, tensor, training)

    for op in TENSOR_OPS:
        tracer.wrap(tensor, op, f"tensor.{op}",
                    on_return=_matmul_flops if op == "matmul" else _owned_bytes)
    tracer.wrap(tensor, "gradient_of", "tensor.gradient_of")

    spatial_tokens = 2 * pose_io.NUM_JOINTS

    def mhsa_name(args, kwargs):
        # 2J tokens attend within a frame; f tokens attend across frames
        return "sttf.mhsa.spatial" if args[0].shape[-2] == spatial_tokens else "sttf.mhsa.temporal"

    def forward_name(args, kwargs):
        taped = kwargs.get("tape", args[2] if len(args) > 2 else None) is not None
        return "sttf.forward" if taped else "sttf.forward_eval"

    tracer.wrap(sttf, "mhsa", mhsa_name)
    tracer.wrap(sttf.SttfModel, "forward", forward_name)
    tracer.wrap(sttf.SttfModel, "predict_batch", "sttf.predict_batch")
    tracer.wrap(csm_branch.CsmModel, "prepare_inputs", "csm_branch.prepare_inputs")
    tracer.wrap(csm_branch.CsmModel, "predict_batch", "csm_branch.predict_batch")
    for name in ("adam_step", "cross_entropy_loss", "eval_metric"):
        tracer.wrap(training, name, f"training.{name}")
    for name in ("dtw_distance", "dtw_features", "correlation_features",
                 "cross_recurrence_features", "train_linear_hinge", "predict_linear"):
        tracer.wrap(baselines, name, f"baselines.{name}")
    for name in ("load_keypoint_file", "preprocess"):
        tracer.wrap(pose_io, name, f"pose_io.{name}")
    # compute_csm is imported by name into two more modules
    for module in (similarity, baselines, csm_branch):
        tracer.wrap(module, "compute_csm", "similarity.compute_csm")
    for name in ("fuse_predictions", "compute_metrics"):
        tracer.wrap(evaluate, name, f"evaluate.{name}")
    tracer.wrap(checkpoint, "load_model", "checkpoint.load_model")
