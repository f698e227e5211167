"""The three benchmark workloads, each a closed loop of one client.

A workload is built from the benchmark seed and a size table.
``setup(work)`` generates every input from the seed with
``dyadsync.synthgen`` (as files under ``work``), prepares models and
runs one warm-up op; ``begin()`` clears per-run state; ``op(k)`` does
one unit of work, times its stages and checks its outputs; ``finish()``
runs any closing stage; ``report()`` gives the workload's own metrics.

Every call into ``dyadsync`` goes through a module attribute or a model
method (``pose_io.preprocess(...)``, never a name imported into this
file), so the traced run's patches see it.
"""

from __future__ import annotations

import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dyadsync import (baselines, checkpoint, csm_branch, evaluate, pose_io,
                      similarity, sttf, synthgen, tensor, training)

CRITERION6_MODEL = dict(f=81, num_joints=17, d_joint=4, layers=1, heads=2, dropout=0.1)


@dataclass
class OpResult:
    stages: dict  # stage name -> seconds
    items: int  # samples or clips the op completed
    error: str = ""  # the first output check that failed, or the exception
    tape_nodes: tuple = ()  # len(loss.tape) of each training step

    @property
    def seconds(self) -> float:
        return sum(self.stages.values())

    def expect(self, ok, message: str) -> None:
        """Output check: a failure marks the op failed, it does not raise."""
        if not ok and not self.error:
            self.error = message


@dataclass
class FinishResult:
    stages: dict = field(default_factory=dict)
    error: str = ""


def percentile_line(name, values, q, unit, scale=1.0):
    """(name, value, unit, n) for percentile q; the value is None when
    fewer than ten samples lie above it, so a tail is never read off a
    handful."""
    n = len(values)
    if not n or q > 50 and n * (100 - q) / 100 < 10:
        return (name, None, unit, n)
    if q == 50:
        value = statistics.median(values)
    else:
        value = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return (name, value * scale, unit, n)


def total_rate(ops, stage=None, closing: float = 0.0) -> float:
    """Items per second over the run: the items of the successful ops over
    the time of every op, plus the run's closing stage.

    ``stage`` counts one stage of each op instead of the whole op.
    """
    ok = [r for r in ops if not r.error]
    seconds = sum(r.stages.get(stage, 0.0) if stage else r.seconds for r in ops)
    return sum(r.items for r in ok) / (seconds + closing)


def write_clips(work: Path, cfg, per_class: int) -> list:
    """``dyadsync synth`` into ``work``: [(path, class)], class-interleaved."""
    if work.exists():
        shutil.rmtree(work)
    synthgen.generate_dataset(cfg, per_class, work)
    entries = pose_io.load_manifest(work / "manifest.json")
    by_class = [[e for e in entries if e.label_class == c] for c in pose_io.CLASS_NAMES]
    return [(e.path, e.label_class) for group in zip(*by_class) for e in group]


def from_checkpoint(build, work: Path):
    """Build a model, save it under ``work`` and load it back.

    The built model is dropped before the load, so setup never holds two
    copies of the weights and its memory peak stays below that of an op.
    """
    model = build()
    path = work / f"{checkpoint.model_kind(model)}.bin"
    checkpoint.save_model(model, path)
    del model
    return checkpoint.load_model(path)


class Workload:
    name = ""
    defaults: dict = {}  # sizes, which the self-check shrinks
    constants: dict = {}  # fixed settings, recorded with the sizes

    def __init__(self, seed: int, **sizes):
        unknown = set(sizes) - set(self.defaults)
        if unknown:
            raise ValueError(f"{self.name}: unknown sizes {sorted(unknown)}")
        self.seed = seed
        self.sizes = {**self.defaults, **sizes}
        self.input_files: list = []

    def config(self) -> dict:
        return {"seed": self.seed, **self.constants, **self.sizes}

    def begin(self) -> None:
        pass

    def finish(self) -> FinishResult:
        return FinishResult()


class TrainSmall(Workload):
    """One ``training.fit`` epoch per op on the criterion-6 transformer."""

    name = "train-small"
    defaults = dict(per_class=20)
    constants = dict(lag=35, amp_mismatch=1.5, batch_size=8, lr0=1e-3, decay=0.995,
                     model=CRITERION6_MODEL)

    def setup(self, work: Path) -> None:
        c = self.constants
        cfg = synthgen.SynthConfig(lag=c["lag"], amp_mismatch=c["amp_mismatch"], seed=self.seed)
        write_clips(work, cfg, self.sizes["per_class"])
        self.input_files = sorted(work.iterdir())
        sequences = pose_io.load_dataset(work / "manifest.json")
        self.model = sttf.SttfModel(sttf.ModelConfig(**c["model"]), seed=self.seed)
        self.inputs = self.model.prepare_inputs(sequences)
        self.targets = training.targets_from_sequences(sequences, "cross_entropy")
        n = len(sequences)
        # fit holds out round(10%) of the clips for its validation pass
        self.samples = n - max(1, round(0.1 * n))
        self.tape_nodes = None
        self.op(0)  # the first epoch is warm-up

    def op(self, k: int) -> OpResult:
        c = self.constants
        cfg = training.TrainConfig(epochs=1, batch_size=c["batch_size"], lr0=c["lr0"],
                                   decay=c["decay"], seed=k)
        steps = []
        inner = tensor.gradient_of

        def counting(loss, params):
            steps.append(len(loss.tape))
            return inner(loss, params)

        tensor.gradient_of = counting
        try:
            t0 = time.perf_counter()
            history = training.fit(self.model, (self.inputs, self.targets), cfg)
            elapsed = time.perf_counter() - t0
        finally:
            tensor.gradient_of = inner
        result = OpResult({"epoch": elapsed}, self.samples, tape_nodes=tuple(steps))
        loss = history[0]["train_loss"]
        result.expect(math.isfinite(loss), f"train_loss {loss}")
        for name, value in self.model.params.items():
            result.expect(np.isfinite(value.data).all(), f"parameter {name} is not finite")
        if self.tape_nodes is None:
            self.tape_nodes = steps[0]
        result.expect(set(steps) == {self.tape_nodes},
                      f"tape nodes per step {sorted(set(steps))}, expected {self.tape_nodes}")
        return result

    def report(self, ops, finish) -> list:
        ok = [r for r in ops if not r.error]
        return [
            ("train_samples_per_s", total_rate(ops), "1/s", len(ok)),
            percentile_line("train_epoch_p50_s", [r.seconds for r in ok], 50, "s"),
        ]


class IngestBaselines(Workload):
    """One clip per op: read, preprocess and CSM, then every baseline."""

    name = "ingest-baselines"
    defaults = dict(per_class=30)

    def setup(self, work: Path) -> None:
        # the ``dyadsync synth`` defaults: 148 frames at 320x240
        self.pool = write_clips(work, synthgen.SynthConfig(seed=self.seed), self.sizes["per_class"])
        self.input_files = sorted(work.iterdir())
        self.begin()
        self.op(0)

    def begin(self) -> None:
        self.processed = []  # (dtw features, class id) of every clip that passed

    def op(self, k: int) -> OpResult:
        path, klass = self.pool[k % len(self.pool)]
        t0 = time.perf_counter()
        frames = pose_io.load_keypoint_file(path)
        seq = pose_io.preprocess(frames, source_id=path.stem, label_class=klass)
        csm = similarity.compute_csm(seq)
        t1 = time.perf_counter()
        feats = {m: baselines.extract_features(seq, m) for m in baselines.FEATURE_METHODS}
        t2 = time.perf_counter()
        result = OpResult({"ingest": t1 - t0, "baseline": t2 - t1}, 1)
        x = seq.frames
        result.expect(x.shape == (pose_io.TARGET_FRAMES, 2, pose_io.NUM_JOINTS, 2),
                      f"{path.name}: sequence shape {x.shape}")
        # NaN fails both comparisons, so this also rejects NaN coordinates
        result.expect(((x >= 0.0) & (x <= 1.0)).all(), f"{path.name}: coordinates outside [0, 1]")
        result.expect(np.isfinite(csm.values).all() and (csm.values <= 0.0).all(),
                      f"{path.name}: CSM not finite and <= 0")
        for method, length in (("dtw", 18), ("corr2d", 34), ("crossrec", 3)):
            v = feats[method].vector
            result.expect(v.shape == (length,) and np.isfinite(v).all(),
                          f"{path.name}: {method} features shape {v.shape} or not finite")
        if not result.error:
            self.processed.append((feats["dtw"], pose_io.CLASS_NAMES.index(klass)))
        return result

    def finish(self) -> FinishResult:
        feats = [f for f, _ in self.processed]
        labels = [c for _, c in self.processed]
        t0 = time.perf_counter()
        clf = baselines.train_linear_hinge(feats, labels)
        t1 = time.perf_counter()
        for f in feats:
            baselines.predict_linear(clf, f)
        t2 = time.perf_counter()
        out = FinishResult({"hinge_fit": t1 - t0, "predict": t2 - t1})
        means = [np.mean([f.vector[0] for f, c in self.processed if c == k]) for k in range(3)]
        if not means[0] < means[1] < means[2]:
            out.error = f"whole-pose DTW class means not ordered Sync < ModSync < Unsync: {means}"
        return out

    def report(self, ops, finish) -> list:
        ok = [r for r in ops if not r.error]
        ingest = [r.stages["ingest"] for r in ok]
        base = [r.stages["baseline"] for r in ok]
        closing = sum(finish.stages.values())
        return [
            ("ingest_clips_per_s", total_rate(ops, "ingest"), "1/s", len(ok)),
            percentile_line("ingest_clip_p50_ms", ingest, 50, "ms", 1e3),
            percentile_line("ingest_clip_p90_ms", ingest, 90, "ms", 1e3),
            ("baseline_clips_per_s", total_rate(ops, "baseline", closing), "1/s", len(ok)),
            percentile_line("baseline_clip_p50_ms", base, 50, "ms", 1e3),
            percentile_line("baseline_clip_p90_ms", base, 90, "ms", 1e3),
        ]


class EvalFull(Workload):
    """One fused evaluation of 8 preloaded clips per op, full-size models."""

    name = "eval-full"
    defaults = dict(per_class=8, batch=8, model={})

    def setup(self, work: Path) -> None:
        pool = write_clips(work / "clips", synthgen.SynthConfig(seed=self.seed),
                           self.sizes["per_class"])
        self.input_files = sorted((work / "clips").iterdir())
        sequences = pose_io.load_dataset(work / "clips" / "manifest.json")
        order = {path.stem: i for i, (path, _) in enumerate(pool)}
        sequences.sort(key=lambda seq: order[seq.source_id])
        # as ``dyadsync eval`` does: the models come back from checkpoints
        self.sttf = from_checkpoint(
            lambda: sttf.SttfModel(sttf.ModelConfig(**self.sizes["model"]), seed=self.seed), work)
        self.csm = from_checkpoint(
            lambda: csm_branch.CsmModel(csm_branch.CsmConfig(), seed=self.seed), work)
        b = self.sizes["batch"]
        self.batches = [sequences[i:i + b] for i in range(0, len(sequences) - b + 1, b)]
        self.sttf_inputs = [self.sttf.prepare_inputs(batch) for batch in self.batches]
        self.labels = [[pose_io.CLASS_NAMES.index(s.label_class) for s in batch]
                       for batch in self.batches]
        self.op(0)

    def op(self, k: int) -> OpResult:
        i = k % len(self.batches)
        batch = self.batches[i]
        t0 = time.perf_counter()
        csm_logits = self.csm.predict_batch(self.csm.prepare_inputs(batch))
        sttf_logits = self.sttf.predict_batch(self.sttf_inputs[i])
        preds = []
        for branch, logits in (("tfn", sttf_logits), ("csm", csm_logits)):
            preds += [evaluate.BranchPrediction(branch, seq.source_id, logits=row)
                      for seq, row in zip(batch, logits)]
        fused = evaluate.fuse_predictions(preds)
        cm = evaluate.confusion_normalized(self.labels[i], evaluate.predicted_classes(fused))
        evaluate.compute_metrics(cm)
        elapsed = time.perf_counter() - t0
        result = OpResult({"batch": elapsed}, len(batch))
        for branch, logits in (("tfn", sttf_logits), ("csm", csm_logits)):
            result.expect(logits.shape == (len(batch), 3) and np.isfinite(logits).all(),
                          f"{branch} logits shape {logits.shape} or not finite")
        sums = np.array([p.logits.sum() for p in fused])
        result.expect(np.abs(sums - 1.0).max() <= 1e-12, f"fused rows sum to {sums}")
        result.expect(cm.counts.sum() == len(batch), f"confusion counts sum to {cm.counts.sum()}")
        return result

    def report(self, ops, finish) -> list:
        ok = [r for r in ops if not r.error]
        return [
            ("eval_clips_per_s", total_rate(ops), "1/s", len(ok)),
            percentile_line("eval_batch_p50_ms", [r.seconds for r in ok], 50, "ms", 1e3),
        ]


WORKLOADS = {w.name: w for w in (TrainSmall, IngestBaselines, EvalFull)}
