"""Late fusion of branch predictions, score binning, and reported metrics.

Every branch (the attention network, the CSM classifier, or an external
tool's output loaded from CSV) contributes one prediction per sample.
Classification branches fuse by averaging softmaxed logits and taking
the argmax (lowest index wins ties); score branches fuse by plain
averaging and can be binned into the three synchrony classes by the
alpha/beta thresholds.  Metrics mirror the usual report: row-normalized
confusion matrix in percentages, per-class recall, micro accuracy,
macro F1, and MSE for regression runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import tensor as T
from .errors import ContractError, DataError, read_input
from .pose_io import ALPHA, BETA, CLASS_NAMES


@dataclass(frozen=True)
class BranchPrediction:
    """One branch's output for one sample: 3 logits or a scalar score."""

    branch: str
    source_id: str
    logits: Optional[np.ndarray] = None
    score: Optional[float] = None

    def __post_init__(self):
        if (self.logits is None) == (self.score is None):
            raise ContractError("exactly one of logits/score must be set")
        if self.logits is not None and np.asarray(self.logits).shape != (3,):
            raise ContractError(f"logits must have shape (3,), got {np.asarray(self.logits).shape}")


@dataclass(frozen=True)
class ConfusionMatrix:
    counts: np.ndarray  # (3, 3) ints, rows = label, cols = prediction
    normalized: np.ndarray  # (3, 3) row percentages
    empty_rows: tuple  # classes with no samples


@dataclass(frozen=True)
class MetricsReport:
    recall: np.ndarray  # per-class, percent
    accuracy: float  # micro, percent
    macro_f1: float
    mse: Optional[float] = None


def fuse_predictions(preds: list) -> list:
    """Average aligned branch predictions into one per-sample prediction.

    All branches must list the same source_ids in the same order and be
    uniformly logits or uniformly scores.  Fused classification entries
    carry class probabilities in their ``logits`` slot (argmax decisions
    are unchanged by the softmax, so a single branch fuses to itself).
    """
    if not preds:
        raise DataError("no predictions to fuse")
    branches: dict = {}
    for p in preds:
        branches.setdefault(p.branch, []).append(p)
    ids = [p.source_id for p in next(iter(branches.values()))]
    for name, rows in branches.items():
        if [p.source_id for p in rows] != ids:
            raise ContractError(f"branch {name!r} covers a different sample set")
    modes = {p.logits is not None for p in preds}
    if len(modes) != 1:
        raise ContractError("cannot fuse a mix of logits and score predictions")
    (is_logits,) = modes

    stacks = list(branches.values())
    if is_logits:
        logits = T.Tensor(np.array([[p.logits for p in rows] for rows in stacks], dtype=np.float64))
        probs = T.softmax_rows(logits).data.mean(axis=0)  # (branches, samples, 3) -> (samples, 3)
        return [BranchPrediction("fused", sid, logits=row) for sid, row in zip(ids, probs)]
    return [BranchPrediction("fused", sid, score=float(np.mean([rows[i].score for rows in stacks])))
            for i, sid in enumerate(ids)]


def bin_score(score: float) -> int:
    """Map a [0, 10] synchrony score to a class id via ALPHA and BETA."""
    if not np.isfinite(score):
        raise DataError(f"score must be finite, got {score}")
    if score >= BETA:
        return CLASS_NAMES.index("Sync")
    if score >= ALPHA:
        return CLASS_NAMES.index("ModSync")
    return CLASS_NAMES.index("Unsync")


def predicted_classes(preds: list) -> np.ndarray:
    """Class decisions for a list of predictions (argmax or binned score)."""
    return np.array([np.argmax(p.logits) if p.logits is not None else bin_score(p.score)
                     for p in preds], dtype=np.int64)


def confusion_normalized(labels, predictions) -> ConfusionMatrix:
    """3x3 counts plus row-percentage normalization (zero rows flagged)."""
    labels = np.asarray(labels)
    predictions = np.asarray(predictions)
    if labels.shape != predictions.shape:
        raise ContractError(f"{labels.shape} labels vs {predictions.shape} predictions")
    valid = set(range(len(CLASS_NAMES)))
    if labels.size and not (set(labels.tolist()) | set(predictions.tolist())) <= valid:
        raise ContractError("class ids must lie in {0, 1, 2}")
    counts = np.zeros((3, 3), dtype=np.int64)
    for lab, pred in zip(labels, predictions):
        counts[lab, pred] += 1
    row_sums = counts.sum(axis=1)
    full = row_sums > 0
    normalized = np.zeros((3, 3))
    normalized[full] = counts[full] / row_sums[full, None] * 100.0
    return ConfusionMatrix(counts, normalized, tuple(np.flatnonzero(~full).tolist()))


def compute_metrics(cm: ConfusionMatrix, preds=None, targets=None) -> MetricsReport:
    """Per-class recall (the diagonal of ``cm.normalized``), micro accuracy, macro F1;
    adds MSE given raw scores and targets."""
    counts = cm.counts
    total = counts.sum()
    row_sums = counts.sum(axis=1)
    col_sums = counts.sum(axis=0)
    recall = np.diag(cm.normalized).copy()
    accuracy = float(np.trace(counts) / total * 100.0) if total else 0.0
    f1 = []
    for c in range(3):
        p = counts[c, c] / col_sums[c] if col_sums[c] else 0.0
        r = counts[c, c] / row_sums[c] if row_sums[c] else 0.0
        f1.append(2 * p * r / (p + r) if p + r else 0.0)
    mse = None
    if preds is not None or targets is not None:
        if preds is None or targets is None:
            raise ContractError("regression metrics need raw predictions and targets")
        preds = np.asarray(preds, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if preds.shape != targets.shape:
            raise ContractError(f"{preds.shape} predictions vs {targets.shape} targets")
        mse = float(np.mean((preds - targets) ** 2))
    return MetricsReport(recall, accuracy, float(np.mean(f1)), mse)


# ---------------------------------------------------------------------------
# prediction CSV / metrics report files
# ---------------------------------------------------------------------------


def save_predictions(preds: list, path) -> None:
    """CSV: source_id, branch, p0,p1,p2 for logits rows or score for scores."""
    if not preds:
        raise DataError("no predictions to save")
    is_logits = preds[0].logits is not None
    header = "source_id,branch,p0,p1,p2" if is_logits else "source_id,branch,score"
    lines = [header]
    for p in preds:
        if (p.logits is not None) != is_logits:
            raise ContractError("cannot mix logits and score rows in one file")
        if is_logits:
            values = ",".join(f"{v:.17g}" for v in p.logits)
            lines.append(f"{p.source_id},{p.branch},{values}")
        else:
            lines.append(f"{p.source_id},{p.branch},{p.score:.17g}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_predictions(path) -> list:
    """Rows of a ``save_predictions`` CSV; a malformed or non-finite value is a DataError."""
    path = Path(path)
    lines = read_input(path, "predictions file").strip().split("\n")
    if not lines or lines[0] not in ("source_id,branch,p0,p1,p2", "source_id,branch,score"):
        raise DataError(f"{path}: unrecognized predictions header")
    is_logits = lines[0].endswith("p2")
    out = []
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        want = 5 if is_logits else 3
        if len(parts) != want:
            raise DataError(f"{path}:{ln}: expected {want} fields, got {len(parts)}")
        try:
            values = np.array([float(v) for v in parts[2:]])
        except ValueError as exc:
            raise DataError(f"{path}:{ln}: {exc}") from None
        if not np.isfinite(values).all():
            raise DataError(f"{path}:{ln}: prediction values must be finite, got {parts[2:]}")
        if is_logits:
            out.append(BranchPrediction(parts[1], parts[0], logits=values))
        else:
            out.append(BranchPrediction(parts[1], parts[0], score=float(values[0])))
    return out


def metrics_to_dict(report: MetricsReport, cm: ConfusionMatrix) -> dict:
    doc = {
        "accuracy": report.accuracy,
        "macro_f1": report.macro_f1,
        "recall": {CLASS_NAMES[c]: report.recall[c] for c in range(3)},
        "confusion_counts": cm.counts.tolist(),
        "confusion_normalized": cm.normalized.tolist(),
        "empty_rows": [CLASS_NAMES[c] for c in cm.empty_rows],
    }
    if report.mse is not None:
        doc["mse"] = report.mse
    return doc


def save_metrics(report: MetricsReport, cm: ConfusionMatrix, path) -> None:
    doc = metrics_to_dict(report, cm)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def format_report(report: MetricsReport, cm: ConfusionMatrix) -> str:
    """Human-readable confusion table plus the headline numbers."""
    width = 9
    header = " " * 8 + "".join(name.rjust(width) for name in CLASS_NAMES)
    rows = [header]
    for c, name in enumerate(CLASS_NAMES):
        cells = "".join(f"{cm.normalized[c, k]:>{width}.2f}" for k in range(3))
        rows.append(f"{name:<8}{cells}")
    lines = ["Normalized confusion matrix (% per true-class row):", *rows, ""]
    for c, name in enumerate(CLASS_NAMES):
        lines.append(f"recall[{name}] = {report.recall[c]:.2f}%")
    lines.append(f"accuracy = {report.accuracy:.2f}%")
    lines.append(f"macro F1 = {report.macro_f1:.4f}")
    if report.mse is not None:
        lines.append(f"MSE = {report.mse:.4f}")
    if cm.empty_rows:
        names = ", ".join(CLASS_NAMES[c] for c in cm.empty_rows)
        lines.append(f"note: no samples for {names}")
    return "\n".join(lines)
