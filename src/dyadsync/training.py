"""Losses, Adam, the exponential LR schedule, and the epoch loop.

``fit`` drives any model exposing the small training protocol used
across this package: a ``params`` ParamStore, a ``config`` dataclass
whose ``head_kind`` picks the loss, ``forward(inputs, tape, rng)``
returning an (B, out) tensor, with dropout on exactly when a generator
``rng`` is passed, ``predict_batch(inputs)`` returning float64 (B, out)
logits computed in float32, and ``prepare_inputs`` mapping
SkeletonSequences to its input array.  Training steps run in float64;
validation scores through ``predict_batch``, as ``dyadsync eval`` does.
Runs are deterministic in the seed: shuffling, the validation split, and
dropout each draw from their own named stream, so equal seeds give
bit-identical histories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, DataError, NumericalError
from .pose_io import CLASS_NAMES
from .rng import stream
from .tensor import ParamStore, Tape, Tensor


@dataclass
class TrainConfig:
    epochs: int = 800
    batch_size: int = 64
    lr0: float = 1e-3
    decay: float = 0.98
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs must be >= 1 and batch_size >= 1")
        if self.lr0 < 0:
            raise ConfigError(f"lr0 must be >= 0, got {self.lr0}")
        if not 0.0 < self.decay <= 1.0:
            raise ConfigError(f"decay must lie in (0, 1], got {self.decay}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def cross_entropy_loss(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of integer class labels."""
    labels = np.asarray(labels)
    if logits.data.ndim != 2:
        raise ContractError(f"logits must be (batch, classes), got {logits.shape}")
    b, k = logits.shape
    if labels.shape != (b,):
        raise ContractError(f"expected {b} labels, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise DataError(f"labels must lie in [0, {k - 1}]")
    onehot = np.eye(k)[labels]
    picked = (T.log_softmax(logits) * Tensor(onehot)).sum()
    return picked * (-1.0 / b)


def mse_loss(pred: Tensor, target) -> Tensor:
    """Mean squared difference between predictions and targets."""
    target = np.asarray(target, dtype=np.float64)
    flat = pred.reshape(-1) if pred.data.ndim > 1 else pred
    if flat.shape != target.shape:
        raise ContractError(f"prediction shape {flat.shape} != target shape {target.shape}")
    diff = flat + Tensor(-target)  # x + (-y) is x - y bit for bit
    return (diff * diff).mean()


# ---------------------------------------------------------------------------
# optimizer / schedule
# ---------------------------------------------------------------------------


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0

    @staticmethod
    def for_params(params: ParamStore) -> "AdamState":
        return AdamState(
            m={name: np.zeros(p.shape) for name, p in params.items()},
            v={name: np.zeros(p.shape) for name, p in params.items()},
        )


def adam_step(params: ParamStore, grads: dict, state: AdamState, lr: float) -> AdamState:
    """One Adam update in place: moments, bias correction, parameter move."""
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    for name, value in params.items():
        g = grads[name].data
        if g.shape != value.shape:
            raise ContractError(f"gradient shape {g.shape} != parameter {name!r} {value.shape}")
        m = state.m[name] = ADAM_BETA1 * state.m[name] + (1.0 - ADAM_BETA1) * g
        v = state.v[name] = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * g * g
        step = lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        params.replace(name, value.data - step)
    return state


def lr_at_epoch(cfg: TrainConfig, epoch: int) -> float:
    """lr0 * decay^epoch, evaluated in exact rational arithmetic.

    Repeated float multiplication accumulates rounding (0.98**2 is one
    ulp off the decimal literal 0.9604); going through Fraction returns
    the correctly rounded product instead.
    """
    if epoch < 0:
        raise ContractError(f"epoch must be >= 0, got {epoch}")
    return float(Fraction(cfg.lr0) * Fraction(cfg.decay) ** epoch)


# ---------------------------------------------------------------------------
# the epoch loop
# ---------------------------------------------------------------------------


def _check_loss_kind(loss_kind: str) -> None:
    if loss_kind not in ("cross_entropy", "mse"):
        raise ContractError(f"loss kind must be 'cross_entropy' or 'mse', got {loss_kind!r}")


def targets_from_sequences(sequences, loss_kind: str) -> np.ndarray:
    """Pull class ids (``"cross_entropy"``) or scores (``"mse"``) out of labeled sequences."""
    _check_loss_kind(loss_kind)
    if loss_kind == "cross_entropy":
        out = np.empty(len(sequences), dtype=np.int64)
        for i, seq in enumerate(sequences):
            if seq.label_class is None:
                raise DataError(f"sequence {seq.source_id or i} has no class label")
            out[i] = CLASS_NAMES.index(seq.label_class)
        return out
    out = np.empty(len(sequences), dtype=np.float64)
    for i, seq in enumerate(sequences):
        if seq.label_score is None:
            raise DataError(f"sequence {seq.source_id or i} has no score label")
        out[i] = seq.label_score
    return out


def _batched_logits(model, inputs: np.ndarray, batch_size: int = 64) -> np.ndarray:
    """``model.predict_batch`` in chunks, so peak memory follows a chunk, not the inputs."""
    chunks = [
        model.predict_batch(inputs[start : start + batch_size])
        for start in range(0, len(inputs), batch_size)
    ]
    return np.concatenate(chunks, axis=0)


def eval_metric(model, inputs: np.ndarray, targets: np.ndarray, loss_kind: str,
                batch_size: int = 64) -> float:
    """Accuracy for classification, MSE for regression (eval mode)."""
    _check_loss_kind(loss_kind)
    out = _batched_logits(model, inputs, batch_size)
    if loss_kind == "cross_entropy":
        return float(np.mean(out.argmax(axis=1) == targets))
    return float(np.mean((out.reshape(-1) - targets) ** 2))


def fit(model, dataset, cfg: TrainConfig) -> list:
    """Train ``model``; returns per-epoch history dicts.

    ``dataset`` is either a list of labeled SkeletonSequences (converted
    through ``model.prepare_inputs``) or a ready ``(inputs, targets)``
    pair.  A ``"classify"`` head trains on cross-entropy and keeps the
    highest validation accuracy; a ``"regress"`` head trains on MSE and
    keeps the lowest validation MSE.  A seeded 10% validation split drives
    best-checkpoint retention; the model ends holding its best-validation
    parameters.
    """
    classify = model.config.head_kind == "classify"
    loss_kind = "cross_entropy" if classify else "mse"
    if isinstance(dataset, tuple):
        inputs, targets = dataset
        inputs = np.asarray(inputs, dtype=np.float64)  # training runs in float64
        targets = np.asarray(targets)
    else:
        if not dataset:
            raise DataError("empty dataset")
        inputs = model.prepare_inputs(dataset)
        targets = targets_from_sequences(dataset, loss_kind)
    n = len(inputs)
    if n == 0:
        raise DataError("empty dataset")
    if len(targets) != n:
        raise ContractError(f"{n} inputs vs {len(targets)} targets")

    n_val = max(1, round(0.1 * n)) if n >= 2 else 0
    split = stream(cfg.seed, "split").permutation(n)
    val_idx, train_idx = split[:n_val], split[n_val:]
    if n_val == 0:
        val_idx = train_idx
    shuffle_rng = stream(cfg.seed, "shuffle")
    dropout_rng = stream(cfg.seed, "dropout")

    state = AdamState.for_params(model.params)
    best_metric = None
    best_values = model.params.copy_values()
    history = []
    for epoch in range(cfg.epochs):
        lr = lr_at_epoch(cfg, epoch)
        order = shuffle_rng.permutation(train_idx)
        total = 0.0
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            tape = Tape()
            out = model.forward(inputs[idx], tape=tape, rng=dropout_rng)
            if classify:
                loss = cross_entropy_loss(out, targets[idx])
            else:
                loss = mse_loss(out, targets[idx])
            step_loss = loss.item()
            where = f"training diverged at epoch {epoch}, step {start // cfg.batch_size}"
            if not math.isfinite(step_loss):
                raise NumericalError(f"{where}: loss is {step_loss}")
            grads = T.gradient_of(loss, model.params)
            for name, grad in grads.items():  # name order, as gradient_of builds it
                if not np.isfinite(grad.data).all():
                    raise NumericalError(f"{where}: gradient of {name!r} is not finite")
            adam_step(model.params, grads, state, lr)
            total += step_loss * len(idx)
        train_loss = total / len(order)
        val_metric = eval_metric(model, inputs[val_idx], targets[val_idx],
                                 loss_kind, cfg.batch_size)
        improved = (
            best_metric is None
            or (classify and val_metric > best_metric)
            or (not classify and val_metric < best_metric)
        )
        if improved:
            best_metric = val_metric
            best_values = model.params.copy_values()
        history.append(
            {"epoch": epoch, "lr": lr, "train_loss": train_loss, "val_metric": val_metric}
        )
    model.params.load_values(best_values)
    return history


def save_history(history: list, path) -> None:
    """Write the per-epoch history as CSV (epoch, lr, train_loss, val_metric)."""
    lines = ["epoch,lr,train_loss,val_metric"]
    for row in history:
        lines.append(
            f"{row['epoch']},{row['lr']:.17g},{row['train_loss']:.17g},{row['val_metric']:.17g}"
        )
    Path(path).write_text("\n".join(lines) + "\n")
