"""Non-deep reference methods: DTW, per-joint correlation, cross-recurrence.

Each method turns a dyadic sequence into a small fixed-length feature
vector; a one-vs-rest linear hinge classifier (max-margin, like the SVM
it stands in for) makes the 3-way call.  Feature extraction is pure per
sequence; classifier training is deterministic full-batch gradient
descent from zero weights, so no seed is needed anywhere in this module.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, DataError, ParameterError
from .pose_io import SkeletonSequence
from .similarity import SimilarityMatrix, compute_csm

FEATURE_METHODS = ("dtw", "corr2d", "crossrec")


@dataclass(frozen=True)
class BaselineFeatures:
    method: str
    vector: np.ndarray
    source_id: str = ""


@dataclass(frozen=True)
class LinearClassifier:
    weights: np.ndarray  # (classes, dim)
    bias: np.ndarray  # (classes,)
    mean: np.ndarray  # standardization stats, stored at fit time
    std: np.ndarray
    trained_on: str  # hash of the training set


# ---------------------------------------------------------------------------
# dynamic time warping
# ---------------------------------------------------------------------------


def dtw_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Classic DTW with Euclidean frame cost, no window.

    D(i,j) = cost(i,j) + min(D(i-1,j), D(i,j-1), D(i-1,j-1)), answer at
    D(n-1,m-1).  Inputs are (n, d) and (m, d) sequences of frame vectors.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if b.ndim == 1:
        b = b[:, None]
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise DataError("dtw_distance needs nonempty sequences")
    if a.shape[1] != b.shape[1]:
        raise DataError(f"frame dims differ: {a.shape[1]} vs {b.shape[1]}")
    cost = np.sqrt(((a[:, None] - b[None]) ** 2).sum(axis=2))
    n, m = cost.shape
    dp = np.empty((n, m))
    dp[0, 0] = cost[0, 0]
    for j in range(1, m):
        dp[0, j] = cost[0, j] + dp[0, j - 1]
    for i in range(1, n):
        dp[i, 0] = cost[i, 0] + dp[i - 1, 0]
        for j in range(1, m):
            dp[i, j] = cost[i, j] + min(dp[i - 1, j], dp[i, j - 1], dp[i - 1, j - 1])
    return float(dp[n - 1, m - 1])


def dtw_features(seq: SkeletonSequence) -> BaselineFeatures:
    """Whole-pose DTW distance plus per-joint DTW distances (J+1 dims)."""
    a, b = seq.person(0), seq.person(1)
    f, num_joints = a.shape[0], a.shape[1]
    values = [dtw_distance(a.reshape(f, -1), b.reshape(f, -1))]
    for k in range(num_joints):
        values.append(dtw_distance(a[:, k], b[:, k]))
    return BaselineFeatures("dtw", np.array(values), seq.source_id)


# ---------------------------------------------------------------------------
# per-joint correlation
# ---------------------------------------------------------------------------


def correlation_features(seq: SkeletonSequence) -> BaselineFeatures:
    """Pearson correlation of each joint's x and y trajectories (2J dims).

    A zero-variance trajectory on either side gives 0 by convention.
    """
    a, b = seq.person(0), seq.person(1)
    # a constant trajectory has zero variance by definition; test for it on
    # the raw values, since centering by a rounded mean leaves ~1e-17 dust
    constant = (a == a[0]).all(axis=0) | (b == b[0]).all(axis=0)
    ca = a - a.mean(axis=0)
    cb = b - b.mean(axis=0)
    num = (ca * cb).sum(axis=0)
    denom = np.sqrt((ca**2).sum(axis=0) * (cb**2).sum(axis=0))
    safe = np.where(constant | (denom == 0), 1.0, denom)
    corr = np.where(constant | (denom == 0), 0.0, num / safe)
    return BaselineFeatures("corr2d", corr.reshape(-1), seq.source_id)


# ---------------------------------------------------------------------------
# cross-recurrence
# ---------------------------------------------------------------------------


def _diagonal_runs(r: np.ndarray):
    """Lengths of consecutive-1 runs along every diagonal of a 0/1 matrix."""
    n, m = r.shape
    for offset in range(-(n - 1), m):
        diag = np.diagonal(r, offset=offset)
        run = 0
        for v in diag:
            if v:
                run += 1
            else:
                if run:
                    yield run
                run = 0
        if run:
            yield run


def cross_recurrence_features(csm: SimilarityMatrix, eps: float = None) -> BaselineFeatures:
    """Recurrence rate, determinism, and longest-line features of a CSM.

    R[i][j] = 1 iff the pose distance -CSM[i][j] <= eps.  The default eps
    is 10% of the largest distance in the matrix.  Features: RR (mean of
    R), DET (fraction of recurrent points on diagonal lines of length
    >= 2), and the longest diagonal line over f.
    """
    distances = -csm.values
    if eps is None:
        eps = 0.1 * distances.max()
    elif eps <= 0:
        raise ParameterError(f"eps must be positive, got {eps}")
    r = distances <= eps
    rr = float(r.mean())
    runs = list(_diagonal_runs(r))
    recurrent = r.sum()
    det = float(sum(l for l in runs if l >= 2) / recurrent) if recurrent else 0.0
    lmax = max(runs, default=0) / csm.values.shape[0]
    return BaselineFeatures("crossrec", np.array([rr, det, lmax]))


def extract_features(seq: SkeletonSequence, method: str, eps: float = None) -> BaselineFeatures:
    """Dispatch a sequence to one of the three feature extractors."""
    if method == "dtw":
        return dtw_features(seq)
    if method == "corr2d":
        return correlation_features(seq)
    if method == "crossrec":
        feats = cross_recurrence_features(compute_csm(seq), eps)
        return BaselineFeatures("crossrec", feats.vector, seq.source_id)
    raise ParameterError(f"unknown baseline method {method!r}; expected one of {FEATURE_METHODS}")


# ---------------------------------------------------------------------------
# linear hinge classifier
# ---------------------------------------------------------------------------


def _feature_matrix(features: list) -> np.ndarray:
    dims = {f.vector.shape[0] for f in features}
    if len(dims) != 1:
        raise ContractError(f"inconsistent feature lengths: {sorted(dims)}")
    return np.stack([f.vector for f in features])


def train_linear_hinge(features: list, labels, epochs: int = 300, lr: float = 0.05,
                       reg: float = 1e-3, num_classes: int = 3) -> LinearClassifier:
    """One-vs-rest hinge loss with L2 penalty, full-batch gradient descent.

    Features are standardized per dimension (stats kept on the
    classifier).  Weights start at zero, so training is deterministic
    with no randomness at all.
    """
    x = _feature_matrix(features)
    y = np.asarray(labels)
    if len(y) != len(x):
        raise ContractError(f"{len(x)} features vs {len(y)} labels")
    present = set(np.unique(y).tolist())
    if present != set(range(num_classes)):
        missing = sorted(set(range(num_classes)) - present)
        raise DataError(f"classes absent from training data: {missing}")

    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    xs = (x - mean) / std
    n, dim = xs.shape

    w = np.zeros((num_classes, dim))
    b = np.zeros(num_classes)
    signs = np.where(y[None, :] == np.arange(num_classes)[:, None], 1.0, -1.0)  # (c, n)
    for _ in range(epochs):
        scores = xs @ w.T + b  # (n, c)
        active = (signs.T * scores < 1.0).astype(np.float64)  # hinge margin violated
        coeff = -(signs.T * active) / n  # d(loss)/d(scores)
        w -= lr * (coeff.T @ xs + 2.0 * reg * w)
        b -= lr * coeff.sum(axis=0)

    digest = hashlib.sha256()
    digest.update(x.tobytes())
    digest.update(y.astype(np.int64).tobytes())
    return LinearClassifier(w, b, mean, std, digest.hexdigest()[:16])


def linear_scores(clf: LinearClassifier, features: list) -> np.ndarray:
    """(samples, classes) affine scores of the standardized feature vectors."""
    x = _feature_matrix(features)
    if x.shape[1] != clf.weights.shape[1]:
        raise ContractError(
            f"feature dim {x.shape[1]} does not match classifier dim {clf.weights.shape[1]}"
        )
    return (x - clf.mean) / clf.std @ clf.weights.T + clf.bias


def hinge_objective(clf: LinearClassifier, features: list, labels, reg: float = 1e-3) -> float:
    """The value train_linear_hinge descends: mean hinge + L2 penalty."""
    scores = linear_scores(clf, features)
    y = np.asarray(labels)
    signs = np.where(y[None, :] == np.arange(len(clf.bias))[:, None], 1.0, -1.0)
    hinge = np.maximum(0.0, 1.0 - signs.T * scores).sum(axis=1).mean()
    return float(hinge + reg * (clf.weights**2).sum())


def predict_linear(clf: LinearClassifier, features: BaselineFeatures) -> int:
    """Argmax of affine scores; ties break to the lowest class index."""
    return int(linear_scores(clf, [features])[0].argmax())


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def save_features(features: list, path) -> None:
    """CSV dump: source_id, method, f1..fn."""
    if not features:
        raise DataError("no features to save")
    dim = features[0].vector.shape[0]
    header = "source_id,method," + ",".join(f"f{i + 1}" for i in range(dim))
    lines = [header]
    for f in features:
        values = ",".join(f"{v:.17g}" for v in f.vector)
        lines.append(f"{f.source_id},{f.method},{values}")
    Path(path).write_text("\n".join(lines) + "\n")


def save_classifier(clf: LinearClassifier, path) -> None:
    doc = {
        "weights": clf.weights.tolist(),
        "bias": clf.bias.tolist(),
        "mean": clf.mean.tolist(),
        "std": clf.std.tolist(),
        "trained_on": clf.trained_on,
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_classifier(path) -> LinearClassifier:
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise DataError(f"classifier file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from None
    try:
        return LinearClassifier(
            np.array(doc["weights"], dtype=np.float64),
            np.array(doc["bias"], dtype=np.float64),
            np.array(doc["mean"], dtype=np.float64),
            np.array(doc["std"], dtype=np.float64),
            doc["trained_on"],
        )
    except KeyError as exc:
        raise DataError(f"{path}: missing field {exc}") from None
