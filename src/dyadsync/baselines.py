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

from .errors import ConfigError, ContractError, DataError
from .pose_io import CLASS_NAMES, SkeletonSequence
from .similarity import SimilarityMatrix, compute_csm

FEATURE_METHODS = ("dtw", "corr2d", "crossrec")
HINGE_REG = 1e-3  # L2 penalty of the linear hinge classifier


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


def dtw_distance(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Classic DTW with Euclidean frame cost, no window.

    D(i,j) = cost(i,j) + min(D(i-1,j), D(i,j-1), D(i-1,j-1)), answer at
    D(n-1,m-1).  Inputs are (n, d) and (m, d) sequences of frame vectors
    ((n,) and (m,) count as d = 1) and the answer is a float.  A batch of
    k pairs is given as (k, n, d) and (k, m, d) arrays and gives a (k,)
    array of distances.

    The table is filled one anti-diagonal i + j = t at a time: its cells
    depend only on diagonals t-1 and t-2, so each diagonal is a few numpy
    calls over all k pairs.  Every cell gets the same add and mins as in
    a cell-by-cell loop, so finite inputs give bit-identical distances.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    batched = a.ndim == 3
    if a.ndim > 3 or a.shape[:-2] != b.shape[:-2]:
        raise DataError(f"expected (n, d) and (m, d) or (k, n, d) and (k, m, d) inputs, "
                        f"got shapes {a.shape} and {b.shape}")
    if a.ndim == 1:
        a = a[:, None]
    if b.ndim == 1:
        b = b[:, None]
    if not batched:
        a, b = a[None], b[None]
    k, n, m = a.shape[0], a.shape[1], b.shape[1]
    if n == 0 or m == 0:
        raise DataError("dtw_distance needs nonempty sequences")
    if a.shape[2] != b.shape[2]:
        raise DataError(f"frame dims differ: {a.shape[2]} vs {b.shape[2]}")
    # D padded with a row and a column of +inf before index 0 and D(-1,-1) = 0;
    # the costs fill the interior and each diagonal adds its min onto them
    dp = np.full((k, n + 1, m + 1), np.inf)
    dp[:, 0, 0] = 0.0
    np.sqrt(((a[:, :, None] - b[:, None]) ** 2).sum(axis=-1), out=dp[:, 1:, 1:])
    # flattened, cell (i, j) sits at (i+1)(m+1) + j+1: a diagonal is a slice of
    # step m, and its up, left and up-left neighbours are that slice shifted
    # back by m+1, 1 and m+2
    dp = dp.reshape(k, (n + 1) * (m + 1))
    best = np.empty((k, min(n, m)))
    for t in range(n + m - 1):
        lo, hi = max(0, t - m + 1), min(n - 1, t)  # rows i of the diagonal's cells
        start = (lo + 1) * (m + 1) + t - lo + 1
        stop = start + (hi - lo) * m + 1
        low = best[:, :hi - lo + 1]
        np.minimum(dp[:, start - m - 1:stop - m - 1:m], dp[:, start - 1:stop - 1:m], out=low)
        np.minimum(low, dp[:, start - m - 2:stop - m - 2:m], out=low)
        cells = dp[:, start:stop:m]
        np.add(cells, low, out=cells)
    return dp[:, -1].copy() if batched else float(dp[0, -1])


def dtw_features(seq: SkeletonSequence) -> BaselineFeatures:
    """Whole-pose DTW distance plus per-joint DTW distances (J+1 dims)."""
    a, b = seq.person(0), seq.person(1)
    f = a.shape[0]
    whole = dtw_distance(a.reshape(f, -1), b.reshape(f, -1))
    joints = dtw_distance(a.transpose(1, 0, 2), b.transpose(1, 0, 2))
    return BaselineFeatures("dtw", np.concatenate([[whole], joints]), seq.source_id)


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


def _diagonal_runs(r: np.ndarray) -> np.ndarray:
    """Lengths of consecutive-1 runs along every diagonal of a 0/1 matrix.

    Row i is shifted left by i, so diagonal j - i becomes a column; one
    zero row below keeps runs on neighbouring diagonals apart.  Laid out
    diagonal-major, the runs start where the diff is +1 and end where it
    is -1.
    """
    n, m = r.shape
    rows = np.arange(n)[:, None]
    sheared = np.zeros((n + 1, n + m - 1), dtype=np.int8)
    sheared[rows, np.arange(m) - rows + n - 1] = r
    steps = np.diff(sheared.T.ravel(), prepend=0)
    return np.flatnonzero(steps == -1) - np.flatnonzero(steps == 1)


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
        raise ConfigError(f"eps must be positive, got {eps}")
    r = distances <= eps
    rr = float(r.mean())
    runs = _diagonal_runs(r)
    recurrent = r.sum()
    det = float(runs[runs >= 2].sum() / recurrent) if recurrent else 0.0
    lmax = int(runs.max(initial=0)) / csm.values.shape[0]
    return BaselineFeatures("crossrec", np.array([rr, det, lmax]))


def extract_features(seq: SkeletonSequence, method: str) -> BaselineFeatures:
    """Dispatch a sequence to one of the three feature extractors."""
    if method == "dtw":
        return dtw_features(seq)
    if method == "corr2d":
        return correlation_features(seq)
    if method == "crossrec":
        feats = cross_recurrence_features(compute_csm(seq))
        return BaselineFeatures("crossrec", feats.vector, seq.source_id)
    raise ConfigError(f"unknown baseline method {method!r}; expected one of {FEATURE_METHODS}")


# ---------------------------------------------------------------------------
# linear hinge classifier
# ---------------------------------------------------------------------------


def _feature_matrix(features: list) -> np.ndarray:
    dims = {f.vector.shape[0] for f in features}
    if len(dims) != 1:
        raise ContractError(f"inconsistent feature lengths: {sorted(dims)}")
    return np.stack([f.vector for f in features])


def train_linear_hinge(features: list, labels, epochs: int = 300,
                       lr: float = 0.05) -> LinearClassifier:
    """One-vs-rest hinge loss with L2 penalty HINGE_REG, full-batch gradient descent.

    Features are standardized per dimension (stats kept on the
    classifier).  Weights start at zero, so training is deterministic
    with no randomness at all.
    """
    x = _feature_matrix(features)
    y = np.asarray(labels)
    if len(y) != len(x):
        raise ContractError(f"{len(x)} features vs {len(y)} labels")
    num_classes = len(CLASS_NAMES)
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
        w -= lr * (coeff.T @ xs + 2.0 * HINGE_REG * w)
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
