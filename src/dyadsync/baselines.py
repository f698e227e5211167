"""Non-deep reference methods: DTW, per-joint correlation, cross-recurrence.

Each method turns a dyadic sequence into a small fixed-length feature
vector; a one-vs-rest linear hinge classifier (max-margin, like the SVM
it stands in for) makes the 3-way call.  Feature extraction is pure per
sequence; classifier training is deterministic full-batch gradient
descent from zero weights, so no seed is needed anywhere in this module.

DTW and cross-recurrence measure the same frame-to-frame pose distances
as the CSM: the DTW cost tables come from ``similarity.frame_distances``,
and cross-recurrence thresholds the CSM itself.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, DataError
from .pose_io import CLASS_NAMES, SkeletonSequence
from .similarity import SimilarityMatrix, compute_csm, frame_distances

FEATURE_METHODS = ("dtw", "corr2d", "crossrec")
HINGE_REG = 1e-3  # L2 penalty of the linear hinge classifier
HINGE_EPOCHS = 300  # full-batch gradient steps of its fit
HINGE_LR = 0.05  # and their step size


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
    and the answer is a float.  A batch of k pairs is given as (k, n, d)
    and (k, m, d) arrays and gives a (k,) array of distances; any other
    pair of shapes is a DataError.  The frame costs are
    ``similarity.frame_distances``, the kernel of the CSM.

    The table is filled one anti-diagonal i + j = t at a time: its cells
    depend only on diagonals t-1 and t-2, so each diagonal is a few numpy
    calls over all k pairs.  Every cell gets the same add and mins as in
    a cell-by-cell loop, so finite inputs give bit-identical distances.
    """
    a, b = np.asarray(a), np.asarray(b)
    batched = a.ndim == 3
    if a.ndim not in (2, 3) or b.ndim != a.ndim or a.shape[:-2] != b.shape[:-2]:
        raise DataError(f"expected (n, d) and (m, d) or (k, n, d) and (k, m, d) inputs, "
                        f"got shapes {a.shape} and {b.shape}")
    if not batched:
        a, b = a[None], b[None]
    if a.shape[2] != b.shape[2]:
        raise DataError(f"frame dims differ: {a.shape[2]} vs {b.shape[2]}")
    cost = frame_distances(a, b)  # (n, m, k); refuses an empty sequence
    n, m, k = cost.shape
    # diagonal-major table: row t + 2 holds diagonal t, column i + 1 its cell
    # (i, t - i), so each diagonal is one contiguous (cells, k) block.  Row 0
    # and column 0 are the +inf border before index 0, except D(-1,-1) = 0
    table = np.full((n + m + 1, n + 2, k), np.inf)
    table[0, 0] = 0.0
    i, j = np.arange(n)[:, None], np.arange(m)
    table[i + j + 2, i + 1] = cost
    best = np.empty((min(n, m), k))
    for t in range(n + m - 1):
        lo, hi = max(0, t - m + 1), min(n - 1, t)  # rows i of the diagonal's cells
        low = best[:hi - lo + 1]
        prev = table[t + 1]
        np.minimum(prev[lo:hi + 1], prev[lo + 1:hi + 2], out=low)  # up, left
        np.minimum(low, table[t, lo:hi + 1], out=low)  # up-left
        cells = table[t + 2, lo + 1:hi + 2]
        np.add(cells, low, out=cells)
    return table[-1, n].copy() if batched else float(table[-1, n, 0])


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


def cross_recurrence_features(csm: SimilarityMatrix) -> BaselineFeatures:
    """Recurrence rate, determinism, and longest-line features of a CSM.

    R[i][j] = 1 iff the pose distance -CSM[i][j] is at most 10% of the
    largest distance in the matrix.  Features: RR (mean of R), DET
    (fraction of recurrent points on diagonal lines of length >= 2), and
    the longest diagonal line over f.
    """
    distances = -csm.values
    r = distances <= 0.1 * distances.max()
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


def train_linear_hinge(features: list, labels) -> LinearClassifier:
    """One-vs-rest hinge loss with L2 penalty HINGE_REG: HINGE_EPOCHS steps of
    full-batch gradient descent at rate HINGE_LR.

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
    for _ in range(HINGE_EPOCHS):
        scores = xs @ w.T + b  # (n, c)
        active = (signs.T * scores < 1.0).astype(np.float64)  # hinge margin violated
        coeff = -(signs.T * active) / n  # d(loss)/d(scores)
        w -= HINGE_LR * (coeff.T @ xs + 2.0 * HINGE_REG * w)
        b -= HINGE_LR * coeff.sum(axis=0)

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
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def save_classifier(clf: LinearClassifier, path) -> None:
    doc = {
        "weights": clf.weights.tolist(),
        "bias": clf.bias.tolist(),
        "mean": clf.mean.tolist(),
        "std": clf.std.tolist(),
        "trained_on": clf.trained_on,
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")

