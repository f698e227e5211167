"""Baselines: DTW vs path enumeration, correlation conventions, recurrence counts,
and the linear hinge classifier's contract.  The cell-by-cell DTW loop and the
per-element diagonal run walk are kept here as bit-exact references for the
vectorized code, and the hinge objective as the oracle the classifier's
descent is checked against."""

import numpy as np
import pytest

from dyadsync.baselines import (
    HINGE_REG,
    BaselineFeatures,
    _diagonal_runs,
    correlation_features,
    cross_recurrence_features,
    dtw_distance,
    dtw_features,
    extract_features,
    linear_scores,
    load_classifier,
    predict_linear,
    save_classifier,
    save_features,
    train_linear_hinge,
)
from dyadsync.errors import ConfigError, ContractError, DataError
from dyadsync.pose_io import SkeletonSequence
from dyadsync.similarity import SimilarityMatrix, compute_csm


def enumerate_dtw(cost):
    """Brute-force minimum path cost over all monotone warping paths."""
    n, m = cost.shape
    best = [np.inf]

    def walk(i, j, total):
        total += cost[i, j]
        if total >= best[0]:
            return
        if i == n - 1 and j == m - 1:
            best[0] = total
            return
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, total)
        if i + 1 < n:
            walk(i + 1, j, total)
        if j + 1 < m:
            walk(i, j + 1, total)

    walk(0, 0, 0.0)
    return best[0]


def pairwise_cost(a, b):
    return np.sqrt(((a[:, None] - b[None]) ** 2).sum(axis=2))


def loop_dtw_distance(a, b):
    """Reference: the cell-by-cell DTW double loop."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if b.ndim == 1:
        b = b[:, None]
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


def loop_diagonal_runs(r):
    """Reference: walk every diagonal element, yielding consecutive-1 run lengths."""
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


def loop_crossrec_vector(r):
    """Reference RR, DET and LMAX of a 0/1 matrix from the per-element run walk."""
    runs = list(loop_diagonal_runs(r))
    recurrent = r.sum()
    det = float(sum(l for l in runs if l >= 2) / recurrent) if recurrent else 0.0
    lmax = max(runs, default=0) / r.shape[0]
    return np.array([float(r.mean()), det, lmax])


# ---------------------------------------------------------------------------
# dtw
# ---------------------------------------------------------------------------


def test_dtw_identity_is_zero():
    rng = np.random.default_rng(60)
    a = rng.normal(size=(9, 4))
    assert dtw_distance(a, a) == 0.0


def test_dtw_scalar_example():
    assert dtw_distance(np.array([0.0, 1.0]), np.array([1.0, 0.0])) == 2.0


def test_dtw_symmetry():
    rng = np.random.default_rng(61)
    for _ in range(10):
        a = rng.normal(size=(rng.integers(1, 8), 3))
        b = rng.normal(size=(rng.integers(1, 8), 3))
        assert abs(dtw_distance(a, b) - dtw_distance(b, a)) < 1e-12


def test_dtw_matches_path_enumeration():
    rng = np.random.default_rng(62)
    for _ in range(200):
        n, m = rng.integers(1, 7, size=2)
        d = int(rng.integers(1, 4))
        a = rng.normal(size=(n, d))
        b = rng.normal(size=(m, d))
        got = dtw_distance(a, b)
        want = enumerate_dtw(pairwise_cost(a, b))
        assert abs(got - want) < 1e-10


def test_dtw_rejects_empty_and_mismatched():
    with pytest.raises(DataError):
        dtw_distance(np.zeros((0, 2)), np.zeros((3, 2)))
    with pytest.raises(DataError):
        dtw_distance(np.zeros((2, 2)), np.zeros((2, 3)))


def test_dtw_wavefront_matches_loop_bitwise():
    rng = np.random.default_rng(76)
    shapes = [(1, 1), (1, 9), (9, 1), (1, 2), (2, 1)]
    shapes += [tuple(rng.integers(1, 13, size=2)) for _ in range(120)]
    for n, m in shapes:
        for d in (1, 2, 3, int(rng.integers(4, 41))):
            a = rng.normal(size=(n, d))
            b = rng.normal(size=(m, d))
            got = dtw_distance(a, b)
            assert type(got) is float
            assert got == loop_dtw_distance(a, b), (n, m, d)
    a, b = rng.normal(size=7), rng.normal(size=4)  # 1-D inputs count as d = 1
    assert dtw_distance(a, b) == loop_dtw_distance(a, b)


def test_dtw_batched_matches_per_pair_loop():
    rng = np.random.default_rng(77)
    for n, m, d, k in [(1, 1, 1, 1), (1, 6, 2, 3), (6, 1, 2, 3), (5, 8, 2, 17),
                       (8, 5, 34, 2), (11, 11, 3, 4)]:
        a = rng.normal(size=(k, n, d))
        b = rng.normal(size=(k, m, d))
        got = dtw_distance(a, b)
        assert got.shape == (k,)
        want = np.array([loop_dtw_distance(a[i], b[i]) for i in range(k)])
        assert got.tobytes() == want.tobytes(), (n, m, d, k)


def test_dtw_features_matches_per_joint_assembly():
    rng = np.random.default_rng(78)
    for f in (1, 2, 15, 81):
        seq = SkeletonSequence(frames=rng.uniform(0, 1, (f, 2, 17, 2)))
        a, b = seq.person(0), seq.person(1)
        values = [loop_dtw_distance(a.reshape(f, -1), b.reshape(f, -1))]
        values += [loop_dtw_distance(a[:, k], b[:, k]) for k in range(17)]
        assert dtw_features(seq).vector.tobytes() == np.array(values).tobytes(), f


def test_dtw_batched_rejects_empty_and_mismatched():
    with pytest.raises(DataError, match="nonempty"):
        dtw_distance(np.zeros((4, 0, 2)), np.zeros((4, 3, 2)))
    with pytest.raises(DataError, match="nonempty"):
        dtw_distance(np.zeros((4, 3, 2)), np.zeros((4, 0, 2)))
    with pytest.raises(DataError, match="frame dims"):
        dtw_distance(np.zeros((4, 2, 2)), np.zeros((4, 2, 3)))
    with pytest.raises(DataError):  # batch sizes differ
        dtw_distance(np.zeros((4, 2, 2)), np.zeros((3, 2, 2)))
    with pytest.raises(DataError):  # one batched side, one single
        dtw_distance(np.zeros((4, 2, 2)), np.zeros((2, 2)))
    assert dtw_distance(np.zeros((0, 2, 2)), np.zeros((0, 3, 2))).shape == (0,)


def test_dtw_features_shape():
    rng = np.random.default_rng(63)
    seq = SkeletonSequence(frames=rng.uniform(0, 1, (10, 2, 17, 2)), source_id="s1")
    feats = dtw_features(seq)
    assert feats.method == "dtw"
    assert feats.vector.shape == (18,)  # whole pose + 17 joints
    assert feats.source_id == "s1"
    assert np.all(feats.vector >= 0)


# ---------------------------------------------------------------------------
# correlation
# ---------------------------------------------------------------------------


def moving_seq(rng, f=20):
    track = rng.uniform(0.3, 0.7, size=(1, 17, 2)) + np.linspace(0, 0.2, f)[:, None, None] \
        * rng.uniform(0.5, 1.0, size=(1, 17, 2))
    return track


def test_correlation_identical_persons_all_one():
    rng = np.random.default_rng(64)
    t = np.cumsum(rng.uniform(-0.01, 0.01, size=(30, 17, 2)), axis=0) + 0.5
    seq = SkeletonSequence(frames=np.stack([t, t], axis=1))
    feats = correlation_features(seq)
    assert feats.method == "corr2d"
    assert feats.vector.shape == (34,)
    assert np.allclose(feats.vector, 1.0)


def test_correlation_mirrored_is_minus_one():
    rng = np.random.default_rng(65)
    t = np.cumsum(rng.uniform(-0.01, 0.01, size=(30, 17, 2)), axis=0) + 0.5
    mirrored = -(t - 0.5) + 0.5
    seq = SkeletonSequence(frames=np.stack([t, mirrored], axis=1))
    assert np.allclose(correlation_features(seq).vector, -1.0)


def test_correlation_frozen_partner_is_zero():
    rng = np.random.default_rng(66)
    t = np.cumsum(rng.uniform(-0.01, 0.01, size=(30, 17, 2)), axis=0) + 0.5
    frozen = np.tile(t[:1], (30, 1, 1))
    seq = SkeletonSequence(frames=np.stack([t, frozen], axis=1))
    assert np.array_equal(correlation_features(seq).vector, np.zeros(34))


def test_correlation_bounded():
    rng = np.random.default_rng(67)
    for _ in range(10):
        seq = SkeletonSequence(frames=rng.uniform(0, 1, (15, 2, 17, 2)))
        v = correlation_features(seq).vector
        assert np.all(v >= -1.0 - 1e-12) and np.all(v <= 1.0 + 1e-12)


# ---------------------------------------------------------------------------
# cross-recurrence
# ---------------------------------------------------------------------------


def test_crossrec_threshold_law():
    m = SimilarityMatrix(np.array([[-0.1, -0.6], [-0.6, -0.1]]))
    feats = cross_recurrence_features(m, eps=0.5)
    assert feats.vector[0] == 0.5  # RR: two of four entries recur


def test_crossrec_identical_sequences_have_full_diagonal():
    rng = np.random.default_rng(68)
    t = rng.uniform(0, 1, size=(12, 17, 2))
    csm = compute_csm(SkeletonSequence(frames=np.stack([t, t], axis=1)))
    feats = cross_recurrence_features(csm, eps=1e-9)
    rr, det, lmax = feats.vector
    assert det > 0
    assert lmax == 1.0  # longest line spans all 12 frames


def test_crossrec_rr_matches_counting_oracle():
    rng = np.random.default_rng(69)
    for _ in range(10):
        values = -rng.uniform(0, 1, size=(9, 9))
        eps = float(rng.uniform(0.1, 0.9))
        feats = cross_recurrence_features(SimilarityMatrix(values), eps=eps)
        count = sum(
            1 for i in range(9) for j in range(9) if -values[i, j] <= eps
        )
        assert feats.vector[0] == count / 81


def test_crossrec_rr_monotone_in_eps():
    rng = np.random.default_rng(70)
    m = SimilarityMatrix(-rng.uniform(0, 1, size=(10, 10)))
    rates = [cross_recurrence_features(m, eps=e).vector[0] for e in np.linspace(0.05, 1.0, 12)]
    assert all(b >= a for a, b in zip(rates, rates[1:]))


def test_crossrec_det_counts_lines_not_singletons():
    r = np.full((4, 4), -1.0)  # nothing recurs at eps=0.5 ...
    r[0, 0] = r[1, 1] = -0.1  # ... except a 2-run on the main diagonal
    r[3, 0] = -0.1  # and one isolated point
    feats = cross_recurrence_features(SimilarityMatrix(r), eps=0.5)
    rr, det, lmax = feats.vector
    assert rr == 3 / 16
    assert det == 2 / 3
    assert lmax == 2 / 4


def test_crossrec_matches_run_loop_oracle():
    rng = np.random.default_rng(79)
    matrices = [np.zeros((6, 6), bool), np.ones((6, 6), bool), np.ones((4, 9), bool),
                np.zeros((1, 7), bool), np.ones((1, 7), bool), np.eye(5, dtype=bool),
                np.ones((1, 1), bool), np.zeros((1, 1), bool)]
    for _ in range(150):
        n, m = rng.integers(1, 14, size=2)
        matrices.append(rng.uniform(size=(n, m)) < rng.uniform())
    matrices.append(rng.uniform(size=(1, 12)) < 0.5)
    matrices.append(rng.uniform(size=(12, 1)) < 0.5)
    for r in matrices:
        assert _diagonal_runs(r).tolist() == list(loop_diagonal_runs(r)), r.shape
        # recurrent entries sit at distance 0.1, the others at 1.0
        csm = SimilarityMatrix(np.where(r, -0.1, -1.0))
        got = cross_recurrence_features(csm, eps=0.5).vector
        assert got.tobytes() == loop_crossrec_vector(r).tobytes(), r.shape


def test_crossrec_eps_validation_and_default():
    m = SimilarityMatrix(np.array([[-1.0, -0.05], [-0.05, -1.0]]))
    with pytest.raises(ConfigError, match="eps must be positive"):
        cross_recurrence_features(m, eps=0.0)
    # default eps = 10% of max distance = 0.1; the -0.05 entries recur
    assert cross_recurrence_features(m).vector[0] == 0.5


def test_extract_features_dispatch():
    rng = np.random.default_rng(71)
    seq = SkeletonSequence(frames=rng.uniform(0, 1, (8, 2, 17, 2)), source_id="q")
    assert extract_features(seq, "dtw").vector.shape == (18,)
    assert extract_features(seq, "corr2d").vector.shape == (34,)
    crossrec = extract_features(seq, "crossrec")
    assert crossrec.vector.shape == (3,)
    assert crossrec.source_id == "q"
    with pytest.raises(ConfigError, match="unknown baseline method 'wavelets'"):
        extract_features(seq, "wavelets")


# ---------------------------------------------------------------------------
# linear hinge classifier
# ---------------------------------------------------------------------------


def hinge_objective(clf, features, labels):
    """The value train_linear_hinge descends: mean hinge + L2 penalty."""
    scores = linear_scores(clf, features)
    y = np.asarray(labels)
    signs = np.where(y[None, :] == np.arange(len(clf.bias))[:, None], 1.0, -1.0)
    hinge = np.maximum(0.0, 1.0 - signs.T * scores).sum(axis=1).mean()
    return float(hinge + HINGE_REG * (clf.weights**2).sum())


def toy_features(rng, n_per_class=10, spread=0.3):
    centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    feats, labels = [], []
    for c, center in enumerate(centers):
        for i in range(n_per_class):
            v = center + rng.normal(scale=spread, size=2)
            feats.append(BaselineFeatures("toy", v, f"c{c}s{i}"))
            labels.append(c)
    return feats, np.array(labels)


def test_hinge_separates_toy_classes():
    rng = np.random.default_rng(72)
    feats, labels = toy_features(rng)
    clf = train_linear_hinge(feats, labels)
    preds = [predict_linear(clf, f) for f in feats]
    assert np.array_equal(preds, labels)


def test_hinge_identical_features_collapse_to_majority():
    feats = [BaselineFeatures("toy", np.array([1.0, 1.0])) for _ in range(9)]
    labels = np.array([0, 0, 0, 0, 1, 1, 1, 2, 2])
    clf = train_linear_hinge(feats, labels)
    assert predict_linear(clf, feats[0]) == 0


def test_hinge_objective_decreases_with_small_lr():
    rng = np.random.default_rng(73)
    feats, labels = toy_features(rng, n_per_class=6)
    values = []
    for epochs in [0, 5, 20, 80, 200]:
        clf = train_linear_hinge(feats, labels, epochs=epochs, lr=0.01)
        values.append(hinge_objective(clf, feats, labels))
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_hinge_requires_all_classes():
    feats = [BaselineFeatures("toy", np.array([float(i)])) for i in range(4)]
    with pytest.raises(DataError, match="absent"):
        train_linear_hinge(feats, [0, 0, 1, 1])


def test_predict_zero_weights_bias_break():
    from dyadsync.baselines import LinearClassifier

    clf = LinearClassifier(
        np.zeros((3, 2)), np.array([1.0, 0.0, 0.0]), np.zeros(2), np.ones(2), "x"
    )
    assert predict_linear(clf, BaselineFeatures("toy", np.array([5.0, -3.0]))) == 0
    tied = LinearClassifier(np.zeros((3, 2)), np.zeros(3), np.zeros(2), np.ones(2), "x")
    assert predict_linear(tied, BaselineFeatures("toy", np.array([1.0, 1.0]))) == 0


def test_predict_scaling_invariance_and_dim_check():
    rng = np.random.default_rng(74)
    feats, labels = toy_features(rng, n_per_class=5)
    clf = train_linear_hinge(feats, labels)
    from dyadsync.baselines import LinearClassifier

    for c in [0.5, 3.0, 100.0]:
        scaled = LinearClassifier(clf.weights * c, clf.bias * c, clf.mean, clf.std, "x")
        assert all(
            predict_linear(scaled, f) == predict_linear(clf, f) for f in feats
        )
    with pytest.raises(ContractError):
        predict_linear(clf, BaselineFeatures("toy", np.zeros(7)))


def test_classifier_json_roundtrip(tmp_path):
    rng = np.random.default_rng(75)
    feats, labels = toy_features(rng, n_per_class=4)
    clf = train_linear_hinge(feats, labels)
    p = tmp_path / "clf.json"
    save_classifier(clf, p)
    back = load_classifier(p)
    assert np.array_equal(back.weights, clf.weights)
    assert np.array_equal(back.bias, clf.bias)
    assert back.trained_on == clf.trained_on
    with pytest.raises(DataError):
        load_classifier(tmp_path / "missing.json")


def test_feature_csv_dump(tmp_path):
    feats = [
        BaselineFeatures("crossrec", np.array([0.5, 0.25, 1.0]), "a"),
        BaselineFeatures("crossrec", np.array([0.1, 0.0, 0.5]), "b"),
    ]
    p = tmp_path / "features.csv"
    save_features(feats, p)
    lines = p.read_text().strip().split("\n")
    assert lines[0] == "source_id,method,f1,f2,f3"
    assert lines[1].startswith("a,crossrec,0.5,")
    with pytest.raises(DataError):
        save_features([], p)
