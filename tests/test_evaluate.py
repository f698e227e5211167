import numpy as np
import pytest

from dyadsync.errors import ContractError, DataError
from dyadsync.evaluate import (
    BranchPrediction,
    ConfusionMatrix,
    bin_score,
    compute_metrics,
    confusion_normalized,
    format_report,
    fuse_predictions,
    load_predictions,
    metrics_to_dict,
    predicted_classes,
    save_metrics,
    save_predictions,
)


def softmax(v):
    e = np.exp(v - np.max(v))
    return e / e.sum()


def logit_pred(branch, sid, values):
    return BranchPrediction(branch, sid, logits=np.asarray(values, dtype=np.float64))


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------


def test_single_branch_fusion_keeps_decisions():
    rng = np.random.default_rng(11)
    preds = [logit_pred("tfn", f"s{i}", rng.normal(size=3)) for i in range(20)]
    fused = fuse_predictions(preds)
    assert [p.source_id for p in fused] == [p.source_id for p in preds]
    for raw, out in zip(preds, fused):
        assert np.argmax(out.logits) == np.argmax(raw.logits)
        # fused entries carry probabilities
        assert abs(out.logits.sum() - 1.0) < 1e-12
        assert np.allclose(out.logits, softmax(raw.logits))


def test_two_branch_fusion_matches_hand_average():
    a = logit_pred("tfn", "x", [2.0, 0.0, 0.0])
    b = logit_pred("csm", "x", [0.0, 1.0, 0.0])
    (fused,) = fuse_predictions([a, b])
    expected = (softmax(np.array([2.0, 0.0, 0.0])) + softmax(np.array([0.0, 1.0, 0.0]))) / 2
    assert np.allclose(fused.logits, expected, atol=0, rtol=0)
    assert np.argmax(fused.logits) == 0


def test_fusion_can_flip_a_single_branch_decision():
    # branch one barely prefers class 1; branch two strongly prefers class 0
    a = logit_pred("tfn", "x", [0.0, 0.1, -5.0])
    b = logit_pred("csm", "x", [4.0, -4.0, -4.0])
    (fused,) = fuse_predictions([a, b])
    assert np.argmax(a.logits) == 1
    assert np.argmax(fused.logits) == 0


def test_duplicated_branch_fusion_is_identity():
    rng = np.random.default_rng(3)
    raw = rng.normal(size=(6, 3))
    one = [logit_pred("a", f"s{i}", raw[i]) for i in range(6)]
    two = one + [logit_pred("b", f"s{i}", raw[i]) for i in range(6)]
    f1 = fuse_predictions(one)
    f2 = fuse_predictions(two)
    for x, y in zip(f1, f2):
        # mean of two identical vectors is bit-exact
        assert np.array_equal(x.logits, y.logits)


@pytest.mark.parametrize("branches", [1, 2, 3])
def test_fusion_matches_per_sample_loop(branches):
    raw = np.random.default_rng(4).normal(scale=5.0, size=(branches, 7, 3))
    preds = [logit_pred(f"b{b}", f"s{i}", raw[b, i]) for b in range(branches) for i in range(7)]
    for i, out in enumerate(fuse_predictions(preds)):
        assert np.array_equal(out.logits, np.mean([softmax(raw[b, i]) for b in range(branches)],
                                                  axis=0))


def test_score_fusion_averages():
    preds = [BranchPrediction("a", "s0", score=4.0), BranchPrediction("b", "s0", score=6.0)]
    (fused,) = fuse_predictions(preds)
    assert fused.score == 5.0
    assert fused.logits is None


def test_fusion_rejects_misaligned_sample_sets():
    a = [logit_pred("a", "s0", [1, 0, 0]), logit_pred("a", "s1", [1, 0, 0])]
    b = [logit_pred("b", "s0", [1, 0, 0]), logit_pred("b", "s2", [1, 0, 0])]
    with pytest.raises(ContractError):
        fuse_predictions(a + b)
    # same ids, different order is also a misalignment
    c = [logit_pred("c", "s1", [1, 0, 0]), logit_pred("c", "s0", [1, 0, 0])]
    with pytest.raises(ContractError):
        fuse_predictions(a + c)


def test_fusion_rejects_mixed_modes():
    preds = [logit_pred("a", "s0", [1, 0, 0]), BranchPrediction("b", "s0", score=5.0)]
    with pytest.raises(ContractError):
        fuse_predictions(preds)
    with pytest.raises(DataError):
        fuse_predictions([])


def test_prediction_requires_exactly_one_payload():
    with pytest.raises(ContractError):
        BranchPrediction("a", "s0")
    with pytest.raises(ContractError):
        BranchPrediction("a", "s0", logits=np.zeros(3), score=1.0)
    with pytest.raises(ContractError):
        BranchPrediction("a", "s0", logits=np.zeros(4))


def test_tie_break_prefers_lowest_class_index():
    (fused,) = fuse_predictions([logit_pred("a", "s0", [1.0, 1.0, 1.0])])
    assert np.argmax(fused.logits) == 0
    classes = predicted_classes([logit_pred("a", "s0", [0.0, 0.0, 0.0])])
    assert classes[0] == 0


# ---------------------------------------------------------------------------
# score binning
# ---------------------------------------------------------------------------


def test_bin_score_thresholds():
    assert bin_score(7.64) == 1  # ModSync
    assert bin_score(5.0) == 2  # Unsync
    assert bin_score(9.1) == 0  # Sync
    # boundaries belong to the upper bin
    assert bin_score(8.36) == 0
    assert bin_score(7.16) == 1
    assert bin_score(0.0) == 2
    assert bin_score(10.0) == 0


def test_bin_score_monotone_sweep():
    previous = 2
    for score in np.linspace(0.0, 10.0, 401):
        klass = bin_score(float(score))
        # class id decreases (2 -> 1 -> 0) as the score rises
        assert klass <= previous
        previous = klass


def test_binning_validation():
    with pytest.raises(DataError):
        bin_score(float("nan"))


def test_predicted_classes_for_scores():
    preds = [BranchPrediction("a", "s0", score=9.0),
             BranchPrediction("a", "s1", score=7.5),
             BranchPrediction("a", "s2", score=1.0)]
    assert predicted_classes(preds).tolist() == [0, 1, 2]


# ---------------------------------------------------------------------------
# confusion matrix and metrics
# ---------------------------------------------------------------------------


def test_confusion_counts_against_loop_oracle():
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 3, size=200)
    preds = rng.integers(0, 3, size=200)
    cm = confusion_normalized(labels, preds)
    expected = np.zeros((3, 3), dtype=np.int64)
    for lab, pred in zip(labels, preds):
        expected[lab, pred] += 1
    assert np.array_equal(cm.counts, expected)
    assert cm.counts.sum() == 200
    for c in range(3):
        assert abs(cm.normalized[c].sum() - 100.0) < 0.01


def test_confusion_row_percentages_example():
    # 87 Sync samples: 85 right, one each into the other classes
    labels = [0] * 87
    preds = [0] * 85 + [1] + [2]
    cm = confusion_normalized(labels, preds)
    assert np.allclose(np.round(cm.normalized[0], 2), [97.70, 1.15, 1.15])
    assert cm.empty_rows == (1, 2)
    assert np.array_equal(cm.normalized[1], np.zeros(3))


def test_perfect_predictions_give_identity():
    labels = [0] * 5 + [1] * 7 + [2] * 3
    cm = confusion_normalized(labels, labels)
    assert np.array_equal(cm.normalized, np.eye(3) * 100.0)
    assert cm.empty_rows == ()


def test_confusion_validation():
    with pytest.raises(ContractError):
        confusion_normalized([0, 1], [0])
    with pytest.raises(ContractError):
        confusion_normalized([0, 3], [0, 1])


def test_metrics_on_reference_matrix():
    # rounded row percentages (97.70, 1.15, 1.15), (12.36, 85.39, 2.25),
    # (5.00, 2.50, 92.50) over class counts 87/89/80
    counts = np.array([[85, 1, 1], [11, 76, 2], [4, 2, 74]])
    row = counts.sum(axis=1)
    assert row.tolist() == [87, 89, 80]
    cm = ConfusionMatrix(counts, counts / row[:, None] * 100.0, ())
    report = compute_metrics(cm)
    assert abs(report.accuracy - 91.80) < 0.05
    assert report.accuracy == pytest.approx(235 / 256 * 100.0)
    assert np.allclose(np.round(report.recall, 2), [97.70, 85.39, 92.50])
    assert report.mse is None


def test_micro_accuracy_is_trace_over_total():
    rng = np.random.default_rng(9)
    labels = rng.integers(0, 3, size=500)
    preds = rng.integers(0, 3, size=500)
    cm = confusion_normalized(labels, preds)
    report = compute_metrics(cm)
    assert report.accuracy == np.trace(cm.counts) / cm.counts.sum() * 100.0
    assert report.accuracy == np.mean(labels == preds) * 100.0


def test_macro_f1_against_hand_computation():
    labels = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2])
    preds = np.array([0, 0, 1, 1, 0, 2, 2, 2, 0])
    cm = confusion_normalized(labels, preds)
    report = compute_metrics(cm)
    f1s = []
    for c in range(3):
        tp = np.sum((labels == c) & (preds == c))
        p = tp / np.sum(preds == c)
        r = tp / np.sum(labels == c)
        f1s.append(2 * p * r / (p + r) if p + r else 0.0)
    assert report.macro_f1 == pytest.approx(np.mean(f1s), abs=1e-12)


def test_constant_regressor_mse_is_target_variance():
    rng = np.random.default_rng(21)
    targets = rng.uniform(0, 10, size=64)
    preds = np.full(64, targets.mean())
    labels = [bin_score(t) for t in targets]
    binned = [bin_score(p) for p in preds]
    cm = confusion_normalized(labels, binned)
    report = compute_metrics(cm, preds=preds, targets=targets)
    assert report.mse == pytest.approx(targets.var(), abs=1e-12)


def test_regression_metrics_require_raw_values():
    cm = confusion_normalized([0, 1], [0, 1])
    with pytest.raises(ContractError):
        compute_metrics(cm, preds=[1.0])
    with pytest.raises(ContractError):
        compute_metrics(cm, preds=[1.0], targets=[1.0, 2.0])


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def test_predictions_csv_roundtrip_logits(tmp_path):
    rng = np.random.default_rng(2)
    preds = [logit_pred("tfn", f"s{i}", rng.normal(size=3)) for i in range(5)]
    path = tmp_path / "preds.csv"
    save_predictions(preds, path)
    assert path.read_text().splitlines()[0] == "source_id,branch,p0,p1,p2"
    loaded = load_predictions(path)
    assert len(loaded) == 5
    for raw, got in zip(preds, loaded):
        assert got.source_id == raw.source_id
        assert got.branch == raw.branch
        assert np.array_equal(got.logits, raw.logits)


def test_predictions_csv_roundtrip_scores(tmp_path):
    preds = [BranchPrediction("ext", f"s{i}", score=float(i) / 3) for i in range(4)]
    path = tmp_path / "scores.csv"
    save_predictions(preds, path)
    loaded = load_predictions(path)
    assert [p.score for p in loaded] == [p.score for p in preds]


def test_predictions_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("who,knows\n1,2\n")
    with pytest.raises(DataError, match="unrecognized predictions header"):
        load_predictions(path)
    path.write_text("source_id,branch,score\na,b,not-a-number\n")
    with pytest.raises(DataError, match=r"bad\.csv:2: could not convert"):
        load_predictions(path)
    with pytest.raises(DataError):
        load_predictions(tmp_path / "missing.csv")


def test_metrics_json_and_table(tmp_path):
    labels = [0] * 4 + [1] * 4 + [2] * 4
    preds = [0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 2]
    cm = confusion_normalized(labels, preds)
    report = compute_metrics(cm)
    doc = metrics_to_dict(report, cm)
    assert doc["accuracy"] == report.accuracy
    assert doc["confusion_counts"][0][0] == 3
    out = tmp_path / "metrics.json"
    save_metrics(report, cm, out)
    import json

    parsed = json.loads(out.read_text())
    assert parsed["recall"]["Sync"] == pytest.approx(75.0)
    text = format_report(report, cm)
    assert "accuracy" in text and "Sync" in text and "ModSync" in text
    assert "75.00" in text
