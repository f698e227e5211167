"""Acceptance gate: the package's headline guarantees, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines.  Criterion 6 trains real models on synthetic data and
dominates the runtime; everything else finishes in seconds.
"""

import itertools
import json
import math
import time

import numpy as np

from dyadsync.baselines import cross_recurrence_features, dtw_distance
from dyadsync.cli import main as cli_main
from dyadsync.csm_branch import CsmConfig, CsmModel
from dyadsync.evaluate import (
    BranchPrediction,
    compute_metrics,
    confusion_normalized,
    fuse_predictions,
    predicted_classes,
)
from dyadsync.pose_io import (
    DyadicFrame,
    PersonPose,
    SkeletonSequence,
    frames_from_sequence,
    preprocess,
)
from dyadsync.similarity import compute_csm
from dyadsync.sttf import ModelConfig, SttfModel
from dyadsync.synthgen import SynthConfig, generate_sequences
from dyadsync.tensor import ParamStore, Tensor, check_gradients, linear_apply
from dyadsync.training import (
    AdamState,
    TrainConfig,
    adam_step,
    cross_entropy_loss,
    fit,
    lr_at_epoch,
    mse_loss,
    targets_from_sequences,
)


def criterion(num, name, ok, detail=""):
    print(f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# 1. gradient suite
# ---------------------------------------------------------------------------


def test_criterion_01_gradient_suite():
    tol = 1e-4
    start = time.monotonic()
    rng = np.random.default_rng(42)
    errors = {}

    p = ParamStore(0)
    p.add("logits", rng.normal(size=(5, 3)))
    labels = np.array([0, 2, 1, 1, 0])
    errors["softmax-ce"] = check_gradients(
        lambda ps, tape: cross_entropy_loss(ps.tracked(tape)["logits"], labels), p)

    from dyadsync.sttf import MhsaParams, mhsa

    d = 8
    p = ParamStore(1)
    p.add("x", rng.normal(size=(6, d)))
    for name in ("wq", "wk", "wv", "wo"):
        p.add(name, rng.normal(size=(d, d)) / math.sqrt(d))

    def mhsa_loss(ps, tape):
        t = ps.tracked(tape)
        out = mhsa(t["x"], MhsaParams(t["wq"], t["wk"], t["wv"], t["wo"]), heads=2)
        return (out * out).mean()

    errors["mhsa"] = check_gradients(mhsa_loss, p)

    reduced = ModelConfig(f=4, num_joints=2, d_joint=8, layers=1, heads=2, dropout=0.0)
    model = SttfModel(reduced, seed=0)
    x = rng.uniform(size=(1, 4, 2, 2, 2))
    y = np.array([1])
    errors["reduced-transformer"] = check_gradients(
        lambda ps, tape: cross_entropy_loss(model.forward(x, tape), y), model.params)

    regress = ModelConfig(f=2, num_joints=1, d_joint=2, layers=1, heads=1,
                          dropout=0.0, head_kind="regress")
    reg_model = SttfModel(regress, seed=1)
    rx = rng.uniform(size=(2, 2, 2, 1, 2))
    ry = np.array([4.0, 7.5])
    errors["regression-head"] = check_gradients(
        lambda ps, tape: mse_loss(reg_model.forward(rx, tape), ry), reg_model.params)

    elapsed = time.monotonic() - start
    worst = max(errors.values())
    ok = worst < tol and elapsed < 60.0
    criterion(1, "gradient suite", ok,
              f"max rel err {worst:.2e} (tol 1e-4), {elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# 2. attention invariants
# ---------------------------------------------------------------------------


def test_criterion_02_attention_invariants():
    row_tol = 1e-9
    equiv_tol = 1e-12
    worst_row = 0.0
    worst_equiv = 0.0
    cfg = ModelConfig(f=6, num_joints=3, d_joint=4, layers=2, heads=2, dropout=0.0)
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        model = SttfModel(cfg, seed=seed)
        frames = rng.uniform(0, 1, size=(2, cfg.f, 2, cfg.num_joints, 2))
        spatial_maps, temporal_maps = [], []
        model.forward(frames, capture_spatial=spatial_maps,
                      capture_temporal=temporal_maps)
        for maps in itertools.chain(spatial_maps, temporal_maps):
            worst_row = max(worst_row, float(np.abs(maps.sum(axis=-1) - 1.0).max()))

        for name in ("spatial.pos", "frame.pos", "temporal.pos"):
            model.params.replace(name, np.zeros(model.params[name].shape))
        seq = SkeletonSequence(frames=frames[0])

        tokens = cfg.tokens_spatial
        perm = rng.permutation(tokens)
        permuted = seq.frames.reshape(cfg.f, tokens, 2)[:, perm].reshape(seq.frames.shape)
        base = model._spatial_stack(seq.frames[None]).data.reshape(cfg.f, tokens, cfg.d_joint)
        moved = model._spatial_stack(permuted[None]).data.reshape(
            cfg.f, tokens, cfg.d_joint)
        worst_equiv = max(worst_equiv, float(np.abs(moved - base[:, perm]).max()))

        z = rng.normal(size=(cfg.f, cfg.c_temp))
        fperm = rng.permutation(cfg.f)
        tbase = model._temporal_stack(Tensor(z[None])).data[0]
        tmoved = model._temporal_stack(Tensor(z[fperm][None])).data[0]
        worst_equiv = max(worst_equiv, float(np.abs(tmoved - tbase[fperm]).max()))

    ok = worst_row < row_tol and worst_equiv < equiv_tol
    criterion(2, "attention invariants", ok,
              f"row-sum dev {worst_row:.2e} (tol 1e-9), "
              f"equivariance dev {worst_equiv:.2e} (tol 1e-12), 20 seeds")


# ---------------------------------------------------------------------------
# 3. cross-similarity oracle
# ---------------------------------------------------------------------------


def test_criterion_03_csm_oracle():
    tol = 1e-12
    rng = np.random.default_rng(7)
    worst = 0.0
    duality = True
    for _ in range(50):
        f = int(rng.integers(2, 10))
        joints = int(rng.integers(1, 6))
        frames = rng.uniform(0, 1, size=(f, 2, joints, 2))
        seq = SkeletonSequence(frames=frames)
        got = compute_csm(seq).values
        naive = np.zeros((f, f))
        for i in range(f):
            for j in range(f):
                total = 0.0
                for k in range(joints):
                    diff = frames[i, 0, k] - frames[j, 1, k]
                    total += diff[0] ** 2 + diff[1] ** 2
                naive[i, j] = -math.sqrt(total) / joints
        worst = max(worst, float(np.abs(got - naive).max()))
        swapped = compute_csm(SkeletonSequence(frames=frames[:, ::-1])).values
        duality = duality and np.array_equal(got, swapped.T)

    # J=1, 3-4-5 triangle in unit coordinates: distance 0.5 -> entry -0.5
    triangle = SkeletonSequence(frames=np.array([[[[0.0, 0.0]], [[0.3, 0.4]]]]))
    closed_form = compute_csm(triangle).values[0, 0] == -0.5
    # J=2 with both joints at that offset: -(1/2) * sqrt(2 * 0.5^2)
    scaled = SkeletonSequence(
        frames=np.array([[[[0.0, 0.0], [0.0, 0.0]], [[0.3, 0.4], [0.3, 0.4]]]]))
    expected = -math.sqrt(2 * 0.5**2) / 2
    closed_form = closed_form and abs(compute_csm(scaled).values[0, 0] - expected) < tol

    ok = worst < tol and duality and closed_form
    criterion(3, "cross-similarity oracle", ok,
              f"max dev vs naive {worst:.2e} (tol 1e-12) over 50 sequences, "
              f"transpose duality exact, closed forms hold")


# ---------------------------------------------------------------------------
# 4. DTW oracle
# ---------------------------------------------------------------------------


def enumerate_dtw(a, b):
    """Exhaustive minimum over all monotone warping paths."""
    n, m = len(a), len(b)
    cost = np.array([[np.linalg.norm(a[i] - b[j]) for j in range(m)] for i in range(n)])
    best = [math.inf]

    def walk(i, j, acc):
        acc += cost[i, j]
        if acc >= best[0]:
            return
        if i == n - 1 and j == m - 1:
            best[0] = acc
            return
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, acc)
        if i + 1 < n:
            walk(i + 1, j, acc)
        if j + 1 < m:
            walk(i, j + 1, acc)

    walk(0, 0, 0.0)
    return best[0]


def test_criterion_04_dtw_oracle():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(200):
        n, m = rng.integers(1, 7, size=2)
        dim = int(rng.integers(1, 4))
        a = rng.normal(size=(n, dim))
        b = rng.normal(size=(m, dim))
        worst = max(worst, abs(dtw_distance(a, b) - enumerate_dtw(a, b)))
    ok = worst < 1e-10
    criterion(4, "DTW oracle", ok,
              f"max dev vs path enumeration {worst:.2e} over 200 trials (lengths <= 6)")


# ---------------------------------------------------------------------------
# 5. preprocessing conformance
# ---------------------------------------------------------------------------


def test_criterion_05_preprocessing():
    rng = np.random.default_rng(3)
    checks = []
    pose = rng.uniform(50, 400, size=(2, 17, 2))
    frames = []
    for t in range(130):
        if t % 7 == 3:  # person b missing: frame must be dropped
            stray = np.concatenate([rng.uniform(0, 500, (17, 2)),
                                    np.ones((17, 1))], axis=1)
            a, b = PersonPose(stray, True), PersonPose.undetected()
        else:
            jitter = rng.normal(scale=2.0, size=(2, 17, 2))
            kp = np.concatenate([pose + jitter, np.ones((2, 17, 1))], axis=2)
            a, b = PersonPose(kp[0], True), PersonPose(kp[1], True)
        frames.append(DyadicFrame(person_a=a, person_b=b, frame_index=t,
                                  image_size=(640, 480)))

    seq = preprocess(frames, source_id="clip", label_class="Sync")
    checks.append(("81 frames", seq.frames.shape == (81, 2, 17, 2)))
    checks.append(("coords in [0,1]",
                   bool(seq.frames.min() >= 0.0 and seq.frames.max() <= 1.0)))
    # all surviving frames hover around the valid pose; dropped frames came
    # from a different distribution and would shift the per-frame mean
    scaled = pose / np.array([640.0, 480.0])
    deviation = np.abs(seq.frames - scaled).max()
    checks.append(("invalid frames dropped", bool(deviation < 0.02)))

    again = preprocess(frames_from_sequence(seq), source_id="clip", label_class="Sync")
    checks.append(("idempotent", bool(np.array_equal(seq.frames, again.frames))))

    ok = all(flag for _, flag in checks)
    criterion(5, "preprocessing", ok,
              ", ".join(f"{name}={'yes' if flag else 'NO'}" for name, flag in checks))


# ---------------------------------------------------------------------------
# 6. synthetic end-to-end
# ---------------------------------------------------------------------------


def to_standard_frames(sequences):
    return [preprocess(frames_from_sequence(s), 81, source_id=s.source_id,
                       label_class=s.label_class, label_score=s.label_score)
            for s in sequences]


def test_criterion_06_synthetic_end_to_end():
    start = time.monotonic()
    synth = SynthConfig(lag=35, amp_mismatch=1.5, seed=0)
    train = to_standard_frames(generate_sequences(synth, 100))
    test = to_standard_frames(generate_sequences(synth, 30, start_index=100))
    y_test = targets_from_sequences(test, "cross_entropy")

    train_cfg = TrainConfig(epochs=60, batch_size=8, lr0=1e-3, decay=0.995, seed=0)

    tfn = SttfModel(ModelConfig(f=81, num_joints=17, d_joint=4, layers=1,
                                heads=2, dropout=0.1), seed=0)
    fit(tfn, train, train_cfg)
    inputs = tfn.prepare_inputs(test)
    tfn_logits = np.concatenate([tfn.predict_batch(inputs[i:i + 32])
                                 for i in range(0, len(inputs), 32)])
    tfn_acc = float(np.mean(tfn_logits.argmax(axis=1) == y_test))

    csm = CsmModel(CsmConfig(dropout=0.1), seed=0)
    fit(csm, train, train_cfg)
    csm_logits = csm.predict_batch(csm.prepare_inputs(test))
    csm_acc = float(np.mean(csm_logits.argmax(axis=1) == y_test))

    preds = []
    for name, logits in (("tfn", tfn_logits), ("csm", csm_logits)):
        preds += [BranchPrediction(name, seq.source_id, logits=row)
                  for seq, row in zip(test, logits)]
    fused_acc = float(np.mean(predicted_classes(fuse_predictions(preds)) == y_test))

    elapsed = time.monotonic() - start
    ok = (tfn_acc >= 0.90 and csm_acc >= 0.85
          and fused_acc >= max(tfn_acc, csm_acc) - 0.01 and elapsed < 1800)
    criterion(6, "synthetic end-to-end", ok,
              f"tfn {tfn_acc:.1%} (>= 90%), csm {csm_acc:.1%} (>= 85%), "
              f"fused {fused_acc:.1%} (>= max-1%), {elapsed / 60:.1f} min (< 30)")


# ---------------------------------------------------------------------------
# 7. baseline ordering
# ---------------------------------------------------------------------------


def test_criterion_07_baseline_ordering():
    synth = SynthConfig(seed=1)
    sequences = to_standard_frames(generate_sequences(synth, 30))
    dtw_means = {}
    rr_means = {}
    for klass in ("Sync", "ModSync", "Unsync"):
        members = [s for s in sequences if s.label_class == klass]
        dents = [dtw_distance(s.person(0).reshape(81, -1),
                              s.person(1).reshape(81, -1)) for s in members]
        rrs = [cross_recurrence_features(compute_csm(s)).vector[0] for s in members]
        dtw_means[klass] = float(np.mean(dents))
        rr_means[klass] = float(np.mean(rrs))

    dtw_ordered = dtw_means["Sync"] < dtw_means["ModSync"] < dtw_means["Unsync"]
    rr_ordered = rr_means["Sync"] > rr_means["ModSync"] > rr_means["Unsync"]
    ok = dtw_ordered and rr_ordered
    criterion(7, "baseline ordering", ok,
              f"DTW means {dtw_means['Sync']:.2f} < {dtw_means['ModSync']:.2f} "
              f"< {dtw_means['Unsync']:.2f}; RR means {rr_means['Sync']:.3f} > "
              f"{rr_means['ModSync']:.3f} > {rr_means['Unsync']:.3f} (30/class)")


# ---------------------------------------------------------------------------
# 8. metrics arithmetic
# ---------------------------------------------------------------------------


def test_criterion_08_metrics_arithmetic():
    counts = np.array([[85, 1, 1], [11, 76, 2], [4, 2, 74]])
    assert counts.sum(axis=1).tolist() == [87, 89, 80]
    labels = np.repeat([0, 1, 2], counts.sum(axis=1))
    predictions = np.concatenate([np.repeat([0, 1, 2], row) for row in counts])
    cm = confusion_normalized(labels, predictions)
    report = compute_metrics(cm)

    published = np.array([[97.70, 1.15, 1.15],
                          [12.36, 85.39, 2.25],
                          [5.00, 2.50, 92.50]])
    rows_match = bool(np.allclose(np.round(cm.normalized, 2), published))
    rows_sum = bool(np.all(np.abs(cm.normalized.sum(axis=1) - 100.0) < 0.01))
    accuracy_ok = abs(report.accuracy - 91.80) < 0.05
    ok = rows_match and rows_sum and accuracy_ok
    criterion(8, "metrics arithmetic", ok,
              f"accuracy {report.accuracy:.4f}% (91.80 +- 0.05), "
              f"rows sum to 100 +- 0.01: {rows_sum}, percentages match: {rows_match}")


# ---------------------------------------------------------------------------
# 9. optimizer conformance
# ---------------------------------------------------------------------------


def test_criterion_09_adam_and_lr():
    params = ParamStore(0)
    params.add("w", np.array([2.0]))
    grad = {"w": Tensor(np.array([0.3]))}
    state = AdamState.for_params(params)
    adam_step(params, grad, state, lr=1e-3)
    # bias-corrected first step: m_hat = g, v_hat = g^2
    expected = 2.0 - 1e-3 * 0.3 / (math.sqrt(0.3**2) + 1e-8)
    adam_dev = abs(params["w"].data[0] - expected)

    cfg = TrainConfig(lr0=1e-3, decay=0.98)
    lr_exact = lr_at_epoch(cfg, 2) == 9.604e-4

    ok = adam_dev < 1e-12 and lr_exact
    criterion(9, "optimizer conformance", ok,
              f"Adam closed-form dev {adam_dev:.2e} (tol 1e-12), "
              f"lr(2) == 9.604e-4 exactly: {lr_exact}")


# ---------------------------------------------------------------------------
# 10. determinism
# ---------------------------------------------------------------------------


def test_criterion_10_determinism(tmp_path, capsys):
    data = tmp_path / "data"
    assert cli_main(["synth", "--out", str(data), "--per-class", "2",
                     "--seed", "4", "--frames", "40", "--lag", "4"]) == 0
    tc = tmp_path / "tc.json"
    tc.write_text(json.dumps({"epochs": 3, "batch_size": 8, "lr0": 0.01, "seed": 2}))
    mc = tmp_path / "mc.json"
    mc.write_text(json.dumps({"f": 12, "num_joints": 17, "d_joint": 2,
                              "layers": 1, "heads": 1, "dropout": 0.1}))
    for out in ("a", "b"):
        assert cli_main(["train", "--data", str(data / "manifest.json"),
                         "--out", str(tmp_path / out), "--config", str(tc),
                         "--model-config", str(mc)]) == 0
    model_same = ((tmp_path / "a" / "model.bin").read_bytes()
                  == (tmp_path / "b" / "model.bin").read_bytes())
    history_same = ((tmp_path / "a" / "history.csv").read_bytes()
                    == (tmp_path / "b" / "history.csv").read_bytes())
    capsys.readouterr()  # swallow the CLI's own artifact-path prints
    ok = model_same and history_same
    criterion(10, "determinism", ok,
              f"checkpoint bytes identical: {model_same}, "
              f"history bytes identical: {history_same}")
