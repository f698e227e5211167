"""Losses against closed forms, Adam against a hand-rolled oracle, fit loop behavior."""

import dataclasses
import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dyadsync import tensor as T
from dyadsync import training
from dyadsync.config import load_config
from dyadsync.csm_branch import CsmConfig, CsmModel
from dyadsync.errors import ConfigError, ContractError, DataError, NumericalError
from dyadsync.pose_io import SkeletonSequence
from dyadsync.rng import stream
from dyadsync.sttf import ModelConfig, SttfModel
from dyadsync.tensor import ParamStore, Tape, Tensor
from dyadsync.training import (
    AdamState,
    TrainConfig,
    _batched_logits,
    adam_step,
    cross_entropy_loss,
    eval_metric,
    fit,
    lr_at_epoch,
    mse_loss,
    save_history,
    targets_from_sequences,
)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def test_cross_entropy_uniform_logits_is_ln3():
    logits = Tensor(np.zeros((4, 3)))
    loss = cross_entropy_loss(logits, [0, 1, 2, 0])
    assert abs(loss.item() - math.log(3)) < 1e-12


def test_cross_entropy_confident_correct_tends_to_zero():
    logits = np.full((2, 3), -50.0)
    logits[0, 1] = 50.0
    logits[1, 2] = 50.0
    assert cross_entropy_loss(Tensor(logits), [1, 2]).item() < 1e-12


def test_cross_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(40)
    logits = rng.normal(size=(5, 3))
    labels = rng.integers(0, 3, size=5)

    def value(v):
        z = v - v.max(axis=1, keepdims=True)
        ls = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        return -np.mean(ls[np.arange(5), labels])

    tape = Tape()
    lt = tape.named_leaf("logits", logits)
    grads = tape.backward(cross_entropy_loss(lt, labels))
    eps = 1e-6
    numeric = np.zeros_like(logits)
    for idx in range(logits.size):
        up, down = logits.copy(), logits.copy()
        up.flat[idx] += eps
        down.flat[idx] -= eps
        numeric.flat[idx] = (value(up) - value(down)) / (2 * eps)
    rel = np.abs(grads[lt.node_id] - numeric) / np.maximum(1.0, np.abs(numeric))
    assert rel.max() < 1e-6


def test_cross_entropy_validation():
    with pytest.raises(DataError):
        cross_entropy_loss(Tensor(np.zeros((2, 3))), [0, 3])
    with pytest.raises(ContractError):
        cross_entropy_loss(Tensor(np.zeros((2, 3))), [0])
    with pytest.raises(ContractError):
        cross_entropy_loss(Tensor(np.zeros(3)), [0])


def test_mse_closed_forms():
    assert mse_loss(Tensor(np.array([1.0, 2.0])), [1.0, 2.0]).item() == 0.0
    assert mse_loss(Tensor(np.array([0.0])), [2.0]).item() == 4.0
    with pytest.raises(ContractError):
        mse_loss(Tensor(np.array([0.0, 1.0])), [2.0])


def test_mse_batch_concat_linearity():
    rng = np.random.default_rng(41)
    p1, t1 = rng.normal(size=6), rng.normal(size=6)
    p2, t2 = rng.normal(size=10), rng.normal(size=10)
    whole = mse_loss(Tensor(np.concatenate([p1, p2])), np.concatenate([t1, t2])).item()
    parts = (6 * mse_loss(Tensor(p1), t1).item() + 10 * mse_loss(Tensor(p2), t2).item()) / 16
    assert abs(whole - parts) < 1e-12


# ---------------------------------------------------------------------------
# adam / schedule
# ---------------------------------------------------------------------------


def scalar_store(value):
    store = ParamStore(seed=0)
    store.add("theta", np.array([value]))
    return store


def test_adam_zero_gradient_keeps_parameters():
    store = scalar_store(0.7)
    state = AdamState.for_params(store)
    adam_step(store, {"theta": Tensor(np.zeros(1))}, state, lr=1e-3)
    assert store["theta"].data[0] == 0.7
    assert state.t == 1


def test_adam_first_step_closed_form():
    store = scalar_store(0.0)
    state = AdamState.for_params(store)
    adam_step(store, {"theta": Tensor(np.ones(1))}, state, lr=1e-3)
    want = -1e-3 * 1.0 / (1.0 + 1e-8)  # bias correction makes m_hat = v_hat = 1
    assert abs(store["theta"].data[0] - want) < 1e-18


def test_adam_matches_reference_loop_on_random_trace():
    rng = np.random.default_rng(42)
    store = scalar_store(rng.normal())
    state = AdamState.for_params(store)
    theta = store["theta"].data[0]
    m = v = 0.0
    for t in range(1, 31):
        g = rng.normal()
        adam_step(store, {"theta": Tensor(np.array([g]))}, state, lr=2e-3)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1 - 0.9**t)
        vhat = v / (1 - 0.999**t)
        theta = theta - 2e-3 * mhat / (math.sqrt(vhat) + 1e-8)
        assert abs(store["theta"].data[0] - theta) < 1e-12


def test_adam_converges_on_quadratic():
    store = scalar_store(1.0)
    state = AdamState.for_params(store)
    trace = [1.0]
    for _ in range(100):
        theta = store["theta"].data[0]
        adam_step(store, {"theta": Tensor(np.array([2 * theta]))}, state, lr=0.05)
        trace.append(abs(store["theta"].data[0]))
    assert trace[-1] < 0.2 < trace[0]
    assert trace[-1] < np.mean(trace[:10])  # decreasing trend


def test_lr_schedule_exact_values():
    cfg = TrainConfig()
    assert lr_at_epoch(cfg, 0) == 1e-3
    assert lr_at_epoch(cfg, 1) == 9.8e-4
    assert lr_at_epoch(cfg, 2) == 9.604e-4
    with pytest.raises(ContractError):
        lr_at_epoch(cfg, -1)


# ---------------------------------------------------------------------------
# csm branch model
# ---------------------------------------------------------------------------


def expected_param_count(cfg: CsmConfig) -> int:
    """side^2*hidden + hidden + hidden*out + out, the two affine maps."""
    d_in = cfg.side * cfg.side
    return d_in * cfg.hidden + cfg.hidden + cfg.hidden * cfg.out_dim + cfg.out_dim


def test_csm_model_param_count_and_shapes():
    cfg = CsmConfig(side=8, hidden=16, dropout=0.0)
    model = CsmModel(cfg, seed=1)
    assert sum(value.size for _, value in model.params.items()) == expected_param_count(cfg) == 64 * 16 + 16 + 16 * 3 + 3
    out = model.predict_batch(np.zeros((5, 8, 8)))
    assert out.shape == (5, 3)


def test_csm_model_prepare_inputs_range():
    rng = np.random.default_rng(43)
    seqs = [SkeletonSequence(frames=rng.uniform(0, 1, (12, 2, 17, 2))) for _ in range(3)]
    model = CsmModel(CsmConfig(side=6), seed=0)
    images = model.prepare_inputs(seqs)
    assert images.shape == (3, 6, 6)
    assert images.min() >= 0.0 and images.max() <= 1.0


def test_csm_model_gradients():
    cfg = CsmConfig(side=3, hidden=4, dropout=0.0)
    model = CsmModel(cfg, seed=2)
    images = np.random.default_rng(44).uniform(0, 1, size=(2, 3, 3))

    def loss_fn(params, tape):
        out = model.forward(images, tape=tape)
        return cross_entropy_loss(out, [0, 2])

    assert T.check_gradients(loss_fn, model.params) < 1e-6


def test_csm_predict_batch_is_the_float32_forward_in_float64():
    # over 20 seeds the largest logit change was 1.6e-6 of the largest logit
    for seed in range(3):
        model = CsmModel(CsmConfig(), seed=seed)
        images = np.random.default_rng(50 + seed).uniform(0, 1, size=(6, 28, 28))
        got = model.predict_batch(images)
        want = model.forward(images).data
        assert got.dtype == np.float64 and got.shape == want.shape == (6, 3)
        assert got.tobytes() == model.forward(images.astype(np.float32)).data.astype(
            np.float64).tobytes()
        assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()
        assert np.array_equal(got.argmax(axis=1), want.argmax(axis=1))


@pytest.mark.parametrize("kind", ["csm", "tfn"])
def test_batched_logits_are_the_chunked_predict_batch(kind):
    rng = np.random.default_rng(51)
    if kind == "csm":
        model, inputs = CsmModel(CsmConfig(side=6, hidden=5), seed=1), rng.uniform(size=(7, 6, 6))
    else:
        cfg = ModelConfig(f=4, num_joints=2, d_joint=4, layers=1, heads=2)
        model, inputs = SttfModel(cfg, seed=1), rng.uniform(size=(7, 4, 2, 2, 2))
    got = _batched_logits(model, inputs, batch_size=3)
    want = np.concatenate([model.predict_batch(inputs[i:i + 3]) for i in (0, 3, 6)])
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# fit loop
# ---------------------------------------------------------------------------


def toy_image_set(rng, n=8, side=8):
    """Linearly separable three-class images: bright block position encodes class."""
    labels = np.arange(n) % 3
    images = rng.uniform(0, 0.2, size=(n, side, side))
    for i, c in enumerate(labels):
        images[i, :, c * 2 : c * 2 + 2] += 0.8
    return images, labels


def test_fit_overfits_small_set():
    rng = np.random.default_rng(45)
    images, labels = toy_image_set(rng)
    model = CsmModel(CsmConfig(side=8, hidden=16, dropout=0.0), seed=3)
    cfg = TrainConfig(epochs=60, batch_size=4, lr0=1e-2, decay=0.99, seed=7)
    history = fit(model, (images, labels), cfg)
    assert len(history) == 60
    assert eval_metric(model, images, labels) == 1.0


def test_fit_trains_float32_inputs_in_float64():
    images, labels = toy_image_set(np.random.default_rng(52), n=12)
    images = images.astype(np.float32)
    runs = []
    for inputs in (images, images.astype(np.float64)):
        model = CsmModel(CsmConfig(side=8, hidden=16, dropout=0.2), seed=4)
        history = fit(model, (inputs, labels), TrainConfig(epochs=3, batch_size=4, seed=2))
        runs.append((history, {n: v.data.copy() for n, v in model.params.items()}))
    (history_32, values_32), (history_64, values_64) = runs
    assert history_32 == history_64
    assert all(values_32[name].tobytes() == values_64[name].tobytes() for name in values_64)


def test_fit_is_deterministic(tmp_path):
    rng = np.random.default_rng(46)
    images, labels = toy_image_set(rng, n=12)
    runs = []
    for _ in range(2):
        model = CsmModel(CsmConfig(side=8, hidden=8, dropout=0.2), seed=5)
        runs.append(fit(model, (images, labels), TrainConfig(epochs=5, batch_size=4, seed=9)))
    assert runs[0] == runs[1]  # bit-identical loss curves
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_history(runs[0], a)
    save_history(runs[1], b)
    assert a.read_bytes() == b.read_bytes()


def test_fit_writes_into_no_parameter_array_it_was_given():
    # fit keeps its best epoch's arrays by reference, so an update must replace, not write
    images, labels = toy_image_set(np.random.default_rng(53), n=12, side=4)
    model = CsmModel(CsmConfig(side=4, hidden=5), seed=9)
    held = dict(model.params.items())
    before = {name: value.data.tobytes() for name, value in held.items()}
    fit(model, (images, labels), TrainConfig(epochs=3, batch_size=4, seed=4))
    assert {name: value.data.tobytes() for name, value in held.items()} == before
    assert any(model.params[name].data.tobytes() != before[name] for name in before)


def test_fit_zero_lr_keeps_parameters():
    rng = np.random.default_rng(47)
    images, labels = toy_image_set(rng)
    model = CsmModel(CsmConfig(side=8, hidden=8, dropout=0.0), seed=6)
    before = {n: v.data.copy() for n, v in model.params.items()}
    fit(model, (images, labels), TrainConfig(epochs=3, batch_size=4, lr0=0.0, seed=1))
    for name, value in before.items():
        assert np.array_equal(model.params[name].data, value)


@pytest.mark.parametrize("head, best", [("classify", max), ("regress", min)],
                         ids=["classify", "regress"])
def test_fit_retains_best_validation_checkpoint(head, best):
    # a classify head keeps its highest validation accuracy, a regress head its lowest MSE
    rng = np.random.default_rng(48)
    images, labels = toy_image_set(rng, n=20)
    targets = labels if head == "classify" else 4.0 * labels + 1.0
    model = CsmModel(CsmConfig(side=8, hidden=8, dropout=0.3, head_kind=head), seed=7)
    cfg = TrainConfig(epochs=8, batch_size=4, lr0=1e-3, seed=3)
    history = fit(model, (images, targets), cfg)
    metrics = [row["val_metric"] for row in history]
    assert min(metrics) != max(metrics)  # the head's order decides which epoch is kept
    n_val = max(1, round(0.1 * 20))
    val_idx = stream(cfg.seed, "split").permutation(20)[:n_val]
    assert eval_metric(model, images[val_idx], targets[val_idx]) == best(metrics)


@pytest.mark.parametrize("head, metrics", [("classify", [0.5, 1.0, 0.0, 1.0]),
                                           ("regress", [3.0, 1.0, 4.0, 1.0])],
                         ids=["classify", "regress"])
def test_fit_keeps_the_earlier_of_two_equally_good_epochs(monkeypatch, head, metrics):
    # validation metrics are scripted: epochs 1 and 3 tie for the best, and 1 is kept
    seen = []

    def scripted_metric(model, *args):
        seen.append({n: v.data.copy() for n, v in model.params.items()})
        return metrics[len(seen) - 1]

    monkeypatch.setattr(training, "eval_metric", scripted_metric)
    images, labels = toy_image_set(np.random.default_rng(48), n=12)
    targets = labels if head == "classify" else 4.0 * labels + 1.0
    model = CsmModel(CsmConfig(side=8, hidden=8, head_kind=head), seed=7)
    history = fit(model, (images, targets), TrainConfig(epochs=4, batch_size=4, seed=3))
    assert [row["val_metric"] for row in history] == metrics
    kept = {n: v.data.copy() for n, v in model.params.items()}
    assert all(np.array_equal(kept[name], seen[1][name]) for name in kept)
    assert not all(np.array_equal(kept[name], seen[3][name]) for name in kept)


def test_fit_regression_mode():
    rng = np.random.default_rng(49)
    images = rng.uniform(0, 1, size=(10, 4, 4))
    scores = images.mean(axis=(1, 2)) * 10
    model = CsmModel(CsmConfig(side=4, hidden=8, dropout=0.0, head_kind="regress"), seed=8)
    cfg = TrainConfig(epochs=40, batch_size=5, lr0=5e-3, seed=2)
    history = fit(model, (images, scores), cfg)
    assert history[-1]["train_loss"] < history[0]["train_loss"]
    assert eval_metric(model, images, scores) < 30.0


@pytest.mark.parametrize("head, loss", [("classify", "cross_entropy_loss"),
                                        ("regress", "mse_loss")])
def test_fit_steps_on_its_heads_loss_as_the_module_holds_it(monkeypatch, head, loss):
    # the benchmark's tracer times a loss by wrapping the module attribute
    calls = []
    wrapped = getattr(training, loss)
    monkeypatch.setattr(training, loss, lambda *args: calls.append(head) or wrapped(*args))
    images, labels = toy_image_set(np.random.default_rng(0))
    model = CsmModel(CsmConfig(side=8, hidden=4, head_kind=head), seed=0)
    fit(model, (images, labels), TrainConfig(epochs=1, batch_size=4))
    assert calls == [head, head]  # 7 training clips in steps of 4


def test_fit_validates_inputs():
    model = CsmModel(CsmConfig(side=4, hidden=4), seed=0)
    with pytest.raises(DataError, match="empty dataset"):
        fit(model, (np.zeros((0, 4, 4)), np.zeros(0, dtype=np.int64)), TrainConfig(epochs=1))


def test_fit_stops_on_non_finite_loss():
    rng = np.random.default_rng(52)
    images, labels = toy_image_set(rng)
    images[:, 0, 0] = np.nan  # every batch carries a NaN pixel
    model = CsmModel(CsmConfig(side=8, hidden=8, dropout=0.0), seed=4)
    with pytest.raises(NumericalError, match="epoch 0, step 0: loss is nan"):
        fit(model, (images, labels), TrainConfig(epochs=2, batch_size=4, seed=0))


def test_fit_stops_on_non_finite_gradient(monkeypatch):
    # the loss stays finite while w1's and b1's gradients are NaN
    gradient_of = T.gradient_of

    def nan_gradient_of(loss, params):
        grads = gradient_of(loss, params)
        for name in ("b1", "w1"):
            grads[name] = Tensor(np.full(grads[name].shape, np.nan))
        return grads

    monkeypatch.setattr(T, "gradient_of", nan_gradient_of)
    model = CsmModel(CsmConfig(side=4, hidden=3, dropout=0.0), seed=0)
    w1 = model.params["w1"].data.copy()
    images = np.random.default_rng(53).uniform(size=(3, 4, 4))
    with pytest.raises(NumericalError, match="epoch 0, step 0: gradient of 'b1' is not finite"):
        fit(model, (images, np.array([0, 1, 2])), TrainConfig(epochs=1, batch_size=8))
    assert np.array_equal(model.params["w1"].data, w1)  # no update reached the parameters


def test_frozen_loss_invariant_to_batch_partition():
    rng = np.random.default_rng(51)
    images, labels = toy_image_set(rng, n=16)
    model = CsmModel(CsmConfig(side=8, hidden=8, dropout=0.0), seed=2)
    whole = cross_entropy_loss(model.forward(images), labels).item()
    perm = rng.permutation(16)
    pieces = 0.0
    for start in range(0, 16, 5):
        idx = perm[start : start + 5]
        pieces += cross_entropy_loss(model.forward(images[idx]), labels[idx]).item() * len(idx)
    assert abs(whole - pieces / 16) < 1e-12


def test_taped_steps_leave_no_reference_cycles():
    # backward closures hold bare arrays: a captured Tensor points back at
    # its tape, so every finished step would linger as a cycle until a gc pass
    rng = np.random.default_rng(53)
    tfn = SttfModel(ModelConfig(f=4, num_joints=2, d_joint=4, layers=1, heads=2, dropout=0.3), seed=1)
    csm = CsmModel(CsmConfig(side=4, hidden=6, dropout=0.3, head_kind="regress"), seed=1)
    steps = [
        (tfn, rng.uniform(size=(3, 4, 2, 2, 2)), lambda out: cross_entropy_loss(out, [0, 1, 2])),
        (csm, rng.uniform(size=(3, 4, 4)), lambda out: mse_loss(out, [1.0, 5.0, 9.0])),
    ]
    gc.collect()
    gc.disable()
    try:
        for model, inputs, loss_of in steps:
            out = model.forward(inputs, tape=Tape(), rng=stream(0, "dropout"))
            T.gradient_of(loss_of(out), model.params)
        del out
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


# One eval forward and one taped step of the full-size model on 2 clips,
# hashed together with every gradient.  Its (162, 544) x (544, 544)
# temporal matmuls are far above the size at which OpenBLAS splits a
# product across threads.
_FULL_SIZE_STEP = """
import hashlib
import os
import numpy as np
from dyadsync.rng import stream
from dyadsync.sttf import ModelConfig, SttfModel
from dyadsync.tensor import Tape, gradient_of
from dyadsync.training import cross_entropy_loss

model = SttfModel(ModelConfig(), seed=0)
frames = np.random.default_rng(3).uniform(size=(2, 81, 2, 17, 2))
digest = hashlib.sha256(model.predict_batch(frames).tobytes())
logits = model.forward(frames, tape=Tape(), rng=stream(0, "dropout"))
grads = gradient_of(cross_entropy_loss(logits, [0, 2]), model.params)
digest.update(logits.data.tobytes())
for name in model.params.names():
    digest.update(grads[name].data.tobytes())
threads = []
if os.path.exists("/proc/self/status"):
    threads = [line.split()[1] for line in open("/proc/self/status") if line.startswith("Threads:")]
print(digest.hexdigest(), *threads)
"""


def test_full_size_step_is_identical_on_one_and_two_blas_threads():
    if (os.cpu_count() or 1) < 2:
        pytest.skip("a second BLAS thread needs a second CPU")
    src = str(Path(T.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", _FULL_SIZE_STEP], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout.split())
    (digest_1, *count_1), (digest_2, *count_2) = runs
    # where the OS reports it, the second run really had its second BLAS thread
    assert (count_1, count_2) in ((["1"], ["2"]), ([], []))
    assert digest_1 == digest_2


def test_targets_from_sequences():
    seqs = [
        SkeletonSequence(frames=np.zeros((2, 2, 17, 2)), label_class="Unsync"),
        SkeletonSequence(frames=np.zeros((2, 2, 17, 2)), label_class="Sync"),
    ]
    assert np.array_equal(targets_from_sequences(seqs, "cross_entropy"), [2, 0])
    scored = [SkeletonSequence(frames=np.zeros((2, 2, 17, 2)), label_score=7.5)]
    assert np.array_equal(targets_from_sequences(scored, "mse"), [7.5])
    with pytest.raises(DataError):
        targets_from_sequences(scored, "cross_entropy")
    with pytest.raises(DataError):
        targets_from_sequences(seqs, "mse")


@pytest.mark.parametrize("kind", ["classify", "regress"])
def test_unknown_loss_kind_is_refused(kind):
    seqs = [SkeletonSequence(frames=np.zeros((2, 2, 17, 2)), label_class="Sync",
                             label_score=9.0)]
    with pytest.raises(ContractError, match=f"got '{kind}'"):
        targets_from_sequences(seqs, kind)


def test_train_config_json_roundtrip(tmp_path):
    cfg = TrainConfig(epochs=10, batch_size=8, lr0=5e-4, seed=11)
    p = tmp_path / "train.json"
    p.write_text(json.dumps(dataclasses.asdict(cfg)))
    assert load_config(p, TrainConfig) == cfg
    p.write_text(json.dumps({"epochs": 5, "mystery": 1}))
    with pytest.raises(ConfigError):
        load_config(p, TrainConfig)
    p.write_text("[1,2]")
    with pytest.raises(ConfigError):
        load_config(p, TrainConfig)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "none.json", TrainConfig)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(lr0=-1.0)
    with pytest.raises(ConfigError):
        TrainConfig(decay=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(decay=1.5)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
