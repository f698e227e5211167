"""Attention model: oracles for the attention math, shape laws, equivariances."""

import math

import numpy as np
import pytest

from dyadsync import tensor as T
from dyadsync.errors import ConfigError, ContractError
from dyadsync.pose_io import SkeletonSequence
from dyadsync.rng import stream
from dyadsync.similarity import SimilarityMatrix, normalize_minmax
from dyadsync.sttf import (
    ModelConfig,
    SttfModel,
    expected_param_count,
    export_attention,
    mhsa,
)
from dyadsync.tensor import Tensor


def small_config(**kw):
    base = dict(f=6, num_joints=3, d_joint=8, layers=2, heads=2, dropout=0.3)
    base.update(kw)
    return ModelConfig(**base)


def random_seq(rng, cfg):
    return SkeletonSequence(frames=rng.uniform(0, 1, size=(cfg.f, 2, cfg.num_joints, 2)))


def naive_attention(q, k, v):
    n, d = q.shape
    scores = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            scores[i, j] = sum(q[i, t] * k[j, t] for t in range(d)) / math.sqrt(d)
    weights = np.zeros_like(scores)
    for i in range(n):
        e = np.exp(scores[i] - scores[i].max())
        weights[i] = e / e.sum()
    return weights @ v, weights


# ---------------------------------------------------------------------------
# scaled dot-product attention
# ---------------------------------------------------------------------------


def test_attention_single_token():
    q = k = Tensor(np.array([[0.3, -0.7]]))
    v = Tensor(np.array([[5.0, 6.0]]))
    out, w = T.attention(q, k, v, 1 / math.sqrt(2), keep_weights=True)
    assert np.array_equal(w, [[1.0]])
    assert np.array_equal(out.data, v.data)


def test_attention_zero_queries_give_uniform_weights():
    rng = np.random.default_rng(20)
    v = rng.normal(size=(5, 3))
    zeros = Tensor(np.zeros((5, 3)))
    out, w = T.attention(zeros, zeros, Tensor(v), 1 / math.sqrt(3), keep_weights=True)
    assert np.allclose(w, 1.0 / 5.0)
    assert np.allclose(out.data, np.tile(v.mean(axis=0), (5, 1)))


def test_attention_matches_naive_oracle():
    rng = np.random.default_rng(21)
    for _ in range(10):
        q, k, v = (rng.normal(size=(3, 4)) for _ in range(3))
        out, w = T.attention(Tensor(q), Tensor(k), Tensor(v), 1 / math.sqrt(4), keep_weights=True)
        want_out, want_w = naive_attention(q, k, v)
        assert np.max(np.abs(out.data - want_out)) < 1e-12
        assert np.max(np.abs(w - want_w)) < 1e-12


def test_attention_rows_sum_to_one_batched():
    rng = np.random.default_rng(22)
    q, k, v = (Tensor(rng.normal(size=(2, 3, 6, 4))) for _ in range(3))
    _, w = T.attention(q, k, v, 1 / math.sqrt(4), keep_weights=True)
    assert np.allclose(w.sum(axis=-1), 1.0, atol=1e-12)


def test_attention_scaling_invariance():
    # scaling one projection by c with the denominator adjusted to
    # sqrt(c^2 d) cancels exactly; scaling both only rescales the scores,
    # so per-row argmax survives but the weights themselves change
    rng = np.random.default_rng(23)
    q, k = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
    c = 3.7
    base = T.softmax_rows(Tensor(q @ k.T / math.sqrt(5))).data
    one_side = T.softmax_rows(Tensor((c * q) @ k.T / math.sqrt(c * c * 5))).data
    assert np.max(np.abs(base - one_side)) < 1e-12
    both = T.softmax_rows(Tensor((c * q) @ (c * k).T / math.sqrt(c * c * 5))).data
    assert np.array_equal(both.argmax(axis=1), base.argmax(axis=1))


def test_attention_shape_validation():
    with pytest.raises(ContractError, match=r"Q \(3, 4\) and K \(2, 4\) must match"):
        T.attention(Tensor(np.ones((3, 4))), Tensor(np.ones((2, 4))), Tensor(np.ones((2, 4))), 1 / math.sqrt(4),
                    keep_weights=True)
    with pytest.raises(ContractError, match=r"V \(2, 4\) does not align with K \(3, 4\)"):
        T.attention(Tensor(np.ones((3, 4))), Tensor(np.ones((3, 4))), Tensor(np.ones((2, 4))), 1 / math.sqrt(4),
                    keep_weights=True)


# ---------------------------------------------------------------------------
# multi-head attention
# ---------------------------------------------------------------------------


def random_mhsa_params(rng, d):
    return tuple(Tensor(rng.normal(size=(d, d)) * 0.3) for _ in range(4))


def test_mhsa_single_head_reduces_to_plain_attention():
    rng = np.random.default_rng(24)
    x = rng.normal(size=(5, 6))
    wq, wk, wv, wo = random_mhsa_params(rng, 6)
    got = mhsa(Tensor(x), wq, wk, wv, wo, 1).data
    attn, _ = T.attention(
        Tensor(x @ wq.data), Tensor(x @ wk.data), Tensor(x @ wv.data), 1 / math.sqrt(6), keep_weights=True
    )
    assert np.max(np.abs(got - attn.data @ wo.data)) < 1e-12


def test_mhsa_two_heads_matches_manual_split():
    rng = np.random.default_rng(25)
    x = rng.normal(size=(3, 4))
    wq, wk, wv, wo = random_mhsa_params(rng, 4)
    q, k, v = x @ wq.data, x @ wk.data, x @ wv.data
    halves = []
    for h in range(2):
        cols = slice(2 * h, 2 * h + 2)
        _, w = naive_attention(q[:, cols], k[:, cols], v[:, cols])
        halves.append(w @ v[:, cols])
    want = np.concatenate(halves, axis=1) @ wo.data
    got = mhsa(Tensor(x), wq, wk, wv, wo, 2).data
    assert np.max(np.abs(got - want)) < 1e-12


def test_mhsa_shape_law_and_head_validation():
    rng = np.random.default_rng(26)
    for n, d, h in [(3, 6, 1), (4, 6, 2), (2, 6, 3), (5, 8, 4)]:
        x = Tensor(rng.normal(size=(n, d)))
        assert mhsa(x, *random_mhsa_params(rng, d), h).shape == (n, d)
    with pytest.raises(ConfigError, match=r"heads \(4\) must divide model dim \(6\)"):
        mhsa(Tensor(rng.normal(size=(3, 6))), *random_mhsa_params(rng, 6), 4)


def test_mhsa_capture_is_row_stochastic():
    rng = np.random.default_rng(27)
    cap = []
    mhsa(Tensor(rng.normal(size=(4, 6))), *random_mhsa_params(rng, 6), 3, capture=cap)
    (w,) = cap
    assert w.shape == (3, 4, 4)
    assert np.allclose(w.sum(axis=-1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# config / parameter accounting
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(d_joint=10, heads=4)  # 4 does not divide 10
    with pytest.raises(ConfigError):
        ModelConfig(dropout=1.0)
    with pytest.raises(ConfigError):
        ModelConfig(head_kind="rank")
    with pytest.raises(ConfigError):
        ModelConfig(layers=-1)
    cfg = ModelConfig()
    assert (cfg.tokens_spatial, cfg.c_temp, cfg.c_temp // cfg.heads) == (34, 544, 68)


def test_param_count_matches_closed_form():
    for cfg in [
        small_config(),
        small_config(layers=0),
        small_config(head_kind="regress"),
        ModelConfig(f=4, num_joints=2, d_joint=8, layers=1, heads=2, dropout=0.0),
    ]:
        model = SttfModel(cfg, seed=1)
        assert sum(value.size for _, value in model.params.items()) == expected_param_count(cfg)


def test_reference_config_count_and_shape():
    cfg = ModelConfig()
    assert expected_param_count(cfg) == 14_327_731
    model = SttfModel(cfg, seed=0)
    assert sum(value.size for _, value in model.params.items()) == 14_327_731
    seq = SkeletonSequence(frames=np.random.default_rng(1).uniform(0, 1, (81, 2, 17, 2)))
    z = model._spatial_stack(seq.frames[None]).data[0]
    assert z.shape == (81, 544)


# ---------------------------------------------------------------------------
# forward surfaces
# ---------------------------------------------------------------------------


def zero_positions(model, which):
    for name in which:
        model.params.replace(name, np.zeros(model.params[name].shape))


def test_spatial_permutation_equivariance_with_zero_positions():
    cfg = small_config(dropout=0.0)
    rng = np.random.default_rng(28)
    model = SttfModel(cfg, seed=3)
    zero_positions(model, ["spatial.pos", "frame.pos"])
    seq = random_seq(rng, cfg)
    perm = rng.permutation(cfg.tokens_spatial)
    permuted = seq.frames.reshape(cfg.f, cfg.tokens_spatial, 2)[:, perm].reshape(seq.frames.shape)

    shape = (cfg.f, cfg.tokens_spatial, cfg.d_joint)
    base = model._spatial_stack(seq.frames[None]).data.reshape(shape)
    moved = model._spatial_stack(permuted[None]).data.reshape(shape)
    assert np.max(np.abs(moved - base[:, perm])) < 1e-12


def test_spatial_identical_frames_give_identical_rows():
    cfg = small_config(dropout=0.0)
    model = SttfModel(cfg, seed=4)
    zero_positions(model, ["frame.pos"])  # isolate the per-frame content term
    pose = np.random.default_rng(29).uniform(0, 1, size=(2, cfg.num_joints, 2))
    frames = np.tile(pose, (cfg.f, 1, 1, 1))
    z = model._spatial_stack(frames[None]).data[0]
    assert np.max(np.abs(z - z[0])) < 1e-12


def test_spatial_rejects_wrong_frame_count():
    cfg = small_config()
    model = SttfModel(cfg, seed=0)
    bad = np.zeros((1, cfg.f + 1, 2, cfg.num_joints, 2))
    with pytest.raises(ConfigError):
        model._spatial_stack(bad)


def test_temporal_shape_and_row_permutation_equivariance():
    cfg = small_config(dropout=0.0)
    rng = np.random.default_rng(30)
    model = SttfModel(cfg, seed=5)
    zero_positions(model, ["temporal.pos"])
    z = rng.normal(size=(cfg.f, cfg.c_temp))
    perm = rng.permutation(cfg.f)
    base = model._temporal_stack(Tensor(z[None])).data[0]
    moved = model._temporal_stack(Tensor(z[perm][None])).data[0]
    assert base.shape == (cfg.f, cfg.c_temp)
    assert np.max(np.abs(moved - base[perm])) < 1e-12


def test_temporal_empty_stack_is_position_add():
    cfg = small_config(layers=0, dropout=0.0)
    model = SttfModel(cfg, seed=6)
    z = np.random.default_rng(31).normal(size=(cfg.f, cfg.c_temp))
    out = model._temporal_stack(Tensor(z[None])).data[0]
    assert np.array_equal(out, z + model.params["temporal.pos"].data)


def test_temporal_rejects_bad_shapes():
    model = SttfModel(small_config(), seed=0)
    with pytest.raises(ContractError, match=r"expected \(\.\.\., \d+, \d+\), got \(3, 7\)"):
        model._temporal_stack(Tensor(np.zeros((3, 7))))


def test_head_pooling_and_bias():
    cfg = small_config(dropout=0.0)
    model = SttfModel(cfg, seed=7)
    bias = np.array([0.5, -1.0, 2.0])
    model.params.replace("head.w", np.zeros((cfg.c_temp, 3)))
    model.params.replace("head.b", bias)
    y = np.random.default_rng(32).normal(size=(cfg.f, cfg.c_temp))
    assert np.array_equal(model._head(Tensor(y[None])).data[0], bias)

    # constant rows: pooling returns the row itself
    model2 = SttfModel(cfg, seed=8)
    row = np.random.default_rng(33).normal(size=cfg.c_temp)
    const = np.tile(row, (cfg.f, 1))
    logits = model2._head(Tensor(const[None])).data[0]
    direct = row @ model2.params["head.w"].data + model2.params["head.b"].data
    assert np.max(np.abs(logits - direct)) < 1e-12


def test_regress_head_returns_scalar():
    cfg = small_config(head_kind="regress", dropout=0.0)
    model = SttfModel(cfg, seed=9)
    y = np.random.default_rng(34).normal(size=(cfg.f, cfg.c_temp))
    out = model._head(Tensor(y[None]))
    assert out.shape == (1, 1)


def test_full_model_gradients_micro_config():
    cfg = ModelConfig(f=2, num_joints=1, d_joint=2, layers=1, heads=1, dropout=0.0)
    model = SttfModel(cfg, seed=10)
    frames = np.random.default_rng(35).uniform(0, 1, size=(1, cfg.f, 2, cfg.num_joints, 2))
    target = np.array([[0.3, 0.5, 0.2]])

    def loss_fn(params, tape):
        logits = model.forward(frames, tape=tape)
        return ((T.log_softmax(logits) * Tensor(-target)).sum())

    assert T.check_gradients(loss_fn, model.params) < 1e-6


def test_forward_determinism_and_dropout_variation():
    cfg = small_config()
    frames = np.random.default_rng(36).uniform(0, 1, size=(2, cfg.f, 2, cfg.num_joints, 2))
    a = SttfModel(cfg, seed=11).predict_batch(frames)
    b = SttfModel(cfg, seed=11).predict_batch(frames)
    assert np.array_equal(a, b)
    assert a.shape == (2, 3)

    model = SttfModel(cfg, seed=11)
    t1 = model.forward(frames, rng=stream(1, "dropout")).data
    t2 = model.forward(frames, rng=stream(2, "dropout")).data
    assert not np.array_equal(t1, t2)  # different masks
    assert not np.array_equal(t1, a)  # a generator switches dropout on
    t3 = model.forward(frames, rng=stream(1, "dropout")).data
    assert np.array_equal(t1, t3)  # same stream, same masks


# float32 inference: predict_batch against the float64 forward.  Over 20
# seeds of these configs the largest logit change was 9e-7 of the largest
# logit, so the bound keeps a margin of about ten.
PREDICT_TOLERANCE = 1e-5


@pytest.mark.parametrize("cfg", [small_config(), small_config(head_kind="regress"),
                                 ModelConfig(d_joint=4, layers=1, heads=2, dropout=0.1)],
                         ids=["small", "regress", "criterion-6"])
def test_predict_batch_is_the_float32_forward_in_float64(cfg):
    for seed in range(3):
        model = SttfModel(cfg, seed=seed)
        frames = np.random.default_rng(40 + seed).uniform(0, 1, size=(4, cfg.f, 2,
                                                                       cfg.num_joints, 2))
        got = model.predict_batch(frames)
        want = model.forward(frames).data
        assert got.dtype == np.float64 and got.shape == want.shape == (4, cfg.out_dim)
        assert got.tobytes() == model.forward(frames.astype(np.float32)).data.astype(
            np.float64).tobytes()
        assert np.abs(got - want).max() <= PREDICT_TOLERANCE * np.abs(want).max()
        assert np.array_equal(got.argmax(axis=1), want.argmax(axis=1))


@pytest.mark.parametrize("dtype,taped", [(np.float32, False), (np.float32, True),
                                         (np.float64, False), (np.float64, True)])
def test_forward_computes_in_the_dtype_of_its_input(monkeypatch, dtype, taped):
    cfg = small_config()
    model = SttfModel(cfg, seed=14)
    frames = np.random.default_rng(41).uniform(0, 1, size=(2, cfg.f, 2, cfg.num_joints, 2))
    seen = []
    as_array = T.as_array

    def recording(data):  # every tensor's data passes through here
        out = as_array(data)
        seen.append(out.dtype)
        return out

    monkeypatch.setattr(T, "as_array", recording)
    tape = T.Tape() if taped else None
    out = model.forward(frames.astype(dtype), tape=tape, rng=stream(3, "dropout"))
    assert out.data.dtype == dtype
    assert len(seen) > 100 and set(seen) == {np.dtype(dtype)}
    assert {value.data.dtype for _, value in model.params.items()} == {np.dtype(np.float64)}


# ---------------------------------------------------------------------------
# attention export
# ---------------------------------------------------------------------------


def test_export_attention_shapes_and_row_sums():
    cfg = small_config(dropout=0.0)
    model = SttfModel(cfg, seed=12)
    maps = export_attention(model, random_seq(np.random.default_rng(37), cfg))
    t = cfg.tokens_spatial
    assert maps.spatial.shape == (cfg.layers, cfg.heads, t, t)
    assert maps.temporal.shape == (cfg.layers, cfg.heads, cfg.f, cfg.f)
    assert np.allclose(maps.spatial.sum(axis=-1), 1.0, atol=1e-9)
    assert np.allclose(maps.temporal.sum(axis=-1), 1.0, atol=1e-9)


def test_export_attention_normalization_and_person_blocks():
    cfg = small_config(dropout=0.0)
    model = SttfModel(cfg, seed=13)
    maps = export_attention(model, random_seq(np.random.default_rng(38), cfg))
    for stack in (maps.spatial, maps.temporal):
        for lmap in stack.reshape(-1, *stack.shape[-2:]):
            normed = normalize_minmax(SimilarityMatrix(lmap)).values
            assert normed.min() == 0.0 and normed.max() == 1.0
    J = cfg.num_joints
    block = maps.spatial[0, 0, :J, J:]  # person a attending to person b
    assert block.shape == (J, J)
