"""Engine-level checks: every primitive against an independent oracle.

Gradient oracles are central finite differences computed here in the
test (not via the library's own checker, except where the checker itself
is under test).  Matmul values are checked against an explicit
triple-loop implementation.
"""

import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyadsync import tensor as T
from dyadsync.errors import ConfigError, ContractError
from dyadsync.rng import stream


def numeric_grad(f, x, eps=1e-6):
    """Central-difference gradient of scalar-valued f at array x."""
    g = np.zeros_like(x)
    for idx in range(x.size):
        up = x.copy()
        up.flat[idx] += eps
        down = x.copy()
        down.flat[idx] -= eps
        g.flat[idx] = (f(up) - f(down)) / (2 * eps)
    return g


def analytic_grad(op, x, weight=None):
    """Gradient of sum(weight * op(x)) via the tape."""
    tape = T.Tape()
    xt = tape.named_leaf("x", x)
    out = op(xt)
    w = np.ones_like(out.data) if weight is None else weight
    loss = (out * T.Tensor(w)).sum()
    return tape.backward(loss)[xt.node_id]


def triple_loop_matmul(a, b):
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------


def test_tensor_array_is_read_only():
    x = T.Tensor(np.zeros(3))
    with pytest.raises(ValueError, match="read-only"):
        x.data[0] = 1.0
    assert not np.any(x.data)


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n, k, m = rng.integers(1, 6, size=3)
        a = rng.normal(size=(n, k))
        b = rng.normal(size=(k, m))
        got = T.matmul(T.Tensor(a), T.Tensor(b)).data
        assert np.allclose(got, triple_loop_matmul(a, b), atol=1e-12)


def test_matmul_batched_matches_per_slice():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(4, 3, 5))
    b = rng.normal(size=(4, 5, 2))
    got = T.matmul(T.Tensor(a), T.Tensor(b)).data
    for i in range(4):
        assert np.allclose(got[i], triple_loop_matmul(a[i], b[i]), atol=1e-12)


def test_matmul_rejects_vectors_and_mismatches():
    with pytest.raises(ContractError, match="matmul needs ndim >= 2 operands"):
        T.matmul(T.Tensor(np.ones(3)), T.Tensor(np.ones((3, 2))))
    with pytest.raises(ContractError, match="cannot contract"):
        T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((4, 2))))
    with pytest.raises(ContractError, match="cannot contract"):  # linear_apply's check is matmul's
        T.linear_apply(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((4, 2))), T.Tensor(np.zeros(2)))


def test_softmax_rows_sum_to_one_and_handle_extremes():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(6, 10)) * 50
    x[0, 0] = 1e4  # would overflow a naive exp
    y = T.softmax_rows(T.Tensor(x)).data
    assert np.all(np.isfinite(y))
    assert np.allclose(y.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(y >= 0)


def test_log_softmax_agrees_with_softmax():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(5, 7))
    ls = T.log_softmax(T.Tensor(x)).data
    s = T.softmax_rows(T.Tensor(x)).data
    assert np.allclose(np.exp(ls), s, atol=1e-12)


def test_layer_norm_output_statistics():
    rng = np.random.default_rng(11)
    x = rng.normal(loc=3.0, scale=2.5, size=(4, 16))
    out = T.layer_norm(T.Tensor(x), T.Tensor(np.ones(16)), T.Tensor(np.zeros(16))).data
    assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-12)
    assert np.allclose(out.std(axis=-1), 1.0, atol=1e-3)  # eps pulls slightly below 1


def test_gelu_reference_values():
    # monotone checkpoints of the tanh form; gelu(0) = 0 exactly
    x = np.array([0.0, 1.0, -1.0, 3.0])
    y = T.gelu(T.Tensor(x)).data
    assert y[0] == 0.0
    assert abs(y[1] - 0.8411919906082768) < 1e-12
    assert abs(y[2] - -0.15880800939172324) < 1e-12
    assert y[3] > 2.99


GELU_C, GELU_A = math.sqrt(2.0 / math.pi), 0.044715


def pow_gelu(v):
    """The tanh-form GELU with the cube taken by ``v**3`` (libm pow)."""
    return 0.5 * v * (1.0 + np.tanh(GELU_C * (v + GELU_A * v**3)))


def test_gelu_matches_pow_form_within_rounding():
    # only the cube's last-bit rounding differs from v**3; near the
    # negative tail 1 + tanh cancels, so bound the absolute gap, not ulps
    v = np.random.default_rng(44).normal(scale=4.0, size=(64, 34, 16))
    gap = np.abs(T.gelu(T.Tensor(v)).data - pow_gelu(v))
    assert np.all(gap <= 2 * np.finfo(np.float64).eps * np.maximum(1.0, np.abs(v)))


def test_gelu_in_place_matches_unfused_expression():
    rng = np.random.default_rng(45)
    v = rng.normal(scale=4.0, size=(6, 34, 16))
    g = rng.normal(size=v.shape)
    t = np.tanh(GELU_C * (v + GELU_A * (v * v * v)))
    want_out = 0.5 * v * (1.0 + t)
    d_inner = GELU_C * (1.0 + 3.0 * GELU_A * v**2)
    want_grad = g * (0.5 * (1.0 + t) + 0.5 * v * (1.0 - t**2) * d_inner)

    assert T.gelu(T.Tensor(v)).data.tobytes() == want_out.tobytes()
    tape = T.Tape()
    xt = tape.named_leaf("v", v)
    out = T.gelu(xt)
    grads = tape.backward((out * T.Tensor(g)).sum())
    assert out.data.tobytes() == want_out.tobytes()
    assert grads[xt.node_id].tobytes() == want_grad.tobytes()


def test_gelu_backward_is_finite_where_the_square_overflows():
    # past |v| ~ 1.3e154 v**2 is inf; tanh is +-1 there, so the derivative is 1 or 0.
    # Up to |v| = 1e150 the derivative keeps the bits of the uncapped expression.
    rng = np.random.default_rng(46)
    v = rng.choice([-1.0, 1.0], size=400) * 10.0 ** rng.uniform(-3, 150, size=400)
    v = np.concatenate([v, rng.normal(scale=4.0, size=200), [1e150, -1e150, 19.0, -19.0]])
    with np.errstate(over="ignore"):
        t = np.tanh(GELU_C * (v + GELU_A * (v * v * v)))
        d_inner = GELU_C * (1.0 + 3.0 * GELU_A * v**2)
        want = 0.5 * (1.0 + t) + 0.5 * v * (1.0 - t**2) * d_inner
        tape = T.Tape()
        xt = tape.named_leaf("v", np.concatenate([v, [1e160, -1e160]]))
        grads = tape.backward(T.gelu(xt).sum())[xt.node_id]
    assert grads[:-2].tobytes() == want.tobytes()
    assert grads[-2:].tolist() == [1.0, 0.0]


def unfused_softmax_rows(x):
    """Softmax as written before the scale was folded in: three temporaries."""
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def unfused_softmax_node(x):
    """The pre-fusion softmax tape op, recorded through the public Tape API."""
    out = unfused_softmax_rows(x.data)

    def backward(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return ((g - inner) * out,)

    return T.Tensor(out, x.tape, x.tape.record((x.node_id,), backward))


def test_gelu_backward_cap_follows_the_dtype():
    # a float64 cap such as 1e150 is inf in float32, and v**2 past |v| ~ 1.8e19
    # is inf there too; the float32 cap keeps the backward finite and silent
    v = np.array([-3e38, -1e20, -50.0, -3.0, 0.0, 0.5, 3.0, 50.0, 1e20, 3e38], dtype=np.float32)
    tape = T.Tape()
    xt = tape.named_leaf("v", v)
    with warnings.catch_warnings():  # the forward's cube overflows to inf, silently
        warnings.simplefilter("error")
        loss = T.gelu(xt).sum()
        grads = tape.backward(loss)[xt.node_id]
    assert grads.dtype == np.float32
    assert grads[[0, 1, 2]].tolist() == [0.0, 0.0, 0.0]
    assert grads[[-3, -2, -1]].tolist() == [1.0, 1.0, 1.0]
    assert np.isfinite(grads).all()


def test_softmax_rows_matches_unfused_formula():
    x = np.random.default_rng(46).normal(size=(3, 4, 9, 9)) * 20
    for arr in (x, x.transpose(0, 1, 3, 2)):  # contiguous and strided rows
        assert T.softmax_rows(T.Tensor(arr)).data.tobytes() == \
            unfused_softmax_rows(arr).tobytes()


def test_attention_scale_matches_multiply_then_softmax():
    # the scale cases that softmax_rows(scale=) carried before attention fused,
    # now set by the head count: 1 / sqrt(12 / heads)
    rng = np.random.default_rng(46)
    base = rng.normal(size=(3, 9, 12)) * 4
    v = T.Tensor(rng.normal(size=(3, 9, 12)))
    for q in (base, base[:, ::-1]):  # contiguous and reversed rows
        k = np.ascontiguousarray(q[:, ::-1])
        for heads in (12, 2, 1):
            qh, kh = (chain_split(T.Tensor(a), heads) for a in (q, k))
            scores = T.matmul(qh, T.transpose(kh, (0, 1, 3, 2)))
            separate = T.multiply(scores, T.Tensor(1.0 / math.sqrt(12 // heads))).data
            _, weights = T.attention(T.Tensor(q), T.Tensor(k), v, heads, keep_weights=True)
            assert weights.tobytes() == unfused_softmax_rows(separate).tobytes()


def test_scaled_softmax_gradients_match_multiply_then_softmax():
    rng = np.random.default_rng(47)
    q, k, v, w = (rng.normal(size=(2, 7, 6)) for _ in range(4))
    heads, scale = 3, 1.0 / math.sqrt(2)

    def run(fused):
        tape = T.Tape()
        qt, kt, vt = tape.named_leaf("q", q), tape.named_leaf("k", k), tape.named_leaf("v", v)
        if fused:
            out, probs = T.attention(qt, kt, vt, heads, keep_weights=True)
        else:
            qh, kh, vh = (chain_split(t, heads) for t in (qt, kt, vt))
            scores = T.matmul(qh, T.transpose(kh, (0, 1, 3, 2)))
            probs_t = unfused_softmax_node(T.multiply(scores, T.Tensor(scale)))
            out, probs = chain_merge(T.matmul(probs_t, vh)), probs_t.data
        grads = tape.backward((out * T.Tensor(w)).sum())
        return (out.data, probs, grads[qt.node_id], grads[kt.node_id], grads[vt.node_id],
                len(tape))

    fused, chain = run(True), run(False)
    for got, want in zip(fused[:5], chain[:5]):
        assert got.tobytes() == want.tobytes()
    # one node where the chain records five, two per split operand and two for the merge
    assert fused[5] == chain[5] - 12


def test_broadcast_add_and_mul_values():
    a = np.arange(6.0).reshape(2, 3)
    b = np.array([10.0, 20.0, 30.0])
    assert np.array_equal(T.add(T.Tensor(a), T.Tensor(b)).data, a + b)
    assert np.array_equal(T.multiply(T.Tensor(a), T.Tensor(b)).data, a * b)


def test_reshape_transpose_roundtrip():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(2, 3, 4))
    t = T.transpose(T.transpose(T.Tensor(x), (2, 0, 1)), (1, 2, 0))
    assert np.array_equal(t.data, x)
    r = T.Tensor(x).reshape(4, 6).reshape(2, 3, 4)
    assert np.array_equal(r.data, x)


# ---------------------------------------------------------------------------
# gradients (every primitive vs central differences)
# ---------------------------------------------------------------------------


def test_elementwise_gradients():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(3, 4))
    w = rng.normal(size=(3, 4))
    cases = [
        ("gelu", lambda t: T.gelu(t), lambda v: (w * T.gelu(T.Tensor(v)).data).sum()),
        ("softmax", lambda t: T.softmax_rows(t), lambda v: (w * T.softmax_rows(T.Tensor(v)).data).sum()),
        ("logsoftmax", lambda t: T.log_softmax(t), lambda v: (w * T.log_softmax(T.Tensor(v)).data).sum()),
    ]
    for name, op, val in cases:
        got = analytic_grad(op, x, weight=w)
        want = numeric_grad(val, x)
        assert np.allclose(got, want, atol=1e-6), name


def test_matmul_gradients_both_sides():
    rng = np.random.default_rng(14)
    a = rng.normal(size=(3, 5))
    b = rng.normal(size=(5, 2))
    w = rng.normal(size=(3, 2))

    def loss_a(v):
        return float((w * (v @ b)).sum())

    def loss_b(v):
        return float((w * (a @ v)).sum())

    tape = T.Tape()
    at, bt = tape.named_leaf("a", a), tape.named_leaf("b", b)
    loss = (T.matmul(at, bt) * T.Tensor(w)).sum()
    grads = tape.backward(loss)
    assert np.allclose(grads[at.node_id], numeric_grad(loss_a, a), atol=1e-6)
    assert np.allclose(grads[bt.node_id], numeric_grad(loss_b, b), atol=1e-6)


def test_batched_matmul_gradient_with_broadcast():
    # shared weight matrix applied to a batch: broadcast dim must be summed
    rng = np.random.default_rng(15)
    x = rng.normal(size=(4, 3, 5))
    w = rng.normal(size=(5, 2))

    def loss_w(v):
        return float((x @ v).sum())

    tape = T.Tape()
    wt = tape.named_leaf("w", w)
    loss = T.matmul(T.Tensor(x), wt).sum()
    grads = tape.backward(loss)
    assert grads[wt.node_id].shape == w.shape
    assert np.allclose(grads[wt.node_id], numeric_grad(loss_w, w), atol=1e-6)


def test_broadcast_add_gradient_reduces():
    rng = np.random.default_rng(16)
    x = rng.normal(size=(4, 3))
    bias = rng.normal(size=(3,))

    def loss_bias(v):
        return float(((x + v) ** 2).sum())

    tape = T.Tape()
    bt = tape.named_leaf("bias", bias)
    s = T.add(T.Tensor(x), bt)
    loss = (s * s).sum()
    grads = tape.backward(loss)
    assert grads[bt.node_id].shape == bias.shape
    assert np.allclose(grads[bt.node_id], numeric_grad(loss_bias, bias), atol=1e-5)


def test_reduce_gradients():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(3, 4, 2))
    for op, factor in [(T.reduce_sum, 1.0), (T.reduce_mean, 1.0 / x.size)]:
        tape = T.Tape()
        xt = tape.named_leaf("x", x)
        grads = tape.backward(op(xt))
        assert np.allclose(grads[xt.node_id], np.full_like(x, factor))
    # axis variant
    tape = T.Tape()
    xt = tape.named_leaf("x", x)
    grads = tape.backward(T.reduce_mean(xt, axis=1).sum())
    assert np.allclose(grads[xt.node_id], np.full_like(x, 0.25))


def test_layer_norm_gradients_all_three_inputs():
    rng = np.random.default_rng(18)
    x = rng.normal(size=(2, 6))
    gain = rng.normal(size=(6,)) + 1.0
    shift = rng.normal(size=(6,))
    mix = rng.normal(size=(2, 6))

    def value(xv, gv, sv):
        mu = xv.mean(-1, keepdims=True)
        var = ((xv - mu) ** 2).mean(-1, keepdims=True)
        return float((mix * (gv * (xv - mu) / np.sqrt(var + 1e-5) + sv)).sum())

    tape = T.Tape()
    xt, gt, st = tape.named_leaf("x", x), tape.named_leaf("gain", gain), tape.named_leaf("shift", shift)
    loss = (T.layer_norm(xt, gt, st) * T.Tensor(mix)).sum()
    grads = tape.backward(loss)
    assert np.allclose(grads[xt.node_id], numeric_grad(lambda v: value(v, gain, shift), x), atol=1e-6)
    assert np.allclose(grads[gt.node_id], numeric_grad(lambda v: value(x, v, shift), gain), atol=1e-6)
    assert np.allclose(grads[st.node_id], numeric_grad(lambda v: value(x, gain, v), shift), atol=1e-6)


def test_transpose_reshape_gradients_are_permutations():
    rng = np.random.default_rng(19)
    x = rng.normal(size=(2, 3, 4))
    w = rng.normal(size=(4, 2, 3))
    tape = T.Tape()
    xt = tape.named_leaf("x", x)
    loss = (T.transpose(xt, (2, 0, 1)) * T.Tensor(w)).sum()
    grads = tape.backward(loss)
    assert np.allclose(grads[xt.node_id], w.transpose(1, 2, 0))


def test_gradient_accumulates_across_reuse():
    # y = x*x + x: dy/dx = 2x + 1, exercised through two tape paths
    x = np.array([[1.5, -2.0, 0.5]])
    tape = T.Tape()
    xt = tape.named_leaf("x", x)
    loss = (xt * xt + xt).sum()
    grads = tape.backward(loss)
    assert np.allclose(grads[xt.node_id], 2 * x + 1)


def test_backward_keeps_only_leaf_gradients():
    x = np.array([[0.5, -1.0, 2.0]])
    tape = T.Tape()
    xt, wt = tape.named_leaf("x", x), tape.named_leaf("w", 2 * x)
    hidden = T.gelu(xt * wt)
    loss = hidden.sum()
    grads = tape.backward(loss)
    assert grads[xt.node_id] is not None and grads[wt.node_id] is not None
    assert all(grads[n] is None for n in (hidden.node_id - 1, hidden.node_id, loss.node_id))


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------


def test_dropout_eval_mode_is_identity():
    x = T.Tensor(np.linspace(-1, 1, 12).reshape(3, 4))
    out = T.dropout_apply(x, 0.5)
    assert out is x  # bit-exact passthrough, same object
    assert T.dropout_apply(x, 0.0, rng=stream(0, "dropout")) is x


def test_dropout_training_statistics():
    rng = stream(123, "dropout")
    x = np.ones((200, 200))
    out = T.dropout_apply(T.Tensor(x), 0.3, rng=rng).data
    kept = out != 0.0
    # survivors scaled by 1/(1-rate); keep fraction near 0.7
    assert np.allclose(out[kept], 1.0 / 0.7)
    assert abs(kept.mean() - 0.7) < 0.01
    assert abs(out.mean() - 1.0) < 0.01  # expectation preserved


def test_dropout_gradient_uses_same_mask():
    rng = stream(5, "dropout")
    x = np.ones((50, 50))
    tape = T.Tape()
    xt = tape.named_leaf("x", x)
    out = T.dropout_apply(xt, 0.4, rng=rng)
    grads = tape.backward(out.sum())
    assert np.array_equal(grads[xt.node_id], out.data)  # mask*scale both times


def test_dropout_validation():
    # the rate is checked whether or not dropout is on
    with pytest.raises(ConfigError, match=r"dropout rate must lie in \[0, 1\), got 1\.0"):
        T.dropout_apply(T.Tensor(np.ones(3)), 1.0, rng=stream(0, "dropout"))
    with pytest.raises(ConfigError, match=r"dropout rate must lie in \[0, 1\), got -0\.1"):
        T.dropout_apply(T.Tensor(np.ones(3)), -0.1)


# ---------------------------------------------------------------------------
# attention: one node against the five-node chain it replaced
# ---------------------------------------------------------------------------


def chain_node(x, out, backward):
    """``out`` recorded on ``x``'s tape through the public Tape API, if it has one."""
    if x.tape is None:
        return T.Tensor(out)
    return T.Tensor(out, x.tape, x.tape.record((x.node_id,), backward))


def chain_scaled_softmax(x, scale):
    """The softmax tape op with the attention scale folded in, as it was before fusion."""
    out = x.data * scale
    out -= out.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)

    def backward(g):
        gx = g - (g * out).sum(axis=-1, keepdims=True)
        gx *= out
        gx *= scale
        return (gx,)

    return chain_node(x, out, backward)


def chain_float_dropout(x, rate, rng):
    """The dropout tape op with a float64 mask of 0 and 1/(1 - rate), drawn whole."""
    if rng is None or rate == 0.0:
        return x
    mask = (rng.random(x.shape) >= rate) * (1.0 / (1.0 - rate))

    def backward(g):
        return (g * mask,)

    return chain_node(x, x.data * mask, backward)


def chain_split(t, heads):
    """(..., n, d) -> (..., heads, n, d // heads) as a reshape node and a transpose node."""
    *lead, n, d = t.shape
    nl = len(lead)
    return T.transpose(T.reshape(t, (*lead, n, heads, d // heads)),
                       (*range(nl), nl + 1, nl, nl + 2))


def chain_merge(t):
    """(..., heads, n, dh) -> (..., n, heads * dh): the inverse transpose and reshape nodes."""
    *lead, heads, n, dh = t.shape
    nl = len(lead)
    return T.reshape(T.transpose(t, (*range(nl), nl + 1, nl, nl + 2)), (*lead, n, heads * dh))


def chain_attention(q, k, v, heads, rate=0.0, rng=None):
    """The head split, then transpose, matmul, scaled softmax, dropout and
    matmul (five tape nodes), then the merge."""
    q, k, v = (chain_split(t, heads) for t in (q, k, v))
    nd = k.data.ndim
    axes = tuple(range(nd - 2)) + (nd - 1, nd - 2)
    weights = chain_scaled_softmax(T.matmul(q, T.transpose(k, axes)), 1.0 / math.sqrt(k.shape[-1]))
    return chain_merge(T.matmul(chain_float_dropout(weights, rate, rng), v)), weights.data


@st.composite
def attention_cases(draw):
    lead = tuple(draw(st.lists(st.integers(1, 5), max_size=3)))  # 2- to 5-d operands
    n, heads, dh = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    per_block = draw(st.integers(1, 4))  # weights per block, in (n, n) matrices
    rate = draw(st.sampled_from([0.0, 0.4]))
    strided = draw(st.booleans())
    return lead, n, heads, dh, per_block, rate, strided, draw(st.integers(0, 2**16))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(attention_cases())
@example(((1,), 4, 1, 3, 1, 0.4, False, 1))  # a stack of one
@example(((2,), 3, 2, 1, 4, 0.4, True, 2))  # exactly one run
@example(((5,), 3, 1, 2, 2, 0.4, False, 3))  # runs 2 + 2 and a short last run of 1
@example(((3,), 4, 2, 1, 4, 0.4, True, 4))  # runs 4 + 2: axis-0 indices 0-1, then 2
@example(((3,), 2, 3, 1, 2, 0.4, False, 5))  # a leading row of 3 matrices overruns a block of 2
@example(((2, 3, 2), 3, 1, 2, 5, 0.4, True, 7))  # three leading axes: runs 5 + 5 + 2
@example(((), 6, 1, 3, 1, 0.4, True, 6))  # 2-d: a stack of one, rows never cut
@example(((), 6, 3, 1, 1, 0.4, True, 8))  # 2-d, three heads: one row, one run
@example(((2,), 8, 2, 2, 2, 0.4, False, 9))  # n = 8: the key sum's 8 accumulators
@example(((3,), 34, 8, 2, 16, 0.4, True, 10))  # the spatial 34 tokens, 8 heads of 2: runs 2 + 1
@example(((), 129, 1, 3, 1, 0.0, False, 11))  # n = 129: the key sum split in halves
def test_attention_matches_the_five_node_chain(case):
    lead, n, heads, dh, per_block, rate, strided, seed = case
    rng = np.random.default_rng(seed)
    d = heads * dh
    if strided:  # rows as a strided view
        q, k, v = (rng.normal(scale=2.0, size=lead + (d, n)).swapaxes(-1, -2) for _ in range(3))
    else:
        q, k, v = (rng.normal(scale=2.0, size=lead + (n, d)) for _ in range(3))
    upstream = rng.normal(size=lead + (d, n)).swapaxes(-1, -2)  # a strided incoming gradient

    def run(attend):
        tape = T.Tape()
        leaves = [tape.named_leaf(name, a) for name, a in zip("qkv", (q, k, v))]
        out, weights = attend(*leaves, heads, rate, stream(seed, "dropout"))
        grads = tape.backward((out * T.Tensor(upstream)).sum())
        return [out.data, weights] + [grads[t.node_id] for t in leaves]

    with mock.patch.object(T, "ATTENTION_BLOCK_BYTES", per_block * n * n * 8):
        fused = run(lambda *a: T.attention(*a, keep_weights=True))
        untaped, none = T.attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), heads, rate,
                                    stream(seed, "dropout"))
    chain = run(chain_attention)
    for got, want in zip(fused, chain):
        assert got.tobytes() == want.tobytes()
        assert got.strides == want.strides  # downstream matmuls see the same layout
    assert untaped.data.tobytes() == chain[0].tobytes() and none is None


@pytest.mark.parametrize("shape", [(3, 0, 4), (3, 4, 0), (0, 4)])
def test_attention_refuses_an_empty_token_or_feature_axis(shape):
    zeros = T.Tensor(np.zeros(shape))
    with mock.patch.object(T.np, "empty", side_effect=AssertionError("allocated")):
        with pytest.raises(ContractError, match=re.escape(str(shape))):
            T.attention(zeros, zeros, zeros, 2)


@st.composite
def key_sums(draw):
    """(n, columns) values to sum over axis 0, with specials among them."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    n, columns = draw(st.integers(1, 300)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    x = rng.normal(size=(n, columns)) * 10.0 ** rng.integers(-30, 30, size=(n, columns))
    tiny = np.finfo(dtype).smallest_subnormal
    specials = np.array([0.0, -0.0, tiny, -tiny, np.inf, -np.inf, np.nan], dtype=dtype)
    special = rng.random((n, columns)) < draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    x = x.astype(dtype)
    x[special] = rng.choice(specials, size=special.sum())
    return x


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(key_sums())
@example(np.array([[-0.0]]))  # numpy's sum of -0.0 alone is +0.0
@example(np.full((8, 2), -0.0, dtype=np.float32))
@example(np.full((129, 1), -0.0))
def test_key_sum_matches_numpys_last_axis_sum(x):
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.add.reduce(np.ascontiguousarray(x.T), axis=-1)
        got = T._sum_keys(x, np.empty_like(x))
    # numpy's array add and its scalar reduction keep different operands'
    # NaNs, so a NaN is compared by place, not by sign and payload
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.where(np.isnan(got), 0, got).tobytes() == np.where(np.isnan(want), 0, want).tobytes()


def stacked_attention(q, k, v, heads):
    """Untaped attention as a loop over one copied stack of (n, dh) matrices,
    with the softmax along each (n,)-row of q kᵀ: a row-major reference for
    the keys-major loop."""
    *lead, n, d = q.shape
    lead, dh = tuple(lead), d // heads
    scale = 1.0 / math.sqrt(dh)

    def split(a):
        return a.reshape(lead + (n, heads, dh)).swapaxes(-2, -3).reshape(-1, n, dh)

    qd, kd, vd = split(q), split(k), split(v)
    kt = kd.swapaxes(-1, -2)
    run = max(1, T.ATTENTION_BLOCK_BYTES // (n * n * qd.itemsize))
    out = np.empty((len(qd), n, dh), dtype=qd.dtype)
    probs = np.empty((len(qd), n, n), dtype=qd.dtype)
    for start in range(0, len(qd), run):
        idx = slice(start, start + run)
        w = np.matmul(qd[idx], kt[idx], out=probs[idx])
        w *= scale
        w -= w.max(axis=-1, keepdims=True)
        np.exp(w, out=w)
        w /= w.sum(axis=-1, keepdims=True)
        np.matmul(w, vd[idx], out=out[idx])
    out = out.reshape(lead + (heads, n, dh)).swapaxes(-2, -3).reshape(lead + (n, d))
    return out, probs.reshape(lead + (heads, n, n))


@pytest.mark.parametrize("shape", [(648, 34, 16), (8, 81, 544)])  # an 8-clip full-size batch
def test_float32_eval_attention_matches_the_stacked_loop(shape):
    rng = np.random.default_rng(50)
    q, k, v = (rng.normal(scale=2.0, size=shape).astype(np.float32) for _ in range(3))
    want_out, want_weights = stacked_attention(q, k, v, 8)
    qt, kt, vt = T.Tensor(q), T.Tensor(k), T.Tensor(v)
    out, weights = T.attention(qt, kt, vt, 8, keep_weights=True)
    plain, none = T.attention(qt, kt, vt, 8)
    assert out.data.tobytes() == plain.data.tobytes() == want_out.tobytes()
    assert weights.dtype == np.float32 and weights.tobytes() == want_weights.tobytes()
    assert none is None


def test_taped_attention_retains_weights_and_a_bool_mask():
    rng = np.random.default_rng(48)
    q, k, v = (rng.normal(size=(4, 2, 48, 4)) for _ in range(3))
    weight_bytes = 4 * 2 * 48 * 48 * 8

    def retained(attend):
        tape = T.Tape()
        leaves = [tape.named_leaf(name, a) for name, a in zip("qkv", (q, k, v))]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out, _ = attend(*leaves, 1, 0.3, stream(0, "dropout"))
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        return kept - out.data.nbytes

    # the node keeps the probabilities and a bool mask; the chain keeps the
    # probabilities, a float64 mask and the dropped-out product
    assert retained(T.attention) <= weight_bytes + weight_bytes // 8 + 4096
    assert retained(chain_attention) >= 3 * weight_bytes


def test_untaped_attention_keeps_no_full_weight_array():
    rng = np.random.default_rng(49)
    q, k, v = (T.Tensor(rng.normal(size=(8, 2, 48, 4))) for _ in range(3))
    weight_bytes = 8 * 2 * 48 * 48 * 8
    with mock.patch.object(T, "ATTENTION_BLOCK_BYTES", 48 * 48 * 8):
        tracemalloc.start()
        try:
            out, weights = T.attention(q, k, v, 1, 0.3, stream(0, "dropout"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert weights is None
    assert peak - out.data.nbytes < weight_bytes // 4


# ---------------------------------------------------------------------------
# param store / gradient_of / checker
# ---------------------------------------------------------------------------


def test_param_store_iteration_is_name_sorted():
    store = T.ParamStore(seed=0)
    for name in ["w2", "alpha", "w10", "bias"]:
        store.add(name, np.zeros(2))
    assert store.names() == sorted(["w2", "alpha", "w10", "bias"])
    assert [n for n, _ in store.items()] == store.names()


def test_param_store_init_is_reproducible_and_bounded():
    a = T.ParamStore(seed=42, scope="m")
    b = T.ParamStore(seed=42, scope="m")
    wa = a.add_uniform("w", (30, 50))
    wb = b.add_uniform("w", (30, 50))
    assert np.array_equal(wa.data, wb.data)
    bound = math.sqrt(6.0 / 80.0)
    assert np.all(np.abs(wa.data) <= bound)
    c = T.ParamStore(seed=43, scope="m").add_uniform("w", (30, 50))
    assert not np.array_equal(wa.data, c.data)


def test_param_store_rejects_duplicates():
    store = T.ParamStore(seed=0)
    store.add("w", np.zeros(2))
    with pytest.raises(ContractError):
        store.add("w", np.zeros(2))


def test_gradient_of_returns_zeros_for_unused_params():
    store = T.ParamStore(seed=1)
    store.add("used", np.array([[2.0, 3.0]]))
    store.add("unused", np.zeros(4))

    tape = T.Tape()
    p = store.tracked(tape)
    loss = (p["used"] * p["used"]).sum()
    grads = T.gradient_of(loss, store)
    assert np.allclose(grads["used"].data, [[4.0, 6.0]])
    assert np.array_equal(grads["unused"].data, np.zeros(4))


def test_gradient_of_rejects_nonscalar_and_untracked():
    store = T.ParamStore(seed=1)
    store.add("w", np.ones((2, 2)))
    tape = T.Tape()
    p = store.tracked(tape)
    with pytest.raises(ContractError):
        T.gradient_of(p["w"] * p["w"], store)
    with pytest.raises(ContractError):
        T.gradient_of(T.Tensor(np.array(1.0)), store)


def test_check_gradients_accepts_correct_composite():
    store = T.ParamStore(seed=3, scope="chk")
    store.add_uniform("w1", (4, 5))
    store.add("b1", np.zeros(5))
    store.add_uniform("w2", (5, 2))
    x = np.random.default_rng(30).normal(size=(3, 4))

    def f(params, tape):
        p = params.tracked(tape)
        h = T.gelu(T.linear_apply(T.Tensor(x), p["w1"], p["b1"]))
        return T.log_softmax(T.matmul(h, p["w2"])).mean()

    assert T.check_gradients(f, store) < 1e-7


def test_check_gradients_flags_a_wrong_derivative():
    # a function whose "analytic" path disagrees with its value path
    store = T.ParamStore(seed=4)
    store.add("w", np.array([[0.7, -0.3]]))

    def f(params, tape):
        p = params.tracked(tape)
        if tape is not None:
            return (p["w"] * p["w"]).sum()  # gradient 2w
        return (p["w"] * p["w"] * p["w"]).sum()  # value path of w^3

    assert T.check_gradients(f, store) > 1e-2


def test_check_gradients_refuses_a_float32_loss():
    store = T.ParamStore(seed=5)
    store.add("w", np.array([[0.7, -0.3]]))

    def f(params, tape):
        w = params.tracked(tape, np.float32)["w"]
        return (w * w).sum()

    with pytest.raises(ContractError, match="gradient checks run in float64, got a float32 loss"):
        T.check_gradients(f, store)


def test_tensor_keeps_float32_and_makes_the_rest_float64():
    for data, dtype in [(np.ones(2, np.float32), np.float32), (np.float32(2.0), np.float32),
                        (np.ones(2), np.float64), (np.ones(2, np.float16), np.float64),
                        (np.arange(2), np.float64), ([1, 2], np.float64), (True, np.float64)]:
        assert T.Tensor(data).data.dtype == dtype


def test_param_store_stays_float64_and_casts_a_float32_map():
    store = T.ParamStore(seed=6)
    store.add("w", np.full((2, 2), 0.1, dtype=np.float32))
    store.add_uniform("u", (3,))
    store.replace("u", np.ones(3, dtype=np.float32))
    assert {value.data.dtype for _, value in store.items()} == {np.dtype(np.float64)}
    for tape in (None, T.Tape()):
        p = store.tracked(tape, np.float32)
        assert {p[name].data.dtype for name in store.names()} == {np.dtype(np.float32)}
        assert p["w"].data.tolist() == np.float32(store["w"].data).tolist()
    assert store.tracked(None)["u"].data is store["u"].data  # float64 is not copied


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_every_primitive_keeps_its_operands_dtype(dtype):
    rng = np.random.default_rng(48)
    tape = T.Tape()
    leaves = {name: tape.named_leaf(name, rng.normal(size=shape).astype(dtype))
              for name, shape in [("x", (2, 3, 4)), ("w", (4, 4)), ("b", (4,)), ("g", (4,)),
                                  ("s", (4,))]}
    x, w, b, g, s = leaves.values()
    outs = [T.linear_apply(x, w, b)]
    outs.append(T.gelu(outs[-1]))
    outs.append(T.layer_norm(outs[-1], g, s))
    outs.append(T.dropout_apply(outs[-1], 0.2, stream(0, "dropout")))
    outs.append(T.attention(outs[-1], outs[-1], outs[-1], 2, 0.1, stream(1, "dropout"))[0])
    outs.append(T.softmax_rows(outs[-1]))
    outs.append(T.log_softmax(T.transpose(outs[-1], (0, 2, 1)).reshape(2, 12)))
    outs.append(outs[-1] * outs[-1] + outs[-1])
    outs.append(T.reduce_sum(outs[-1]))
    outs.append(T.reduce_mean(outs[-1]))
    assert [o.data.dtype for o in outs] == [np.dtype(dtype)] * len(outs)
    grads = tape.backward(outs[-1])
    assert [grads[t.node_id].dtype for t in leaves.values()] == [np.dtype(dtype)] * 5


def test_tensors_from_different_tapes_refuse_to_mix():
    t1, t2 = T.Tape(), T.Tape()
    a = t1.named_leaf("a", np.ones(2))
    b = t2.named_leaf("b", np.ones(2))
    with pytest.raises(ContractError):
        T.add(a, b)
