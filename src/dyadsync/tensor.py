"""Dense float tensors with a reverse-mode gradient tape.

The engine is deliberately small.  A :class:`Tensor` wraps a numpy
array plus an optional handle into a :class:`Tape`; the tape
records one node per primitive operation during the forward pass
(define-by-run, a fresh tape per training step) and ``Tape.backward``
walks the records in reverse order to accumulate gradients.  Because
nodes are appended in execution order, reverse index order is already a
reverse topological order.

Every primitive computes its output, then hands it to :func:`_record`
with its inputs and its backward closure.  That one function decides
whether a node is recorded: when no input lives on a tape the output
comes back untracked, so an eval forward records nothing.  Dropout is
on exactly when a random generator is passed.

A tensor holds float64 or float32 data: float32 input stays float32 and
anything else becomes float64 (:func:`as_array`).  Every primitive's
output follows its operands' dtype, so a float32 input and float32
parameters run a whole forward pass in float32.  :class:`ParamStore`
keeps float64 parameters and casts each as a float32 forward looks it
up, never all at once.  Training and gradient checks run in float64.

Everything the transformer and the classifier heads need is expressible
with the primitives below; broadcasting follows numpy semantics with
gradient reduction handled by :func:`_unbroadcast`.  Tensors are treated
as immutable values: no operation writes into an input array, so they
are safe to share read-only across threads.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, ContractError, NumericalError
from .rng import stream


def as_array(data) -> np.ndarray:
    """``data`` as an array in a compute dtype: float32 stays, anything else is float64."""
    dtype = np.float32 if getattr(data, "dtype", None) == np.float32 else np.float64
    return np.asarray(data, dtype=dtype)


class Tensor:
    """Immutable dense float64 or float32 array, optionally tracked on a tape."""

    __slots__ = ("data", "tape", "node_id")

    def __init__(self, data, tape: Optional["Tape"] = None, node_id: Optional[int] = None):
        self.data = as_array(data)
        self.tape = tape
        self.node_id = node_id

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def reshape(self, *shape) -> "Tensor":
        return reshape(self, shape)

    def sum(self) -> "Tensor":
        return reduce_sum(self)

    def mean(self, axis=None) -> "Tensor":
        return reduce_mean(self, axis=axis)

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return multiply(self, other)

    def __repr__(self):
        tag = f", node={self.node_id}" if self.tape is not None else ""
        return f"Tensor(shape={self.shape}{tag})"


class Tape:
    """Ordered record of forward operations for reverse-mode differentiation.

    Each node stores the node ids of its parents (``None`` for untracked
    constants) and a backward callable mapping the node's output gradient
    to one gradient array per parent.  Leaf nodes (parameters, inputs)
    have no backward callable.  Operation nodes are recorded only through
    :func:`_record`; leaves only through :meth:`named_leaf`.

    Backward callables must close over bare numpy arrays, never Tensor
    objects: tensors point back at the tape, so capturing one would make
    every finished graph a reference cycle that lingers until a full GC
    pass instead of being freed as soon as the caller drops it.
    """

    __slots__ = ("_parents", "_backwards", "_leaves")

    def __init__(self):
        self._parents: list[tuple] = []
        self._backwards: list[Optional[Callable]] = []
        self._leaves: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._parents)

    def record(self, parents: tuple, backward: Optional[Callable]) -> int:
        self._parents.append(parents)
        self._backwards.append(backward)
        return len(self._parents) - 1

    def named_leaf(self, name: str, data) -> Tensor:
        """The leaf registered under ``name``, recorded on first use."""
        nid = self._leaves.get(name)
        if nid is None:
            nid = self._leaves[name] = self.record((), None)
        return Tensor(data, self, nid)

    def leaf_id(self, name: str) -> Optional[int]:
        """Node id of the leaf named ``name``, or None if never registered."""
        return self._leaves.get(name)

    def backward(self, output: Tensor) -> list:
        """Gradients of ``output`` w.r.t. every node, indexed by node id.

        ``output`` is seeded with a gradient of ones (a plain 1.0 for the
        scalar losses this package differentiates).  Only leaves keep
        their gradients: an interior node's gradient is dropped as soon as
        its backward has run, so it reads ``None``, as does every node
        unreachable from ``output``.
        """
        if output.tape is not self:
            raise ContractError("output tensor does not belong to this tape")
        grads: list = [None] * len(self._parents)
        grads[output.node_id] = np.ones_like(output.data)
        for nid in range(output.node_id, -1, -1):
            grad = grads[nid]
            if grad is None:
                continue
            fn = self._backwards[nid]
            if fn is None:
                continue
            grads[nid] = None
            for pid, pgrad in zip(self._parents[nid], fn(grad)):
                if pid is None or pgrad is None:
                    continue
                grads[pid] = pgrad if grads[pid] is None else grads[pid] + pgrad
        return grads


class ParamStore:
    """Named float64 parameter tensors with deterministic (name-sorted) iteration.

    Initialization draws come from the ``init/<scope>`` stream of the
    store's seed, so the same construction order reproduces the same
    parameters bit for bit.
    """

    def __init__(self, seed: int = 0, scope: str = ""):
        self._values: dict[str, Tensor] = {}
        purpose = f"init/{scope}" if scope else "init"
        self._init_rng = stream(seed, purpose)

    def __getitem__(self, name: str) -> Tensor:
        return self._values[name]

    def names(self) -> list:
        return sorted(self._values)

    def items(self):
        for name in self.names():
            yield name, self._values[name]

    def add(self, name: str, data) -> Tensor:
        if name in self._values:
            raise ContractError(f"parameter {name!r} already exists")
        t = Tensor(np.asarray(data, dtype=np.float64))
        self._values[name] = t
        return t

    def add_uniform(self, name: str, shape) -> Tensor:
        """Add a parameter drawn uniform in [-a, a], a = sqrt(6/(fan_in+fan_out)).

        For 2-d shapes fan_in/fan_out are the two extents; tables and
        vectors fall back to the first and last extents of the shape.
        """
        shape = tuple(shape)
        fan_in = shape[0] if shape else 1
        fan_out = shape[-1] if shape else 1
        a = math.sqrt(6.0 / (fan_in + fan_out))
        return self.add(name, self._init_rng.uniform(-a, a, size=shape))

    def add_zeros(self, name: str, shape) -> Tensor:
        return self.add(name, np.zeros(shape))

    def add_ones(self, name: str, shape) -> Tensor:
        return self.add(name, np.ones(shape))

    def replace(self, name: str, data) -> None:
        """Swap in a new value for an existing parameter (functional update)."""
        if name not in self._values:
            raise ContractError(f"unknown parameter {name!r}")
        self._values[name] = Tensor(np.asarray(data, dtype=np.float64))

    def tracked(self, tape: Optional[Tape], dtype=np.float64) -> Mapping:
        """Read-only map of name -> tensor in ``dtype``; tracked leaves when a tape is given.

        With ``tape=None`` the values are untracked, which gives a
        gradient-free forward pass.  A leaf is registered on the tape under
        its parameter name at first lookup, so :func:`gradient_of` finds
        it.  Use a fresh tape per forward pass.  Float64 values are handed
        out uncopied; a float32 map casts a parameter at each lookup.
        """
        return _Tracked(self._values, tape, dtype)

    def copy_values(self) -> dict:
        return {name: value.data.copy() for name, value in self._values.items()}

    def load_values(self, mapping) -> None:
        for name, data in mapping.items():
            self.replace(name, np.array(data, dtype=np.float64))


class _Tracked(Mapping):
    """The live view :meth:`ParamStore.tracked` returns."""

    def __init__(self, values: dict, tape: Optional[Tape], dtype):
        self._values, self._tape, self._dtype = values, tape, dtype

    def __getitem__(self, name: str) -> Tensor:
        data = self._values[name].data.astype(self._dtype, copy=False)
        return Tensor(data) if self._tape is None else self._tape.named_leaf(name, data)

    def __iter__(self):
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _record(out: np.ndarray, inputs: tuple, backward: Callable) -> Tensor:
    """``out`` as a tensor, recorded with ``backward`` on the inputs' tape.

    At most one tape may appear among ``inputs``.  With none the result is
    untracked and ``backward`` is dropped unrun; otherwise the node's
    parents are the inputs' node ids (``None`` for untracked constants),
    in the order ``backward`` returns their gradients.
    """
    tape = None
    for t in inputs:
        if t.tape is None:
            continue
        if tape is None:
            tape = t.tape
        elif tape is not t.tape:
            raise ContractError("operands live on different tapes")
    if tape is None:
        return Tensor(out)
    return Tensor(out, tape, tape.record(tuple(t.node_id for t in inputs), backward))


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum-reduce ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    a_shape, b_shape = a.data.shape, b.data.shape

    def backward(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _record(a.data + b.data, (a, b), backward)


def multiply(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    ad, bd = a.data, b.data

    def backward(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return _record(ad * bd, (a, b), backward)


def matmul(a, b) -> Tensor:
    """Matrix product with numpy's stacked-matrix broadcasting.

    Both operands must have ndim >= 2; leading (batch) dimensions
    broadcast and are sum-reduced in the backward pass.
    """
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ContractError(f"matmul needs ndim >= 2 operands, got {a.shape} and {b.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ContractError(f"cannot contract {a.shape} with {b.shape}")
    ad, bd = a.data, b.data

    def backward(g):
        ga = _unbroadcast(g @ bd.swapaxes(-1, -2), ad.shape)
        gb = _unbroadcast(ad.swapaxes(-1, -2) @ g, bd.shape)
        return ga, gb

    return _record(ad @ bd, (a, b), backward)


def reshape(x, shape) -> Tensor:
    x = _wrap(x)
    in_shape = x.data.shape

    def backward(g):
        return (g.reshape(in_shape),)

    return _record(x.data.reshape(shape), (x,), backward)


def transpose(x, axes) -> Tensor:
    x = _wrap(x)
    axes = tuple(axes)

    def backward(g):
        return (g.transpose(np.argsort(axes)),)

    return _record(x.data.transpose(axes), (x,), backward)


def reduce_sum(x) -> Tensor:
    """Sum of every element, a 0-d tensor."""
    x = _wrap(x)
    in_shape = x.data.shape

    def backward(g):
        return (np.broadcast_to(g, in_shape),)

    return _record(x.data.sum(), (x,), backward)


def reduce_mean(x, axis=None) -> Tensor:
    x = _wrap(x)
    in_shape = x.data.shape
    out = x.data.mean(axis=axis)
    count = x.data.size // out.size

    def backward(g):
        g = g if axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(g, in_shape) / count,)

    return _record(out, (x,), backward)


def linear_apply(x, weight, bias) -> Tensor:
    """Affine map ``x @ weight + bias`` over the trailing axis of ``x``."""
    x, weight, bias = _wrap(x), _wrap(weight), _wrap(bias)
    if x.data.shape[-1] != weight.data.shape[-2]:
        raise ContractError(f"linear_apply: input {x.shape} does not match weight {weight.shape}")
    if bias.data.shape != weight.data.shape[-1:]:
        raise ContractError(f"linear_apply: bias {bias.shape} does not match weight {weight.shape}")
    return add(matmul(x, weight), bias)


def _softmax_rows_inplace(out: np.ndarray) -> None:
    """Row softmax of ``out`` along its last axis, in place, max-subtracted."""
    out -= out.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)


def _softmax_rows_grad(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Input gradient of a row softmax, given its output ``out``."""
    gx = g - (g * out).sum(axis=-1, keepdims=True)
    gx *= out
    return gx


def softmax_rows(x) -> Tensor:
    """Softmax along the last axis, with per-row max subtraction.

    The copy of the input is the only fresh array: the max-subtract,
    ``exp`` and divide run in place in it.
    """
    x = _wrap(x)
    out = x.data.copy(order="K")
    _softmax_rows_inplace(out)

    def backward(g):
        return (_softmax_rows_grad(g, out),)

    return _record(out, (x,), backward)


def log_softmax(x) -> Tensor:
    """Log of softmax along the last axis; stable for extreme logits."""
    x = _wrap(x)
    z = x.data - x.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    out = z - lse

    def backward(g):
        return (g - np.exp(out) * g.sum(axis=-1, keepdims=True),)

    return _record(out, (x,), backward)


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
LAYER_NORM_EPS = 1e-5


def gelu(x) -> Tensor:
    """Smooth gated nonlinearity, tanh form: 0.5*x*(1 + tanh(c*(x + a*x^3)))."""
    x = _wrap(x)
    v = x.data
    with np.errstate(over="ignore"):  # an infinite cube is harmless: tanh(+-inf) = +-1
        t = v * v  # one scratch array: c*(a*v*v*v + v), then its tanh
        t *= v
    t *= _GELU_A
    t += v
    t *= _GELU_C
    np.tanh(t, out=t)
    out = 0.5 * v
    if x.tape is None:
        t += 1.0
        out *= t
        return Tensor(out)
    out *= 1.0 + t

    def backward(g):
        # past |v| ~ sqrt(max) v**2 is inf where 1 - t**2 is 0, and inf * 0 is NaN;
        # tanh is exactly +-1 from |v| ~ 19 (float64) or ~ 9 (float32), so
        # squaring |v| capped at max**0.25 changes nothing
        cap = np.finfo(v.dtype).max ** 0.25  # 1.2e77 in float64, 1.4e9 in float32
        vc = np.clip(v, -cap, cap)
        d_inner = _GELU_C * (1.0 + 3.0 * _GELU_A * (vc * vc))
        deriv = 0.5 * (1.0 + t) + 0.5 * v * (1.0 - t**2) * d_inner
        return (g * deriv,)

    return _record(out, (x,), backward)


def layer_norm(x, gain, shift) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale+shift."""
    x, gain, shift = _wrap(x), _wrap(gain), _wrap(shift)
    v = x.data
    mu = v.mean(axis=-1, keepdims=True)
    centered = v - mu
    var = (centered**2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = centered * inv
    gd, gain_shape, shift_shape = gain.data, gain.data.shape, shift.data.shape

    def backward(g):
        g_shift = _unbroadcast(g, shift_shape)
        g_gain = _unbroadcast(g * xhat, gain_shape)
        g_hat = g * gd
        g_x = inv * (
            g_hat
            - g_hat.mean(axis=-1, keepdims=True)
            - xhat * (g_hat * xhat).mean(axis=-1, keepdims=True)
        )
        return g_x, g_gain, g_shift

    return _record(gd * xhat + shift.data, (x, gain, shift), backward)


def _check_rate(rate: float) -> None:
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must lie in [0, 1), got {rate}")


def _keep_mask(rng, shape: tuple, rate: float) -> np.ndarray:
    """Boolean dropout mask: an element survives when its draw is >= ``rate``."""
    return rng.random(shape) >= rate


def _dropped(x: np.ndarray, keep: np.ndarray, scale: float) -> np.ndarray:
    """``x * scale`` zeroed where ``keep`` is False, as a fresh array.

    Scaling first, then multiplying by the boolean mask, gives the same
    bits as one multiply by a float mask of 0 and ``scale``.  The result
    is C-ordered, as the product with a C-ordered float mask was,
    whatever the layout of ``x``.
    """
    out = np.multiply(x, scale, order="C")
    out *= keep
    return out


def dropout_apply(x, rate: float, rng=None) -> Tensor:
    """Zero elements with probability ``rate`` and rescale survivors.

    Dropout is on exactly when a generator is passed, so every active
    mask is reproducible from its stream.  With ``rng=None`` (eval) or at
    rate 0 the input tensor is returned unchanged, bit for bit.  The node
    keeps a boolean mask.
    """
    _check_rate(rate)
    x = _wrap(x)
    if rng is None or rate == 0.0:
        return x
    scale = 1.0 / (1.0 - rate)
    keep = _keep_mask(rng, x.data.shape, rate)

    def backward(g):
        return (_dropped(g, keep, scale),)

    return _record(_dropped(x.data, keep, scale), (x,), backward)


# Bytes of attention probabilities computed per block; a block holds the
# (heads, n, n) matrices of whole leading rows, so a larger row makes a
# block of one.  An untaped call holds one block of keys-major scores and
# one block of weights, each of about this size.
ATTENTION_BLOCK_BYTES = 1 << 20


def _sum_keys(x: np.ndarray, work: np.ndarray) -> np.ndarray:
    """``np.add.reduce`` over axis 0 of ``x``, in the order numpy sums a contiguous axis.

    numpy's pairwise sum adds one by one below 8 terms, in 8 accumulators
    up to 128, and by halves cut at a multiple of 8 above.  Repeating that
    order over axis 0, a whole row at a time, gives the last-axis sum of
    ``x`` moved to the back, bit for bit but for the sign and payload of a
    NaN.  Each partial sum starts from ``x[i] + 0.0``, so a sum of zeros is
    +0.0, as numpy's reduction from 0 makes it.  The partial sums live in
    the leading rows of ``work``, an array of ``x``'s shape, and the sum is
    returned as ``work[0]``.
    """
    n = len(x)
    if n > 128:
        half = n // 2 - (n // 2) % 8
        _sum_keys(x[:half], work)
        _sum_keys(x[half:], work[1:])
        work[0] += work[1]
        return work[0]
    acc = np.add(x[:min(n, 8)], 0.0, out=work[:min(n, 8)])
    if n < 8:
        for row in acc[1:]:
            acc[0] += row
        return acc[0]
    tail = n - n % 8
    for start in range(8, tail, 8):
        acc += x[start:start + 8]
    for step in (1, 2, 4):  # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(0, 8, 2 * step):
            acc[i] += acc[i + step]
    for row in x[tail:]:
        acc[0] += row
    return acc[0]


def attention(q, k, v, heads: int, rate: float = 0.0, rng=None,
              keep_weights: bool = False):
    """Multi-head ``dropout(softmax(q kᵀ / sqrt(dh))) @ v`` as one tape node.

    ``q``, ``k`` and ``v`` are equal-shaped (..., n, d), with n, d >= 1 and
    d = heads · dh.  Each is viewed, without a copy, as (rows, heads, n, dh)
    over its flattened leading axes, and the output and the gradients are
    written through the same view of fresh (..., n, d) arrays.  The rows
    run in blocks of about ``ATTENTION_BLOCK_BYTES`` of weights.  A block's
    scores are written keys-major, as ``k qᵀ`` into one reused scratch
    array, so the scale, the max over keys, the subtraction, ``exp``, the
    sum over keys (in numpy's pairwise order) and the divide run over long
    contiguous rows.  The probabilities are then copied to C-ordered
    (n, n) matrices, the layout the matmul with ``v`` takes in the chain.
    Every step is the numpy expression of the transpose, matmul, softmax,
    dropout and matmul chain, so the output and the gradients are bit for
    bit that chain's between head split and merge nodes.  Dropout is on
    exactly when a generator is passed; its mask is drawn block by block in
    C order, which is the one draw over the whole array.

    Returns ``(out, weights)``, with the pre-dropout (..., heads, n, n)
    probabilities as ``weights`` when ``keep_weights`` is set, else None.
    A taped call keeps the probabilities and a boolean mask, and its
    backward rebuilds the dropped-out product per block; an untaped one
    holds one block of scores and one of weights, and keeps no (..., n, n)
    array unless ``keep_weights`` asks for it.
    """
    q, k, v = _wrap(q), _wrap(k), _wrap(v)
    if not q.shape == k.shape == v.shape:
        raise ContractError(f"Q {q.shape}, K {k.shape} and V {v.shape} must match")
    if q.data.ndim < 2:
        raise ContractError("attention operands need ndim >= 2")
    if 0 in q.shape[-2:]:
        raise ContractError(f"attention needs at least one token and one feature, got {q.shape}")
    _check_rate(rate)
    lead, (n, d) = q.shape[:-2], q.shape[-2:]
    if heads < 1 or d % heads:
        raise ConfigError(f"heads ({heads}) must divide model dim ({d})")
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)
    dtype = q.data.dtype

    def by_head(a):
        """(..., n, d) as a (rows, heads, n, dh) view."""
        return a.reshape(-1, n, heads, dh).swapaxes(1, 2)

    def fresh():
        """An empty (..., n, d) array, strided as the chain's head merge leaves
        it, and its (rows, heads, n, dh) view.

        The merge reshapes the head-major stack to (..., n, d): a view of
        it when n, heads or dh is 1, else a C-ordered copy.
        """
        if 1 in (n, heads, dh):
            stack = np.empty((rows, heads, n, dh), dtype=dtype)
            return stack.reshape(lead + (heads, n, dh)).swapaxes(-2, -3).reshape(lead + (n, d)), stack
        merged = np.empty(lead + (n, d), dtype=dtype)
        return merged, by_head(merged)

    qh, kh, vh = by_head(q.data), by_head(k.data), by_head(v.data)
    rows = len(qh)
    run = max(1, min(rows, ATTENTION_BLOCK_BYTES // (heads * n * n * dtype.itemsize)))
    blocks = [slice(start, start + run) for start in range(0, rows, run)]
    taped = any(t.tape is not None for t in (q, k, v))
    drop = rng is not None and rate > 0.0
    keep_scale = 1.0 / (1.0 - rate)
    out, oh = fresh()
    probs = np.empty((rows, heads, n, n), dtype=dtype) if taped or keep_weights else None
    keep = np.empty(probs.shape, dtype=bool) if taped and drop else None
    scratch = np.empty(run * heads * n * n, dtype=dtype)
    block = np.empty((run, heads, n, n), dtype=dtype) if probs is None else None
    for idx in blocks:
        m = len(qh[idx])
        s = scratch[:m * heads * n * n].reshape(n, m, heads, n)  # [key, row, head, query]
        np.matmul(kh[idx], qh[idx].swapaxes(-1, -2), out=s.transpose(1, 2, 0, 3))
        s *= scale
        s -= s.max(axis=0)
        np.exp(s, out=s)
        w = block[:m] if probs is None else probs[idx]
        s /= _sum_keys(s, w.reshape(s.shape))  # w is the sum's scratch until the copy
        w[...] = s.transpose(1, 2, 3, 0)
        if drop:
            mask = _keep_mask(rng, w.shape, rate)
            if keep is not None:
                keep[idx] = mask
            if probs is None:  # the reused block; kept probabilities stay undropped
                w *= keep_scale
                w *= mask
            else:
                w = _dropped(w, mask, keep_scale)
        np.matmul(w, vh[idx], out=oh[idx])
    weights = probs.reshape(lead + (heads, n, n)) if keep_weights else None
    if not taped:
        return Tensor(out), weights

    def backward(g):
        gh = by_head(g)
        (gq, gqh), (gv, gvh) = fresh(), fresh()
        gkt = np.empty((rows, heads, dh, n), dtype=dtype)
        for idx in blocks:
            p = probs[idx]
            w = p if keep is None else _dropped(p, keep[idx], keep_scale)
            np.matmul(w.swapaxes(-1, -2), gh[idx], out=gvh[idx])
            gw = gh[idx] @ vh[idx].swapaxes(-1, -2)
            if keep is not None:
                gw = _dropped(gw, keep[idx], keep_scale)
            gs = _softmax_rows_grad(gw, p)
            gs *= scale
            np.matmul(gs, kh[idx], out=gqh[idx])
            np.matmul(qh[idx].swapaxes(-1, -2), gs, out=gkt[idx])
        # the chain's layout: the transposes of C-ordered (dh, n) matrices, merged
        gk = gkt.swapaxes(-1, -2).reshape(lead + (heads, n, dh)).swapaxes(-2, -3)
        return gq, gk.reshape(lead + (n, d)), gv

    return _record(out, (q, k, v), backward), weights


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def gradient_of(loss: Tensor, params: ParamStore) -> dict:
    """d(loss)/d(param) for every parameter in the store.

    Parameters that never entered the computation get zero gradients of
    matching shape.  ``loss`` must be a scalar tracked on a tape that the
    parameters were registered on via ``ParamStore.tracked``.
    """
    if loss.tape is None:
        raise ContractError("loss is not tracked on any tape")
    if loss.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.shape}")
    grads = loss.tape.backward(loss)
    out = {}
    for name, value in params.items():
        nid = loss.tape.leaf_id(name)
        g = grads[nid] if nid is not None else None
        out[name] = Tensor(g if g is not None else np.zeros_like(value.data))
    return out


GRADCHECK_STEP = 1e-5  # central-difference step


def check_gradients(f, point: ParamStore) -> float:
    """Max relative error between analytic gradients and central differences.

    ``f(params, tape)`` must return a scalar float64 tensor and be
    deterministic (no dropout generator).  With ``tape=None`` it is
    evaluated value-only.  The relative error per parameter element is
    ``|analytic - numeric| / max(1, |numeric|)``.
    """
    tape = Tape()
    loss = f(point, tape)
    if loss.data.dtype != np.float64:
        raise ContractError(f"gradient checks run in float64, got a {loss.data.dtype} loss")
    analytic = gradient_of(loss, point)

    worst = 0.0
    for name, value in point.items():
        base = value.data
        flat_analytic = analytic[name].data.ravel()
        for idx in range(base.size):
            orig = base.flat[idx]
            shifted = base.copy()
            shifted.flat[idx] = orig + GRADCHECK_STEP
            point.replace(name, shifted)
            up = f(point, None).item()
            shifted = base.copy()
            shifted.flat[idx] = orig - GRADCHECK_STEP
            point.replace(name, shifted)
            down = f(point, None).item()
            point.replace(name, base)
            if not (math.isfinite(up) and math.isfinite(down)):
                raise NumericalError(f"non-finite evaluation while perturbing {name!r}")
            numeric = (up - down) / (2.0 * GRADCHECK_STEP)
            if not math.isfinite(flat_analytic[idx]):
                raise NumericalError(f"non-finite analytic gradient for {name!r}")
            err = abs(flat_analytic[idx] - numeric) / max(1.0, abs(numeric))
            if err > worst:
                worst = err
    return worst
