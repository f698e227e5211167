"""Classifier branch over cross-similarity matrices.

The reference pipeline feeds the resized CSM image to an off-the-shelf
CNN; at this package's scale a small MLP over a coarsened CSM does the
same job.  Each matrix is min-max normalized to [0, 1], shrunk to
``side x side`` by nearest-neighbor index selection, flattened, and run
through one hidden layer to 3 class logits (or a scalar score).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError
from .similarity import compute_csm, normalize_minmax, resize_nearest
from .tensor import ParamStore, Tensor


@dataclass(frozen=True)
class CsmConfig:
    side: int = 28
    hidden: int = 64
    dropout: float = 0.5
    head_kind: str = "classify"

    def __post_init__(self):
        if self.side < 1 or self.hidden < 1:
            raise ConfigError("side and hidden must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.head_kind not in ("classify", "regress"):
            raise ConfigError(f"head_kind must be 'classify' or 'regress', got {self.head_kind!r}")

    @property
    def out_dim(self) -> int:
        return 3 if self.head_kind == "classify" else 1


class CsmModel:
    """One-hidden-layer network over flattened, coarsened CSM images."""

    def __init__(self, config: CsmConfig, seed: int = 0):
        self.config = config
        self.seed = seed
        self.params = ParamStore(seed, scope="csm")
        d_in = config.side * config.side
        self.params.add_uniform("w1", (d_in, config.hidden))
        self.params.add("b1", np.zeros(config.hidden))
        self.params.add_uniform("w2", (config.hidden, config.out_dim))
        self.params.add("b2", np.zeros(config.out_dim))

    def forward(self, images: np.ndarray, tape=None, rng=None):
        """(B, side, side) CSM images -> (B, out_dim) tensor; dropout iff ``rng``.

        It computes in the dtype of ``images``, float32 or else float64.
        """
        cfg = self.config
        images = T.as_array(images)
        if images.ndim != 3 or images.shape[1:] != (cfg.side, cfg.side):
            raise ContractError(f"expected (B, {cfg.side}, {cfg.side}) images, got {images.shape}")
        p = self.params.tracked(tape, images.dtype)
        x = Tensor(images.reshape(len(images), cfg.side * cfg.side))
        h = T.gelu(T.linear_apply(x, p["w1"], p["b1"]))
        h = T.dropout_apply(h, cfg.dropout, rng)
        return T.linear_apply(h, p["w2"], p["b2"])

    def predict_batch(self, images: np.ndarray) -> np.ndarray:
        """Gradient-free eval-mode forward in float32; returns float64 (B, out_dim) logits."""
        return self.forward(np.asarray(images, dtype=np.float32)).data.astype(np.float64)

    def prepare_inputs(self, sequences) -> np.ndarray:
        """Sequences -> (B, side, side) stack of normalized, coarsened CSMs."""
        side = self.config.side
        mats = [
            resize_nearest(normalize_minmax(compute_csm(seq)), side).values
            for seq in sequences
        ]
        return np.stack(mats)

