"""Synthetic dyadic skeleton sequences with controlled synchrony.

Person A moves each joint on its own sinusoid around a fixed canonical
skeleton; person B is A transformed according to the requested class:

* ``Sync``    — identical motion plus tiny coordinate jitter,
* ``ModSync`` — the same motion delayed by a few frames with a mild
  amplitude mismatch (consistent but tardy),
* ``Unsync``  — freshly drawn frequencies, phases and amplitudes.

Both persons share the anchor skeleton, so a zero-jitter Sync pair is
bitwise identical and its cross-similarity diagonal is exactly zero.
Generation is pure given (seed, class, index): every sequence draws from
its own named stream, so files can be produced in any order or in
parallel and still come out byte-for-byte reproducible.  The files
themselves are written by :func:`pose_io.write_dataset`, beside the
reader of the same layout.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import ConfigError
from .pose_io import (ALPHA, BETA, CLASS_NAMES, NUM_JOINTS, SCORE_RANGE, SkeletonSequence,
                      write_dataset)
from .rng import stream

# Roughly human joint layout (COCO order: nose, eyes, ears, shoulders,
# elbows, wrists, hips, knees, ankles), centered in the unit square.
ANCHOR = np.array(
    [
        [0.50, 0.30],
        [0.48, 0.28], [0.52, 0.28],
        [0.46, 0.30], [0.54, 0.30],
        [0.42, 0.40], [0.58, 0.40],
        [0.38, 0.50], [0.62, 0.50],
        [0.36, 0.60], [0.64, 0.60],
        [0.44, 0.62], [0.56, 0.62],
        [0.43, 0.76], [0.57, 0.76],
        [0.42, 0.90], [0.58, 0.90],
    ]
)

# score bins, mirroring the alpha/beta class thresholds in reverse
SCORE_BINS = {"Sync": (BETA, SCORE_RANGE[1]), "ModSync": (ALPHA, BETA),
              "Unsync": (SCORE_RANGE[0], ALPHA)}
# (width, height) in pixels of the frame that written clips are scaled to
IMAGE_SIZE = (320, 240)


@dataclass(frozen=True)
class SynthConfig:
    f: int = 148
    lag: int = 10
    amp_mismatch: float = 1.15
    jitter: float = 0.004
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.jitter) and self.jitter >= 0):
            raise ConfigError(f"jitter must be finite and >= 0, got {self.jitter}")
        if not math.isfinite(self.amp_mismatch):
            raise ConfigError(f"amp_mismatch must be finite, got {self.amp_mismatch}")
        if not 0 <= self.lag < self.f:
            raise ConfigError(f"lag must lie in [0, f), got {self.lag}")


def _draw_motion(rng):
    """Per-joint, per-coordinate sinusoid parameters."""
    return {
        "freq": rng.uniform(0.5, 3.0, size=(NUM_JOINTS, 2)),
        "phase": rng.uniform(0.0, 2.0 * math.pi, size=(NUM_JOINTS, 2)),
        "amp": rng.uniform(0.03, 0.12, size=(NUM_JOINTS, 2)),
    }


def _evaluate(motion, t, f, amp_scale=1.0):
    """Joint positions at (possibly shifted) frame times t: (len(t), J, 2)."""
    t = np.asarray(t, dtype=np.float64)[:, None, None]
    wave = np.sin(2.0 * math.pi * motion["freq"] * t / f + motion["phase"])
    return ANCHOR + amp_scale * motion["amp"] * wave


def generate_dyad_sequence(cfg: SynthConfig, klass: str, index: int = 0) -> SkeletonSequence:
    """One labeled sequence of cfg.f frames, coordinates in [0, 1]."""
    if klass not in CLASS_NAMES:
        raise ConfigError(f"unknown class {klass!r}; expected one of {CLASS_NAMES}")
    rng = stream(cfg.seed, f"synth/{klass}/{index}")
    motion = _draw_motion(rng)
    t = np.arange(cfg.f)
    person_a = _evaluate(motion, t, cfg.f)
    if klass == "Sync":
        person_b = person_a.copy()
    elif klass == "ModSync":
        person_b = _evaluate(motion, t - cfg.lag, cfg.f, amp_scale=cfg.amp_mismatch)
    else:
        person_b = _evaluate(_draw_motion(rng), t, cfg.f)
    if cfg.jitter > 0:
        person_b = person_b + rng.normal(scale=cfg.jitter, size=person_b.shape)
    frames = np.clip(np.stack([person_a, person_b], axis=1), 0.0, 1.0)
    lo, hi = SCORE_BINS[klass]
    score = float(rng.uniform(lo, hi))
    return SkeletonSequence(
        frames=frames,
        source_id=f"{klass.lower()}_{index:04d}",
        label_class=klass,
        label_score=score,
    )


def generate_sequences(cfg: SynthConfig, n_per_class: int) -> Iterator:
    """n_per_class sequences of each class, class-major order.

    ``n_per_class`` is checked at the call; each sequence is generated as
    the iterator reaches it, so a caller that writes them out one by one
    never holds the whole set.
    """
    if n_per_class < 1:
        raise ConfigError(f"n_per_class must be >= 1, got {n_per_class}")
    return (
        generate_dyad_sequence(cfg, klass, index)
        for klass in CLASS_NAMES
        for index in range(n_per_class)
    )


def generate_dataset(cfg: SynthConfig, n_per_class: int, out_dir) -> Path:
    """Write keypoint JSON files plus a manifest; returns the manifest path.

    Manifest entries carry both the class label and a score drawn
    uniformly from the class's bin, so the same files serve
    classification and regression runs.
    """
    # a bad count, or a clip too large to allocate, fails before write_dataset makes the
    # directory: generate_sequences checks the count, and the first clip is made here
    sequences = generate_sequences(cfg, n_per_class)
    first = next(sequences)
    return write_dataset(itertools.chain([first], sequences), out_dir, IMAGE_SIZE)
