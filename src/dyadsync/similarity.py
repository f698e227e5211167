"""Cross- and self-similarity matrices over skeleton sequences.

The cross-similarity matrix (CSM) compares every frame of person A with
every frame of person B through a scaled Frobenius distance over the J
joints:

    CSM[i][j] = -(1/J) * sqrt( sum_k || A_i[k] - B_j[k] ||^2 )

so entries are <= 0 with 0 meaning identical poses.  The self-similarity
variant applies the same kernel to one person against themselves
(symmetric, zero diagonal).  That kernel, ``frame_distances``, also
fills the DTW cost tables of ``baselines``, so every method compares
poses through one sum order.  Matrices can be min-max normalized,
resized by exact nearest-neighbor replication to a given side, and
exported as raw binary, CSV, or PGM for eyeballs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .pose_io import SkeletonSequence


@dataclass(frozen=True)
class SimilarityMatrix:
    values: np.ndarray


def frame_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, m, k) Euclidean frame distances of k pairs of (n, d) and (m, d) sequences.

    Each distance sums its d squares in the order numpy's last-axis sum
    uses, so the bits match ``sqrt(((a[:, :, None] - b[:, None]) ** 2).sum(-1))``:
    one after another for d < 8, where the sum runs over a leading axis of
    contiguous (n, m, k) planes, and pairwise over a contiguous last axis
    for d >= 8.  Both operands are copied contiguous as float64 first; an
    empty sequence is a DataError.
    """
    if a.shape[1] == 0 or b.shape[1] == 0:
        raise DataError("frame distances need nonempty sequences")
    if a.shape[2] < 8:
        a = np.ascontiguousarray(a.transpose(2, 1, 0), dtype=np.float64)  # (d, n, k)
        b = np.ascontiguousarray(b.transpose(2, 1, 0), dtype=np.float64)
        diff = a[:, :, None] - b[:, None]  # (d, n, m, k)
        np.multiply(diff, diff, out=diff)
        dist = diff.sum(axis=0)
    else:
        a = np.ascontiguousarray(a.transpose(1, 0, 2), dtype=np.float64)  # (n, k, d)
        b = np.ascontiguousarray(b.transpose(1, 0, 2), dtype=np.float64)
        diff = a[:, None] - b[None]  # (n, m, k, d)
        np.multiply(diff, diff, out=diff)
        dist = diff.sum(axis=-1)
    return np.sqrt(dist, out=dist)


def _pose_similarity(track_a: np.ndarray, track_b: np.ndarray) -> SimilarityMatrix:
    """-(1/J) times the frame distances of two (f, J, 2) tracks."""
    num_joints, coords = track_a.shape[1:]
    dist = frame_distances(track_a.reshape(1, len(track_a), num_joints * coords),
                           track_b.reshape(1, len(track_b), num_joints * coords))
    return SimilarityMatrix(-dist[..., 0] / num_joints)


def compute_csm(seq: SkeletonSequence) -> SimilarityMatrix:
    """Eq-style cross-similarity between the two persons of a sequence."""
    return _pose_similarity(seq.person(0), seq.person(1))


def compute_ssm(track: np.ndarray) -> SimilarityMatrix:
    """Self-similarity of a single (f, J, 2) track; symmetric, zero diagonal."""
    return _pose_similarity(track, track)


def resize_nearest(m: SimilarityMatrix, target: int) -> SimilarityMatrix:
    """Nearest-neighbor resize: pure index replication, no new values.

    out[i][j] = src[floor(i*s/target)][floor(j*s/target)]
    """
    if target <= 0:
        raise ConfigError(f"target side must be positive, got {target}")
    src = m.values
    rows = (np.arange(target) * src.shape[0]) // target
    cols = (np.arange(target) * src.shape[1]) // target
    return SimilarityMatrix(src[np.ix_(rows, cols)])


def normalize_minmax(m: SimilarityMatrix) -> SimilarityMatrix:
    """Rescale values to [0, 1] per matrix; a constant matrix maps to zeros."""
    v = m.values
    lo, hi = v.min(), v.max()
    if hi == lo:
        return SimilarityMatrix(np.zeros_like(v))
    return SimilarityMatrix((v - lo) / (hi - lo))


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def save_binary(m: SimilarityMatrix, path) -> None:
    """Two little-endian u32 side lengths, then row-major f32 values."""
    v = m.values
    header = struct.pack("<II", v.shape[0], v.shape[1])
    Path(path).write_bytes(header + v.astype("<f4").tobytes(order="C"))


def save_csv(m: SimilarityMatrix, path) -> None:
    # np.savetxt given a path also opens it once in the locale's encoding
    with open(path, "w", encoding="utf-8") as fh:
        np.savetxt(fh, m.values, fmt="%.17g", delimiter=",")


def save_pgm(m: SimilarityMatrix, path) -> None:
    """8-bit binary PGM, min-max scaled so the most-similar entry is white."""
    pixels = np.rint(normalize_minmax(m).values * 255.0).astype(np.uint8)
    height, width = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes(order="C"))
