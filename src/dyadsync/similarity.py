"""Cross- and self-similarity matrices over skeleton sequences.

The cross-similarity matrix (CSM) compares every frame of person A with
every frame of person B through a scaled Frobenius distance over the J
joints:

    CSM[i][j] = -(1/J) * sqrt( sum_k || A_i[k] - B_j[k] ||^2 )

so entries are <= 0 with 0 meaning identical poses.  The self-similarity
variant applies the same kernel to one person against themselves
(symmetric, zero diagonal).  Matrices can be min-max normalized,
upsampled by exact nearest-neighbor replication to an image-like side
(224 by default), and exported as raw binary, CSV, or PGM for eyeballs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .pose_io import SkeletonSequence

IMAGE_SIDE = 224


@dataclass(frozen=True)
class SimilarityMatrix:
    values: np.ndarray


def frame_distance_matrix(track_a: np.ndarray, track_b: np.ndarray) -> np.ndarray:
    """All-pairs Frobenius distance between (f, J, 2) pose tracks.

    The tracks are copied contiguous (a person's track is a strided view
    of its sequence) and the one difference array is squared in place.
    """
    a = np.ascontiguousarray(track_a, dtype=np.float64)
    b = np.ascontiguousarray(track_b, dtype=np.float64)
    if a.ndim != 3 or b.ndim != 3 or a.shape[1:] != b.shape[1:]:
        raise DataError(f"incompatible tracks: {a.shape} vs {b.shape}")
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise DataError("empty track")
    diff = a[:, None] - b[None, :]  # (fa, fb, J, 2)
    np.multiply(diff, diff, out=diff)
    return np.sqrt(diff.sum(axis=(2, 3)))


def compute_csm(seq: SkeletonSequence) -> SimilarityMatrix:
    """Eq-style cross-similarity between the two persons of a sequence."""
    num_joints = seq.frames.shape[2]
    dist = frame_distance_matrix(seq.person(0), seq.person(1))
    return SimilarityMatrix(-dist / num_joints)


def compute_ssm(track: np.ndarray) -> SimilarityMatrix:
    """Self-similarity of a single (f, J, 2) track; symmetric, zero diagonal."""
    track = np.asarray(track, dtype=np.float64)
    num_joints = track.shape[1]
    dist = frame_distance_matrix(track, track)
    return SimilarityMatrix(-dist / num_joints)


def resize_nearest(m: SimilarityMatrix, target: int = IMAGE_SIDE) -> SimilarityMatrix:
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
    np.savetxt(path, m.values, fmt="%.17g", delimiter=",")


def save_pgm(m: SimilarityMatrix, path) -> None:
    """8-bit binary PGM, min-max scaled so the most-similar entry is white."""
    v = m.values
    lo, hi = v.min(), v.max()
    if hi == lo:
        pixels = np.zeros(v.shape, dtype=np.uint8)
    else:
        pixels = np.rint((v - lo) / (hi - lo) * 255.0).astype(np.uint8)
    height, width = v.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes(order="C"))
