"""Similarity matrices against a naive double-loop oracle plus format checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadsync.errors import ConfigError, DataError
from dyadsync.pose_io import SkeletonSequence
from dyadsync.similarity import (
    SimilarityMatrix,
    compute_csm,
    compute_ssm,
    frame_distances,
    normalize_minmax,
    resize_nearest,
    save_binary,
    save_csv,
    save_pgm,
)


def naive_csm(track_a, track_b):
    f, J, _ = track_a.shape
    out = np.zeros((f, track_b.shape[0]))
    for i in range(f):
        for j in range(track_b.shape[0]):
            total = 0.0
            for k in range(J):
                dx = track_a[i, k, 0] - track_b[j, k, 0]
                dy = track_a[i, k, 1] - track_b[j, k, 1]
                total += dx * dx + dy * dy
            out[i, j] = -np.sqrt(total) / J
    return out


def random_sequence(rng, f=12, J=17):
    return SkeletonSequence(frames=rng.uniform(0, 1, size=(f, 2, J, 2)))


def test_frame_distances_of_person_views_match_the_broadcast_expression():
    # person(i) is a strided view; the contiguous, squared-in-place kernel
    # must give the bytes of the one-expression form, for one (1, f, 2J) pair
    rng = np.random.default_rng(101)
    for fa, fb in [(1, 1), (1, 7), (12, 5), (81, 81)]:
        a = random_sequence(rng, f=fa)
        b = random_sequence(rng, f=fb)
        for x, y in [(a.person(0), a.person(1)), (a.person(1), b.person(0)),
                     (b.person(1), b.person(1))]:
            want = np.sqrt(((x[:, None] - y[None]) ** 2).sum(axis=(2, 3)))
            got = frame_distances(x.reshape(1, len(x), -1), y.reshape(1, len(y), -1))[..., 0]
            assert got.tobytes() == want.tobytes(), (fa, fb)
        want = -np.sqrt(((a.person(0)[:, None] - a.person(1)[None]) ** 2).sum(axis=(2, 3))) / 17
        assert compute_csm(a).values.tobytes() == want.tobytes()


def test_csm_matches_double_loop_oracle():
    rng = np.random.default_rng(100)
    for _ in range(10):
        seq = random_sequence(rng, f=int(rng.integers(2, 15)))
        got = compute_csm(seq).values
        want = naive_csm(seq.person(0), seq.person(1))
        assert np.max(np.abs(got - want)) < 1e-12
        assert np.all(got <= 0)


def test_csm_three_four_five_single_joint():
    frames = np.zeros((1, 2, 1, 2))
    frames[0, 1, 0] = [0.3, 0.4]
    seq = SkeletonSequence(frames=frames)
    m = compute_csm(seq)
    assert abs(m.values[0, 0] - (-0.5)) < 1e-15


def test_csm_identical_persons_zero_diagonal():
    rng = np.random.default_rng(101)
    track = rng.uniform(0, 1, size=(9, 17, 2))
    seq = SkeletonSequence(frames=np.stack([track, track], axis=1))
    m = compute_csm(seq).values
    assert np.array_equal(np.diag(m), np.zeros(9))


def test_csm_transpose_duality():
    rng = np.random.default_rng(102)
    for _ in range(5):
        seq = random_sequence(rng)
        swapped = SkeletonSequence(frames=seq.frames[:, ::-1])
        assert np.max(np.abs(compute_csm(seq).values.T - compute_csm(swapped).values)) < 1e-12


def test_csm_translation_sensitivity_bound():
    # shifting person_b by delta in both coordinates moves entries <= sqrt(2)*|delta|
    rng = np.random.default_rng(103)
    seq = random_sequence(rng, f=8)
    base = compute_csm(seq).values
    for delta in rng.uniform(-0.2, 0.2, size=6):
        shifted = seq.frames.copy()
        shifted[:, 1] += delta
        moved = compute_csm(SkeletonSequence(frames=shifted)).values
        assert np.max(np.abs(moved - base)) <= np.sqrt(2) * abs(delta) + 1e-12


def test_ssm_symmetric_zero_diagonal():
    rng = np.random.default_rng(104)
    track = rng.uniform(0, 1, size=(11, 17, 2))
    m = compute_ssm(track)
    assert np.array_equal(m.values, m.values.T)
    assert np.array_equal(np.diag(m.values), np.zeros(11))


def test_ssm_frozen_pose_is_all_zeros():
    track = np.tile(np.random.default_rng(105).uniform(0, 1, size=(1, 17, 2)), (7, 1, 1))
    assert np.array_equal(compute_ssm(track).values, np.zeros((7, 7)))


@st.composite
def sequence_cases(draw):
    """Frames, joints, coordinate scale and seed of a random (f, 2, J, 2) sequence."""
    f, joints = draw(st.integers(1, 40)), draw(st.integers(1, 19))
    return f, joints, draw(st.sampled_from([1e-3, 1.0, 1e3])), draw(st.integers(0, 2**16))


def drawn_sequence(case):
    f, joints, scale, seed = case
    return SkeletonSequence(frames=np.random.default_rng(seed).normal(scale=scale,
                                                                      size=(f, 2, joints, 2)))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(sequence_cases())
def test_ssm_is_symmetric_with_an_exact_zero_diagonal(case):
    m = compute_ssm(drawn_sequence(case).person(1)).values  # a strided view, as the CLI passes
    assert m.tobytes() == np.ascontiguousarray(m.T).tobytes()
    assert (np.diag(m) == 0).all()


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(sequence_cases())
def test_csm_is_non_positive_and_the_swapped_dyad_gives_its_transpose(case):
    seq = drawn_sequence(case)
    m = compute_csm(seq).values
    assert (m <= 0).all()
    swapped = compute_csm(SkeletonSequence(frames=seq.frames[:, ::-1])).values
    assert swapped.tobytes() == np.ascontiguousarray(m.T).tobytes()


def test_empty_sequence_is_an_error():
    with pytest.raises(DataError):
        compute_csm(SkeletonSequence(frames=np.zeros((0, 2, 17, 2))))


# ---------------------------------------------------------------------------
# resize / normalize
# ---------------------------------------------------------------------------


def test_resize_2x2_replicates_blocks():
    m = SimilarityMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = resize_nearest(m, 4).values
    want = np.array(
        [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]], dtype=float
    )
    assert np.array_equal(out, want)


def test_resize_identity_and_membership():
    rng = np.random.default_rng(106)
    src = rng.normal(size=(81, 81))
    m = SimilarityMatrix(src)
    assert np.array_equal(resize_nearest(m, 81).values, src)
    big = resize_nearest(m, 224).values
    assert big.shape == (224, 224)
    assert np.isin(big, src).all()  # no interpolation arithmetic, values replicated
    with pytest.raises(ConfigError, match="target side must be positive"):
        resize_nearest(m, 0)


def test_resize_index_formula():
    src = np.arange(25.0).reshape(5, 5)
    out = resize_nearest(SimilarityMatrix(src), 7).values
    rows = [(i * 5) // 7 for i in range(7)]
    assert np.array_equal(out, src[np.ix_(rows, rows)])


def test_normalize_minmax():
    m = SimilarityMatrix(np.array([[-3.0, -1.0], [0.0, -2.0]]))
    out = normalize_minmax(m).values
    assert out.min() == 0.0 and out.max() == 1.0
    assert np.allclose(out, [[0.0, 2 / 3], [1.0, 1 / 3]])
    flat = normalize_minmax(SimilarityMatrix(np.full((3, 3), -5.0)))
    assert np.array_equal(flat.values, np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# formats
# ---------------------------------------------------------------------------


def test_binary_roundtrip(tmp_path):
    rng = np.random.default_rng(107)
    m = SimilarityMatrix(rng.normal(size=(9, 9)).astype(np.float32).astype(np.float64))
    p = tmp_path / "m.csm"
    save_binary(m, p)
    raw = p.read_bytes()
    assert raw[:8] == (9).to_bytes(4, "little") * 2
    assert len(raw) == 8 + 9 * 9 * 4
    assert np.array_equal(np.frombuffer(raw[8:], dtype="<f4").reshape(9, 9), m.values)


def test_csv_export_reads_back(tmp_path):
    m = SimilarityMatrix(np.array([[-0.25, 0.0], [-1.5, -0.125]]))
    p = tmp_path / "m.csv"
    save_csv(m, p)
    assert np.array_equal(np.loadtxt(p, delimiter=","), m.values)


def test_pgm_export_header_and_scaling(tmp_path):
    m = SimilarityMatrix(np.array([[-1.0, 0.0], [-0.5, -1.0]]))
    p = tmp_path / "m.pgm"
    save_pgm(m, p)
    raw = p.read_bytes()
    assert raw.startswith(b"P5\n2 2\n255\n")
    pixels = np.frombuffer(raw[len(b"P5\n2 2\n255\n"):], dtype=np.uint8).reshape(2, 2)
    assert pixels[0, 1] == 255  # most similar -> white
    assert pixels[0, 0] == 0 and pixels[1, 1] == 0
    assert pixels[1, 0] == 128  # round(0.5*255) = 128 (banker's on .5 -> even)
