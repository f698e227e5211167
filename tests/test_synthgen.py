"""Generator semantics: class transforms, score bins, file round-trips, determinism."""

import dataclasses

import numpy as np
import pytest

from dyadsync.baselines import correlation_features, dtw_distance
from dyadsync.errors import ConfigError
from dyadsync.pose_io import load_dataset, load_keypoint_file, load_manifest
from dyadsync.similarity import compute_csm
from dyadsync.synthgen import (IMAGE_SIZE, SynthConfig, generate_dataset, generate_dyad_sequence,
                               generate_sequences)


def test_sync_zero_jitter_is_identity_coupling():
    cfg = SynthConfig(f=40, jitter=0.0, seed=5)
    seq = generate_dyad_sequence(cfg, "Sync")
    assert np.array_equal(seq.frames[:, 0], seq.frames[:, 1])
    csm = compute_csm(seq).values
    assert np.array_equal(np.diag(csm), np.zeros(40))
    assert seq.label_class == "Sync"


def test_modsync_lag_shows_up_as_row_argmax_offset():
    lag = 8
    cfg = SynthConfig(f=60, lag=lag, amp_mismatch=1.0, jitter=0.0, seed=9)
    seq = generate_dyad_sequence(cfg, "ModSync")
    csm = compute_csm(seq).values
    for i in range(0, 60 - lag):
        assert csm[i].argmax() == i + lag  # person_b repeats a's pose lag frames late


def test_unsync_correlation_centers_on_zero():
    cfg = SynthConfig(f=64, seed=11)
    means = [
        correlation_features(generate_dyad_sequence(cfg, "Unsync", index=i)).vector.mean()
        for i in range(100)
    ]
    assert abs(float(np.mean(means))) < 0.1


def test_all_coordinates_in_unit_square():
    cfg = SynthConfig(f=50, seed=3)
    for klass in ("Sync", "ModSync", "Unsync"):
        seq = generate_dyad_sequence(cfg, klass, index=2)
        assert seq.frames.min() >= 0.0 and seq.frames.max() <= 1.0
        assert seq.frames.shape == (50, 2, 17, 2)


def test_scores_fall_in_class_bins():
    cfg = SynthConfig(f=30, seed=21)
    for klass, lo, hi in [("Sync", 8.36, 10.0), ("ModSync", 7.16, 8.36), ("Unsync", 0.0, 7.16)]:
        for i in range(5):
            s = generate_dyad_sequence(cfg, klass, i).label_score
            assert lo <= s < hi or (klass == "Sync" and s == hi)


def test_generation_is_deterministic_per_index():
    cfg = SynthConfig(f=30, seed=13)
    a = generate_dyad_sequence(cfg, "ModSync", index=4)
    b = generate_dyad_sequence(cfg, "ModSync", index=4)
    c = generate_dyad_sequence(cfg, "ModSync", index=5)
    assert np.array_equal(a.frames, b.frames)
    assert not np.array_equal(a.frames, c.frames)


def test_dtw_separability_ordering_small_sample():
    cfg = SynthConfig(f=48, seed=17)
    means = {}
    for klass in ("Sync", "ModSync", "Unsync"):
        dists = []
        for i in range(8):
            seq = generate_dyad_sequence(cfg, klass, i)
            a, b = seq.person(0), seq.person(1)
            dists.append(dtw_distance(a.reshape(48, -1), b.reshape(48, -1)))
        means[klass] = np.mean(dists)
    assert means["Sync"] < means["ModSync"] < means["Unsync"]


def test_validation():
    with pytest.raises(ConfigError, match="jitter must be finite and >= 0"):
        SynthConfig(jitter=-0.1)
    with pytest.raises(ConfigError, match=r"lag must lie in \[0, f\)"):
        SynthConfig(f=10, lag=10)
    with pytest.raises(ConfigError, match="unknown class 'Mystery'"):
        generate_dyad_sequence(SynthConfig(), "Mystery")
    with pytest.raises(ConfigError, match="n_per_class must be >= 1"):
        generate_sequences(SynthConfig(), 0)


def test_generate_sequences_order_and_offsets():
    cfg = SynthConfig(f=20, seed=2)
    seqs = list(generate_sequences(cfg, 2))
    assert [s.label_class for s in seqs] == ["Sync", "Sync", "ModSync", "ModSync", "Unsync", "Unsync"]
    assert [s.source_id for s in seqs[:2]] == ["sync_0000", "sync_0001"]
    assert seqs[1].frames.tobytes() == generate_dyad_sequence(cfg, "Sync", 1).frames.tobytes()
    held_out = generate_dyad_sequence(cfg, "Sync", 5)
    assert not np.array_equal(seqs[0].frames, held_out.frames)


# ---------------------------------------------------------------------------
# file emission
# ---------------------------------------------------------------------------


def test_dataset_writes_balanced_manifest(tmp_path):
    cfg = SynthConfig(f=12, seed=7)
    manifest = generate_dataset(cfg, 10, tmp_path / "data")
    entries = load_manifest(manifest)
    assert len(entries) == 30
    classes = [e.label_class for e in entries]
    assert classes.count("Sync") == classes.count("ModSync") == classes.count("Unsync") == 10
    assert all(e.label_score is not None for e in entries)
    assert len(list((tmp_path / "data").glob("*.json"))) == 31  # 30 clips + manifest


def test_dataset_round_trips_coordinates_exactly(tmp_path):
    cfg = SynthConfig(f=9, lag=3, seed=19)
    generate_dataset(cfg, 1, tmp_path)
    seq = generate_dyad_sequence(cfg, "ModSync", 0)
    clip = load_keypoint_file(tmp_path / "modsync_0000.json")
    assert clip.keypoints.shape == (9, 2, 17, 3) and clip.detected.all()
    scale = np.array(IMAGE_SIZE, dtype=np.float64)
    assert np.array_equal(clip.keypoints[..., :2], seq.frames * scale)
    assert np.all(clip.keypoints[..., 2] == 1.0)


def test_dataset_regeneration_is_byte_identical(tmp_path):
    cfg = SynthConfig(f=10, lag=4, seed=23)
    m1 = generate_dataset(cfg, 2, tmp_path / "one")
    m2 = generate_dataset(cfg, 2, tmp_path / "two")
    for p1 in sorted((tmp_path / "one").glob("*")):
        p2 = tmp_path / "two" / p1.name
        assert p1.read_bytes() == p2.read_bytes()
    assert m1.read_bytes() == m2.read_bytes()


def test_dataset_feeds_the_loading_pipeline(tmp_path):
    cfg = SynthConfig(f=100, seed=29)
    manifest = generate_dataset(cfg, 1, tmp_path)
    seqs = load_dataset(manifest)
    assert len(seqs) == 3
    for seq in seqs:
        assert seq.frames.shape == (81, 2, 17, 2)
        assert seq.label_class in ("Sync", "ModSync", "Unsync")
