"""Keypoint ingestion pipeline: parsing, filtering, resampling, normalizing."""

import json

import numpy as np
import pytest

from dyadsync import pose_io
from dyadsync.errors import AmbiguityError, DataError, ParameterError, ParseError
from dyadsync.pose_io import (
    DyadicFrame,
    PersonPose,
    filter_valid_frames,
    frames_from_sequence,
    load_keypoint_file,
    load_manifest,
    normalize_coords,
    preprocess,
    resample_uniform,
)


def make_frame(index=0, a=True, b=True, image_size=(320, 240), fill=0.5):
    def pose(detected):
        if not detected:
            return PersonPose.undetected()
        joints = np.full((17, 3), fill)
        joints[:, 0] *= image_size[0]
        joints[:, 1] *= image_size[1]
        joints[:, 2] = 0.9
        return PersonPose(joints, True)

    return DyadicFrame(pose(a), pose(b), index, image_size)


def write_clip(path, frames_spec, image_size=(320, 240)):
    """frames_spec: list of (index, [person ids present])."""
    doc = {"image_size": list(image_size), "frames": []}
    for index, ids in frames_spec:
        persons = [
            {"id": pid, "keypoints": [[10.0 * pid + j, 5.0 + j, 0.8] for j in range(17)]}
            for pid in ids
        ]
        doc["frames"].append({"index": index, "persons": persons})
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def test_load_basic_clip_sorted_by_index(tmp_path):
    p = write_clip(tmp_path / "clip.json", [(2, [0, 1]), (0, [0, 1]), (1, [0, 1])])
    frames = load_keypoint_file(p)
    assert [f.frame_index for f in frames] == [0, 1, 2]
    assert all(f.valid for f in frames)
    assert frames[0].image_size == (320, 240)


def test_load_missing_person_marks_undetected(tmp_path):
    p = write_clip(tmp_path / "clip.json", [(0, [0])])
    frames = load_keypoint_file(p)
    assert frames[0].person_a.detected
    assert not frames[0].person_b.detected
    assert not frames[0].valid


def test_load_empty_file_gives_empty_list(tmp_path):
    p = tmp_path / "empty.json"
    p.write_text("")
    assert load_keypoint_file(p) == []
    p.write_text(json.dumps({"image_size": [320, 240], "frames": []}))
    assert load_keypoint_file(p) == []


def test_load_three_persons_is_ambiguous(tmp_path):
    doc = {
        "image_size": [320, 240],
        "frames": [
            {
                "index": 4,
                "persons": [
                    {"id": pid, "keypoints": [[1, 1, 0.5]] * 17} for pid in (0, 1, 1)
                ],
            }
        ],
    }
    p = tmp_path / "crowd.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(AmbiguityError, match="frame 4"):
        load_keypoint_file(p)


def test_load_malformed_records_name_the_frame(tmp_path):
    bad_kp = {
        "image_size": [320, 240],
        "frames": [{"index": 7, "persons": [{"id": 0, "keypoints": [[1, 2, 0.5]] * 16}]}],
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad_kp))
    with pytest.raises(ParseError, match="frame 7"):
        load_keypoint_file(p)

    bad_conf = {
        "image_size": [320, 240],
        "frames": [{"index": 9, "persons": [{"id": 1, "keypoints": [[1, 2, 1.5]] * 17}]}],
    }
    p.write_text(json.dumps(bad_conf))
    with pytest.raises(ParseError, match="frame 9"):
        load_keypoint_file(p)

    bad_type = {
        "image_size": [320, 240],
        "frames": [{"index": 5, "persons": [{"id": 0, "keypoints": [["x", 2, 0.5]] * 17}]}],
    }
    p.write_text(json.dumps(bad_type))
    with pytest.raises(ParseError, match="frame 5"):
        load_keypoint_file(p)


def test_load_rejects_duplicate_ids_and_bad_json(tmp_path):
    doc = {
        "image_size": [320, 240],
        "frames": [
            {"index": 0, "persons": [{"id": 0, "keypoints": [[1, 1, 0.5]] * 17}] * 2}
        ],
    }
    p = tmp_path / "dup.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="duplicate"):
        load_keypoint_file(p)
    p.write_text("{not json")
    with pytest.raises(ParseError):
        load_keypoint_file(p)
    with pytest.raises(DataError):
        load_keypoint_file(tmp_path / "nope.json")


# ---------------------------------------------------------------------------
# filtering / resampling
# ---------------------------------------------------------------------------


def test_filter_keeps_only_dually_detected():
    frames = [make_frame(0), make_frame(1, b=False), make_frame(2), make_frame(3, a=False)]
    kept = filter_valid_frames(frames)
    assert [f.frame_index for f in kept] == [0, 2]
    all_valid = [make_frame(i) for i in range(3)]
    assert filter_valid_frames(all_valid) == all_valid  # identity on clean input
    assert filter_valid_frames([make_frame(0, a=False, b=False)]) == []


def test_resample_identity_when_lengths_match():
    frames = [make_frame(i) for i in range(81)]
    out = resample_uniform(frames, 81)
    assert [f.frame_index for f in out] == list(range(81))


def test_resample_upsamples_three_to_five():
    frames = [make_frame(i) for i in range(3)]  # A, B, C
    out = resample_uniform(frames, 5)
    assert [f.frame_index for f in out] == [0, 0, 1, 2, 2]  # A A B C C


def test_resample_downsample_161_takes_even_indices():
    frames = [make_frame(i) for i in range(161)]
    out = resample_uniform(frames, 81)
    assert [f.frame_index for f in out] == list(range(0, 161, 2))


def test_resample_matches_index_formula_for_random_lengths():
    rng = np.random.default_rng(77)
    for _ in range(50):
        n = int(rng.integers(1, 400))
        target = int(rng.integers(2, 120))
        frames = [make_frame(i) for i in range(n)]
        out = resample_uniform(frames, target)
        want = [round(i * (n - 1) / (target - 1)) for i in range(target)]
        assert [f.frame_index for f in out] == want
        assert len(out) == target


def test_resample_edge_cases():
    with pytest.raises(DataError):
        resample_uniform([], 81)
    with pytest.raises(ParameterError):
        resample_uniform([make_frame(0)], 0)
    assert len(resample_uniform([make_frame(0)], 81)) == 81  # single frame duplicated
    assert [f.frame_index for f in resample_uniform([make_frame(5)], 1)] == [5]


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_normalize_center_and_corners():
    joints = np.zeros((17, 3))
    joints[0] = [160, 120, 1.0]
    joints[1] = [0, 0, 1.0]
    joints[2] = [320, 240, 1.0]
    frame = DyadicFrame(PersonPose(joints, True), PersonPose(joints, True), 0, (320, 240))
    seq = normalize_coords([frame])
    assert np.allclose(seq.frames[0, 0, 0], [0.5, 0.5])
    assert np.allclose(seq.frames[0, 0, 1], [0.0, 0.0])
    assert np.allclose(seq.frames[0, 0, 2], [1.0, 1.0])
    assert seq.clamped == 0


def test_normalize_clamps_and_tallies_out_of_frame():
    joints = np.tile([10.0, 10.0, 1.0], (17, 1))
    joints[3] = [400, 120, 1.0]  # x beyond width
    frame = DyadicFrame(PersonPose(joints, True), PersonPose(np.tile([1.0, 1.0, 1.0], (17, 1)), True), 0, (320, 240))
    seq = normalize_coords([frame])
    assert np.allclose(seq.frames[0, 0, 3], [1.0, 0.5])
    assert seq.clamped == 1


def test_normalize_rejects_bad_sizes_and_unfiltered_input():
    with pytest.raises(DataError):
        normalize_coords([make_frame(0, image_size=(0, 240))])
    with pytest.raises(DataError):
        normalize_coords([make_frame(0, b=False)])
    with pytest.raises(DataError):
        normalize_coords([])


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


def test_preprocess_end_to_end(tmp_path):
    spec = [(i, [0, 1]) if i % 3 else (i, [0]) for i in range(100)]  # a third invalid
    p = write_clip(tmp_path / "clip.json", spec)
    seq = preprocess(load_keypoint_file(p), source_id="clip")
    assert seq.frames.shape == (81, 2, 17, 2)
    assert seq.num_frames == 81
    assert np.all(seq.frames >= 0.0) and np.all(seq.frames <= 1.0)
    assert seq.source_id == "clip"


def test_preprocess_is_idempotent():
    rng = np.random.default_rng(5)
    frames = []
    for i in range(130):
        joints_a = np.column_stack([rng.uniform(0, 320, 17), rng.uniform(0, 240, 17), np.full(17, 0.9)])
        joints_b = np.column_stack([rng.uniform(0, 320, 17), rng.uniform(0, 240, 17), np.full(17, 0.9)])
        frames.append(DyadicFrame(PersonPose(joints_a, True), PersonPose(joints_b, True), i, (320, 240)))
    once = preprocess(frames)
    twice = preprocess(frames_from_sequence(once))
    assert np.array_equal(once.frames, twice.frames)


def test_preprocess_validates_labels_and_rejects_all_invalid():
    with pytest.raises(DataError, match="no valid frames"):
        preprocess([make_frame(0, a=False)])
    with pytest.raises(ParameterError):
        preprocess([make_frame(0)], label_class="Chaos")
    with pytest.raises(ParameterError):
        preprocess([make_frame(0)], label_score=11.0)
    seq = preprocess([make_frame(0)], label_class="Sync", label_score=9.0)
    assert seq.label_class == "Sync" and seq.label_score == 9.0


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------


def test_manifest_roundtrip_and_relative_paths(tmp_path):
    clip = write_clip(tmp_path / "a" / "clip.json", [(0, [0, 1]), (1, [0, 1])]) if (tmp_path / "a").mkdir() is None else None
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps(
            [
                {"path": "a/clip.json", "label_class": "ModSync"},
                {"path": str(tmp_path / "a" / "clip.json"), "label_score": 7.5},
            ]
        )
    )
    entries = load_manifest(manifest)
    assert entries[0].path == tmp_path / "a" / "clip.json"
    assert entries[0].label_class == "ModSync"
    assert entries[1].label_score == 7.5

    seqs = pose_io.load_dataset(manifest)
    assert len(seqs) == 2
    assert seqs[0].label_class == "ModSync"
    assert seqs[1].label_score == 7.5
    assert all(s.frames.shape == (81, 2, 17, 2) for s in seqs)


def test_manifest_validation(tmp_path):
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"path": "x"}))
    with pytest.raises(ParseError, match="list"):
        load_manifest(m)
    m.write_text(json.dumps([{"label_class": "Sync"}]))
    with pytest.raises(ParseError, match="path"):
        load_manifest(m)
    m.write_text(json.dumps([{"path": "x", "label_class": "Wild"}]))
    with pytest.raises(ParseError, match="Wild"):
        load_manifest(m)
    m.write_text(json.dumps([{"path": "x", "label_score": -2}]))
    with pytest.raises(ParseError, match="score"):
        load_manifest(m)
    with pytest.raises(DataError):
        load_manifest(tmp_path / "absent.json")
