"""Keypoint ingestion pipeline: parsing, filtering, resampling, normalizing."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadsync import pose_io
from dyadsync.errors import ConfigError, DataError
from dyadsync.pose_io import (
    NUM_JOINTS,
    KeypointClip,
    SkeletonSequence,
    load_keypoint_file,
    load_manifest,
    preprocess,
    resample_indices,
    write_dataset,
)
from dyadsync.synthgen import IMAGE_SIZE, SynthConfig, generate_sequences


def make_clip(detected, image_size=(320, 240), fill=0.5):
    """A clip whose detected persons stand with every joint at ``fill`` of
    the image and x offset by the frame number; undetected ones are zeros."""
    detected = np.asarray(detected, dtype=bool).reshape(-1, 2)
    keypoints = np.zeros(detected.shape + (NUM_JOINTS, 3))
    keypoints[..., 0] = fill * image_size[0] + np.arange(len(detected))[:, None, None]
    keypoints[..., 1] = fill * image_size[1]
    keypoints[..., 2] = 0.9
    keypoints[~detected] = 0.0
    return KeypointClip(keypoints, detected, image_size)


def unit_image_clip(seq):
    """A normalized sequence as a clip of a 1x1 image, which preprocess
    divides by one."""
    f = seq.num_frames
    keypoints = np.concatenate([seq.frames, np.ones((f, 2, NUM_JOINTS, 1))], axis=-1)
    return KeypointClip(keypoints, np.ones((f, 2), dtype=bool), (1, 1))


def write_clip(path, frames_spec, image_size=(320, 240)):
    """frames_spec: list of (index, [person ids present]); x grows with the index."""
    doc = {"image_size": list(image_size), "frames": []}
    for index, ids in frames_spec:
        persons = [
            {"id": pid, "keypoints": [[10.0 * pid + j + index, 5.0 + j, 0.8] for j in range(17)]}
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
    clip = load_keypoint_file(p)
    assert clip.keypoints.shape == (3, 2, 17, 3) and clip.keypoints.dtype == np.float64
    assert clip.keypoints[:, 0, 0, 0].tolist() == [0.0, 1.0, 2.0]
    assert clip.detected.all()
    assert clip.image_size == (320, 240)
    # a repeated index keeps file order, as a stable sort does
    p = write_clip(tmp_path / "repeat.json", [(2, [0, 1]), (1, [0]), (0, [0, 1]), (1, [1])])
    assert load_keypoint_file(p).detected.tolist() == [[True, True], [True, False],
                                                       [False, True], [True, True]]


def test_load_missing_person_marks_undetected(tmp_path):
    p = write_clip(tmp_path / "clip.json", [(0, [0])])
    clip = load_keypoint_file(p)
    assert clip.detected.tolist() == [[True, False]]
    p = write_clip(tmp_path / "gaps.json", [(0, [0, 1]), (1, [1]), (2, [])])
    clip = load_keypoint_file(p)
    assert clip.detected.tolist() == [[True, True], [False, True], [False, False]]
    assert not clip.keypoints[1, 0].any() and not clip.keypoints[2].any()  # zero-filled
    assert clip.keypoints[1, 1].any()


def test_load_empty_file_gives_empty_list(tmp_path):
    p = tmp_path / "empty.json"
    p.write_text("")
    clip = load_keypoint_file(p)
    assert clip.keypoints.shape == (0, 2, 17, 3) and clip.detected.shape == (0, 2)
    assert clip.image_size is None
    p.write_text(json.dumps({"image_size": [320, 240], "frames": []}))
    clip = load_keypoint_file(p)
    assert clip.keypoints.shape == (0, 2, 17, 3) and clip.detected.shape == (0, 2)


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
    with pytest.raises(DataError, match="frame 4"):
        load_keypoint_file(p)


def test_load_malformed_records_name_the_frame(tmp_path):
    bad_kp = {
        "image_size": [320, 240],
        "frames": [{"index": 7, "persons": [{"id": 0, "keypoints": [[1, 2, 0.5]] * 16}]}],
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad_kp))
    with pytest.raises(DataError, match="frame 7"):
        load_keypoint_file(p)

    bad_conf = {
        "image_size": [320, 240],
        "frames": [{"index": 9, "persons": [{"id": 1, "keypoints": [[1, 2, 1.5]] * 17}]}],
    }
    p.write_text(json.dumps(bad_conf))
    with pytest.raises(DataError, match="frame 9"):
        load_keypoint_file(p)

    bad_type = {
        "image_size": [320, 240],
        "frames": [{"index": 5, "persons": [{"id": 0, "keypoints": [["x", 2, 0.5]] * 17}]}],
    }
    p.write_text(json.dumps(bad_type))
    with pytest.raises(DataError, match="frame 5"):
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
    with pytest.raises(DataError, match="duplicate"):
        load_keypoint_file(p)
    p.write_text("{not json")
    with pytest.raises(DataError, match="invalid JSON"):
        load_keypoint_file(p)
    with pytest.raises(DataError):
        load_keypoint_file(tmp_path / "nope.json")


@pytest.mark.parametrize("frames,message", [
    (5, "'frames' list"),
    ([{"index": 3, "persons": 5}], "malformed frame record"),
    ([{"index": 3, "persons": "ab"}], "malformed frame record"),
    ([{"index": 3, "persons": {"id": 0}}], "malformed frame record"),
], ids=["frames-not-a-list", "persons-not-a-list", "persons-a-string", "persons-an-object"])
def test_load_refuses_records_that_are_not_lists(tmp_path, frames, message):
    p = tmp_path / "odd.json"
    p.write_text(json.dumps({"image_size": [320, 240], "frames": frames}))
    with pytest.raises(DataError, match=message):
        load_keypoint_file(p)


@pytest.mark.parametrize("index", ["3", 2.7, 2.0, True, None])
def test_load_refuses_a_frame_index_that_is_not_an_integer(tmp_path, index):
    p = write_clip(tmp_path / "clip.json", [(0, [0, 1]), (1, [0, 1])])
    doc = json.loads(p.read_text())
    doc["frames"][1]["index"] = index
    p.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=f"frame index {index!r} is not an integer") as err:
        load_keypoint_file(p)
    assert str(p) in str(err.value)


@pytest.mark.parametrize("size", ['["640", 480]', "[640.9, 480]", "[640.0, 480]", "[true, true]",
                                  "[1e400, 480]", "[640]", "[640, 480, 3]", '"64"', "null",
                                  pytest.param(f"[1{'0' * 400}, 480]", id="int-beyond-float64")])
def test_load_refuses_an_image_size_that_is_not_two_integers(tmp_path, size):
    p = write_clip(tmp_path / "clip.json", [(0, [0, 1])])
    p.write_text(p.read_text().replace("[320, 240]", size))
    with pytest.raises(DataError, match="'image_size'") as err:
        load_keypoint_file(p)
    assert str(p) in str(err.value)


def test_load_refuses_a_keypoint_integer_beyond_float64(tmp_path):
    p = write_clip(tmp_path / "clip.json", [(4, [0, 1])])
    doc = json.loads(p.read_text())
    doc["frames"][0]["persons"][1]["keypoints"][3][0] = 10**400
    p.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="frame 4: non-finite coordinate"):
        load_keypoint_file(p)


def per_person_checks(path):
    """How many per-person keypoint checks loading a clip makes, whether it
    loads or not; a valid clip, taken by the one batched check, makes none."""
    calls = []
    check = pose_io._check_keypoints
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pose_io, "_check_keypoints",
                   lambda kp, where: calls.append(where) or check(kp, where))
        try:
            load_keypoint_file(path)
        except DataError:
            pass
    return len(calls)


@pytest.mark.parametrize("pid", [True, False, 0.0, 1.0])
def test_load_refuses_a_person_id_that_is_not_a_json_integer(tmp_path, pid):
    p = write_clip(tmp_path / "clip.json", [(0, [0, 1]), (3, [0, 1])])
    doc = json.loads(p.read_text())
    doc["frames"][1]["persons"][1]["id"] = pid
    p.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=f"frame 3: person id must be the JSON integer 0 or 1, "
                                        f"got {pid!r}") as err:
        load_keypoint_file(p)
    assert str(p) in str(err.value)
    # the record pass refuses it by itself, not only behind the text screen
    with pytest.raises(DataError, match="frame 3: person id must be"):
        pose_io._read_records(doc["frames"], p)


@pytest.mark.parametrize("row,shown", [
    (["1.5", True, 0.5], '"1.5"'),
    ([1.5, True, 0.5], "true"),
    ([1.5, 2.0, False], "false"),
    ([None, 2.0, 0.5], "null"),
    ([1.5, "2", 0.5], '"2"'),
])
def test_load_refuses_a_keypoint_value_that_is_not_a_number(tmp_path, row, shown):
    p = write_clip(tmp_path / "clip.json", [(0, [0, 1]), (6, [0, 1])])
    doc = json.loads(p.read_text())
    doc["frames"][1]["persons"][0]["keypoints"][2] = row
    p.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=f"frame 6: keypoint value {shown} is not a number") as err:
        load_keypoint_file(p)
    assert str(p) in str(err.value)
    assert per_person_checks(p) > 0  # the batched check did not take it


def test_load_takes_integer_keypoints_through_the_gather(tmp_path):
    p = write_clip(tmp_path / "clip.json", [(0, [0, 1]), (1, [1, 0])])
    doc = json.loads(p.read_text())
    for frame in doc["frames"]:
        for person in frame["persons"]:
            person["keypoints"] = [[int(x), int(y), 1] for x, y, _ in person["keypoints"]]
    p.write_text(json.dumps(doc))
    assert per_person_checks(p) == 0
    assert load_keypoint_file(p).keypoints.tobytes() == per_person_load(p).keypoints.tobytes()


# ---------------------------------------------------------------------------
# the gathered parse against the per-person loop it replaced
# ---------------------------------------------------------------------------

_LOW = np.array([-np.finfo(np.float64).max] * 2 + [0.0])
_HIGH = np.array([np.finfo(np.float64).max] * 2 + [1.0])


def per_person_load(path):
    """The loader before the gathered parse, kept as an oracle: one
    conversion and one bounds check per person record.  Person ids must
    be the JSON integers 0 and 1, and keypoint values JSON numbers."""
    text = path.read_text()
    doc = json.loads(text)
    if not isinstance(doc, dict) or not isinstance(doc.get("frames"), list):
        raise DataError(f"{path}: expected an object with a 'frames' list")
    image_size = tuple(doc["image_size"])
    records = doc["frames"]
    keypoints = np.zeros((len(records), 2, NUM_JOINTS, 3))
    detected = np.zeros((len(records), 2), dtype=bool)
    indices = []
    for t, record in enumerate(records):
        try:
            frame_index = int(record["index"])
            persons = record["persons"]
            count = len(persons)
        except (TypeError, KeyError, ValueError):
            raise DataError(f"{path}: malformed frame record {record!r}") from None
        where = f"{path}: frame {frame_index}"
        if count > 2:
            raise DataError(f"{where}: {count} persons present; dyad selection is upstream")
        for entry in persons:
            try:
                pid = entry["id"]
                kp = entry["keypoints"]
            except (TypeError, KeyError) as exc:
                raise DataError(f"{where}: person record missing {exc}") from None
            if type(pid) is not int or pid not in (0, 1):
                raise DataError(f"{where}: person id must be the JSON integer 0 or 1, got {pid!r}")
            try:
                joints = np.asarray(kp, dtype=np.float64)
            except (TypeError, ValueError):
                raise DataError(f"{where}: keypoints are not a numeric array") from None
            if joints.shape != (NUM_JOINTS, 3):
                raise DataError(f"{where}: expected {NUM_JOINTS}x3 keypoints, "
                                f"got shape {joints.shape}")
            for value in (v for row in kp for v in row):
                if type(value) not in (int, float):
                    raise DataError(f"{where}: keypoint value {json.dumps(value)} "
                                    "is not a number")
            if not ((joints >= _LOW) & (joints <= _HIGH)).all():
                raise DataError(f"{where}: non-finite coordinate or confidence outside [0, 1]")
            if detected[t, pid]:
                raise DataError(f"{where}: duplicate person id {pid}")
            keypoints[t, pid] = joints
            detected[t, pid] = True
        indices.append(frame_index)
    order = np.argsort(indices, kind="stable")
    return KeypointClip(keypoints[order], detected[order], image_size)


# values a mutated field may take; none is a frame index the oracle reads
# differently from the loader (a non-integer one), nor an integer too large
# for float64, on which the oracle raises OverflowError
ODD_IDS = [0, 1, 2, -1, 0.0, 1.0, 0.5, True, False, "0", None, [1], {"id": 0}]
ODD_VALUES = [float("nan"), float("inf"), -float("inf"), -0.5, 1.5, 1e308, -1e308, 0, 7,
              "x", "1.5", None, True, [1.0], {}]
MUTATIONS = ("id", "value", "rows", "persons", "index", "nan", "duplicate", "key")


def valid_clip(draw, persons_everywhere=False):
    """A valid clip document of 1 to 6 frames, or 2 to 6 with a person in each."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = []
    id_sets = [[], [0], [1], [0, 1], [1, 0]][int(persons_everywhere):]
    for t in range(draw(st.integers(1 + int(persons_everywhere), 6))):
        ids = id_sets[rng.integers(len(id_sets))]
        persons = []
        for pid in ids:
            xy = rng.uniform(-50.0, 400.0, (NUM_JOINTS, 2))
            conf = rng.choice([0.0, 1.0, rng.random()], size=(NUM_JOINTS, 1))
            rows = np.concatenate([xy, conf], axis=1).tolist()
            persons.append({"id": pid, "keypoints": rows})
        frames.append({"index": int(rng.integers(-3, 9)), "persons": persons})
    return {"image_size": [320, 240], "frames": frames}


def mutate(draw, frames, frame, mutation):
    """Apply one of MUTATIONS to record ``frame`` of a clip, in place."""
    persons = frame["persons"]
    person = persons[draw(st.integers(0, len(persons) - 1))] if persons else None
    if mutation == "index":
        other = frames[draw(st.integers(0, len(frames) - 1))]["index"]
        frame["index"] = draw(st.sampled_from([other, -1, 2**40, 0]))
    elif mutation == "persons":
        extra = {"id": 1, "keypoints": [[1.0, 2.0, 0.5]] * NUM_JOINTS}
        frame["persons"] = draw(st.sampled_from([[], persons[:1], persons + [extra],
                                                 persons + [extra, extra]]))
    elif person is None:
        pass
    elif mutation == "id":
        person["id"] = draw(st.sampled_from(ODD_IDS))
    elif mutation in ("value", "nan"):
        row, col = draw(st.integers(0, NUM_JOINTS - 1)), draw(st.integers(0, 2))
        value = float("nan") if mutation == "nan" else draw(st.sampled_from(ODD_VALUES))
        person["keypoints"][row][col] = value
    elif mutation == "rows":
        rows = person["keypoints"]
        person["keypoints"] = draw(st.sampled_from([
            rows[:-1], rows + rows[:1], [rows[0][:2]] + rows[1:], [rows[0] + [0.5]] + rows[1:],
            rows[0], [rows], sum(rows, [])]))
    elif mutation == "duplicate" and len(persons) == 2:
        persons[1]["id"] = persons[0]["id"]
    elif mutation == "key":
        del person[draw(st.sampled_from(["id", "keypoints"]))]


@st.composite
def mutated_clips(draw):
    """A valid clip document with at most one field changed."""
    doc = valid_clip(draw)
    frames = doc["frames"]
    mutation = draw(st.sampled_from(MUTATIONS + ("none",)))
    mutate(draw, frames, frames[draw(st.integers(0, len(frames) - 1))], mutation)
    return doc


@st.composite
def two_fault_clips(draw):
    """A valid clip with a keypoint mutation in one record and a structural
    one in another, the keypoint fault first or second in file order."""
    doc = valid_clip(draw, persons_everywhere=True)
    frames = doc["frames"]
    at = draw(st.lists(st.integers(0, len(frames) - 1), min_size=2, max_size=2, unique=True))
    mutate(draw, frames, frames[at[0]], draw(st.sampled_from(["value", "nan", "rows"])))
    mutate(draw, frames, frames[at[1]],
           draw(st.sampled_from(["id", "persons", "duplicate", "key"])))
    return doc


def loads_like_the_oracle(path):
    """Assert the loader gives per_person_load's array bytes or exact
    message for a clip; returns whether the clip was accepted."""
    try:
        want = per_person_load(path)
    except DataError as exc:
        with pytest.raises(DataError) as err:
            load_keypoint_file(path)
        assert str(err.value) == str(exc)
        return False
    got = load_keypoint_file(path)
    assert got.keypoints.tobytes() == want.keypoints.tobytes()
    assert got.keypoints.shape == want.keypoints.shape
    assert got.detected.tobytes() == want.detected.tobytes()
    assert got.image_size == want.image_size
    return True


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(mutated_clips())
def test_gathered_parse_matches_the_per_person_loop(tmp_path_factory, doc):
    p = tmp_path_factory.mktemp("gather") / "clip.json"
    p.write_text(json.dumps(doc))
    accepted = loads_like_the_oracle(p)
    # the one batched check takes every clip the per-person loop accepts,
    # so a valid clip never reaches the per-person check
    if accepted:
        assert per_person_checks(p) == 0


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(two_fault_clips())
def test_of_two_faulty_records_the_first_is_named(tmp_path_factory, doc):
    p = tmp_path_factory.mktemp("faults") / "clip.json"
    p.write_text(json.dumps(doc))
    loads_like_the_oracle(p)


# ---------------------------------------------------------------------------
# filtering / resampling
# ---------------------------------------------------------------------------


def frame_numbers(seq, width=320):
    """The frame offsets make_clip added to x, read back from a sequence."""
    return np.rint(seq.frames[:, 0, 0, 0] * width - 0.5 * width).astype(int).tolist()


def test_filter_keeps_only_dually_detected():
    clip = make_clip([[1, 1], [1, 0], [1, 1], [0, 1]])
    assert frame_numbers(preprocess(clip, target_f=2)) == [0, 2]  # 2 -> 2 resamples nothing
    assert frame_numbers(preprocess(make_clip([[1, 1]] * 3), target_f=3)) == [0, 1, 2]
    with pytest.raises(DataError, match="no valid frames"):
        preprocess(make_clip([[0, 0]]))


def test_resample_identity_when_lengths_match():
    assert resample_indices(81, 81).tolist() == list(range(81))


def test_resample_upsamples_three_to_five():
    assert resample_indices(3, 5).tolist() == [0, 0, 1, 2, 2]  # A A B C C


def test_resample_downsample_161_takes_even_indices():
    assert resample_indices(161, 81).tolist() == list(range(0, 161, 2))


def test_resample_matches_index_formula_for_random_lengths():
    rng = np.random.default_rng(77)
    for _ in range(50):
        n = int(rng.integers(1, 400))
        target = int(rng.integers(2, 120))
        want = [round(i * (n - 1) / (target - 1)) for i in range(target)]
        assert resample_indices(n, target).tolist() == want


def test_resample_edge_cases():
    with pytest.raises(DataError):
        resample_indices(0, 81)
    with pytest.raises(ConfigError, match="target_f must be >= 1, got 0"):
        resample_indices(1, 0)
    assert resample_indices(1, 81).tolist() == [0] * 81  # single frame duplicated
    assert resample_indices(7, 1).tolist() == [0]


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def one_frame_clip(joints_a, joints_b, image_size=(320, 240)):
    return KeypointClip(np.stack([joints_a, joints_b])[None], np.ones((1, 2), dtype=bool),
                        image_size)


def test_normalize_center_and_corners():
    joints = np.zeros((17, 3))
    joints[0] = [160, 120, 1.0]
    joints[1] = [0, 0, 1.0]
    joints[2] = [320, 240, 1.0]
    seq = preprocess(one_frame_clip(joints, joints), target_f=1)
    assert np.allclose(seq.frames[0, 0, 0], [0.5, 0.5])
    assert np.allclose(seq.frames[0, 0, 1], [0.0, 0.0])
    assert np.allclose(seq.frames[0, 0, 2], [1.0, 1.0])
    assert seq.clamped == 0


def test_normalize_clamps_and_tallies_out_of_frame():
    joints = np.tile([10.0, 10.0, 1.0], (17, 1))
    joints[3] = [400, 120, 1.0]  # x beyond width
    seq = preprocess(one_frame_clip(joints, np.tile([1.0, 1.0, 1.0], (17, 1))), target_f=1)
    assert np.allclose(seq.frames[0, 0, 3], [1.0, 0.5])
    assert seq.clamped == 1


def test_normalize_rejects_bad_sizes_and_unfiltered_input():
    with pytest.raises(DataError, match="image size"):
        preprocess(make_clip([[1, 1]], image_size=(0, 240)))
    # the filter runs inside preprocess: an undetected person leaves no frames
    with pytest.raises(DataError, match="no valid frames"):
        preprocess(make_clip([[1, 0]]))
    with pytest.raises(DataError, match="no valid frames"):
        preprocess(make_clip(np.zeros((0, 2))))


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
    keypoints = np.concatenate([rng.uniform(0, 320, (130, 2, 17, 1)),
                                rng.uniform(0, 240, (130, 2, 17, 1)),
                                np.full((130, 2, 17, 1), 0.9)], axis=-1)
    once = preprocess(KeypointClip(keypoints, np.ones((130, 2), dtype=bool), (320, 240)))
    twice = preprocess(unit_image_clip(once))
    assert np.array_equal(once.frames, twice.frames)


def test_preprocess_validates_labels_and_rejects_all_invalid():
    with pytest.raises(DataError, match="no valid frames"):
        preprocess(make_clip([[0, 1]]))
    with pytest.raises(ConfigError, match="unknown class label 'Chaos'"):
        preprocess(make_clip([[1, 1]]), label_class="Chaos")
    with pytest.raises(ConfigError, match=r"score 11\.0 outside"):
        preprocess(make_clip([[1, 1]]), label_score=11.0)
    seq = preprocess(make_clip([[1, 1]]), label_class="Sync", label_score=9.0)
    assert seq.label_class == "Sync" and seq.label_score == 9.0


def reference_preprocess(clip, target_f):
    """The per-frame pipeline the array path replaced, kept as an oracle:
    filter a list of frames, resample it, then normalize one person at a time."""
    frames = [clip.keypoints[t] for t in range(len(clip.keypoints)) if clip.detected[t].all()]
    if target_f == 1:
        frames = [frames[0]]
    else:
        positions = np.arange(target_f) * (len(frames) - 1) / (target_f - 1)
        frames = [frames[i] for i in np.rint(positions).astype(int)]
    width, height = clip.image_size
    out = np.empty((len(frames), 2, NUM_JOINTS, 2))
    clamped = 0
    for t, frame in enumerate(frames):
        for p in range(2):
            xy = frame[p, :, :2] / np.array([width, height], dtype=np.float64)
            clamped += int(np.any((xy < 0.0) | (xy > 1.0), axis=1).sum())
            out[t, p] = np.clip(xy, 0.0, 1.0)
    return out, clamped


@st.composite
def clips_and_targets(draw):
    """A random clip with at least one valid frame, and a target length of
    1, below or above its valid frame count."""
    n = draw(st.integers(1, 300))
    size = (draw(st.integers(1, 4000)), draw(st.integers(1, 4000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    detected = rng.random((n, 2)) < draw(st.floats(0.0, 1.0))
    detected[rng.integers(n)] = True
    xy = rng.uniform(-0.5, 1.5, (n, 2, NUM_JOINTS, 2)) * size  # partly outside the image
    edges = rng.random(xy.shape) < 0.1  # and some joints exactly on the border
    xy[edges] = (rng.integers(0, 2, xy.shape) * np.array(size))[edges]
    keypoints = np.concatenate([xy, rng.random((n, 2, NUM_JOINTS, 1))], axis=-1)
    keypoints[~detected] = 0.0
    valid = int(detected.all(axis=1).sum())
    target_f = draw(st.one_of(st.just(1), st.integers(1, valid), st.integers(valid + 1, 400)))
    return KeypointClip(keypoints, detected, size), target_f


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(clips_and_targets())
def test_preprocess_matches_the_per_frame_reference(case):
    clip, target_f = case
    seq = preprocess(clip, target_f)
    frames, clamped = reference_preprocess(clip, target_f)
    assert seq.frames.tobytes() == frames.tobytes()
    assert seq.clamped == clamped


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------


def test_manifest_roundtrip_and_relative_paths(tmp_path):
    clip = write_clip(tmp_path / "a" / "clip.json", [(0, [0, 1]), (1, [0, 1])]) if (tmp_path / "a").mkdir() is None else None
    write_clip(tmp_path / "a" / "other.json", [(0, [0, 1]), (1, [0, 1])])
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps(
            [
                {"path": "a/clip.json", "label_class": "ModSync"},
                {"path": str(tmp_path / "a" / "other.json"), "label_score": 7.5},
            ]
        )
    )
    entries = load_manifest(manifest)
    assert entries[0].path == tmp_path / "a" / "clip.json"
    assert entries[1].path == tmp_path / "a" / "other.json"
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
    with pytest.raises(DataError, match="list"):
        load_manifest(m)
    m.write_text(json.dumps([{"label_class": "Sync"}]))
    with pytest.raises(DataError, match="path"):
        load_manifest(m)
    m.write_text(json.dumps([{"path": "x", "label_class": "Wild"}]))
    with pytest.raises(DataError, match="Wild"):
        load_manifest(m)
    # one stem names every artifact of a clip, so it may appear only once
    m.write_text(json.dumps([{"path": "a/x.json"}, {"path": "y.json"},
                             {"path": str(tmp_path / "a" / "x.json")}]))
    with pytest.raises(DataError, match="entries 0 and 2 share the source id 'x'"):
        load_manifest(m)
    m.write_text(json.dumps([{"path": "x", "label_score": -2}]))
    with pytest.raises(DataError, match="score"):
        load_manifest(m)
    with pytest.raises(DataError):
        load_manifest(tmp_path / "absent.json")


@pytest.mark.parametrize("entry", [{"path": 5}, {"path": "x", "label_score": True},
                                   {"path": "x", "label_score": "7.5"}],
                         ids=["non-string-path", "boolean-score", "string-score"])
def test_manifest_entry_types_name_the_entry(tmp_path, entry):
    m = tmp_path / "m.json"
    m.write_text(json.dumps([{"path": "ok.json"}, entry]))
    with pytest.raises(DataError, match=r"m\.json: entry 1 "):
        load_manifest(m)


def test_empty_manifest_is_refused_by_load_dataset_naming_it(tmp_path):
    m = tmp_path / "m.json"
    m.write_text("[]")
    assert load_manifest(m) == []  # clip-by-clip commands map it to nothing
    with pytest.raises(DataError, match=r"m\.json: manifest lists no clips"):
        pose_io.load_dataset(m)


# ---------------------------------------------------------------------------
# writing datasets
# ---------------------------------------------------------------------------


def test_document_matches_the_per_joint_float_rows(tmp_path):
    # the rows built from one tolist() against one float() per coordinate
    sequences = list(generate_sequences(SynthConfig(f=12, seed=9), 2))
    write_dataset(sequences, tmp_path, IMAGE_SIZE)
    scale = np.array(IMAGE_SIZE, dtype=np.float64)
    for seq in sequences:
        frames = [{"index": t, "persons": [
            {"id": pid, "keypoints": [[float(x), float(y), 1.0]
                                      for x, y in seq.frames[t, pid] * scale]}
            for pid in range(2)]} for t in range(seq.num_frames)]
        want = {"image_size": list(IMAGE_SIZE), "frames": frames}
        got = (tmp_path / f"{seq.source_id}.json").read_text()
        assert got == json.dumps(want, separators=(",", ":"))


def test_written_manifest_omits_missing_labels_and_reads_back(tmp_path):
    frames = np.full((3, 2, NUM_JOINTS, 2), 0.25)
    sequences = [SkeletonSequence(frames, "a", label_class="Sync"),
                 SkeletonSequence(frames, "b", label_score=7.5),
                 SkeletonSequence(frames, "c")]
    manifest = write_dataset(sequences, tmp_path / "out", (1, 1))
    assert manifest == tmp_path / "out" / "manifest.json"
    assert manifest.read_text() == json.dumps([
        {"path": "a.json", "label_class": "Sync"},
        {"path": "b.json", "label_score": 7.5},
        {"path": "c.json"}], indent=2) + "\n"
    loaded = pose_io.load_dataset(manifest, target_f=3)
    assert [(s.source_id, s.label_class, s.label_score) for s in loaded] == [
        ("a", "Sync", None), ("b", None, 7.5), ("c", None, None)]
    assert all(np.array_equal(s.frames, frames) for s in loaded)
