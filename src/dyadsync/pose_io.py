"""Reading, preprocessing and writing of dyadic 2D keypoint sequences.

A recording arrives as one JSON document per clip holding per-frame
keypoints for up to two people (COCO-17 joint order).  The pipeline is:

    load_keypoint_file -> preprocess (filter -> resample -> normalize)

:func:`load_keypoint_file` parses a clip into a :class:`KeypointClip`,
one ``(n, 2, J, 3)`` array of pixel x, y and confidence with an
``(n, 2)`` detection mask.  :func:`preprocess` turns that into a
:class:`SkeletonSequence`: an ``(f, 2, J, 2)`` float64 array of
[0,1]-normalized coordinates, 81 frames by default, ready for the
attention model and the similarity computations.  Frames where either
person is undetected are discarded; out-of-frame joints are clamped into
the image and tallied.  A non-finite coordinate or a confidence outside
[0, 1] is refused at parse time, as is a person id other than the JSON
integers 0 and 1 or a keypoint value that is not a JSON number.  One pass
over the records checks their structure and one batched check their
keypoints; a per-person check only words the first faulty record.

:func:`load_dataset` reads a manifest and its clips, and its inverse
:func:`write_dataset` writes them: this module alone knows the layout.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError, output_dir, read_input

logger = logging.getLogger(__name__)

NUM_JOINTS = 17
TARGET_FRAMES = 81
CLASS_NAMES = ("Sync", "ModSync", "Unsync")
SCORE_RANGE = (0.0, 10.0)
# a score >= BETA is Sync, >= ALPHA ModSync, anything lower Unsync
ALPHA = 7.16
BETA = 8.36


@dataclass(frozen=True)
class KeypointClip:
    """One parsed clip, frames sorted by index.

    ``keypoints`` is (n, 2, J, 3): x and y in pixels and a confidence, per
    frame and person (0 = a, 1 = b).  A person missing from a frame stays
    zeros there and is False in the (n, 2) ``detected`` mask.
    """

    keypoints: np.ndarray
    detected: np.ndarray
    image_size: Optional[tuple]  # (width, height) in pixels; None for an empty file


@dataclass
class SkeletonSequence:
    """Model-ready clip: frames is (f, 2, J, 2), coordinates in [0, 1]."""

    frames: np.ndarray
    source_id: str = ""
    label_class: Optional[str] = None
    label_score: Optional[float] = None
    clamped: int = 0  # joints that landed outside the image and were clamped

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    def person(self, which: int) -> np.ndarray:
        """(f, J, 2) track of person 0 (a) or 1 (b)."""
        return self.frames[:, which]


# per-column bounds of a keypoint row: finite x and y, confidence in [0, 1];
# NaN fails every comparison, so one test also rejects non-finite values
_FLOAT_MAX = float(np.finfo(np.float64).max)  # a Python float compares with any int, never overflows
_KEYPOINT_LOW = np.array([-_FLOAT_MAX, -_FLOAT_MAX, 0.0])
_KEYPOINT_HIGH = np.array([_FLOAT_MAX, _FLOAT_MAX, 1.0])


def _check_keypoints(kp, where: str) -> np.ndarray:
    """One person's keypoints as a (J, 3) float64 array, or the DataError that words its fault."""
    try:
        joints = np.asarray(kp, dtype=np.float64)
    except (TypeError, ValueError):
        raise DataError(f"{where}: keypoints are not a numeric array") from None
    except OverflowError:  # a JSON integer beyond the float64 range
        raise DataError(f"{where}: non-finite coordinate or confidence outside [0, 1]") from None
    if joints.shape != (NUM_JOINTS, 3):
        raise DataError(f"{where}: expected {NUM_JOINTS}x3 keypoints, got shape {joints.shape}")
    for value in (v for row in kp for v in row):  # np.asarray took "1.5", true and null
        if type(value) not in (int, float):
            raise DataError(f"{where}: keypoint value {json.dumps(value)} is not a number")
    if not ((joints >= _KEYPOINT_LOW) & (joints <= _KEYPOINT_HIGH)).all():
        raise DataError(f"{where}: non-finite coordinate or confidence outside [0, 1]")
    return joints


def _check_each(path, indices: list, cells: list, lists: list) -> np.ndarray:
    """:func:`_check_keypoints` over the gathered persons in file order; their (k, J, 3) rows."""
    joints = [_check_keypoints(kp, f"{path}: frame {indices[cell // 2]}")
              for cell, kp in zip(cells, lists)]
    return np.array(joints).reshape(-1, NUM_JOINTS, 3)


def _read_records(records, path):
    """Check the structure of every frame and person record in one pass.

    Returns the frame indices, each person's cell among the (n * 2) rows
    of the clip's keypoints and each person's unchecked keypoint list.  A
    structural fault is raised only once the keypoints of every person
    before it are checked, so the error names the first faulty record.
    """
    indices, cells, lists = [], [], []
    try:
        for t, record in enumerate(records):
            try:
                frame_index, persons = record["index"], record["persons"]
            except (TypeError, KeyError):
                raise DataError(f"{path}: malformed frame record {record!r}") from None
            if type(persons) is not list:
                raise DataError(f"{path}: malformed frame record {record!r}")
            if type(frame_index) is not int:  # JSON integers only: no bool, float or string
                raise DataError(f"{path}: frame index {frame_index!r} is not an integer")
            if len(persons) > 2:
                raise DataError(f"{path}: frame {frame_index}: {len(persons)} persons "
                                "present; dyad selection is upstream")
            indices.append(frame_index)
            for entry in persons:
                try:
                    pid, kp = entry["id"], entry["keypoints"]
                except (TypeError, KeyError) as exc:
                    raise DataError(f"{path}: frame {frame_index}: person record "
                                    f"missing {exc}") from None
                # JSON integers only: no bool or float
                if type(pid) is not int or pid not in (0, 1):
                    raise DataError(f"{path}: frame {frame_index}: person id must be "
                                    f"the JSON integer 0 or 1, got {pid!r}")
                cells.append(2 * t + pid)
                lists.append(kp)
            # a record holds at most two persons, so a repeat is of its previous cell
            if len(persons) == 2 and cells[-1] == cells[-2]:
                raise DataError(f"{path}: frame {frame_index}: duplicate person id {pid}")
    except DataError as exc:
        fault = exc
    else:
        return indices, cells, lists
    _check_each(path, indices, cells, lists)  # a keypoint fault before it comes first
    raise fault


def _batched_keypoints(lists: list) -> Optional[np.ndarray]:
    """Every person's keypoints with one conversion and one bounds check, or
    None when any is faulty; it cannot tell a JSON true or false from 1 or 0."""
    try:
        joints = np.array(lists)  # str dtype for a string, object for an int beyond int64
    except (TypeError, ValueError, OverflowError):
        return None
    if joints.dtype.kind not in "fi" or joints.shape != (len(lists), NUM_JOINTS, 3):
        return None
    joints = joints.astype(np.float64, copy=False)
    if not ((joints >= _KEYPOINT_LOW) & (joints <= _KEYPOINT_HIGH)).all():
        return None
    return joints


def load_keypoint_file(path) -> KeypointClip:
    """Parse one clip's keypoint JSON into a KeypointClip, sorted by index.

    Persons are placed by their ``id`` field (0 -> person a, 1 -> person
    b); a missing person stays zeros and undetected.  More than two
    persons in a frame is refused outright — selecting the dyad out of a
    crowd is the tracker's job, not ours.  An empty file is a clip of no
    frames.  Frame indices and both ``image_size`` entries must be JSON
    integers, person ids the JSON integers 0 and 1, and keypoint values
    JSON numbers.
    """
    path = Path(path)
    text = read_input(path, "keypoint file")
    if not text.strip():
        return KeypointClip(np.zeros((0, 2, NUM_JOINTS, 3)), np.zeros((0, 2), dtype=bool), None)
    try:
        doc = json.loads(text)
    except ValueError as exc:  # bad JSON, or an integer beyond the digit limit
        raise DataError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("frames"), list):
        raise DataError(f"{path}: expected an object with a 'frames' list")
    size = doc.get("image_size")
    if type(size) is not list or len(size) != 2 or any(type(v) is not int for v in size):
        raise DataError(f"{path}: missing or malformed 'image_size' {size!r}; "
                        "expected two JSON integers")
    image_size = tuple(size)
    if min(image_size) <= 0:
        raise DataError(f"{path}: non-positive image_size {image_size}")
    if max(image_size) > _FLOAT_MAX:
        raise DataError(f"{path}: 'image_size' entry beyond the float64 range")

    records = doc["frames"]
    indices, cells, lists = _read_records(records, path)
    # each of true, false and null spells a "u" or an "l", which no number
    # and no key of a clip does; the per-person check words such a value
    joints = None if "u" in text or "l" in text else _batched_keypoints(lists)
    if joints is None:
        joints = _check_each(path, indices, cells, lists)
    keypoints = np.zeros((len(records), 2, NUM_JOINTS, 3))
    detected = np.zeros((len(records), 2), dtype=bool)
    keypoints.reshape(-1, NUM_JOINTS, 3)[cells] = joints
    detected.reshape(-1)[cells] = True
    order = np.argsort(indices, kind="stable")
    return KeypointClip(keypoints[order], detected[order], image_size)


def resample_indices(n: int, target_f: int) -> np.ndarray:
    """Source frame of each of ``target_f`` uniformly spaced output frames.

    Output i maps to source index round(i*(n-1)/(target_f-1)), endpoints
    included; shorter inputs are upsampled by duplication.  Rounding is
    round-half-to-even, matching numpy.
    """
    if target_f < 1:
        raise ConfigError(f"target_f must be >= 1, got {target_f}")
    if n < 1:
        raise DataError("no valid frames to resample")
    if target_f == 1:
        return np.zeros(1, dtype=int)
    return np.rint(np.arange(target_f) * (n - 1) / (target_f - 1)).astype(int)


def preprocess(
    clip: KeypointClip,
    target_f: int = TARGET_FRAMES,
    source_id: str = "",
    label_class: Optional[str] = None,
    label_score: Optional[float] = None,
) -> SkeletonSequence:
    """filter -> resample -> normalize, the full ingest pipeline.

    Keeps the frames where both persons are detected, takes ``target_f``
    of them at :func:`resample_indices` and divides x and y by the image
    width and height.  Joints outside the image are clamped to the
    border; each such joint of each output frame bumps the sequence's
    ``clamped`` tally (and triggers one summary log line).
    """
    if label_class is not None and label_class not in CLASS_NAMES:
        raise ConfigError(f"unknown class label {label_class!r}; expected one of {CLASS_NAMES}")
    if label_score is not None and not SCORE_RANGE[0] <= label_score <= SCORE_RANGE[1]:
        raise ConfigError(f"score {label_score} outside {SCORE_RANGE}")
    valid = clip.keypoints[clip.detected.all(axis=1)]
    if not len(valid):
        raise DataError("no valid frames")
    if min(clip.image_size) <= 0:
        raise DataError(f"non-positive image size {clip.image_size}")
    sampled = valid[resample_indices(len(valid), target_f), :, :, :2]
    xy = sampled / np.array(clip.image_size, dtype=np.float64)
    clamped = int(((xy < 0.0) | (xy > 1.0)).any(axis=-1).sum())
    if clamped:
        logger.warning("%s: clamped %d out-of-frame joints", source_id or "<sequence>", clamped)
    return SkeletonSequence(
        frames=np.clip(xy, 0.0, 1.0),
        source_id=source_id,
        label_class=label_class,
        label_score=label_score,
        clamped=clamped,
    )


# ---------------------------------------------------------------------------
# dataset manifests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ManifestEntry:
    path: Path
    label_class: Optional[str] = None
    label_score: Optional[float] = None


def load_manifest(path) -> list:
    """Read a dataset manifest: JSON list of {"path", "label_class"|"label_score"}.

    Relative entry paths are resolved against the manifest's directory.
    Two entries may not share a file stem: it is the source id that names
    every artifact and prediction row of the clip.
    """
    path = Path(path)
    try:
        doc = json.loads(read_input(path, "manifest"))
    except ValueError as exc:  # bad JSON, or an integer beyond the digit limit
        raise DataError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, list):
        raise DataError(f"{path}: manifest must be a JSON list")
    entries = []
    first_of: dict = {}  # source id -> index of the entry that claimed it
    for i, rec in enumerate(doc):
        if not isinstance(rec, dict) or "path" not in rec:
            raise DataError(f"{path}: entry {i} must be an object with a 'path'")
        if not isinstance(rec["path"], str):
            raise DataError(f"{path}: entry {i} path {rec['path']!r} is not a string")
        cls = rec.get("label_class")
        if cls is not None and cls not in CLASS_NAMES:
            raise DataError(f"{path}: entry {i} has unknown class {cls!r}")
        score = rec.get("label_score")
        if score is not None:
            if type(score) not in (int, float):  # JSON numbers only: no bool, no string
                raise DataError(f"{path}: entry {i} score {score!r} is not a number")
            if not SCORE_RANGE[0] <= score <= SCORE_RANGE[1]:
                raise DataError(f"{path}: entry {i} score {score} outside {SCORE_RANGE}")
            score = float(score)
        entry_path = Path(rec["path"])
        if not entry_path.is_absolute():
            entry_path = path.parent / entry_path
        first = first_of.setdefault(entry_path.stem, i)
        if first != i:
            raise DataError(f"{path}: entries {first} and {i} share the source id "
                             f"{entry_path.stem!r}")
        entries.append(ManifestEntry(entry_path, cls, score))
    return entries


def load_entry(entry: ManifestEntry, target_f: int = TARGET_FRAMES) -> SkeletonSequence:
    """Load and preprocess one manifest clip; a data error names its file."""
    clip = load_keypoint_file(entry.path)
    try:
        return preprocess(clip, target_f, source_id=entry.path.stem,
                          label_class=entry.label_class, label_score=entry.label_score)
    except DataError as exc:
        raise DataError(f"{entry.path}: {exc}") from None


def load_dataset(manifest_path, target_f: int = TARGET_FRAMES) -> list:
    """Load and preprocess every clip referenced by a manifest; a manifest
    that lists no clip is a DataError naming it."""
    entries = load_manifest(manifest_path)
    if not entries:
        raise DataError(f"{manifest_path}: manifest lists no clips")
    return [load_entry(entry, target_f) for entry in entries]


def write_dataset(sequences, out_dir, image_size) -> Path:
    """Write each sequence as a clip plus one manifest; returns the manifest path.

    The inverse of :func:`load_dataset`: a clip, named by its source id,
    holds the frames scaled to ``image_size`` = (width, height) pixels with
    a confidence of 1.0 per joint; a manifest entry omits a missing label.
    """
    out_dir = output_dir(out_dir)
    scale = np.array(image_size, dtype=np.float64)
    entries = []
    for seq in sequences:
        pixels = seq.frames * scale
        rows = np.concatenate([pixels, np.ones(pixels.shape[:-1] + (1,))], axis=-1).tolist()
        frames = [{"index": t, "persons": [{"id": pid, "keypoints": rows[t][pid]}
                                           for pid in range(2)]}
                  for t in range(seq.num_frames)]
        doc = {"image_size": list(image_size), "frames": frames}
        name = f"{seq.source_id}.json"
        (out_dir / name).write_text(json.dumps(doc, separators=(",", ":")))
        entry = {"path": name, "label_class": seq.label_class, "label_score": seq.label_score}
        entries.append({key: value for key, value in entry.items() if value is not None})
    manifest = out_dir / "manifest.json"
    manifest.write_text(json.dumps(entries, indent=2) + "\n")
    return manifest
