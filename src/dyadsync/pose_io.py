"""Loading and preprocessing of dyadic 2D keypoint sequences.

A recording arrives as one JSON document per clip holding per-frame
keypoints for up to two people (COCO-17 joint order).  The pipeline is:

    load_keypoint_file -> filter_valid_frames -> resample_uniform
        -> normalize_coords

which yields a :class:`SkeletonSequence`: an ``(f, 2, J, 2)`` float64
array of [0,1]-normalized coordinates, 81 frames by default, ready for
the attention model and the similarity computations.  Frames where
either person is undetected are discarded; out-of-frame joints are
clamped into the image and tallied.  A non-finite coordinate or a
confidence outside [0, 1] is refused at parse time.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import AmbiguityError, DataError, ParameterError, ParseError

logger = logging.getLogger(__name__)

NUM_JOINTS = 17
TARGET_FRAMES = 81
CLASS_NAMES = ("Sync", "ModSync", "Unsync")
SCORE_RANGE = (0.0, 10.0)


@dataclass(frozen=True)
class PersonPose:
    """One person's joints in a frame: (J, 3) array of x, y, confidence."""

    joints: np.ndarray
    detected: bool

    @staticmethod
    def undetected() -> "PersonPose":
        return PersonPose(np.zeros((NUM_JOINTS, 3)), False)


@dataclass(frozen=True)
class DyadicFrame:
    person_a: PersonPose
    person_b: PersonPose
    frame_index: int
    image_size: tuple  # (width, height) in pixels

    @property
    def valid(self) -> bool:
        return self.person_a.detected and self.person_b.detected


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
_FLOAT_MAX = np.finfo(np.float64).max
_KEYPOINT_LOW = np.array([-_FLOAT_MAX, -_FLOAT_MAX, 0.0])
_KEYPOINT_HIGH = np.array([_FLOAT_MAX, _FLOAT_MAX, 1.0])


def _parse_person(entry, where: str) -> tuple:
    try:
        pid = entry["id"]
        kp = entry["keypoints"]
    except (TypeError, KeyError) as exc:
        raise ParseError(f"{where}: person record missing {exc}") from None
    if pid not in (0, 1):
        raise ParseError(f"{where}: person id must be 0 or 1, got {pid!r}")
    try:
        joints = np.asarray(kp, dtype=np.float64)
    except (TypeError, ValueError):
        raise ParseError(f"{where}: keypoints are not a numeric array") from None
    if joints.shape != (NUM_JOINTS, 3):
        raise ParseError(
            f"{where}: expected {NUM_JOINTS}x3 keypoints, got shape {joints.shape}"
        )
    if not ((joints >= _KEYPOINT_LOW) & (joints <= _KEYPOINT_HIGH)).all():
        raise ParseError(f"{where}: non-finite coordinate or confidence outside [0, 1]")
    return pid, PersonPose(joints, True)


def load_keypoint_file(path) -> list:
    """Parse one clip's keypoint JSON into DyadicFrames, sorted by index.

    Persons are assigned by their ``id`` field (0 -> person_a,
    1 -> person_b); a missing person becomes an undetected placeholder.
    More than two persons in a frame is refused outright — selecting the
    dyad out of a crowd is the tracker's job, not ours.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"keypoint file not found: {path}")
    text = path.read_text()
    if not text.strip():
        return []
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict) or "frames" not in doc:
        raise ParseError(f"{path}: expected an object with a 'frames' list")
    try:
        width, height = doc["image_size"]
        image_size = (int(width), int(height))
    except (KeyError, TypeError, ValueError):
        raise ParseError(f"{path}: missing or malformed 'image_size'") from None

    frames = []
    for record in doc["frames"]:
        try:
            frame_index = int(record["index"])
            persons = record["persons"]
        except (TypeError, KeyError, ValueError):
            raise ParseError(f"{path}: malformed frame record {record!r}") from None
        where = f"{path}: frame {frame_index}"
        if len(persons) > 2:
            raise AmbiguityError(
                f"{where}: {len(persons)} persons present; dyad selection is upstream"
            )
        poses = {}
        for entry in persons:
            pid, pose = _parse_person(entry, where)
            if pid in poses:
                raise ParseError(f"{where}: duplicate person id {pid}")
            poses[pid] = pose
        frames.append(
            DyadicFrame(
                person_a=poses.get(0, PersonPose.undetected()),
                person_b=poses.get(1, PersonPose.undetected()),
                frame_index=frame_index,
                image_size=image_size,
            )
        )
    frames.sort(key=lambda f: f.frame_index)
    return frames


def filter_valid_frames(frames: list) -> list:
    """Keep only frames where both persons are detected, order preserved."""
    return [f for f in frames if f.valid]


def resample_uniform(frames: list, target_f: int = TARGET_FRAMES) -> list:
    """Select ``target_f`` frames at uniformly spaced (rounded) indices.

    Index i of the output maps to source index round(i*(n-1)/(target_f-1)),
    endpoints included; shorter inputs are upsampled by duplication.
    Rounding is round-half-to-even, matching numpy.
    """
    if target_f < 1:
        raise ParameterError(f"target_f must be >= 1, got {target_f}")
    if not frames:
        raise DataError("no valid frames to resample")
    n = len(frames)
    if target_f == 1:
        return [frames[0]]
    positions = np.arange(target_f) * (n - 1) / (target_f - 1)
    indices = np.rint(positions).astype(int)
    return [frames[i] for i in indices]


def normalize_coords(
    frames: list,
    source_id: str = "",
    label_class: Optional[str] = None,
    label_score: Optional[float] = None,
) -> SkeletonSequence:
    """Divide pixel coordinates by image width/height into [0, 1].

    Joints outside the image are clamped to the border; each such joint
    bumps the sequence's ``clamped`` tally (and triggers one summary log
    line).  Frames must already be filtered: an undetected person here
    means the caller skipped :func:`filter_valid_frames`.
    """
    if not frames:
        raise DataError("no frames to normalize")
    out = np.empty((len(frames), 2, NUM_JOINTS, 2))
    clamped = 0
    for t, frame in enumerate(frames):
        width, height = frame.image_size
        if width <= 0 or height <= 0:
            raise DataError(f"frame {frame.frame_index}: non-positive image size {frame.image_size}")
        for p, pose in enumerate((frame.person_a, frame.person_b)):
            if not pose.detected:
                raise DataError(
                    f"frame {frame.frame_index}: undetected person {p}; filter frames first"
                )
            xy = pose.joints[:, :2] / np.array([width, height], dtype=np.float64)
            outside = np.any((xy < 0.0) | (xy > 1.0), axis=1)
            clamped += int(outside.sum())
            out[t, p] = np.clip(xy, 0.0, 1.0)
    if clamped:
        logger.warning("%s: clamped %d out-of-frame joints", source_id or "<sequence>", clamped)
    return SkeletonSequence(
        frames=out,
        source_id=source_id,
        label_class=label_class,
        label_score=label_score,
        clamped=clamped,
    )


def preprocess(
    frames: list,
    target_f: int = TARGET_FRAMES,
    source_id: str = "",
    label_class: Optional[str] = None,
    label_score: Optional[float] = None,
) -> SkeletonSequence:
    """filter -> resample -> normalize, the full ingest pipeline."""
    if label_class is not None and label_class not in CLASS_NAMES:
        raise ParameterError(f"unknown class label {label_class!r}; expected one of {CLASS_NAMES}")
    if label_score is not None and not SCORE_RANGE[0] <= label_score <= SCORE_RANGE[1]:
        raise ParameterError(f"score {label_score} outside {SCORE_RANGE}")
    valid = filter_valid_frames(frames)
    if not valid:
        raise DataError("no valid frames")
    sampled = resample_uniform(valid, target_f)
    return normalize_coords(
        sampled, source_id=source_id, label_class=label_class, label_score=label_score
    )


def frames_from_sequence(seq: SkeletonSequence) -> list:
    """Adapter: re-wrap a normalized sequence as unit-image DyadicFrames.

    With image_size (1, 1) the normalization step divides by one, so
    running :func:`preprocess` over the result reproduces ``seq.frames``
    bit for bit (pipeline idempotence).
    """
    frames = []
    for t in range(seq.num_frames):
        joints_a = np.concatenate([seq.frames[t, 0], np.ones((NUM_JOINTS, 1))], axis=1)
        joints_b = np.concatenate([seq.frames[t, 1], np.ones((NUM_JOINTS, 1))], axis=1)
        frames.append(
            DyadicFrame(
                person_a=PersonPose(joints_a, True),
                person_b=PersonPose(joints_b, True),
                frame_index=t,
                image_size=(1, 1),
            )
        )
    return frames


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
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"manifest not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, list):
        raise ParseError(f"{path}: manifest must be a JSON list")
    entries = []
    for i, rec in enumerate(doc):
        if not isinstance(rec, dict) or "path" not in rec:
            raise ParseError(f"{path}: entry {i} must be an object with a 'path'")
        cls = rec.get("label_class")
        if cls is not None and cls not in CLASS_NAMES:
            raise ParseError(f"{path}: entry {i} has unknown class {cls!r}")
        score = rec.get("label_score")
        if score is not None:
            score = float(score)
            if not SCORE_RANGE[0] <= score <= SCORE_RANGE[1]:
                raise ParseError(f"{path}: entry {i} score {score} outside {SCORE_RANGE}")
        entry_path = Path(rec["path"])
        if not entry_path.is_absolute():
            entry_path = path.parent / entry_path
        entries.append(ManifestEntry(entry_path, cls, score))
    return entries


def load_dataset(manifest_path, target_f: int = TARGET_FRAMES) -> list:
    """Load and preprocess every clip referenced by a manifest."""
    sequences = []
    for entry in load_manifest(manifest_path):
        frames = load_keypoint_file(entry.path)
        sequences.append(
            preprocess(
                frames,
                target_f=target_f,
                source_id=entry.path.stem,
                label_class=entry.label_class,
                label_score=entry.label_score,
            )
        )
    return sequences
