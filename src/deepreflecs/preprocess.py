"""Turn raw object samples into normalized, padded, masked network input.

A sample is one tracked object at one timestamp: its pose, class label,
track id and the list of radar reflections the tracker associated to it.
Each reflection contributes five network features, in this order:

    [x_obj, y_obj, rcs, range, vr]

where (x_obj, y_obj) is the reflection position expressed in the tracked
object's own coordinate system (origin at the object, +x along its
heading). The azimuth angle is carried in the data format but is not a
network feature.

Also provides the track-wise train/val/test split and JSON-lines dataset
I/O.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np

CLASSES = ("car", "pedestrian", "cyclist", "non_obstacle")
CLASS_TO_INDEX = {name: i for i, name in enumerate(CLASSES)}
N_FEATURES = 5
STD_FLOOR = 1e-6
DEFAULT_RANGE_CUTOFF = 75.0
# train/validation/test shares of each class's tracks
SPLIT_RATIOS = (0.6, 0.2, 0.2)


class DatasetError(ValueError):
    """Malformed dataset content (carries a line number when applicable)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class Reflection(NamedTuple):
    """One radar detection, ego-motion compensated; unpacks as a 6-tuple."""

    x: float
    y: float
    rcs: float
    range_m: float
    vr: float
    azimuth: float


def reflection_list(rows: Iterable[Sequence[float]]) -> List[Reflection]:
    """Reflections of (x, y, rcs, range_m, vr, azimuth) rows.

    Builds each with `tuple.__new__`, in C: rows must have six values.
    """
    return list(map(tuple.__new__, repeat(Reflection), rows))


@dataclass(frozen=True)
class ObjectPose:
    x: float
    y: float
    heading: float


@dataclass
class ObjectSample:
    """One tracked object at one timestamp; the unit of classification."""

    track_id: str
    class_label: str
    pose: ObjectPose
    reflections: List[Reflection]

    def __post_init__(self):
        if self.class_label not in CLASS_TO_INDEX:
            raise DatasetError(f"unknown class '{self.class_label}'")
        if len(self.reflections) < 1:
            raise DatasetError("a sample needs at least one reflection")

    @property
    def class_index(self) -> int:
        return CLASS_TO_INDEX[self.class_label]


@dataclass
class NormStats:
    """Per-feature mean and standard deviation (lengths N_FEATURES)."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        if self.mean.shape != self.std.shape:
            raise ValueError("mean and std must have the same length")
        if np.any(self.std <= 0):
            raise ValueError("std components must be positive")

    @classmethod
    def identity(cls, n: int = N_FEATURES) -> "NormStats":
        return cls(np.zeros(n), np.ones(n))

    @classmethod
    def of(cls, rows: np.ndarray) -> "NormStats":
        """Per-column mean and population (1/M) std of rows, the std floored
        at STD_FLOOR so constant columns stay usable."""
        return cls(rows.mean(axis=0), np.maximum(rows.std(axis=0), STD_FLOOR))


@dataclass
class PaddedInput:
    """Fixed-size feature matrix plus validity mask feeding the network."""

    features: np.ndarray  # (pad_length, N_FEATURES)
    mask: np.ndarray      # (pad_length,) bool, True = real reflection
    m_real: int


def reflection_table(sample: ObjectSample) -> np.ndarray:
    """All reflections of one sample as an (M, 6) float64 table.

    Columns: [x_obj, y_obj, rcs, range, vr, azimuth]. (x_obj, y_obj) is the
    world position in the object's coordinate system: subtract the object
    position, then rotate by -heading so the object's heading axis becomes
    +x (length along +x, width along +y). One Python loop takes the
    heading's cos/sin once.
    """
    px, py, heading = sample.pose.x, sample.pose.y, sample.pose.heading
    c = math.cos(heading)
    s = math.sin(heading)
    rows = []
    for x, y, rcs, range_m, vr, azimuth in sample.reflections:
        dx = x - px
        dy = y - py
        rows.append((c * dx + s * dy, -s * dx + c * dy, rcs, range_m, vr, azimuth))
    return np.array(rows, dtype=np.float64)


def sample_feature_rows(sample: ObjectSample) -> np.ndarray:
    """The network features of all reflections of one sample, (M, 5)."""
    return reflection_table(sample)[:, :N_FEATURES]


def compute_norm_stats(samples: Iterable[ObjectSample]) -> NormStats:
    """Per-feature mean/std over all real reflections of the given samples.

    NormStats.of their rows. Compute this on the training split only and
    reuse the result for validation and test.
    """
    rows = [sample_feature_rows(s) for s in samples]
    if not rows:
        raise DatasetError("cannot compute normalization stats from an empty set")
    return NormStats.of(np.concatenate(rows, axis=0))


_overflow_count = 0


def overflow_count() -> int:
    """Number of pad_and_mask calls that had to drop reflections so far."""
    return _overflow_count


def pad_and_mask(
    rows: np.ndarray, pad_length: int, stats: NormStats
) -> PaddedInput:
    """Normalize feature rows and place them in a fixed-size masked buffer.

    Real rows come first, padding rows are zero-filled, the mask is True
    exactly for the first m_real rows. If more rows arrive than fit, the
    pad_length highest-RCS reflections are kept (original order preserved)
    and the overflow counter is bumped.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != N_FEATURES:
        raise DatasetError(f"expected (M, {N_FEATURES}) feature rows, got {rows.shape}")
    if rows.shape[0] < 1:
        raise DatasetError("cannot pad an empty reflection list")

    if rows.shape[0] > pad_length:
        global _overflow_count
        _overflow_count += 1
        order = np.argsort(-rows[:, 2], kind="stable")[:pad_length]
        rows = rows[np.sort(order)]

    m = rows.shape[0]
    features = np.zeros((pad_length, N_FEATURES), dtype=np.float64)
    features[:m] = (rows - stats.mean) / stats.std
    mask = np.zeros(pad_length, dtype=bool)
    mask[:m] = True
    return PaddedInput(features=features, mask=mask, m_real=m)


def prepare_input(
    sample: ObjectSample, pad_length: int, stats: NormStats
) -> PaddedInput:
    """Full per-sample pipeline: feature rows -> normalize -> pad and mask."""
    return pad_and_mask(sample_feature_rows(sample), pad_length, stats)


def trackwise_split(
    samples: Sequence[ObjectSample], seed: int = 0
) -> Tuple[List[ObjectSample], List[ObjectSample], List[ObjectSample]]:
    """Split 60/20/20 at track granularity so no track's samples leak across splits.

    Tracks are shuffled per class with the seed and assigned by cumulative
    track count nearest SPLIT_RATIOS.
    """
    by_class: Dict[str, List[str]] = {c: [] for c in CLASSES}
    samples_by_track: Dict[str, List[ObjectSample]] = {}
    for s in samples:
        if s.track_id not in samples_by_track:
            by_class[s.class_label].append(s.track_id)
            samples_by_track[s.track_id] = []
        samples_by_track[s.track_id].append(s)

    rng = np.random.default_rng(seed)
    assigned: Tuple[List[str], List[str], List[str]] = ([], [], [])
    for label in CLASSES:
        tracks = by_class[label]
        if not tracks:
            continue
        if len(tracks) < 3:
            raise DatasetError(
                f"class '{label}' has only {len(tracks)} tracks; need at least 3"
            )
        tracks = list(tracks)
        rng.shuffle(tracks)
        n = len(tracks)
        b1 = int(n * SPLIT_RATIOS[0] + 0.5)
        b2 = int(n * (SPLIT_RATIOS[0] + SPLIT_RATIOS[1]) + 0.5)
        assigned[0].extend(tracks[:b1])
        assigned[1].extend(tracks[b1:b2])
        assigned[2].extend(tracks[b2:])
    for name, track_ids in zip(("train", "validation", "test"), assigned):
        if not track_ids:
            raise DatasetError(
                f"the {name} split is empty; ratios {SPLIT_RATIOS} leave it no tracks"
            )

    def collect(track_ids: List[str]) -> List[ObjectSample]:
        out: List[ObjectSample] = []
        for tid in track_ids:
            out.extend(samples_by_track[tid])
        return out

    return collect(assigned[0]), collect(assigned[1]), collect(assigned[2])


# a reflection's JSON keys, in Reflection's field order
_REFLECTION_KEYS = ("x", "y", "rcs", "range", "vr", "azimuth")
# the types json.loads gives a number; a bool is neither
_NUMBER_TYPES = frozenset((float, int))


def _sample_to_record(sample: ObjectSample) -> dict:
    return {
        "track_id": sample.track_id,
        "class": sample.class_label,
        "pose": {
            "x": sample.pose.x,
            "y": sample.pose.y,
            "heading": sample.pose.heading,
        },
        "reflections": [
            {"x": x, "y": y, "rcs": rcs, "range": range_m, "vr": vr, "azimuth": azimuth}
            for x, y, rcs, range_m, vr, azimuth in sample.reflections
        ],
    }


def _number_fault(record: dict) -> str:
    """Names the first number field of a record that holds something else."""
    fields = [(f"pose.{key}", record["pose"][key]) for key in ("x", "y", "heading")]
    for i, r in enumerate(record["reflections"]):
        fields += [(f"reflections[{i}].{key}", r[key]) for key in _REFLECTION_KEYS]
    name, value = next((n, v) for n, v in fields if type(v) not in _NUMBER_TYPES)
    return f"field '{name}' must be a number, not {type(value).__name__}"


def _record_to_sample(record: dict, line: int) -> ObjectSample:
    """One parsed line as a sample; a field of the wrong JSON type is a DatasetError.

    Strings must be strings and numbers JSON numbers (integers load as
    floats): no value is coerced.
    """
    try:
        track_id, class_label, pose = record["track_id"], record["class"], record["pose"]
        numbers = [pose["x"], pose["y"], pose["heading"]]
        for r in record["reflections"]:
            numbers += (r["x"], r["y"], r["rcs"], r["range"], r["vr"], r["azimuth"])
    except KeyError as exc:
        raise DatasetError(f"missing field {exc}", line) from exc
    except TypeError as exc:  # a list, string or number where an object goes
        raise DatasetError(f"bad value: {exc}", line) from exc
    for name, value in (("track_id", track_id), ("class", class_label)):
        if type(value) is not str:
            raise DatasetError(f"field '{name}' must be a string, not {type(value).__name__}", line)
    types = set(map(type, numbers))
    if types != {float}:
        if not types <= _NUMBER_TYPES:
            raise DatasetError(_number_fault(record), line)
        try:
            numbers = list(map(float, numbers))
        except OverflowError as exc:  # float(10**400)
            raise DatasetError(f"bad value: {exc}", line) from exc
    if not all(map(math.isfinite, numbers)):
        raise DatasetError("non-finite value", line)
    ranges = numbers[6::6]
    if min(ranges, default=0.0) < 0:
        raise DatasetError(f"negative range {next(v for v in ranges if v < 0)}", line)
    rest = iter(numbers[3:])
    # zip pulls six values at a time from one iterator: one row per reflection
    reflections = reflection_list(zip(rest, rest, rest, rest, rest, rest))
    try:
        return ObjectSample(track_id, class_label, ObjectPose(*numbers[:3]), reflections)
    except DatasetError as exc:  # an unknown class or no reflections
        raise DatasetError(str(exc), line) from exc


def write_dataset(samples: Iterable[ObjectSample], path: str) -> None:
    """Write one JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for sample in samples:
            fh.write(json.dumps(_sample_to_record(sample)))
            fh.write("\n")


def read_dataset(
    path: str, range_cutoff: float | None = DEFAULT_RANGE_CUTOFF
) -> List[ObjectSample]:
    """Read a JSON-lines dataset, validating every line.

    Samples whose object range is at or beyond range_cutoff are dropped
    (pass None to keep everything). Parse problems raise DatasetError
    with the offending line number.
    """
    samples: List[ObjectSample] = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                record = json.loads(line)
            except (ValueError, RecursionError) as exc:  # bad UTF-8, a huge integer, deep nesting
                raise DatasetError(f"invalid JSON: {exc}", lineno) from exc
            sample = _record_to_sample(record, lineno)
            if range_cutoff is not None:
                if math.hypot(sample.pose.x, sample.pose.y) >= range_cutoff:
                    continue
            samples.append(sample)
    return samples
