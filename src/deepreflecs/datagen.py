"""Seeded synthetic radar tracks for the four road-object classes.

The real dataset this substitutes for is not public, so the generator
produces class-distinguishable approach scenarios instead: the sensor
sits at the world origin, each track is one object the host approaches,
and every sample along the approach gets a reflection list sampled from
class-specific geometry.

All extents, RCS levels and spreads below are calibrated plumbing, chosen
so that cars are big, strong reflectors; non-obstacles are tiny, weak and
velocity-silent; and pedestrians and cyclists are small, weak, moving
targets that share the same RCS and radial-velocity marginals and are
separated only by spatial extent/aspect and by joint per-reflection
Doppler structure (swinging limbs vs wheel signature). The numbers are
configuration, not physical truth.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Annotated, Dict, List, Literal, Tuple

import numpy as np

from . import schema
from .preprocess import CLASSES, ObjectPose, ObjectSample, reflection_list
from .schema import ClassName, Range

Span = Annotated[Tuple[float, float], Range(0)]  # an ordered (low, high) pair, both >= 0

# upper bounds of the size fields: each keeps the largest array its field
# drives under 1 GiB, with the other settings at their defaults (README)
MAX_TRACKS_PER_CLASS = 10_000
MAX_SAMPLES_PER_TRACK = 1_000
MAX_REFLECTIONS = 1_024
# together they must keep the generated dataset under 1 GiB at its worst case. tracemalloc
# on 20,000 generated samples gives about 340 B per sample plus 280 B per reflection
SAMPLE_BYTES = 400
REFLECTION_BYTES = 300
MAX_DATASET_BYTES = 2**30


@dataclass(frozen=True)
class ClassProfile:
    """Geometry and signal statistics for one object class.

    Movers draw a per-track radial-velocity scale from vr_sigma_range and
    spread it over the reflections per vr_pattern: "random" is iid noise,
    "limbs" makes every reflection Doppler-active (|vr| near the scale,
    random sign, like swinging limbs), "wheels" grades vr with the
    object-frame x-position (Doppler-quiet center, hot ends; vr_corr sets
    the coupling). The marginal vr distribution is the same for every
    mover with the same sigma range, so only the joint per-reflection
    structure tells movers apart.
    """

    shape: Literal["rectangle", "cluster", "ellipse"]
    length_range: Span               # object-frame x extent, meters
    width_range: Span                # object-frame y extent, meters
    reflections_range: Annotated[Tuple[int, int], Range(1, MAX_REFLECTIONS)]
    rcs_mean: float                  # dBsm
    rcs_spread: Annotated[float, Range(0)]
    mover: bool                      # tangentially moving target
    vr_sigma_range: Span = (0.0, 0.0)  # movers only
    vr_pattern: Literal["random", "limbs", "wheels"] = "random"
    vr_corr: Annotated[float, Range(0, 1)] = 0.0  # wheels pattern: x-coupling
    vr_limb_range: Span = (0.4, 1.35)  # limbs: |vr|/sigma band
    vr_noise: Annotated[float, Range(0)] = 0.0  # stationary targets: gaussian vr noise

    def __post_init__(self):
        schema.check(self)


POSITION_NOISE = 0.05  # meters, measurement jitter on reflection positions

DEFAULT_PROFILES: Dict[str, ClassProfile] = {
    "car": ClassProfile(
        shape="rectangle",
        length_range=(4.2, 4.8),
        width_range=(1.7, 1.9),
        reflections_range=(8, 30),
        rcs_mean=10.0,
        rcs_spread=3.0,
        mover=False,
        vr_noise=0.04,
    ),
    "pedestrian": ClassProfile(
        shape="cluster",
        length_range=(0.35, 0.95),
        width_range=(0.35, 0.95),
        reflections_range=(1, 6),
        rcs_mean=-4.0,
        rcs_spread=2.5,
        mover=True,
        vr_sigma_range=(0.25, 0.9),
        vr_pattern="limbs",
        vr_limb_range=(0.5, 1.3),
    ),
    "cyclist": ClassProfile(
        shape="ellipse",
        length_range=(1.0, 2.1),
        width_range=(0.4, 0.85),
        reflections_range=(2, 10),
        rcs_mean=-4.0,
        rcs_spread=2.5,
        mover=True,
        vr_sigma_range=(0.25, 0.9),
        vr_pattern="wheels",
        vr_corr=0.75,
    ),
    "non_obstacle": ClassProfile(
        shape="cluster",
        length_range=(0.2, 0.4),
        width_range=(0.1, 0.2),
        reflections_range=(1, 3),
        rcs_mean=-12.0,
        rcs_spread=2.5,
        mover=False,
    ),
}

# Track counts mirroring the experiment dataset's class balance at a tenth
# of the size: car/pedestrian/cyclist/non_obstacle.
DESK_TRACKS = {"car": 57, "pedestrian": 34, "cyclist": 27, "non_obstacle": 70}


@dataclass(frozen=True)
class GenSpec:
    """What to generate: how many tracks per class, approach geometry, seed."""

    tracks_per_class: Annotated[Dict[ClassName, int], Range(0, MAX_TRACKS_PER_CLASS)] = field(
        default_factory=lambda: dict(DESK_TRACKS)
    )
    samples_per_track: Annotated[Tuple[int, int], Range(1, MAX_SAMPLES_PER_TRACK)] = (5, 10)
    start_range: float = 70.0
    stop_range: Annotated[float, Range(0)] = 5.0
    seed: Annotated[int, Range(0)] = 0
    profiles: Dict[ClassName, ClassProfile] = field(
        default_factory=lambda: dict(DEFAULT_PROFILES)
    )

    def __post_init__(self):
        schema.check(self)
        if not any(self.tracks_per_class.values()):
            raise schema.ConfigError("tracks_per_class must give some class a track")
        if not self.start_range > self.stop_range:
            raise schema.ConfigError("need start_range > stop_range")
        samples = {c: n * self.samples_per_track[1] for c, n in self.tracks_per_class.items() if n}
        unprofiled = sorted(set(samples) - set(self.profiles))
        if unprofiled:
            raise schema.ConfigError(f"tracks_per_class: no profile for {unprofiled}")
        reflections = sum(n * self.profiles[c].reflections_range[1] for c, n in samples.items())
        worst = SAMPLE_BYTES * sum(samples.values()) + REFLECTION_BYTES * reflections
        if worst > MAX_DATASET_BYTES:
            raise schema.ConfigError(
                f"tracks_per_class, samples_per_track and reflections_range allow up to "
                f"{sum(samples.values()):,} samples of {reflections:,} reflections, about "
                f"{worst / 2**30:.2f} GiB; the limit is {MAX_DATASET_BYTES / 2**30:g} GiB"
            )


def desk_genspec(seed: int = 0) -> GenSpec:
    """The default desk-scale generation spec (~190 tracks)."""
    return GenSpec(seed=seed)


def _track_rng(seed: int, track_id: str) -> np.random.Generator:
    digest = hashlib.blake2s(track_id.encode("utf-8"), digest_size=8).digest()
    return np.random.default_rng([seed, int.from_bytes(digest, "little")])


def _object_points(
    rng: np.random.Generator, profile: ClassProfile, n: int, length: float, width: float
) -> np.ndarray:
    """Sample n object-frame reflection positions on the class geometry."""
    half_l, half_w = length / 2.0, width / 2.0
    pts = np.empty((n, 2))
    if profile.shape == "rectangle":
        # bumpers reflect reliably: the first two points sit at the x extremes
        ends = min(n, 2)
        pts[:ends, 0] = (-half_l, half_l)[:ends]
        pts[:ends, 1] = rng.uniform(-half_w, half_w, size=ends)
        # the rest lie at a perimeter distance t: right side, front, left side, rear
        # (at these sizes a Python branch per point beats numpy's selects)
        rows = []
        for t in rng.uniform(0.0, 2.0 * (length + width), size=n - ends).tolist():
            if t < length:
                rows.append((t - half_l, -half_w))
            elif t < length + width:
                rows.append((half_l, t - length - half_w))
            elif t < 2 * length + width:
                rows.append((t - 2 * length - width + half_l, half_w))
            else:
                rows.append((-half_l, t - 2 * length - 2 * width + half_w))
        if rows:
            pts[ends:] = rows
    elif profile.shape == "ellipse":
        angle = rng.uniform(0.0, 2.0 * math.pi, size=n)
        radius = np.sqrt(rng.uniform(0.0, 1.0, size=n))
        pts[:, 0] = half_l * radius * np.cos(angle)
        pts[:, 1] = half_w * radius * np.sin(angle)
    else:  # cluster; ClassProfile admits no other shape
        pts[:, 0] = rng.uniform(-half_l, half_l, size=n)
        pts[:, 1] = rng.uniform(-half_w, half_w, size=n)
    return pts


def _reflection_count(
    rng: np.random.Generator, profile: ClassProfile, r: float, start: float, stop: float
) -> int:
    """Reflection count shrinks with range: full geometry close up, a few far out.

    The sqrt response means the count climbs quickly once the object is
    inside the first third of the approach.
    """
    lo, hi = profile.reflections_range
    closeness = (start - r) / max(start - stop, 1e-9)
    expected = lo + math.sqrt(max(closeness, 0.0)) * (hi - lo) * rng.uniform(0.7, 1.0)
    return min(max(round(expected), lo), hi)


def generate_track(class_label: str, track_id: str, spec: GenSpec) -> List[ObjectSample]:
    """All samples of one approach track; deterministic in (class, id, spec).

    Each sample draws whole arrays, the arithmetic then runs once over the
    track's reflections. Where a reflection's RCS and vr are both Gaussian,
    one (n, 2) standard-normal draw feeds both as `loc + scale * z`: the
    numbers, in the order, numpy's scalar `normal` gives. Limbs and
    noiseless stationary targets draw a uniform between two normals, whose
    raw draw counts vary, so they draw one reflection at a time.
    """
    profile = spec.profiles[class_label]
    rng = _track_rng(spec.seed, track_id)

    heading = rng.uniform(-math.pi, math.pi)
    bearing = rng.uniform(-0.25, 0.25)
    length = rng.uniform(*profile.length_range)
    width = rng.uniform(*profile.width_range)
    vr_direction = 1.0 if rng.uniform() < 0.5 else -1.0
    vr_sigma = rng.uniform(*profile.vr_sigma_range) if profile.mover else 0.0
    # structure/noise split keeps the marginal vr std at exactly vr_sigma
    # (object-frame x over the sampled geometries has variance ~ (L/2)^2 / 4)
    vr_gain = 2.0 * profile.vr_corr * vr_sigma
    vr_noise_sigma = vr_sigma * math.sqrt(max(1.0 - profile.vr_corr**2, 0.0))
    wheels = profile.mover and profile.vr_pattern == "wheels"
    # the scale of a Gaussian vr; None where a uniform draw gives vr
    if profile.mover:
        vr_scale = {"random": vr_sigma, "wheels": vr_noise_sigma}.get(profile.vr_pattern)
    else:
        vr_scale = profile.vr_noise or None

    n_samples = int(rng.integers(spec.samples_per_track[0], spec.samples_per_track[1] + 1))
    start = rng.uniform(0.85 * spec.start_range, spec.start_range)
    stop = rng.uniform(spec.stop_range, spec.stop_range + 4.0)
    ranges = np.linspace(start, stop, n_samples)

    counts: List[int] = []
    points, normals = [], []
    rcs: List[float] = []
    vr: List[float] = []
    for r in ranges.tolist():
        n = _reflection_count(rng, profile, r, spec.start_range, spec.stop_range)
        pts = _object_points(rng, profile, n, length, width)
        pts += rng.normal(0.0, POSITION_NOISE, size=pts.shape)
        counts.append(n)
        points.append(pts)
        if vr_scale is not None:
            normals.append(rng.standard_normal((n, 2)))
            continue
        for _ in range(n):
            rcs.append(rng.normal(profile.rcs_mean, profile.rcs_spread))
            if profile.mover:
                sign = 1.0 if rng.uniform() < 0.5 else -1.0
                vr.append(sign * vr_sigma * rng.uniform(*profile.vr_limb_range))
            else:
                vr.append(rng.uniform(-0.15, 0.15))

    # the rest is elementwise over the whole track's reflections
    pts = np.concatenate(points)
    if vr_scale is not None:
        # numpy's normal(loc, scale) per column: (rcs, vr) = loc + scale * z
        z = np.concatenate(normals)
        signal = np.array([profile.rcs_mean, 0.0]) + np.array([profile.rcs_spread, vr_scale]) * z
        if wheels:
            signal[:, 1] += vr_direction * vr_gain * (pts[:, 0] / max(length / 2.0, 1e-6))
        rcs, vr = signal.T.tolist()
    # object frame -> world: rotate by +heading, then translate, as
    # (center + x_obj * (cos, sin)) - y_obj * (sin, -cos)
    centers = ranges[:, None] * (math.cos(bearing), math.sin(bearing))
    cos_h, sin_h = math.cos(heading), math.sin(heading)
    world = (
        np.repeat(centers, counts, axis=0)
        + pts[:, :1] * np.array([cos_h, sin_h])
        - pts[:, 1:] * np.array([sin_h, -cos_h])
    )
    xw, yw = world.T.tolist()
    reflections = reflection_list(
        zip(xw, yw, rcs, map(math.hypot, xw, yw), vr, map(math.atan2, yw, xw))
    )

    samples: List[ObjectSample] = []
    first = 0
    for center, n in zip(centers.tolist(), counts):
        pose = ObjectPose(*center, heading)
        samples.append(ObjectSample(track_id, class_label, pose, reflections[first:first + n]))
        first += n
    return samples


def generate_dataset(spec: GenSpec) -> List[ObjectSample]:
    """Concatenate the generated tracks of every class; deterministic per seed."""
    samples: List[ObjectSample] = []
    for class_label in CLASSES:
        count = spec.tracks_per_class.get(class_label, 0)
        for i in range(count):
            track_id = f"{class_label}-{i:04d}"
            samples.extend(generate_track(class_label, track_id, spec))
    return samples
