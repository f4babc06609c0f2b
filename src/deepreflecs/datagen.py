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
from .preprocess import CLASSES, ObjectPose, ObjectSample, Reflection
from .schema import ClassName, Range

Span = Annotated[Tuple[float, float], Range(0)]  # an ordered (low, high) pair, both >= 0

# upper bounds of the size fields: each keeps the largest array its field
# drives under 1 GiB, with the other settings at their defaults (README)
MAX_TRACKS_PER_CLASS = 10_000
MAX_SAMPLES_PER_TRACK = 1_000
MAX_REFLECTIONS = 1_024


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
        pts[0] = (-half_l, rng.uniform(-half_w, half_w))
        if n > 1:
            pts[1] = (half_l, rng.uniform(-half_w, half_w))
        for i in range(min(n, 2), n):
            t = rng.uniform(0.0, 2.0 * (length + width))
            if t < length:
                pts[i] = (t - half_l, -half_w)
            elif t < length + width:
                pts[i] = (half_l, t - length - half_w)
            elif t < 2 * length + width:
                pts[i] = (t - 2 * length - width + half_l, half_w)
            else:
                pts[i] = (-half_l, t - 2 * length - 2 * width + half_w)
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
    return int(np.clip(round(expected), lo, hi))


def generate_track(class_label: str, track_id: str, spec: GenSpec) -> List[ObjectSample]:
    """All samples of one approach track; deterministic in (class, id, spec)."""
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

    n_samples = int(rng.integers(spec.samples_per_track[0], spec.samples_per_track[1] + 1))
    start = rng.uniform(0.85 * spec.start_range, spec.start_range)
    stop = rng.uniform(spec.stop_range, spec.stop_range + 4.0)
    ranges = np.linspace(start, stop, n_samples)

    cos_h, sin_h = math.cos(heading), math.sin(heading)
    samples: List[ObjectSample] = []
    for r in ranges:
        pose = ObjectPose(
            x=r * math.cos(bearing), y=r * math.sin(bearing), heading=heading
        )
        n = _reflection_count(rng, profile, r, spec.start_range, spec.stop_range)
        pts = _object_points(rng, profile, n, length, width)
        pts += rng.normal(0.0, POSITION_NOISE, size=pts.shape)

        reflections: List[Reflection] = []
        for x_obj, y_obj in pts:
            # object frame -> world (rotate by +heading, then translate)
            xw = pose.x + cos_h * x_obj - sin_h * y_obj
            yw = pose.y + sin_h * x_obj + cos_h * y_obj
            rcs = rng.normal(profile.rcs_mean, profile.rcs_spread)
            if profile.mover:
                if profile.vr_pattern == "wheels":
                    vr = vr_direction * vr_gain * (x_obj / max(length / 2.0, 1e-6))
                    vr += rng.normal(0.0, vr_noise_sigma)
                elif profile.vr_pattern == "limbs":
                    sign = 1.0 if rng.uniform() < 0.5 else -1.0
                    vr = sign * vr_sigma * rng.uniform(*profile.vr_limb_range)
                else:
                    vr = rng.normal(0.0, vr_sigma)
            elif profile.vr_noise > 0.0:
                vr = rng.normal(0.0, profile.vr_noise)
            else:
                vr = rng.uniform(-0.15, 0.15)
            reflections.append(
                Reflection(
                    x=float(xw),
                    y=float(yw),
                    rcs=float(rcs),
                    range_m=float(math.hypot(xw, yw)),
                    vr=float(vr),
                    azimuth=float(math.atan2(yw, xw)),
                )
            )
        samples.append(
            ObjectSample(
                track_id=track_id,
                class_label=class_label,
                pose=pose,
                reflections=reflections,
            )
        )
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
