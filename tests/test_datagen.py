"""Tests for the synthetic track generator."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import oracles
from deepreflecs import datagen, forest, preprocess, schema
from oracles import to_object_frame


def object_frame_extents(sample):
    xy = np.array(
        [to_object_frame(r, sample.pose) for r in sample.reflections]
    )
    return xy[:, 0].max() - xy[:, 0].min(), xy[:, 1].max() - xy[:, 1].min()


def ordered(pair, low=0.0) -> bool:
    """A finite (low, high) pair with low <= high, from `low` up."""
    return len(pair) == 2 and all(map(np.isfinite, pair)) and low <= pair[0] <= pair[1]


# the values each class profile field may hold, now that no schema checks the
# constants: the generator draws from these ranges with no guard of its own
DOMAIN = {
    "shape": lambda p: p.shape in ("rectangle", "cluster", "ellipse"),
    # x positions divide by half the length (the wheels pattern)
    "length_range": lambda p: ordered(p.length_range) and p.length_range[0] > 0,
    "width_range": lambda p: ordered(p.width_range) and p.width_range[0] > 0,
    # a rectangle puts its first two points on the bumpers and the rest on its sides
    "reflections_range": lambda p: all(type(n) is int for n in p.reflections_range)
    and ordered(p.reflections_range, low=3 if p.shape == "rectangle" else 1),
    "rcs_mean": lambda p: np.isfinite(p.rcs_mean),
    "rcs_spread": lambda p: np.isfinite(p.rcs_spread) and p.rcs_spread > 0,
    "mover": lambda p: type(p.mover) is bool,
    "vr_sigma_range": lambda p: ordered(p.vr_sigma_range)
    and (p.vr_sigma_range[0] > 0) == p.mover,
    # the generator reads the pattern of any class, not only of movers
    "vr_pattern": lambda p: p.vr_pattern in (("limbs", "wheels") if p.mover else ("",)),
    # the wheels noise scale is the sigma times sqrt(1 - vr_corr**2)
    "vr_corr": lambda p: 0 <= p.vr_corr < 1 and (p.vr_corr > 0) == (p.vr_pattern == "wheels"),
    "vr_limb_range": lambda p: ordered(p.vr_limb_range) and p.vr_limb_range[0] > 0,
    "vr_noise": lambda p: np.isfinite(p.vr_noise) and p.vr_noise >= 0,
}


class TestProfiles:
    def test_every_class_has_a_profile_and_every_field_a_domain(self):
        assert list(datagen.PROFILES) == list(preprocess.CLASSES)
        assert list(DOMAIN) == [f.name for f in dataclasses.fields(datagen.ClassProfile)]

    @pytest.mark.parametrize("name", DOMAIN)
    @pytest.mark.parametrize("label", preprocess.CLASSES)
    def test_every_profile_value_is_in_its_domain(self, label, name):
        assert DOMAIN[name](datagen.PROFILES[label]), getattr(datagen.PROFILES[label], name)

    def test_every_track_approaches(self):
        # the reflection count grows with (START_RANGE - r) / (START_RANGE - STOP_RANGE)
        assert datagen.START_RANGE > datagen.STOP_RANGE > 0


class TestGenerateTrack:
    def test_car_x_extent_dominates(self):
        for seed in range(5):
            for sample in datagen.generate_track("car", f"car-{seed}", datagen.GenSpec(seed=seed)):
                x_ext, y_ext = object_frame_extents(sample)
                assert x_ext >= y_ext

    def test_non_obstacle_velocities_tiny(self):
        for sample in datagen.generate_track("non_obstacle", "n-0", datagen.GenSpec(seed=1)):
            for r in sample.reflections:
                assert abs(r.vr) < 0.2

    def test_deterministic(self):
        a = datagen.generate_track("cyclist", "c-7", datagen.GenSpec(seed=42))
        b = datagen.generate_track("cyclist", "c-7", datagen.GenSpec(seed=42))
        assert a == b

    def test_seed_comes_from_the_spec(self):
        one = datagen.generate_track("cyclist", "c-7", datagen.GenSpec(seed=1))
        two = datagen.generate_track("cyclist", "c-7", datagen.GenSpec(seed=2))
        assert one != two

    def test_ranges_decrease(self):
        track = datagen.generate_track("pedestrian", "p-3", datagen.GenSpec(seed=0))
        ranges = [np.hypot(s.pose.x, s.pose.y) for s in track]
        assert all(r1 > r2 for r1, r2 in zip(ranges, ranges[1:]))

    def test_reflection_counts_respect_profile(self):
        profile = datagen.PROFILES["car"]
        lo, hi = profile.reflections_range
        for sample in datagen.generate_track("car", "car-x", datagen.GenSpec(seed=9)):
            assert lo <= len(sample.reflections) <= hi


class TestGenerateDataset:
    def test_desk_track_counts(self):
        spec = datagen.desk_genspec()
        assert spec.tracks_per_class == {
            "car": 57, "pedestrian": 34, "cyclist": 27, "non_obstacle": 70
        }
        samples = datagen.generate_dataset(spec)
        for label, expected in spec.tracks_per_class.items():
            tracks = {s.track_id for s in samples if s.class_label == label}
            assert len(tracks) == expected

    def test_all_ranges_within_cutoff(self):
        spec = datagen.GenSpec(
            tracks_per_class={"car": 3, "pedestrian": 3, "cyclist": 3, "non_obstacle": 3}
        )
        for sample in datagen.generate_dataset(spec):
            assert np.hypot(sample.pose.x, sample.pose.y) <= 75.0

    def test_bitwise_file_determinism(self, tmp_path):
        spec = datagen.GenSpec(
            tracks_per_class={"car": 2, "pedestrian": 2, "cyclist": 2, "non_obstacle": 2},
            seed=5,
        )
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        preprocess.write_dataset(datagen.generate_dataset(spec), str(a))
        preprocess.write_dataset(datagen.generate_dataset(spec), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_seeds_change_values_not_structure(self):
        spec1 = datagen.GenSpec(tracks_per_class={"car": 2}, seed=1)
        spec2 = datagen.GenSpec(tracks_per_class={"car": 2}, seed=2)
        d1 = datagen.generate_dataset(spec1)
        d2 = datagen.generate_dataset(spec2)
        assert {s.track_id for s in d1} == {s.track_id for s in d2}
        assert d1 != d2


def dataset_bytes(samples, directory) -> bytes:
    path = directory / "data.jsonl"
    preprocess.write_dataset(samples, str(path))
    return path.read_bytes()


class TestAgainstPerReflectionReference:
    """generate_track draws whole arrays; oracles.generate_track one reflection at a time.
    The two must write the same file bytes. The desk sets hold every class, so
    every shape and vr branch of the class profiles."""

    @pytest.mark.parametrize("seed", range(5))
    def test_desk_sets_write_the_same_bytes(self, tmp_path, seed):
        spec = datagen.desk_genspec(seed)
        assert dataset_bytes(datagen.generate_dataset(spec), tmp_path) == dataset_bytes(
            oracles.generate_dataset(spec), tmp_path
        )


class CountingRng:
    """A Generator whose method calls are counted."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


def rng_calls(generate, monkeypatch, spec):
    """(RNG calls, samples, reflections) of one car track."""
    rngs = []
    track_rng = datagen._track_rng

    def counting_track_rng(*args):
        rngs.append(CountingRng(track_rng(*args)))
        return rngs[-1]

    monkeypatch.setattr(datagen, "_track_rng", counting_track_rng)
    samples = generate("car", "car-0000", spec)
    assert len(rngs) == 1
    return rngs[0].calls, len(samples), sum(len(s.reflections) for s in samples)


def test_a_car_track_draws_per_sample_not_per_reflection(monkeypatch):
    spec = datagen.GenSpec(tracks_per_class={"car": 1}, samples_per_track=(200, 200))
    calls, n_samples, n_reflections = rng_calls(datagen.generate_track, monkeypatch, spec)
    assert n_samples == 200 and n_reflections > 10 * n_samples
    # a few draws for the track, then a count, two perimeter draws, position noise and
    # one (rcs, vr) normal draw per sample
    assert calls <= 10 + 5 * n_samples
    # the per-reflection reference draws rcs, vr and a perimeter point per reflection
    reference, _, _ = rng_calls(oracles.generate_track, monkeypatch, spec)
    assert reference > 2 * n_reflections


def test_generating_2000_samples_stays_under_the_size_model():
    spec = datagen.GenSpec(
        tracks_per_class=dict.fromkeys(preprocess.CLASSES, 60), samples_per_track=(8, 9)
    )
    tracemalloc.start()
    try:
        samples = datagen.generate_dataset(spec)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n_reflections = sum(len(s.reflections) for s in samples)
    assert 1900 < len(samples) < 2200
    model = datagen.SAMPLE_BYTES * len(samples) + datagen.REFLECTION_BYTES * n_reflections
    assert kept <= peak < model


@pytest.fixture(scope="module")
def dataset():
    return datagen.generate_dataset(datagen.desk_genspec(seed=3))


class TestSeparabilityDesign:
    """The generator must encode cyclist-vs-pedestrian mainly in extent."""

    def test_extent_gap_visible_to_handcrafted_features(self, dataset):
        by_class = {"pedestrian": [], "cyclist": []}
        for s in dataset:
            if s.class_label in by_class:
                by_class[s.class_label].append(
                    forest.extract_handcrafted(s)[6]  # extent_sum
                )
        ped = np.mean(by_class["pedestrian"])
        cyc = np.mean(by_class["cyclist"])
        assert cyc > ped + 0.4

    def test_per_reflection_marginals_overlap(self, dataset):
        rcs = {"pedestrian": [], "cyclist": []}
        vr = {"pedestrian": [], "cyclist": []}
        for s in dataset:
            if s.class_label in rcs:
                rcs[s.class_label].extend(r.rcs for r in s.reflections)
                vr[s.class_label].extend(abs(r.vr) for r in s.reflections)
        # interquartile ranges of the two classes overlap for both features
        for values in (rcs, vr):
            lo_p, hi_p = np.percentile(values["pedestrian"], [25, 75])
            lo_c, hi_c = np.percentile(values["cyclist"], [25, 75])
            assert max(lo_p, lo_c) < min(hi_p, hi_c)


def worst_case_bytes(label, tracks, samples):
    """The size model of `tracks` tracks of class `label` of up to `samples` samples."""
    reflections = datagen.PROFILES[label].reflections_range[1]
    return tracks * samples * (datagen.SAMPLE_BYTES + reflections * datagen.REFLECTION_BYTES)


def class_spec(label, tracks, samples):
    """(JSON spec, constructor kwargs) of `tracks` tracks of class `label` of `samples` samples."""
    raw = {"tracks_per_class": {label: tracks}, "samples_per_track": [samples, samples]}
    kwargs = {"tracks_per_class": {label: tracks}, "samples_per_track": (samples, samples)}
    return raw, kwargs


class TestWorstCaseSize:
    """A spec whose worst-case dataset passes 1 GiB is a ConfigError naming its fields."""

    # the class's most reflections per sample enter the total: a car has up to 30,
    # a non-obstacle up to 3
    @pytest.mark.parametrize(
        "sizes",
        [lambda n: ("car", n, 1000), lambda n: ("car", 1000, n),
         lambda n: ("non_obstacle", n, 1000)],
        ids=["tracks", "samples", "few-reflections"],
    )
    def test_one_past_the_limit_is_named_error(self, sizes):
        # the size is linear in n: the largest n that fits, from its value at 1
        fits = datagen.MAX_DATASET_BYTES // worst_case_bytes(*sizes(1))
        raw, kwargs = class_spec(*sizes(fits))
        assert schema.build(datagen.GenSpec, raw, "the spec") == datagen.GenSpec(**kwargs)
        raw, kwargs = class_spec(*sizes(fits + 1))
        with pytest.raises(schema.ConfigError, match="GiB") as err:
            schema.build(datagen.GenSpec, raw, "the spec")
        for name in ("tracks_per_class", "samples_per_track"):
            assert name in str(err.value)
        with pytest.raises(schema.ConfigError, match="tracks_per_class and samples_per_track"):
            datagen.GenSpec(**kwargs)

    def test_fields_at_their_bounds_together_are_refused(self):
        with pytest.raises(schema.ConfigError, match="GiB"):
            datagen.GenSpec(
                tracks_per_class={c: datagen.MAX_TRACKS_PER_CLASS for c in preprocess.CLASSES},
                samples_per_track=(1, datagen.MAX_SAMPLES_PER_TRACK),
            )
