"""Tests for the synthetic track generator."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from deepreflecs import datagen, forest, preprocess, schema
from oracles import to_object_frame


def object_frame_extents(sample):
    xy = np.array(
        [to_object_frame(r, sample.pose) for r in sample.reflections]
    )
    return xy[:, 0].max() - xy[:, 0].min(), xy[:, 1].max() - xy[:, 1].min()


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
        profile = datagen.DEFAULT_PROFILES["car"]
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


SPANS = st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0)).map(lambda pair: tuple(sorted(pair)))
REFLECTION_RANGES = st.sampled_from([(1, 1), (1, 2), (2, 2), (2, 3)]) | st.integers(1, 40).flatmap(
    lambda lo: st.tuples(st.just(lo), st.integers(lo, 40))
)
# every way a profile draws vr: a mover's three patterns, a stationary target with and
# without gaussian vr noise
VR_BRANCHES = {
    "random": dict(mover=True, vr_pattern="random"),
    "limbs": dict(mover=True, vr_pattern="limbs"),
    "wheels": dict(mover=True, vr_pattern="wheels"),
    "vr-noise": dict(mover=False, vr_noise=0.04),
    "no-vr-noise": dict(mover=False, vr_noise=0.0),
}


@st.composite
def profiles(draw, shape, branch):
    # a stationary target also draws a vr_pattern, which must change nothing
    patterns = st.sampled_from(["random", "limbs", "wheels"])
    fields = {"vr_pattern": draw(patterns), **VR_BRANCHES[branch]}
    if fields["mover"]:
        fields["vr_sigma_range"] = draw(st.just((0.0, 0.0)) | SPANS)
        fields["vr_corr"] = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    elif fields["vr_noise"]:
        fields["vr_noise"] = draw(st.floats(1e-3, 2.0))
    return datagen.ClassProfile(
        shape=shape,
        length_range=draw(SPANS),
        width_range=draw(SPANS),
        reflections_range=draw(REFLECTION_RANGES),
        rcs_mean=draw(st.just(0.0) | st.floats(-20.0, 20.0)),
        rcs_spread=draw(st.just(0.0) | st.floats(0.0, 5.0)),
        vr_limb_range=draw(SPANS),
        **fields,
    )


class TestAgainstPerReflectionReference:
    """generate_track draws whole arrays; oracles.generate_track one reflection at a time.
    The two must write the same file bytes."""

    @pytest.mark.parametrize("branch", sorted(VR_BRANCHES))
    @pytest.mark.parametrize("shape", ["rectangle", "cluster", "ellipse"])
    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), seed=st.integers(0, 2**31 - 1))
    def test_random_profiles_write_the_same_bytes(
        self, tmp_path_factory, shape, branch, data, seed
    ):
        profile = data.draw(profiles(shape, branch))
        stop = data.draw(st.floats(0.0, 20.0))
        spec = datagen.GenSpec(
            tracks_per_class={"car": 2},
            samples_per_track=data.draw(st.sampled_from([(1, 1), (1, 4), (6, 12)])),
            start_range=stop + data.draw(st.floats(0.5, 80.0)),
            stop_range=stop,
            seed=seed,
            profiles={"car": profile},
        )
        directory = tmp_path_factory.mktemp("track")
        got = dataset_bytes(datagen.generate_dataset(spec), directory)
        assert got == dataset_bytes(oracles.generate_dataset(spec), directory)

    @pytest.mark.parametrize("reflections", [(1, 1), (1, 2), (2, 2), (2, 3)])
    def test_rectangles_of_one_and_two_points(self, tmp_path, reflections):
        car = dataclasses.replace(datagen.DEFAULT_PROFILES["car"], reflections_range=reflections)
        spec = datagen.GenSpec(
            tracks_per_class={"car": 4}, profiles={**datagen.DEFAULT_PROFILES, "car": car}
        )
        samples = datagen.generate_dataset(spec)
        lo, hi = reflections
        assert {len(s.reflections) for s in samples} == set(range(lo, hi + 1))
        assert dataset_bytes(samples, tmp_path) == dataset_bytes(
            oracles.generate_dataset(spec), tmp_path
        )

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


def worst_case_bytes(tracks, samples, reflections):
    """The size model of car tracks of up to `samples` samples of up to `reflections` each."""
    n_samples = tracks * samples
    return n_samples * (datagen.SAMPLE_BYTES + reflections * datagen.REFLECTION_BYTES)


def car_spec(tracks, samples, reflections):
    """(JSON spec, constructor kwargs) of car tracks of these worst-case sizes."""
    raw = {
        "tracks_per_class": {"car": tracks},
        "samples_per_track": [samples, samples],
        "profiles": {"car": {"reflections_range": [1, reflections]}},
    }
    car = dataclasses.replace(datagen.DEFAULT_PROFILES["car"], reflections_range=(1, reflections))
    kwargs = {"tracks_per_class": {"car": tracks}, "samples_per_track": (samples, samples),
              "profiles": {**datagen.DEFAULT_PROFILES, "car": car}}
    return raw, kwargs


class TestWorstCaseSize:
    """A spec whose worst-case dataset passes 1 GiB is a ConfigError naming its fields."""

    @pytest.mark.parametrize(
        "sizes",
        [lambda n: (n, 1000, 30), lambda n: (1000, n, 30), lambda n: (100, 1000, n)],
        ids=["tracks", "samples", "reflections"],
    )
    def test_one_past_the_limit_is_named_error(self, sizes):
        # the size is affine in n: the largest n that fits, from its value at 0 and 1
        at_0 = worst_case_bytes(*sizes(0))
        fits = (datagen.MAX_DATASET_BYTES - at_0) // (worst_case_bytes(*sizes(1)) - at_0)
        raw, kwargs = car_spec(*sizes(fits))
        assert schema.build(datagen.GenSpec, raw, "the spec") == datagen.GenSpec(**kwargs)
        raw, kwargs = car_spec(*sizes(fits + 1))
        with pytest.raises(schema.ConfigError, match="GiB") as err:
            schema.build(datagen.GenSpec, raw, "the spec")
        for name in ("tracks_per_class", "samples_per_track", "reflections_range"):
            assert name in str(err.value)
        with pytest.raises(schema.ConfigError, match="tracks_per_class, samples_per_track"):
            datagen.GenSpec(**kwargs)

    def test_fields_at_their_bounds_together_are_refused(self):
        with pytest.raises(schema.ConfigError, match="GiB"):
            datagen.GenSpec(
                tracks_per_class={c: datagen.MAX_TRACKS_PER_CLASS for c in preprocess.CLASSES},
                samples_per_track=(1, datagen.MAX_SAMPLES_PER_TRACK),
            )

    def test_a_class_without_a_profile_is_named_error(self):
        with pytest.raises(schema.ConfigError, match="no profile for"):
            datagen.GenSpec(tracks_per_class={"car": 1}, profiles={})
