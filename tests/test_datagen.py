"""Tests for the synthetic track generator."""

import numpy as np
import pytest

from deepreflecs import datagen, forest, preprocess
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
