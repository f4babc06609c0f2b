"""Tests for frame transforms, features, stats, padding, splits and I/O."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepreflecs import preprocess
from deepreflecs.preprocess import (
    DatasetError,
    NormStats,
    ObjectPose,
    ObjectSample,
    Reflection,
)
from oracles import sample_of_rows


def refl(x=0.0, y=0.0, rcs=0.0, range_m=10.0, vr=0.0, azimuth=0.0):
    return Reflection(x=x, y=y, rcs=rcs, range_m=range_m, vr=vr, azimuth=azimuth)


def rotation_oracle(dx, dy, heading):
    """Independent 2x2 rotation-matrix multiply."""
    r = [[math.cos(heading), math.sin(heading)],
         [-math.sin(heading), math.cos(heading)]]
    return (r[0][0] * dx + r[0][1] * dy, r[1][0] * dx + r[1][1] * dy)


def object_frame(r: Reflection, pose: ObjectPose):
    """(x_obj, y_obj) of r, from reflection_table."""
    return tuple(table_row(r, pose)[:2])


class TestObjectFrame:
    def test_zero_heading_is_translation(self):
        out = object_frame(refl(x=11, y=1), ObjectPose(10, 0, 0))
        assert out == pytest.approx((1.0, 1.0))

    def test_quarter_turn_matches_rotation_oracle(self):
        pose = ObjectPose(0, 0, math.pi / 2)
        expected = rotation_oracle(1.0, 1.0, math.pi / 2)
        assert expected == pytest.approx((1.0, -1.0))
        out = object_frame(refl(x=1, y=1), pose)
        assert out == pytest.approx(expected)

    def test_reflection_at_pose_maps_to_origin(self):
        for heading in (0.0, 0.7, -2.1, math.pi):
            out = object_frame(refl(x=3.5, y=-2.0), ObjectPose(3.5, -2.0, heading))
            assert out == pytest.approx((0.0, 0.0), abs=1e-12)

    @given(
        heading=st.floats(-math.pi, math.pi),
        points=st.lists(
            st.tuples(st.floats(-50, 50), st.floats(-50, 50)), min_size=2, max_size=6
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_isometry(self, heading, points):
        pose = ObjectPose(4.0, -7.0, heading)
        transformed = [
            object_frame(refl(x=p[0], y=p[1]), pose) for p in points
        ]
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                before = math.dist(points[i], points[j])
                after = math.dist(transformed[i], transformed[j])
                assert abs(before - after) < 1e-9


def table_row(r: Reflection, pose: ObjectPose) -> np.ndarray:
    """reflection_table of a sample holding only r."""
    sample = ObjectSample(track_id="t", class_label="car", pose=pose, reflections=[r])
    return preprocess.reflection_table(sample)[0]


class TestFeatureVector:
    def test_assembly_order(self):
        r = refl(x=1, y=2, rcs=5, range_m=10, vr=-1, azimuth=0.1)
        np.testing.assert_allclose(table_row(r, ObjectPose(0, 0, 0)), [1, 2, 5, 10, -1, 0.1])

    def test_azimuth_not_a_feature(self):
        r = refl(x=1, y=2, rcs=5, range_m=10, vr=-1, azimuth=2.7)
        sample = ObjectSample(track_id="t", class_label="car", pose=ObjectPose(0, 0, 0),
                              reflections=[r])
        rows = preprocess.prepare_input(sample, 64, NormStats.identity()).rows
        np.testing.assert_array_equal(rows, [[1, 2, 5, 10, -1]])

    def test_pose_shift_only_moves_positions(self):
        r = refl(x=1, y=2, rcs=5, range_m=10, vr=-1)
        a = table_row(r, ObjectPose(0, 0, 0))
        b = table_row(r, ObjectPose(1, 0, 0))
        assert not np.array_equal(a[:2], b[:2])
        np.testing.assert_array_equal(a[2:], b[2:])


def one_sample(track="t0", label="car", values=((0.0, 0.0), (2.0, 2.0))):
    return ObjectSample(
        track_id=track,
        class_label=label,
        pose=ObjectPose(0, 0, 0),
        reflections=[
            refl(x=v[0], rcs=v[1], range_m=abs(v[0]), vr=v[1]) for v in values
        ],
    )


class TestNormStats:
    @pytest.mark.parametrize(
        "column, mean, std",
        [(2, 0.0, 0.0), (1, 0.0, -1.0), (4, 0.0, np.nan), (0, 0.0, np.inf),
         (3, np.nan, 1.0), (2, -np.inf, 1.0)],
        ids=["zero-std", "negative-std", "nan-std", "inf-std", "nan-mean", "inf-mean"],
    )
    def test_bad_entry_is_dataset_error_naming_its_column(self, column, mean, std):
        means, stds = np.zeros(5), np.ones(5)
        means[column], stds[column] = mean, std
        with pytest.raises(DatasetError, match=f"^column {column}: mean {mean}, std {std};"):
            NormStats(means, stds)

    def test_constant_feature_hits_std_floor(self):
        sample = one_sample(values=((3.0, 1.0), (3.0, 1.0)))
        stats = preprocess.compute_norm_stats([sample])
        assert stats.mean[0] == pytest.approx(3.0)
        assert stats.std[0] == pytest.approx(1e-6)

    def test_population_convention(self):
        # feature values 0 and 2: mean 1, population std 1 (not sqrt(2))
        sample = one_sample(values=((0.0, 0.0), (2.0, 0.0)))
        stats = preprocess.compute_norm_stats([sample])
        assert stats.mean[0] == pytest.approx(1.0)
        assert stats.std[0] == pytest.approx(1.0)

    def test_empty_set_raises(self):
        with pytest.raises(DatasetError):
            preprocess.compute_norm_stats([])

    @pytest.mark.parametrize("rcs", [(1e200, 0.0), (1.7e308, 1.7e308)], ids=["std", "mean"])
    def test_overflowing_column_is_dataset_error_naming_it(self, rcs):
        # finite values whose std or mean overflows float64; no numpy warning leaks
        sample = one_sample(values=((0.0, rcs[0]), (2.0, rcs[1])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DatasetError, match="column 2"):
                preprocess.compute_norm_stats([sample])

    def test_training_stats_normalize_training_rows(self):
        rng = np.random.default_rng(3)
        samples = [
            ObjectSample(
                track_id=f"t{i}",
                class_label="car",
                pose=ObjectPose(0, 0, 0),
                reflections=[
                    refl(
                        x=rng.normal(0, 4),
                        y=rng.normal(0, 4),
                        rcs=rng.normal(0, 4),
                        range_m=abs(rng.normal(20, 4)),
                        vr=rng.normal(),
                    )
                    for _ in range(4)
                ],
            )
            for i in range(10)
        ]
        stats = preprocess.compute_norm_stats(samples)
        normalized = np.concatenate([preprocess.prepare_input(s, 64, stats).rows for s in samples])
        np.testing.assert_allclose(normalized.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(normalized.std(axis=0), 1.0, atol=1e-6)


class TestPadAndMask:
    """prepare_input's pad-length rule: keep at most pad_length rows."""

    def test_mask_layout(self):
        rows = np.ones((3, 5))
        out = preprocess.prepare_input(sample_of_rows(rows), 64, NormStats.identity())
        assert out.m_real == 3 and out.pad_length == 64
        assert out.mask.shape == (64,) and out.mask[:3].all() and not out.mask[3:].any()
        assert out.rows.shape == (3, 5) and out.rows.dtype == np.float64
        np.testing.assert_array_equal(out.rows, rows)

    def test_overflow_keeps_highest_rcs(self):
        before = preprocess.overflow_count()
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((70, 5))
        out = preprocess.prepare_input(sample_of_rows(rows), 64, NormStats.identity())
        assert out.m_real == 64
        assert preprocess.overflow_count() - before == 1
        kept_rcs = np.sort(out.rows[:, 2])
        expected = np.sort(rows[:, 2])[-64:]
        np.testing.assert_allclose(kept_rcs, expected)

    def test_normalization_applied(self):
        stats = NormStats(np.full(5, 2.0), np.full(5, 4.0))
        out = preprocess.prepare_input(sample_of_rows(np.full((1, 5), 10.0)), 4, stats)
        np.testing.assert_allclose(out.rows, [[2.0] * 5])


def build_tracked_dataset(n_tracks_per_class=10, samples_per_track=3):
    samples = []
    for label in preprocess.CLASSES:
        for t in range(n_tracks_per_class):
            for s in range(samples_per_track):
                samples.append(
                    one_sample(track=f"{label}-{t}", label=label)
                )
    return samples


class TestPaddingEndToEnd:
    def test_pad_64_vs_128_same_network_output(self):
        from deepreflecs import model

        rng = np.random.default_rng(21)
        sample = ObjectSample(
            track_id="t",
            class_label="cyclist",
            pose=ObjectPose(20.0, 1.0, 0.8),
            reflections=[
                refl(
                    x=20 + rng.normal(), y=1 + rng.normal(),
                    rcs=rng.normal(), range_m=20.0 + rng.normal(),
                    vr=rng.normal(),
                )
                for _ in range(7)
            ],
        )
        stats = NormStats(np.zeros(5), np.ones(5) * 2.0)
        net = model.build_model(seed=9)
        out64 = model.forward(net, preprocess.prepare_input(sample, 64, stats))
        out128 = model.forward(net, preprocess.prepare_input(sample, 128, stats))
        assert np.array_equal(out64.probabilities, out128.probabilities)


class TestTrackwiseSplit:
    def test_ten_tracks_split_6_2_2(self):
        samples = build_tracked_dataset(10)
        train, val, test = preprocess.trackwise_split(samples, seed=0)
        for label in preprocess.CLASSES:
            counts = [
                len({s.track_id for s in part if s.class_label == label})
                for part in (train, val, test)
            ]
            assert counts == [6, 2, 2]

    def test_no_track_leakage(self):
        samples = build_tracked_dataset(7)
        train, val, test = preprocess.trackwise_split(samples, seed=3)
        ids = [
            {s.track_id for s in part} for part in (train, val, test)
        ]
        assert not (ids[0] & ids[1]) and not (ids[0] & ids[2]) and not (ids[1] & ids[2])
        assert len(train) + len(val) + len(test) == len(samples)

    def test_deterministic_per_seed(self):
        samples = build_tracked_dataset(9)
        a = preprocess.trackwise_split(samples, seed=5)
        b = preprocess.trackwise_split(samples, seed=5)
        for part_a, part_b in zip(a, b):
            assert [s.track_id for s in part_a] == [s.track_id for s in part_b]

    def test_too_few_tracks_names_class(self):
        samples = build_tracked_dataset(10)
        samples = [s for s in samples if not (s.class_label == "cyclist" and s.track_id > "cyclist-1")]
        with pytest.raises(DatasetError, match="cyclist"):
            preprocess.trackwise_split(samples)

    def test_no_samples_is_named_as_an_empty_dataset(self):
        with pytest.raises(DatasetError, match="holds no samples.*range cutoff"):
            preprocess.trackwise_split([])

    def test_three_tracks_per_class_names_empty_validation_split(self):
        # 3 tracks round to 2/0/1, which would leave nothing to validate on
        samples = build_tracked_dataset(3)
        with pytest.raises(DatasetError, match="validation split is empty"):
            preprocess.trackwise_split(samples)

    def test_ratio_tolerance(self):
        for n in (5, 8, 13, 20):
            samples = build_tracked_dataset(n)
            train, _, _ = preprocess.trackwise_split(samples, seed=1)
            for label in preprocess.CLASSES:
                got = len({s.track_id for s in train if s.class_label == label})
                assert abs(got - 0.6 * n) <= 1.0


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        samples = build_tracked_dataset(3)
        path = tmp_path / "data.jsonl"
        preprocess.write_dataset(samples, str(path))
        back = preprocess.read_dataset(str(path))
        assert back == samples

    def test_unknown_class_reports_line(self, tmp_path):
        samples = build_tracked_dataset(1)
        path = tmp_path / "data.jsonl"
        preprocess.write_dataset(samples, str(path))
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["class"] = "truck"
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match="line 2") as err:
            preprocess.read_dataset(str(path))
        assert "truck" in str(err.value)

    def test_empty_reflections_is_invariant_violation(self, tmp_path):
        sample = one_sample()
        record = {
            "track_id": sample.track_id,
            "class": sample.class_label,
            "pose": {"x": 0, "y": 0, "heading": 0},
            "reflections": [],
        }
        path = tmp_path / "data.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(DatasetError, match="line 1"):
            preprocess.read_dataset(str(path))

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"track_id": "a"\n')
        with pytest.raises(DatasetError, match="line 1"):
            preprocess.read_dataset(str(path))

    def test_integer_too_long_to_convert_reports_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        preprocess.write_dataset([one_sample()], str(path))
        path.write_text(path.read_text() + '{"track_id": ' + "9" * 5000 + "}\n")
        with pytest.raises(DatasetError, match="line 2"):
            preprocess.read_dataset(str(path))

    @pytest.mark.parametrize(
        "lines", [[b"\xff{}"], [None, b'{"track_id": "\xe9"}']], ids=["line-1", "line-2"]
    )
    def test_non_utf8_bytes_report_line(self, tmp_path, lines):
        path = tmp_path / "data.jsonl"
        preprocess.write_dataset([one_sample()], str(path))
        valid = path.read_bytes().rstrip(b"\n")
        path.write_bytes(b"\n".join(valid if line is None else line for line in lines) + b"\n")
        with pytest.raises(DatasetError, match=f"line {len(lines)}"):
            preprocess.read_dataset(str(path))

    def test_missing_field_reports_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"track_id": "a", "class": "car", "pose": {"x": 0, "y": 0, "heading": 0}}\n')
        with pytest.raises(DatasetError, match="line 1"):
            preprocess.read_dataset(str(path))

    def test_non_finite_value_rejected(self, tmp_path):
        sample = one_sample()
        record = json.loads(json.dumps(
            {"track_id": "a", "class": "car",
             "pose": {"x": 0, "y": 0, "heading": 0},
             "reflections": [{"x": 1, "y": 0, "rcs": 0, "range": 1,
                              "vr": 0, "azimuth": 0}]}
        ))
        record["reflections"][0]["rcs"] = float("inf")
        path = tmp_path / "data.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(DatasetError, match="non-finite"):
            preprocess.read_dataset(str(path))

    def test_range_cutoff_filters_far_samples(self, tmp_path):
        near = one_sample(track="near")
        far = ObjectSample(
            track_id="far",
            class_label="car",
            pose=ObjectPose(80.0, 0.0, 0.0),
            reflections=[refl(x=80.0, range_m=80.0)],
        )
        path = tmp_path / "data.jsonl"
        preprocess.write_dataset([near, far], str(path))
        kept = preprocess.read_dataset(str(path))
        assert [s.track_id for s in kept] == ["near"]
        both = preprocess.read_dataset(str(path), range_cutoff=None)
        assert len(both) == 2

    def test_deep_nesting_reports_line(self, tmp_path):
        # json.loads hits the interpreter's recursion limit on 200,000 nested arrays
        path = tmp_path / "data.jsonl"
        preprocess.write_dataset([one_sample()], str(path))
        path.write_text(path.read_text() + "[" * 200_000 + "\n")
        with pytest.raises(DatasetError, match="line 2"):
            preprocess.read_dataset(str(path))

    @pytest.mark.parametrize("where", ["pose", "reflection"])
    def test_number_too_large_for_a_float_reports_line(self, tmp_path, where):
        # 10**400 reads as a Python int, and float() of it overflows
        path = tmp_path / "data.jsonl"
        preprocess.write_dataset([one_sample(), one_sample()], str(path))
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        (record["pose"] if where == "pose" else record["reflections"][1])["x"] = 10**400
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match="line 2"):
            preprocess.read_dataset(str(path))


HOSTILE_VALUES = [
    None, True, 0, -1, 1.5, float("nan"), float("inf"), "", "car", "1.5", [], [1.5], {}, {"x": 1},
    10**400, -(10**400),
]


def fuzzed_lines(line: bytes, rng):
    """Edits of one valid dataset line: type swaps of every field, nesting, huge numbers, damage."""
    record = json.loads(line)
    reflections = record["reflections"]
    fields = [(record, key) for key in record] + [(record["pose"], key) for key in record["pose"]]
    for i, reflection in enumerate(reflections):
        fields += [(reflections, i)] + [(reflection, key) for key in reflection]
    for holder, key in fields:
        kept = holder[key]
        for value in HOSTILE_VALUES:
            holder[key] = value
            yield json.dumps(record).encode()
        holder[key] = "@"
        nested = ["[" * depth + "]" * depth for depth in (2, 50, 900, 5_000, 200_000)]
        for text in nested + ["9" * 5_000, "1e400"]:  # an int too long to read; inf
            yield json.dumps(record).replace('"@"', text).encode()
        holder[key] = kept
    for _ in range(100):
        yield line[: rng.integers(len(line))]
        flipped = bytearray(line)
        for at in rng.integers(len(line), size=rng.integers(1, 4)):
            flipped[at] ^= 1 << int(rng.integers(8))
        yield bytes(flipped)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fuzzed_dataset_lines_load_or_raise_dataset_error(tmp_path, seed):
    rng = np.random.default_rng(seed)
    path = tmp_path / "data.jsonl"
    preprocess.write_dataset([one_sample(track=f"t{seed}")], str(path))
    valid = path.read_bytes().splitlines()[0]
    outcomes = {"loaded": 0, "error": 0}
    for edited in fuzzed_lines(valid, rng):
        path.write_bytes(edited + b"\n" + valid + b"\n")
        try:
            samples = preprocess.read_dataset(str(path), range_cutoff=None)
        except DatasetError as exc:
            assert exc.line is not None
            outcomes["error"] += 1
        else:
            assert all(isinstance(sample, ObjectSample) for sample in samples)
            outcomes["loaded"] += 1
    assert outcomes["loaded"] > 0 and outcomes["error"] > 0


def field_swaps(line: bytes):
    """(field as errors name it, value, edited line) for each field and HOSTILE_VALUES value."""
    record = json.loads(line)
    fields = [("track_id", record, "track_id"), ("class", record, "class")]
    fields += [(f"pose.{key}", record["pose"], key) for key in record["pose"]]
    for i, reflection in enumerate(record["reflections"]):
        fields += [(f"reflections[{i}].{key}", reflection, key) for key in reflection]
    for name, holder, key in fields:
        kept = holder[key]
        for value in HOSTILE_VALUES:
            holder[key] = value
            yield name, value, json.dumps(record).encode()
        holder[key] = kept


def test_every_wrongly_typed_field_is_a_dataset_error_naming_it(tmp_path):
    # strings must be strings and numbers JSON numbers: null, a bool or "1.5" is not coerced
    path = tmp_path / "data.jsonl"
    preprocess.write_dataset([one_sample()], str(path))
    valid = path.read_bytes().splitlines()[0]
    refused = 0
    for name, value, edited in field_swaps(valid):
        if name in ("track_id", "class"):
            wanted, wrong = "string", type(value) is not str
        else:
            wanted, wrong = "number", type(value) not in (int, float)
        if not wrong:
            continue
        path.write_bytes(valid + b"\n" + edited + b"\n")
        with pytest.raises(DatasetError) as err:
            preprocess.read_dataset(str(path), range_cutoff=None)
        assert err.value.line == 2
        assert str(err.value) == (
            f"line 2: field '{name}' must be a {wanted}, not {type(value).__name__}"
        )
        refused += 1
    # 13 non-strings for each string field, 9 non-numbers (bools and strings among them)
    # for each of 3 pose and 2 x 6 reflection numbers
    assert refused == 2 * 13 + 15 * 9


def test_json_integers_load_as_float_numbers(tmp_path):
    record = {"track_id": "a", "class": "car", "pose": {"x": 1, "y": -2, "heading": 0},
              "reflections": [{"x": 3, "y": 4, "rcs": -5, "range": 5, "vr": 0, "azimuth": 1}]}
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(record) + "\n")
    (sample,) = preprocess.read_dataset(str(path))
    values = [sample.pose.x, sample.pose.y, sample.pose.heading, *sample.reflections[0]]
    assert values == [1, -2, 0, 3, 4, -5, 5, 0, 1]
    assert all(type(v) is float for v in values)


@pytest.mark.parametrize("values", [[[0], [1, 2]], [0, [1]]], ids=["rows", "scalar-and-row"])
def test_a_ragged_label_list_is_value_error_naming_it(values):
    with pytest.raises(ValueError, match="^labels must be a list of class indices, got a ragged"):
        preprocess.class_indices(values, 4, "labels")


def test_reflection_is_an_immutable_six_tuple():
    r = Reflection(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    x, y, rcs, range_m, vr, azimuth = r
    assert (x, y, rcs, range_m, vr, azimuth) == (r.x, r.y, r.rcs, r.range_m, r.vr, r.azimuth)
    assert r == Reflection(x=1.0, y=2.0, rcs=3.0, range_m=4.0, vr=5.0, azimuth=6.0)
    assert preprocess.reflection_list([(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)]) == [r]
    assert type(preprocess.reflection_list([tuple(r)])[0]) is Reflection
    with pytest.raises(AttributeError):
        r.x = 0.0
