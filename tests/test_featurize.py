"""The featurization against a per-reflection oracle, bit for bit.

Two paths build object-frame rows. `preprocess.flat_reflection_table`
rotates one object's reflections in one Python loop (`reflection_table` is
its array); `prepare_input`, `extract_handcrafted` and `rasterize` read it.
`preprocess.object_frame_table` rotates a whole set in numpy, one column at
a time; `compute_norm_stats` and `forest.extract_features` read it. The set
table must be the concatenated object tables bit for bit. The oracles below build the same values the
per-reflection way, from `oracles.to_object_frame` and one numpy array per
reflection or per column, and every output must match them in every bit:
numpy's pairwise summation groups terms in blocks of 8 and 128, so a
reduction over differently laid-out memory could round differently.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepreflecs import datagen, forest, preprocess
from deepreflecs.preprocess import ObjectPose, ObjectSample, Reflection
from oracles import kept_rows, to_object_frame

PAD_LENGTH = 64


def oracle_rows(sample):
    """(M, 5) network features, one numpy array per reflection."""
    return np.stack([
        np.array([*to_object_frame(r, sample.pose), r.rcs, r.range_m, r.vr])
        for r in sample.reflections
    ])


def oracle_norm_stats(samples):
    stacked = np.concatenate([oracle_rows(s) for s in samples], axis=0)
    std = np.maximum(stacked.std(axis=0), preprocess.STD_FLOOR)
    return preprocess.NormStats(stacked.mean(axis=0), std)


def oracle_handcrafted(sample, config=forest.FeatureConfig()):
    """The 13 features from one numpy array per column."""
    refls = sample.reflections
    obj_xy = np.array([to_object_frame(r, sample.pose) for r in refls])
    rcs = np.array([r.rcs for r in refls])
    ranges = np.array([r.range_m for r in refls])
    vr = np.array([r.vr for r in refls])
    azimuth = np.array([r.azimuth for r in refls])

    def spread(values):
        variance = float(values.var())
        return float(values.max() - values.min()), variance, math.sqrt(variance)

    extent_sum = float(
        (obj_xy[:, 0].max() - obj_xy[:, 0].min()) + (obj_xy[:, 1].max() - obj_xy[:, 1].min())
    )
    return np.array([
        config.velocity_resolution,
        float(len(refls)),
        1.0 if np.any(np.abs(vr) < config.stationary_threshold) else 0.0,
        float(azimuth.mean()),
        float(rcs.mean()),
        float(ranges.mean()),
        extent_sum,
        *spread(ranges),
        *spread(vr),
    ])


def assert_same_bits(actual, expected):
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert np.ascontiguousarray(actual).tobytes() == np.ascontiguousarray(expected).tobytes()


def assert_featurization_matches_oracle(samples):
    stats = preprocess.compute_norm_stats(samples)
    expected_stats = oracle_norm_stats(samples)
    assert_same_bits(stats.mean, expected_stats.mean)
    assert_same_bits(stats.std, expected_stats.std)
    for sample in samples:
        rows = oracle_rows(sample)
        assert_same_bits(preprocess.reflection_table(sample)[:, :preprocess.N_FEATURES], rows)
        padded = preprocess.prepare_input(sample, PAD_LENGTH, stats)
        expected = (kept_rows(rows, PAD_LENGTH) - expected_stats.mean) / expected_stats.std
        assert_same_bits(padded.rows, expected)
        assert_same_bits(padded.mask, np.arange(PAD_LENGTH) < len(expected))
        assert padded.m_real == len(expected) == min(len(rows), PAD_LENGTH)
        assert_same_bits(forest.extract_handcrafted(sample), oracle_handcrafted(sample))
    assert_same_bits(
        forest.extract_features(samples),
        np.stack([oracle_handcrafted(s) for s in samples]),
    )


# counts at and around numpy's pairwise-summation blocks (8, 128) and the
# 64-row pad, where more reflections than fit are cut to the highest-RCS ones
EDGE_COUNTS = (1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 400)


@st.composite
def objects(draw, counts=st.one_of(st.sampled_from(EDGE_COUNTS), st.integers(1, 400))):
    m = draw(counts)
    heading = draw(st.floats(-7.0, 7.0))
    px, py = draw(st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)))
    # one scale per column [x, y, rcs, range, vr, azimuth], from 1e-3 to 1e3
    scales = 10.0 ** np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=(m, 6)) * scales
    values[:, 0] += px
    values[:, 1] += py
    values[:, 3] = np.abs(values[:, 3])
    return ObjectSample(
        track_id="t0",
        class_label="car",
        pose=ObjectPose(px, py, heading),
        reflections=[Reflection(*map(float, row)) for row in values],
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(objects(), min_size=1, max_size=3))
def test_random_objects_match_the_oracle(samples):
    assert_featurization_matches_oracle(samples)


def test_desk_objects_match_the_oracle():
    samples = datagen.generate_dataset(datagen.desk_genspec(seed=0))
    assert len(samples) == 1407
    assert_featurization_matches_oracle(samples)


@st.composite
def shared_count_objects(draw, make=objects):
    """Up to 12 objects whose reflection counts come from a few shared values, shuffled."""
    counts = draw(st.lists(
        st.one_of(st.sampled_from((1, 8, 128, 129)), st.integers(1, 140)),
        min_size=1, max_size=3, unique=True,
    ))
    samples = draw(st.lists(make(st.sampled_from(counts)), min_size=1, max_size=12))
    return draw(st.permutations(samples))


@settings(max_examples=40, deadline=None)
@given(shared_count_objects())
def test_objects_sharing_a_count_match_the_oracle_in_input_order(samples):
    # extract_features reduces each group of equal counts as one stacked array
    expected = np.stack([oracle_handcrafted(s) for s in samples])
    assert_same_bits(forest.extract_features(samples), expected)
    assert_same_bits(np.stack([forest.extract_handcrafted(s) for s in samples]), expected)


def desk_samples():
    return datagen.generate_dataset(datagen.desk_genspec(seed=0))


def test_desk_featurization_runs_one_pass_per_reflection_count(monkeypatch):
    samples = desk_samples()
    passes = []
    group_features = forest._group_features

    def counted(tables, config):
        passes.append(tables.shape)
        return group_features(tables, config)

    monkeypatch.setattr(forest, "_group_features", counted)
    features = forest.extract_features(samples)
    counts = {len(s.reflections) for s in samples}
    assert len(counts) > 20
    assert sorted(shape[1] for shape in passes) == sorted(counts)
    assert sum(shape[0] for shape in passes) == len(samples)
    assert features[:, 1].tolist() == [len(s.reflections) for s in samples]


def test_featurizing_the_desk_set_peaks_under_2_mb():
    import tracemalloc

    samples = desk_samples()
    tracemalloc.start()
    try:
        features = forest.extract_features(samples)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert features.shape == (1407, forest.N_HANDCRAFTED)
    assert peak < 2 * 2**20


def test_prepared_desk_inputs_hold_under_1_5_mb():
    import tracemalloc

    samples = desk_samples()
    stats = preprocess.compute_norm_stats(samples)
    tracemalloc.start()
    try:
        inputs = [preprocess.prepare_input(s, PAD_LENGTH, stats) for s in samples]
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(inputs) == 1407
    assert held < 1.5 * 2**20


def test_reflection_table_columns():
    sample = ObjectSample(
        track_id="t0",
        class_label="car",
        pose=ObjectPose(10.0, 0.0, math.pi / 2),
        reflections=[Reflection(x=10.0, y=2.0, rcs=3.0, range_m=4.0, vr=5.0, azimuth=6.0)],
    )
    table = preprocess.reflection_table(sample)
    assert table.shape == (1, 6) and table.dtype == np.float64
    np.testing.assert_allclose(table[0], [2.0, 0.0, 3.0, 4.0, 5.0, 6.0], atol=1e-12)


def test_no_samples_give_an_empty_feature_matrix():
    features = forest.extract_features([])
    assert features.shape == (0, forest.N_HANDCRAFTED)
    assert features.dtype == np.float64


@pytest.mark.parametrize("config", [
    forest.FeatureConfig(velocity_resolution=0.25, stationary_threshold=2.0),
    forest.FeatureConfig(stationary_threshold=0.0),
], ids=["coarse-velocity-high-threshold", "zero-threshold"])
def test_feature_config_reaches_the_features(config):
    samples = datagen.generate_dataset(datagen.desk_genspec(seed=0))[:50]
    assert_same_bits(
        forest.extract_features(samples, config),
        np.stack([oracle_handcrafted(s, config) for s in samples]),
    )


def assert_set_table_is_the_object_tables(samples):
    table, lengths = preprocess.object_frame_table(samples)
    assert_same_bits(table, np.concatenate([preprocess.reflection_table(s) for s in samples]))
    assert_same_bits(lengths, np.array([len(s.reflections) for s in samples], dtype=np.intp))
    # the per-object definition of the norm stats
    rows = np.concatenate([preprocess.reflection_table(s)[:, :preprocess.N_FEATURES]
                           for s in samples])
    expected = preprocess.NormStats.of(rows)
    stats = preprocess.compute_norm_stats(samples)
    assert_same_bits(stats.mean, expected.mean)
    assert_same_bits(stats.std, expected.std)


def test_desk_set_table_is_the_object_tables():
    assert_set_table_is_the_object_tables(desk_samples())


# headings at and past +-pi, signed zeros and large magnitudes
HEADINGS = st.one_of(
    st.sampled_from((math.pi, -math.pi, 0.0, -0.0, math.pi / 2, 1e9)),
    st.floats(-1e9, 1e9),
)
POSITIONS = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-1e8, 1e8))


@st.composite
def frame_objects(draw, counts):
    m = draw(counts)
    px, py = draw(st.tuples(POSITIONS, POSITIONS))
    # one scale per column [x, y, rcs, range, vr, azimuth], from 1e-3 to 1e8
    scales = 10.0 ** np.array(draw(st.lists(st.floats(-3.0, 8.0), min_size=6, max_size=6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=(m, 6)) * scales
    values[:, 0] += px
    values[:, 1] += py
    values[:, 3] = np.abs(values[:, 3])
    values[rng.random((m, 6)) < 0.1] = -0.0
    return ObjectSample(
        track_id="t0",
        class_label="car",
        pose=ObjectPose(px, py, draw(HEADINGS)),
        reflections=preprocess.reflection_list(values.tolist()),
    )


@settings(max_examples=60, deadline=None)
@given(shared_count_objects(frame_objects))
def test_set_table_is_the_object_tables(samples):
    assert_set_table_is_the_object_tables(samples)


def test_no_samples_give_an_empty_set_table():
    table, lengths = preprocess.object_frame_table([])
    assert table.shape == (0, 6) and table.dtype == np.float64
    assert lengths.shape == (0,) and lengths.dtype == np.intp


def test_a_five_value_reflection_is_refused_by_name():
    sample = ObjectSample(
        track_id="t0",
        class_label="car",
        pose=ObjectPose(0.0, 0.0, 0.0),
        reflections=preprocess.reflection_list([(1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
                                                (1.0, 2.0, 3.0, 4.0, 5.0)]),
    )
    good = desk_samples()[:2]
    for featurize in (preprocess.object_frame_table, preprocess.compute_norm_stats,
                      forest.extract_features):
        with pytest.raises(ValueError, match="sample 2 has a reflection of 5 values, not 6"):
            featurize(good + [sample])


def test_set_featurizers_build_no_per_object_table(monkeypatch):
    samples = desk_samples()
    calls = []
    for module, name in [(preprocess, "reflection_table"), (preprocess, "flat_reflection_table"),
                         (forest, "reflection_table")]:
        def counted(sample, call=getattr(module, name)):
            calls.append(sample)
            return call(sample)
        monkeypatch.setattr(module, name, counted)
    forest.extract_features(samples)
    preprocess.compute_norm_stats(samples)
    assert calls == []
