"""Acceptance gate: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines as
they complete. The two training-heavy criteria (desk benchmark and
ablation) are marked `slow`; they run by default and can be deselected
with `-m "not slow"`.
"""

import json
import math
import resource
import subprocess
import sys
import time

import numpy as np
import pytest

from deepreflecs import cli, datagen, evaluate, forest, gridcnn, nn, preprocess, trainer
from deepreflecs import model as reflectnet
from deepreflecs.preprocess import NormStats, ObjectPose, ObjectSample, PaddedInput, Reflection
from oracles import sample_of_rows
from test_golden import blas_env

BENCH_SEEDS = (0, 1, 2, 3, 4)


def report(criterion: str, detail: str = ""):
    print(f"[PASS] {criterion}" + (f" — {detail}" if detail else ""))


@pytest.fixture(scope="module")
def desk_datasets(tmp_path_factory):
    """The five seeded desk-scale datasets used by criteria 6 and 7."""
    root = tmp_path_factory.mktemp("desk")
    paths = {}
    for seed in BENCH_SEEDS:
        path = root / f"desk_{seed}.jsonl"
        preprocess.write_dataset(
            datagen.generate_dataset(datagen.desk_genspec(seed=seed)), str(path)
        )
        paths[seed] = str(path)
    return paths


def random_padded(rng, pad_length=64):
    return PaddedInput(rng.standard_normal((int(rng.integers(1, 31)), 5)), pad_length)


def test_criterion_1_parameter_counts():
    """Exact learnable-parameter counts for all three builds."""
    start = time.perf_counter()
    assert reflectnet.build_model().vector.size == 1284
    # ablated build: removing the context layer halves conv2's input width
    # (16 instead of 32) with every other width fixed, so the element-count
    # oracle gives 96 + 544 + 132
    ablated = reflectnet.build_model(reflectnet.ReflectNetConfig(use_gcl=False))
    assert ablated.vector.size == 96 + (16 * 32 + 32) + 132 == 772
    assert gridcnn.build_gridcnn().vector.size == 232628
    report(
        "criterion 1: parameter counts",
        f"1284 with context layer, 772 ablated, 232628 grid CNN "
        f"({time.perf_counter() - start:.2f}s)",
    )


def test_criterion_2_permutation_invariance():
    """1000 random (input, permutation) pairs, bitwise-identical outputs."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    net = reflectnet.build_model(seed=7)
    for _ in range(1000):
        inp = random_padded(rng)
        base = reflectnet.forward(net, inp).probabilities
        perm = rng.permutation(inp.m_real)
        permuted = PaddedInput(inp.rows[perm], inp.pad_length)
        assert np.array_equal(reflectnet.forward(net, permuted).probabilities, base)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report("criterion 2: permutation invariance", f"1000 pairs bitwise ({elapsed:.1f}s)")


def test_criterion_3_padding_invariance():
    """1000 random inputs: pad m, 64 and 128, and two sets of batch
    neighbours with garbage rows, bitwise equal."""
    start = time.perf_counter()
    rng = np.random.default_rng(2025)
    net = reflectnet.build_model(seed=7)
    stats = NormStats.identity()
    for _ in range(1000):
        m = int(rng.integers(1, 31))
        sample = sample_of_rows(rng.standard_normal((m, 5)))
        inputs = [preprocess.prepare_input(sample, pad, stats) for pad in (m, 64, 128)]
        outs = [reflectnet.forward(net, inp).probabilities for inp in inputs]
        assert np.array_equal(outs[0], outs[1]) and np.array_equal(outs[0], outs[2])
        batched = []
        for pad in (64, 128):
            garbage = [PaddedInput(rng.standard_normal((k, 5)) * 1e3, pad) for k in (1, 30)]
            batch = net.stage([garbage[0], inputs[1], garbage[1]])
            batched.append(net.predict_batch(batch)[1])
        assert np.array_equal(batched[0], batched[1])
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report("criterion 3: padding invariance", f"1000 inputs bitwise ({elapsed:.1f}s)")


def gradient_fidelity() -> dict:
    """The worst relative errors of 10 gradient checks of each network, and
    the parameter count each reflection-network check covered."""
    worst_net = 0.0
    net_checked = []
    net = reflectnet.build_model(reflectnet.ReflectNetConfig(pad_length=8), seed=3)
    rng = np.random.default_rng(11)
    for _ in range(10):
        inp, label = nn.random_safe_sample(net, rng)
        rep = nn.gradcheck(net, [inp], [label], reflectnet.loss_and_grads)
        net_checked.append(len(rep.per_parameter_errors))
        worst_net = max(worst_net, rep.max_relative_error)

    worst_grid = 0.0
    for seed in range(10):
        rep = gridcnn.gradcheck_random_sample(seed=seed, max_checks_per_tensor=48)
        worst_grid = max(worst_grid, rep.max_relative_error)
    return {"net": worst_net, "net_checked": net_checked, "grid": worst_grid}


def test_criterion_4_gradient_fidelity():
    """Central differences (float64, h=1e-5) within 1e-4 on 10 samples each.

    The checks run in a child process with one BLAS thread, and the bound
    is on its CPU seconds: threaded OpenBLAS spins while it waits, so on a
    busy host both the wall time and the CPU time of a threaded run grow
    with the host's load rather than with the code."""
    assert nn.GRADCHECK_STEP == 1e-5
    start = time.perf_counter()
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run(
        [sys.executable, __file__], capture_output=True, text=True, env=blas_env(1), timeout=600
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stderr[-2000:]
    worst = json.loads(done.stdout)
    assert worst["net_checked"] == [1284] * 10  # every parameter checked
    assert worst["net"] < 1e-4
    assert worst["grid"] < 1e-4
    cpu = after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
    assert cpu < 60.0
    report(
        "criterion 4: gradient fidelity",
        f"max rel err net {worst['net']:.2e} (all 1284 params), "
        f"grid CNN {worst['grid']:.2e} (seeded subsets) "
        f"({cpu:.1f}s CPU, {elapsed:.1f}s wall)",
    )


def test_criterion_5_unit_values():
    """Spot values: pool, context concat, softmax, cross-entropy, cells, lr."""
    start = time.perf_counter()
    x = np.array([[1.0, 5.0], [4.0, 2.0]])
    assert np.array_equal(nn.masked_global_max_pool(x, [True, True]), [4.0, 5.0])
    assert np.array_equal(nn.masked_global_max_pool(x, [True, False]), [1.0, 5.0])

    gcl = nn.global_context_layer(np.array([[1.0, 2.0], [3.0, 0.0]]), [True, True])
    assert np.array_equal(gcl, [[1.0, 2.0, 3.0, 2.0], [3.0, 0.0, 3.0, 2.0]])

    np.testing.assert_allclose(nn.softmax(np.zeros(4)), [0.25] * 4, atol=1e-15)
    np.testing.assert_allclose(
        nn.softmax(np.array([math.log(2.0), 0.0])), [2 / 3, 1 / 3], atol=1e-14
    )
    p = nn.softmax(np.array([1000.0, 0.0]))
    assert np.isfinite(p).all() and abs(p[0] - 1.0) < 1e-12

    assert abs(nn.mean_cross_entropy(np.full((1, 4), 0.25), [1]) - math.log(4.0)) < 1e-9
    np.testing.assert_allclose(
        nn.softmax_cross_entropy_grad(np.full(4, 0.25), 2), [0.25, 0.25, -0.75, 0.25]
    )

    assert gridcnn.cell_index(0.0) == 5
    assert gridcnn.cell_index(1.9) == 10
    assert gridcnn.cell_index(2.5) == 12  # outside the 11-cell window -> dropped
    assert gridcnn.cell_index(2.0) == 11  # boundary is half-open -> dropped

    config = trainer.TrainConfig(epochs=256)
    assert trainer.lr_at(0, config) == 0.01
    assert trainer.lr_at(255, config) == 0.0001
    report("criterion 5: unit values", f"({time.perf_counter() - start:.2f}s)")


@pytest.mark.slow
def test_criterion_6_desk_benchmark(desk_datasets):
    """Network >= 0.90 total and >= forest, for at least 4 of 5 seeds."""
    start = time.perf_counter()
    holds = 0
    lines = []
    for seed in BENCH_SEEDS:
        rep = evaluate.run_benchmark(
            desk_datasets[seed], config=trainer.TrainConfig(seed=seed),
            methods=["deepreflecs", "craftedforest"],
        )
        data = rep.benchmark_json()["methods"]
        net = data["deepreflecs"]["total_accuracy"]
        fr = data["craftedforest"]["total_accuracy"]
        ok = net >= 0.90 and net >= fr
        holds += ok
        lines.append(f"seed {seed}: net {net:.4f} forest {fr:.4f} {'ok' if ok else 'MISS'}")
    elapsed = time.perf_counter() - start
    assert holds >= 4, "\n".join(lines)
    assert elapsed < 600.0
    report(
        "criterion 6: desk benchmark ordering",
        f"{holds}/5 seeds hold ({elapsed:.0f}s) | " + " | ".join(lines),
    )


@pytest.mark.slow
def test_criterion_7_ablation_direction(desk_datasets):
    """Context layer: total >= ablated and cyclist strictly better, 4 of 5."""
    start = time.perf_counter()
    cyclist = preprocess.CLASS_TO_INDEX["cyclist"]
    holds = 0
    lines = []
    for seed in BENCH_SEEDS:
        rep = evaluate.run_ablation(desk_datasets[seed], config=trainer.TrainConfig(seed=seed))
        with_total = rep.results["with_gcl"].metrics.total_accuracy
        without_total = rep.results["without_gcl"].metrics.total_accuracy
        with_cyc = rep.results["with_gcl"].metrics.per_class_accuracy[cyclist]
        without_cyc = rep.results["without_gcl"].metrics.per_class_accuracy[cyclist]
        ok = with_total >= without_total and with_cyc > without_cyc
        holds += ok
        lines.append(
            f"seed {seed}: total {with_total:.4f}/{without_total:.4f}"
            f" cyclist {with_cyc:.3f}/{without_cyc:.3f} {'ok' if ok else 'MISS'}"
        )
    elapsed = time.perf_counter() - start
    assert holds >= 4, "\n".join(lines)
    assert elapsed < 900.0
    report(
        "criterion 7: ablation direction",
        f"{holds}/5 seeds hold ({elapsed:.0f}s) | " + " | ".join(lines),
    )


def test_criterion_8_benchmark_determinism(tmp_path):
    """`benchmark` twice with one seed produces byte-identical JSON files."""
    start = time.perf_counter()
    data = tmp_path / "tiny.jsonl"
    spec = datagen.GenSpec(
        tracks_per_class={c: 5 for c in preprocess.CLASSES},
        samples_per_track=(2, 4),
        seed=8,
    )
    preprocess.write_dataset(datagen.generate_dataset(spec), str(data))
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"train": {"epochs": 2, "steps_per_epoch": 4, "batch_size": 8}})
    )
    blobs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = cli.main([
            "benchmark", "--data", str(data), "--seed", "7",
            "--config", str(config), "--json", str(out),
            "--timing-json", str(tmp_path / ("t_" + name)),
        ])
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    report(
        "criterion 8: benchmark determinism",
        f"byte-identical reports, all three methods ({time.perf_counter() - start:.1f}s)",
    )


def test_criterion_9_split_hygiene():
    """Zero track-id overlap across splits for 100 random seeds."""
    start = time.perf_counter()
    samples = []
    for label in preprocess.CLASSES:
        for t in range(11):
            for _ in range(3):
                samples.append(
                    ObjectSample(
                        track_id=f"{label}-{t}",
                        class_label=label,
                        pose=ObjectPose(10.0, 0.0, 0.0),
                        reflections=[
                            Reflection(x=10.0, y=0.0, rcs=0.0, range_m=10.0, vr=0.0, azimuth=0.0)
                        ],
                    )
                )
    for seed in range(100):
        train, val, test = preprocess.trackwise_split(samples, seed=seed)
        ids = [{s.track_id for s in part} for part in (train, val, test)]
        assert not ids[0] & ids[1]
        assert not ids[0] & ids[2]
        assert not ids[1] & ids[2]
        assert len(train) + len(val) + len(test) == len(samples)
    report(
        "criterion 9: split hygiene",
        f"100 seeds, zero leakage ({time.perf_counter() - start:.1f}s)",
    )


def test_criterion_10_round_trips(tmp_path):
    """Model bytes and dataset JSONL survive round trips exactly."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    net = reflectnet.build_model(seed=13)
    net.norm_stats = NormStats(rng.standard_normal(5), np.abs(rng.standard_normal(5)) + 0.1)
    state = None
    for _ in range(3):
        _, state = reflectnet.train_step(net, net.stage([random_padded(rng)]), [1], 0.01, state)
    restored = reflectnet.deserialize(reflectnet.serialize(net))
    for name, p in net.params().items():
        assert np.array_equal(p, restored.params()[name])
    assert np.array_equal(restored.norm_stats.mean, net.norm_stats.mean)
    assert np.array_equal(restored.norm_stats.std, net.norm_stats.std)

    grid_net = gridcnn.build_gridcnn(seed=13)
    grid_restored = gridcnn.deserialize(gridcnn.serialize(grid_net))
    for name, p in grid_net.params().items():
        assert np.array_equal(p, grid_restored.params()[name])

    fitted = forest.fit_forest(
        rng.standard_normal((40, 13)), rng.integers(0, 4, size=40), n_trees=5, seed=1
    )
    forest_restored = forest.deserialize(forest.serialize(fitted))
    for name in ("roots", "feature", "threshold", "left", "right", "counts"):
        assert np.array_equal(getattr(fitted, name), getattr(forest_restored, name))

    spec = datagen.GenSpec(
        tracks_per_class={c: 3 for c in preprocess.CLASSES},
        samples_per_track=(2, 3),
        seed=4,
    )
    dataset = datagen.generate_dataset(spec)
    path = tmp_path / "roundtrip.jsonl"
    preprocess.write_dataset(dataset, str(path))
    assert preprocess.read_dataset(str(path)) == dataset
    report(
        "criterion 10: round trips",
        f"model bitwise, dataset equal ({time.perf_counter() - start:.1f}s)",
    )


if __name__ == "__main__":
    sys.stdout.write(json.dumps(gradient_fidelity()) + "\n")
