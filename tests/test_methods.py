"""The method table: one train/eval/load path per method, shared by the CLI,
the benchmark and the perf harness, and a loader whose models can predict."""

import ast
import json
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import deepreflecs
from deepreflecs import cli, container, datagen, evaluate, forest, gridcnn, nn
from deepreflecs import model as reflectnet
from deepreflecs import preprocess, trainer

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TINY_TRAIN = {"epochs": 2, "steps_per_epoch": 3, "batch_size": 8}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "tiny.jsonl"
    spec = datagen.GenSpec(
        tracks_per_class={c: 5 for c in preprocess.CLASSES}, samples_per_track=(2, 3), seed=4
    )
    preprocess.write_dataset(datagen.generate_dataset(spec), str(path))
    return str(path)


def write_config(tmp_path, config: dict) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured


@pytest.mark.parametrize("method", evaluate.TABLE, ids=lambda m: m.name)
def test_cli_train_writes_the_benchmark_model(method, dataset, tmp_path, capsys):
    out = tmp_path / "model.bin"
    code, _ = run_cli(
        ["train", "--method", method.name, "--data", dataset, "--seed", "3",
         "--config", write_config(tmp_path, {"train": TINY_TRAIN}), "--out", str(out)],
        capsys,
    )
    assert code == 0
    splits = preprocess.trackwise_split(preprocess.read_dataset(dataset), seed=3)
    trained, _ = method.train(splits, trainer.TrainConfig(**TINY_TRAIN, seed=3), None)
    assert out.read_bytes() == method.serialize(trained)
    assert evaluate.method_for(out.read_bytes()) is method


@pytest.mark.parametrize(
    "config, named",
    [
        ({"train": {"bogus": 1}}, "bogus"),
        ({"train": {"epochs": 2, "lr": 0.1}}, "lr"),
        ({"train": [1]}, "'train'"),
        ({"train": None}, "'train'"),
        ({"train": {**TINY_TRAIN, "resample_factors": {"car": 1}}}, "resample_factors"),
        ({"model": [1]}, "'model'"),
        ({"train": TINY_TRAIN, "trian": {"epochs": 2}}, "trian"),
        ([{"train": {}}], "config"),
        ({"train": {"epochs": "2"}}, "epochs"),
        ({"train": {"batch_size": 2.5}}, "batch_size"),
        ({"train": {"epochs": True}}, "epochs"),
        ({"train": {"seed": "0"}}, "seed"),
        ({"train": {"lr_start": "0.01"}}, "lr_start"),
        ({"train": {"lr_start": float("inf")}}, "lr_start"),
        ({"train": {"steps_are_total": 1}}, "steps_are_total"),
        ({"train": {"optimizer": "adam"}}, "optimizer"),
        # the seed comes only from --seed
        ({"train": {**TINY_TRAIN, "seed": 5}}, "['seed']"),
    ],
    ids=["unknown-key", "unknown-key-beside-known", "train-list", "train-null",
         "resample-factors-removed", "model-list",
         "unknown-section", "config-list", "epochs-string", "batch-size-float",
         "epochs-bool", "seed-string", "lr-string", "lr-infinite", "steps-are-total-int",
         "optimizer-removed", "seed-set"],
)
@pytest.mark.parametrize("command", ["train", "benchmark", "ablate"])
def test_malformed_config_is_named_error(command, config, named, dataset, tmp_path, capsys):
    argv = [command, "--data", dataset, "--config", write_config(tmp_path, config)]
    if command == "train":
        argv += ["--method", "forest", "--out", str(tmp_path / "model.bin")]
    code, captured = run_cli(argv, capsys)
    assert code == 1
    error = json.loads(captured.err.strip().splitlines()[-1])
    assert error["error"] == "ConfigError"
    assert named in error["message"]


@pytest.mark.parametrize(
    "argv",
    [["train", "--method", method.name] for method in evaluate.TABLE]
    + [["benchmark", "--methods", "craftedforest"], ["benchmark"], ["ablate"]],
    ids=["train-deepreflecs", "train-forest", "train-gridcnn",
         "benchmark-forest", "benchmark", "ablate"],
)
@pytest.mark.parametrize(
    "model_config",
    [{"bogus": 1}, {"use_gcl": False}, {"pad_length": 64}, {"dropout": 0.3}, {"n_trees": 5}, {}],
    ids=["bogus", "use-gcl", "pad-length", "gridcnn-dropout", "forest-n_trees", "empty"],
)
def test_every_command_refuses_a_model_section(argv, model_config, dataset, tmp_path, capsys):
    out = tmp_path / "out.bin"
    config = write_config(tmp_path, {"train": TINY_TRAIN, "model": model_config})
    argv = argv + ["--data", dataset, "--config", config]
    argv += ["--out", str(out)] if argv[0] == "train" else ["--json", str(out)]
    code, captured = run_cli(argv, capsys)
    assert code == 1
    assert json.loads(captured.err.strip().splitlines()[-1]) == {
        "error": "ConfigError",
        "message": "the config has unknown keys ['model'] (it takes ['train'])",
    }
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["benchmark", "ablate"])
def test_the_report_follows_the_seed_argument(command, dataset, tmp_path, capsys):
    out = tmp_path / "report.json"
    argv = [command, "--data", dataset, "--seed", "5", "--json", str(out),
            "--config", write_config(tmp_path, {"train": TINY_TRAIN})]
    if command == "benchmark":
        argv += ["--methods", "deepreflecs", "--timing-json", str(tmp_path / "timing.json")]
    code, _ = run_cli(argv, capsys)
    assert code == 0
    config = trainer.TrainConfig(**TINY_TRAIN, seed=5)
    if command == "benchmark":
        expected = evaluate.run_benchmark(dataset, config, ["deepreflecs"]).benchmark_json()
    else:
        expected = evaluate.run_ablation(dataset, config).ablation_json()
    report = json.loads(out.read_text())
    assert report["seed"] == 5
    assert report == expected


def test_train_takes_either_name_of_a_method(dataset, tmp_path, capsys):
    blobs, names = [], []
    for name in ("forest", "craftedforest"):
        out = tmp_path / f"{name}.bin"
        code, captured = run_cli(
            ["train", "--method", name, "--data", dataset, "--out", str(out)], capsys
        )
        assert code == 0
        blobs.append(out.read_bytes())
        names.append(json.loads(captured.out)["method"])
    assert blobs[0] == blobs[1]
    assert names == ["forest", "forest"]


def test_benchmark_takes_either_name_of_a_method(dataset, tmp_path, capsys):
    reports = []
    for methods in ("forest", "craftedforest", "forest,craftedforest"):
        out = tmp_path / "report.json"
        code, _ = run_cli(
            ["benchmark", "--data", dataset, "--methods", methods, "--json", str(out),
             "--timing-json", str(tmp_path / "timing.json")],
            capsys,
        )
        assert code == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] == reports[2]
    assert list(json.loads(reports[0])["methods"]) == ["craftedforest"]


def test_unknown_magic_is_magic_error():
    with pytest.raises(container.MagicError):
        evaluate.method_for(b"NOPE" + bytes(16))


# --- one label rule for every method -----------------------------------------


def label_consumers():
    """Each place a list of four class labels enters the package, as a call."""
    inputs = [preprocess.PaddedInput(np.full((2, 5), float(i)), 8) for i in range(4)]
    names, indices = list(preprocess.CLASSES), [0, 1, 2, 3]
    net = reflectnet.build_model()
    schedule = trainer.TrainConfig(epochs=1, steps_per_epoch=1, batch_size=4)
    return {
        "metrics": lambda y: evaluate.MetricsReport.from_predictions(y, indices, 4),
        "forest": lambda y: forest.fit_forest(np.arange(8.0).reshape(4, 2), y, n_trees=2),
        "training": lambda y: trainer.train(net, inputs, y, names, inputs, indices, schedule),
        "validation": lambda y: trainer.train(net, inputs, indices, names, inputs, y, schedule),
    }


@pytest.mark.parametrize("consumer", list(label_consumers()))
@pytest.mark.parametrize(
    "labels, accepted",
    [
        ([0, 1, 2, 3], True), (np.array([0, 1, 2, 3], dtype=np.uint8), True),
        ([0, -1, 2, 3], False), ([0, 1, 4, 3], False), ([0, 1, 2.5, 3], False),
        ([0, 1, np.nan, 3], False), ([0.0, 1.0, 2.0, 3.0], False),
        ([True, False, True, False], False), (list(preprocess.CLASSES), False),
        ([[0], [1], [2], [3]], False),
    ],
    ids=["in-range", "uint8", "minus-one", "n-classes", "fractional", "nan",
         "integral-floats", "bools", "strings", "table"],
)
def test_every_method_takes_the_same_labels(consumer, labels, accepted):
    call = label_consumers()[consumer]
    if accepted:
        call(labels)
    else:
        with pytest.raises(ValueError, match="labels"):
            call(labels)


# --- the names the perf harness drives must keep resolving -------------------


def test_traced_layers_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    # spans.Tracer.wrap reads owner.__dict__, so an inherited or deleted name fails there
    for owner, attr in layers.LAYERS:
        raw = owner.__dict__.get(attr)
        assert callable(getattr(raw, "__func__", raw)), layers.layer_name(owner, attr)


def test_perfbench_padding_counter_reads_prepare_input(monkeypatch):
    # perfbench/layers.py counts (m_real, mask.size) of each prepare_input result
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    counters, stats = {}, preprocess.NormStats.identity()
    overflows = preprocess.overflow_count()
    for m in (3, 30):
        reflections = [preprocess.Reflection(i, 0.0, i, 1.0, 0.0, 0.0) for i in range(m)]
        sample = preprocess.ObjectSample("t", "car", preprocess.ObjectPose(0, 0, 0), reflections)
        layers._count_padding(counters, (sample, 8, stats), {}, preprocess.prepare_input(sample, 8, stats))
    assert list(counters["_padding"].values()) == [(3, 8), (8, 8)]
    assert preprocess.overflow_count() - overflows == 1


BENCHMARK_WORKLOADS = [
    w["name"] for w in json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["workloads"]
]


@pytest.mark.parametrize("name", BENCHMARK_WORKLOADS)
def test_perfbench_workload_drives_the_package(name, dataset, monkeypatch):
    # the calls perfbench/run.py makes, on a tiny dataset
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    method = workloads.WORKLOADS[name]
    train, val, test = preprocess.trackwise_split(preprocess.read_dataset(dataset), seed=0)
    prep = method.prepare(train, val, 0)
    method.warm_up(prep)
    trained = method.train(prep)
    blob = method.serialize(trained)
    loaded, predictions, _ = workloads.eval_from_bytes(
        method, blob, test, workloads.labels_of(test)
    )
    assert method.serialize(loaded) == blob
    assert method.samples_per_train(prep) > 0
    predicted, _ = method.classify(loaded, test[0])
    assert predicted == predictions[0]


def deepreflecs_names(path: Path):
    """Every dotted name rooted at a deepreflecs module that a file reads."""
    tree = ast.parse(path.read_text())
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "deepreflecs":
            for alias in node.names:
                modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            modules.update({a.asname or a.name: "" for a in node.names if a.name == "deepreflecs"})
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in modules:
            yield [modules[node.id]] + chain if modules[node.id] else chain


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda p: p.name)
def test_perfbench_names_resolve(path):
    for chain in deepreflecs_names(path):
        owner = deepreflecs
        for attr in chain:
            if not hasattr(owner, attr):  # a submodule not imported yet
                __import__(f"{owner.__name__}.{attr}")
            owner = getattr(owner, attr)


@pytest.mark.parametrize(
    "module, build", [(reflectnet, reflectnet.build_model), (gridcnn, gridcnn.build_gridcnn)],
    ids=["deepreflecs", "gridcnn"],
)
def test_network_methods_reach_the_traced_module_functions(module, build, monkeypatch):
    # perfbench/layers.py traces these module functions; a method that went
    # around one would read 0 calls in the trace instead of failing here
    calls = {}
    for name in ("forward", "train_step", "loss_and_grads"):
        def counted(*args, name=name, original=getattr(module, name), **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    net = build(seed=0)
    rng = np.random.default_rng(0)
    inputs = [net.random_input(rng) for _ in range(3)]
    net.predict(inputs[0])
    assert calls == {"forward": 1}
    for batch in (inputs, net.stage(inputs)):
        calls.clear()
        net.train_step(batch, [0, 1, 2], 0.01, None, rng=rng)
        assert calls == {"train_step": 1, "loss_and_grads": 1}


# --- loader fuzz property ----------------------------------------------------


def small_models():
    rng = np.random.default_rng(0)
    net = reflectnet.build_model(seed=1)
    net.norm_stats = preprocess.NormStats(rng.normal(size=5), rng.uniform(0.5, 2.0, size=5))
    cnn = gridcnn.build_gridcnn(seed=1)
    cnn.norm_stats = preprocess.NormStats(np.array([0.5, -0.1]), np.array([2.0, 0.7]))
    features = rng.normal(size=(40, forest.N_HANDCRAFTED))
    trees = forest.fit_forest(features, rng.integers(0, 4, size=40), n_trees=3, seed=0)
    return {"RFLN": net, "GCNN": cnn, "FRST": trees}


MODELS = small_models()
BLOBS = {magic: evaluate.method_for(magic.encode()).serialize(m) for magic, m in MODELS.items()}


@pytest.mark.parametrize("magic", sorted(BLOBS))
def test_evaluating_no_samples_is_dataset_error(magic, tmp_path, capsys):
    model_path, data_path = tmp_path / "model.bin", tmp_path / "empty.jsonl"
    model_path.write_bytes(BLOBS[magic])
    data_path.write_text("")
    with pytest.raises(preprocess.DatasetError) as err:
        evaluate.evaluate_model(evaluate.method_for(BLOBS[magic]), MODELS[magic], [])
    assert str(err.value) == preprocess.NO_SAMPLES
    code, captured = run_cli(["eval", "--model", str(model_path), "--data", str(data_path)], capsys)
    assert code == 1
    assert json.loads(captured.err.strip().splitlines()[-1]) == {
        "error": "DatasetError", "message": preprocess.NO_SAMPLES
    }


@pytest.mark.parametrize("magic", sorted(BLOBS))
def test_every_loaded_array_is_aligned_and_read_only(magic):
    parsed = container.read_container(BLOBS[magic], magic.encode())
    arrays = [parsed.norm_means, parsed.norm_stds, *parsed.arrays.values()]
    if magic == "FRST":  # the forest keeps the parsed views themselves
        loaded = forest.deserialize(BLOBS[magic])
        arrays += [getattr(loaded, name) for name in forest._TABLE]
    for array in arrays:
        assert array.flags.aligned and not array.flags.writeable


@pytest.mark.parametrize("magic", ["GCNN", "RFLN"])
def test_a_loaded_network_keeps_no_view_of_its_file(magic):
    blob = BLOBS[magic]
    loaded = evaluate.method_for(blob).deserialize(blob)
    file_bytes = np.frombuffer(blob, dtype=np.uint8)
    for array in (loaded.vector, loaded.norm_stats.mean, loaded.norm_stats.std):
        assert not np.shares_memory(array, file_bytes)


@pytest.mark.parametrize("n_classes", [2, 5])
def test_model_of_another_class_count_is_named_error(n_classes, dataset, tmp_path, capsys):
    # a forest file declaring n_classes, with that many counts per node
    parsed = container.read_container(BLOBS["FRST"], forest.MAGIC)
    counts = np.zeros((parsed.arrays["counts"].shape[0], n_classes), dtype=np.int32)
    model_path = tmp_path / "model.bin"
    model_path.write_bytes(container.write_container(
        forest.MAGIC, {**parsed.config, "n_classes": n_classes}, None,
        list({**parsed.arrays, "counts": counts}.items()),
    ))
    code, captured = run_cli(["eval", "--model", str(model_path), "--data", dataset], capsys)
    assert code == 1
    assert json.loads(captured.err.strip().splitlines()[-1]) == {
        "error": "ContainerError",
        "message": f"forest config: n_classes must be an integer in [4, 4], not {n_classes}",
    }
    assert captured.out == ""


@pytest.mark.parametrize("magic", sorted(BLOBS))
def test_model_with_a_deeply_nested_config_is_named_error(magic, dataset, tmp_path, capsys):
    # a checksum-valid file whose config block nests 200,000 arrays
    blob = BLOBS[magic]
    config = b'{"a": ' + b"[" * 200_000 + b"}"
    payload = blob[:8] + struct.pack("<I", len(config)) + config
    payload += blob[12 + struct.unpack_from("<I", blob, 8)[0] : -4]
    model_path = tmp_path / "model.bin"
    model_path.write_bytes(payload + struct.pack("<I", zlib.crc32(payload)))
    code, captured = run_cli(["eval", "--model", str(model_path), "--data", dataset], capsys)
    assert code == 1
    error = json.loads(captured.err.strip().splitlines()[-1])
    assert error["error"] == "ContainerError" and "config block" in error["message"]
    assert captured.out == ""


SAMPLE = datagen.generate_dataset(
    datagen.GenSpec(tracks_per_class={"car": 1}, samples_per_track=(1, 1), seed=2)
)[0]
FUZZ = settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def positions(size: int):
    # the header and config sit in the first bytes; bias some draws there
    return st.one_of(st.integers(0, min(size - 1, 256)), st.integers(0, size - 1))


@pytest.mark.parametrize("magic", sorted(BLOBS))
@FUZZ
@given(data=st.data())
def test_any_byte_change_or_truncation_is_container_error(magic, data):
    blob = BLOBS[magic]
    method = evaluate.method_for(blob)
    if data.draw(st.booleans(), label="truncate"):
        changed = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        at = data.draw(positions(len(blob)), label="at")
        delta = data.draw(st.integers(1, 255), label="xor")
        changed = blob[:at] + bytes([blob[at] ^ delta]) + blob[at + 1 :]
    with pytest.raises(container.ContainerError):
        method.deserialize(changed)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("magic", ["GCNN", "RFLN"])
def test_non_finite_probabilities_are_named_error(magic, dataset, tmp_path, capsys):
    # a tiny std passes the loader's checks, then overflows normalization
    model = MODELS[magic].copy()
    if magic == "GCNN":
        model.norm_stats = preprocess.NormStats(model.norm_stats.mean, np.array([1e-300, 1.0]))
    else:
        model.norm_stats = preprocess.NormStats(np.zeros(5), np.array([1e-300] + [1.0] * 4))
    method = evaluate.method_for(magic.encode())
    loaded = method.deserialize(method.serialize(model))
    inputs = method.featurize(loaded, preprocess.read_dataset(dataset))
    with pytest.raises(nn.NonFiniteError):
        loaded.predict(inputs[0])
    with pytest.raises(nn.NonFiniteError):
        loaded.predict_batch(loaded.stage(inputs))
    model_path = tmp_path / "model.bin"
    model_path.write_bytes(method.serialize(model))
    code, captured = run_cli(["eval", "--model", str(model_path), "--data", dataset], capsys)
    assert code == 1
    assert json.loads(captured.err.strip().splitlines()[-1])["error"] == "NonFiniteError"
    assert captured.out == ""


# A finite but extreme norm stat or weight can still load; its forward pass
# then overflows, which predict reports as NonFiniteError.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("magic", sorted(BLOBS))
@FUZZ
@given(data=st.data())
def test_resealed_byte_change_gives_a_predicting_model_or_container_error(magic, data):
    blob = BLOBS[magic]
    method = evaluate.method_for(blob)
    at = data.draw(positions(len(blob) - 4), label="at")
    delta = data.draw(st.integers(1, 255), label="xor")
    payload = blob[:at] + bytes([blob[at] ^ delta]) + blob[at + 1 : -4]
    try:
        loaded = method.deserialize(payload + struct.pack("<I", zlib.crc32(payload)))
    except container.ContainerError:
        return
    n_classes = len(preprocess.CLASSES)
    try:
        predicted = loaded.predict(method.featurize(loaded, [SAMPLE])[0])
    except nn.NonFiniteError:
        assert magic != "FRST"
        return
    if magic == "FRST":
        assert 0 <= predicted < n_classes
        return
    assert predicted.probabilities.shape == (n_classes,)
    assert np.isfinite(predicted.probabilities).all()
    assert 0 <= predicted.predicted < n_classes
