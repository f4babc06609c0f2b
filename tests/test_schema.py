"""The one config schema: every checked dataclass refuses a wrong value of
every field, from JSON, from direct construction and from a file given on
the command line, with a named error that names the field."""

import dataclasses
import importlib
import itertools
import json
import math
import pkgutil
import re
import typing
from pathlib import Path
from typing import Dict, List, Literal, Tuple, Union

import numpy as np
import pytest

import deepreflecs
from deepreflecs import cli, container, datagen, forest, gridcnn, preprocess, schema, trainer
from deepreflecs import model as reflectnet


def reloaded(module, model):
    """A model file's config block; the bytes of the file with that block
    replaced; deserialize of those bytes."""
    parsed = container.read_container(module.serialize(model), module.MAGIC)
    stats = (parsed.norm_means, parsed.norm_stds) if parsed.norm_means.size else None

    def rewrite(config) -> bytes:
        return container.write_container(module.MAGIC, config, stats, list(parsed.arrays.items()))

    return parsed.config, rewrite, lambda config: module.deserialize(rewrite(config))


def from_json(cls):
    return lambda raw: schema.build(cls, raw, "the config")


FOREST = forest.fit_forest(np.arange(6.0)[:, None], np.array([0, 1, 2, 0, 1, 2]), n_trees=2)
FOREST_CONFIG, FOREST_FILE, LOAD_FOREST = reloaded(forest, FOREST)
GRIDCNN_CONFIG, GRIDCNN_FILE, LOAD_GRIDCNN = reloaded(gridcnn, gridcnn.build_gridcnn())
NETWORK_CONFIG, NETWORK_FILE, LOAD_NETWORK = reloaded(reflectnet, reflectnet.build_model())


def json_of(instance) -> dict:
    return json.loads(json.dumps(dataclasses.asdict(instance)))


# (checked dataclass, valid JSON, load from JSON, the error a bad value raises)
TABLE = {
    "TrainConfig": (
        trainer.TrainConfig, json_of(trainer.TrainConfig()),
        from_json(trainer.TrainConfig), schema.ConfigError,
    ),
    "ReflectNetConfig": (
        reflectnet.ReflectNetConfig, json_of(reflectnet.ReflectNetConfig()),
        from_json(reflectnet.ReflectNetConfig), schema.ConfigError,
    ),
    "ReflectNetConfig-file": (
        reflectnet.ReflectNetConfig, NETWORK_CONFIG, LOAD_NETWORK, container.ContainerError,
    ),
    "GenSpec": (
        datagen.GenSpec, json_of(datagen.GenSpec()), from_json(datagen.GenSpec),
        schema.ConfigError,
    ),
    "forest-file": (forest.FileConfig, FOREST_CONFIG, LOAD_FOREST, container.ContainerError),
    "gridcnn-file": (gridcnn.FileConfig, GRIDCNN_CONFIG, LOAD_GRIDCNN, container.ContainerError),
}

# 2**1024 is the least integer too large for a float; JSON parses it exactly.
WRONG = [
    "x", True, 1.5, None, ["x"], {"x": 1}, float("nan"), float("inf"), -float("inf"), 2**1024,
]


def label(value) -> str:
    return "2**1024" if value == 2**1024 else repr(value)


def hints(cls) -> dict:
    return typing.get_type_hints(cls, include_extras=True)


def accepts(hint, value) -> bool:
    """Whether a field of this annotation takes one of the WRONG values."""
    bound = None
    if typing.get_origin(hint) is typing.Annotated:
        hint, bound = hint.__origin__, hint.__metadata__[0]
    if value is True:
        return hint is bool
    return value == 1.5 and hint is float and (bound is None or 1.5 in bound)


CASES = [
    pytest.param(key, name, value, id=f"{key}-{name}-{label(value)}")
    for key, (cls, _, _, _) in TABLE.items()
    for name, hint in hints(cls).items()
    for value in WRONG
    if not accepts(hint, value)
]


@pytest.mark.parametrize("key, name, value", CASES)
def test_wrong_json_value_is_named_error_naming_the_field(key, name, value):
    _, valid, load, error = TABLE[key]
    with pytest.raises(error, match=name):
        load({**valid, name: value})


@pytest.mark.parametrize("key, name, value", CASES)
def test_wrong_value_in_construction_is_config_error_naming_the_field(key, name, value):
    cls, valid, _, _ = TABLE[key]
    good = schema.build(cls, valid, "the config")
    kwargs = {f.name: getattr(good, f.name) for f in dataclasses.fields(cls)}
    with pytest.raises(schema.ConfigError, match=name):
        cls(**{**kwargs, name: value})


# --- the same wrong values from a file given on the command line -------------

# the commands that read each TABLE key from a file; "train" reads the
# deepreflecs method's 'train' and 'model' sections
COMMANDS = {
    "TrainConfig": ("train", "benchmark", "ablate"),
    "ReflectNetConfig": ("train",),
    "GenSpec": ("generate",),
    "ReflectNetConfig-file": ("eval",),
    "forest-file": ("eval",),
    "gridcnn-file": ("eval",),
}
MODEL_FILES = {
    "ReflectNetConfig-file": NETWORK_FILE, "forest-file": FOREST_FILE,
    "gridcnn-file": GRIDCNN_FILE,
}
SECTIONS = {"TrainConfig": "train", "ReflectNetConfig": "model"}

CLI_CASES = [
    pytest.param(command, *case.values, id=f"{command}-{case.id}")
    for case in CASES
    for command in COMMANDS[case.values[0]]
]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A one-track dataset: eval reads its data before the model's config."""
    path = tmp_path_factory.mktemp("data") / "tiny.jsonl"
    spec = datagen.GenSpec(tracks_per_class={"car": 1}, samples_per_track=(2, 2))
    preprocess.write_dataset(datagen.generate_dataset(spec), str(path))
    return str(path)


def command_line(command, key, name, value, tmp_path, dataset):
    """argv of `command` given a file that sets `name` of TABLE[key] to `value`."""
    if key in MODEL_FILES:
        _, valid, _, _ = TABLE[key]
        model = tmp_path / "model.bin"
        model.write_bytes(MODEL_FILES[key]({**valid, name: value}))
        return ["eval", "--model", str(model), "--data", dataset]
    raw = {name: value} if key == "GenSpec" else {SECTIONS[key]: {name: value}}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(raw))
    out = ["--out", str(tmp_path / "out")]
    if command == "generate":
        return ["generate", "--spec", str(path), *out]
    argv = [command, "--data", dataset, "--config", str(path)]
    return argv + ["--method", "deepreflecs", *out] if command == "train" else argv


@pytest.mark.parametrize("command, key, name, value", CLI_CASES)
def test_wrong_value_in_a_file_is_named_error_on_the_command_line(
    command, key, name, value, tmp_path, dataset, capsys
):
    _, _, _, error = TABLE[key]
    code = cli.main(command_line(command, key, name, value, tmp_path, dataset))
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    reported = json.loads(captured.err.strip().splitlines()[-1])
    assert reported["error"] == error.__name__
    assert name in reported["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", TABLE)
def test_valid_json_loads(key):
    _, valid, load, _ = TABLE[key]
    load(valid)


@pytest.mark.parametrize("key", ["TrainConfig", "GenSpec"])
@pytest.mark.parametrize("extra", [{"bogus": 1}, {"Seed": 0}], ids=["bogus", "Seed"])
def test_unknown_key_is_named_error(key, extra):
    _, valid, load, error = TABLE[key]
    with pytest.raises(error, match=list(extra)[0]):
        load({**valid, **extra})


@pytest.mark.parametrize(
    "key, name",
    [
        ("TrainConfig", "steps_are_total"),
        ("TrainConfig", "optimizer"),
        ("TrainConfig", "resample_factors"),
        ("GenSpec", "profiles"),
        ("GenSpec", "start_range"),
        ("GenSpec", "stop_range"),
    ],
)
def test_a_removed_key_is_named_error(key, name):
    cls, valid, load, error = TABLE[key]
    assert name not in {f.name for f in dataclasses.fields(cls)}
    with pytest.raises(error, match=name):
        load({**valid, name: 0})


@pytest.mark.parametrize("key", ["forest-file", "gridcnn-file"])
def test_missing_key_is_container_error(key):
    cls, valid, load, error = TABLE[key]
    name = dataclasses.fields(cls)[0].name
    with pytest.raises(error, match=name):
        load({k: v for k, v in valid.items() if k != name})


@pytest.mark.parametrize(
    "key, name, inside, outside",
    [
        ("gridcnn-file", "dropout", 0.5, 0.3),
        ("forest-file", "n_classes", 4, 3),
        ("gridcnn-file", "n_classes", 4, 5),
        ("ReflectNetConfig-file", "pad_length", reflectnet.MAX_PAD_LENGTH, 4097),
        ("ReflectNetConfig", "n_features", 5, 3),
        ("ReflectNetConfig", "n_classes", 4, 3),
        ("ReflectNetConfig", "n_classes", 4, 5),
        ("ReflectNetConfig-file", "n_features", 5, 6),
        ("ReflectNetConfig-file", "n_classes", 4, 5),
        ("ReflectNetConfig", "width1", 16, 8),
        ("ReflectNetConfig-file", "width2", 32, 64),
        ("TrainConfig", "epochs", 1, 0),
        # a list value gets no id of its own, only its position
        pytest.param("forest-file", "oob", [0, 0], [0, -1], id="forest-file-oob-0,0-0,-1"),
    ],
)
def test_bounds(key, name, inside, outside):
    _, valid, load, error = TABLE[key]
    load({**valid, name: inside})
    with pytest.raises(error, match=name):
        load({**valid, name: outside})


def test_json_lists_become_tuples_and_keys_left_out_keep_their_defaults():
    spec = schema.build(
        datagen.GenSpec, {"samples_per_track": [2, 3]}, "the spec", fixed=("seed",)
    )
    assert spec == datagen.GenSpec(samples_per_track=(2, 3))
    with pytest.raises(schema.ConfigError, match="seed"):
        schema.build(datagen.GenSpec, {"seed": 1}, "the spec", fixed=("seed",))


# --- guard: no checked field escapes the check -------------------------------


def checked_dataclasses():
    """Every dataclass of the package whose __post_init__ runs schema.check."""
    found = set()
    for info in pkgutil.iter_modules(deepreflecs.__path__):
        if info.name == "__main__":  # runs the CLI on import
            continue
        module = importlib.import_module(f"deepreflecs.{info.name}")
        for value in vars(module).values():
            post_init = getattr(value, "__post_init__", None)
            names = getattr(getattr(post_init, "__code__", None), "co_names", ())
            if dataclasses.is_dataclass(value) and {"schema", "check"} <= set(names):
                found.add(value)
    return found


def test_every_checked_dataclass_is_in_the_table():
    assert checked_dataclasses() == {cls for cls, _, _, _ in TABLE.values()}


@pytest.mark.parametrize(
    "cls", sorted(checked_dataclasses(), key=lambda c: c.__qualname__ + c.__module__),
    ids=lambda c: f"{c.__module__}.{c.__qualname__}",
)
def test_every_field_annotation_is_one_the_schema_checks(cls):
    for name, hint in hints(cls).items():
        assert schema.checker(hint), name


# --- guard: every integer field has an upper bound ---------------------------

# integer fields without an upper bound, each with the reason it needs none
UNBOUNDED = {
    # the run length: a step allocates the same whatever it is (README, Config files)
    (trainer.TrainConfig, "epochs"),
    (trainer.TrainConfig, "steps_per_epoch"),
    # seeds size nothing
    (trainer.TrainConfig, "seed"),
    (datagen.GenSpec, "seed"),
    (forest.FileConfig, "seed"),
    # a forest file's counts must match the arrays the file holds
    (forest.FileConfig, "n_trees"),
    (forest.FileConfig, "oob"),
}


def int_bound(hint):
    """(whether a field of this annotation holds integers, their Range or None)."""
    bound = None
    if typing.get_origin(hint) is typing.Annotated:
        hint, bound = hint.__origin__, hint.__metadata__[0]
    return hint is int or int in typing.get_args(hint), bound


def upper_bound(hint):
    holds_int, bound = int_bound(hint)
    return bound.high if holds_int and bound is not None else None


INT_FIELDS = sorted(
    ((cls, name) for cls in checked_dataclasses() for name, hint in hints(cls).items()
     if int_bound(hint)[0]),
    key=lambda field: (field[0].__qualname__, field[0].__module__, field[1]),
)


@pytest.mark.parametrize(
    "cls, name", INT_FIELDS, ids=[f"{c.__module__}.{c.__qualname__}.{n}" for c, n in INT_FIELDS]
)
def test_every_integer_field_has_an_upper_bound_or_an_exemption(cls, name):
    high = upper_bound(hints(cls)[name])
    assert (high is not None and math.isfinite(high)) != ((cls, name) in UNBOUNDED)


def at_and_past(valid, high):
    """A field's JSON value at its upper bound and one past it, from a valid value."""
    if isinstance(valid, list):  # a [low, high] pair
        return [valid[0], high], [valid[0], high + 1]
    if isinstance(valid, dict):  # a class mapping
        first = next(iter(valid))
        return {**valid, first: high}, {**valid, first: high + 1}
    return high, high + 1


BOUNDED = [
    pytest.param(key, name, id=f"{key}-{name}")
    for key, (cls, _, _, _) in TABLE.items()
    for name, hint in hints(cls).items()
    if upper_bound(hint) is not None
]


@pytest.mark.parametrize("key, name", BOUNDED)
def test_one_past_the_upper_bound_is_named_error(key, name):
    cls, valid, load, error = TABLE[key]
    at, past = at_and_past(valid[name], upper_bound(hints(cls)[name]))
    if not key.endswith("-file"):  # a model file's arrays fit only its own config
        load({**valid, name: at})
    with pytest.raises(error, match=name):
        load({**valid, name: past})
    good = schema.build(cls, valid, "the config")
    kwargs = {f.name: getattr(good, f.name) for f in dataclasses.fields(cls)}
    with pytest.raises(schema.ConfigError, match=name):
        cls(**{**kwargs, name: tuple(past) if isinstance(past, list) else past})


# --- guard: the README's config tables name every key ------------------------

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_table_keys(marker: str) -> set:
    """The backticked keys in the first column of the README table after marker."""
    lines = README.read_text(encoding="utf-8").splitlines()
    after = lines[next(i for i, line in enumerate(lines) if marker in line):]
    rows = itertools.dropwhile(lambda line: not line.startswith("|"), after)
    table = list(itertools.takewhile(lambda line: line.startswith("|"), rows))
    return {key for row in table[2:] for key in re.findall(r"`(\w+)`", row.split("|")[1])}


@pytest.mark.parametrize(
    "cls, marker, not_keys",
    [
        # every command takes the seed from --seed only
        (trainer.TrainConfig, "`trainer.TrainConfig`", {"seed"}),
        (reflectnet.ReflectNetConfig, "`model.ReflectNetConfig`", set()),
        (datagen.GenSpec, "`datagen.GenSpec`", {"seed"}),
    ],
    ids=["TrainConfig", "ReflectNetConfig", "GenSpec"],
)
def test_the_readme_table_lists_exactly_the_config_keys(cls, marker, not_keys):
    keys = {f.name for f in dataclasses.fields(cls)} - not_keys
    assert readme_table_keys(marker) == keys


@pytest.mark.parametrize(
    "hint", [str, list, dict, Dict[str, int], List[int], Tuple[int, str], Tuple[int],
             Union[int, str], Union[int, None], typing.Any, Literal["a", "b"],
             forest.FeatureConfig],
    ids=str,
)
def test_an_annotation_the_schema_cannot_check_is_type_error(hint):
    with pytest.raises(TypeError):
        schema.checker(hint)
