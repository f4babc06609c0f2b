"""Command-line surface: generate, train, eval, benchmark, ablate, gradcheck.

Every command exits 0 on success; failures print one machine-readable
JSON object to stderr and exit nonzero. All randomness flows from the
single --seed argument.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import List

from . import datagen, evaluate, gridcnn
from . import model as reflectnet
from . import preprocess, trainer


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_json(obj: dict, path: str | None) -> None:
    text = _dump(obj)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise evaluate.ConfigError(
            f"{what} must be a JSON object, not {type(value).__name__}"
        )
    return dict(value)


def _unknown_keys(given: dict, known, what: str) -> None:
    unknown = sorted(set(given) - set(known))
    if unknown:
        raise evaluate.ConfigError(
            f"unknown {what} keys {unknown} (it takes {sorted(known)})"
        )


def _load_config(path: str | None) -> tuple[trainer.TrainConfig, dict]:
    """Read {'train': {...}, 'model': {...}} (both sections optional)."""
    if path is None:
        return trainer.TrainConfig(), {}
    with open(path, "r", encoding="utf-8") as fh:
        raw = _json_object(json.load(fh), "the config")
    _unknown_keys(raw, ("train", "model"), "config")
    train_section = _json_object(raw.get("train", {}), "the 'train' section")
    _unknown_keys(
        train_section,
        [f.name for f in dataclasses.fields(trainer.TrainConfig)],
        "'train' config",
    )
    if "resample_factors" in train_section:
        given = _json_object(train_section["resample_factors"], "'resample_factors'")
        _unknown_keys(given, preprocess.CLASSES, "'resample_factors'")
        train_section["resample_factors"] = {**trainer.DEFAULT_RESAMPLE, **given}
    config = dataclasses.replace(trainer.TrainConfig(), **train_section)
    return config, _json_object(raw.get("model", {}), "the 'model' section")


def _train_config_only(path: str | None, command: str) -> trainer.TrainConfig:
    """The train config of a command that trains each method's default model."""
    config, model_config = _load_config(path)
    if model_config:
        raise evaluate.ConfigError(
            f"'{command}' takes no 'model' config keys, got {sorted(model_config)}"
        )
    return config


def _genspec_from_args(args) -> datagen.GenSpec:
    if args.spec is None:
        return datagen.desk_genspec(seed=args.seed)
    with open(args.spec, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    profiles = dict(datagen.DEFAULT_PROFILES)
    for label, fields in raw.get("profiles", {}).items():
        base = dataclasses.asdict(profiles[label])
        base.update(fields)
        base["length_range"] = tuple(base["length_range"])
        base["width_range"] = tuple(base["width_range"])
        base["reflections_range"] = tuple(base["reflections_range"])
        profiles[label] = datagen.ClassProfile(**base)
    return datagen.GenSpec(
        tracks_per_class=raw.get("tracks_per_class", dict(datagen.DESK_TRACKS)),
        samples_per_track=tuple(raw.get("samples_per_track", (5, 10))),
        start_range=raw.get("start_range", 70.0),
        stop_range=raw.get("stop_range", 5.0),
        seed=args.seed,
        profiles=profiles,
    )


def cmd_generate(args) -> int:
    spec = _genspec_from_args(args)
    samples = datagen.generate_dataset(spec)
    preprocess.write_dataset(samples, args.out)
    _write_json(
        {
            "out": args.out,
            "seed": spec.seed,
            "tracks": {
                label: spec.tracks_per_class.get(label, 0)
                for label in preprocess.CLASSES
            },
            "samples": len(samples),
        },
        None,
    )
    return 0


def cmd_train(args) -> int:
    config, model_config = _load_config(args.config)
    method = evaluate.BY_NAME[args.method]
    method.check_model_config(model_config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    seed = config.seed
    samples = preprocess.read_dataset(args.data)
    splits = preprocess.trackwise_split(samples, seed=seed)
    trained, report = method.train(splits, seed, config, model_config)
    with open(args.out, "wb") as fh:
        fh.write(method.serialize(trained))
    summary = {"method": args.method, "out": args.out, "seed": seed}
    summary.update(method.complexity(trained))
    if report is not None:
        summary["train_report"] = report.to_json_dict()
    _write_json(summary, None)
    return 0


def cmd_eval(args) -> int:
    with open(args.model, "rb") as fh:
        blob = fh.read()
    method = evaluate.method_for(blob)
    samples = preprocess.read_dataset(args.data)
    metrics, _ = evaluate.evaluate_model(method, method.deserialize(blob), samples)
    _write_json(metrics.to_json_dict(), args.json)
    return 0


def cmd_benchmark(args) -> int:
    config = _train_config_only(args.config, "benchmark")
    methods = args.methods.split(",") if args.methods else list(evaluate.METHODS)
    report = evaluate.run_benchmark(args.data, args.seed, config, methods)
    _write_json(report.to_json_dict(), args.json)
    if args.timing_json:
        with open(args.timing_json, "w", encoding="utf-8") as fh:
            fh.write(_dump(report.timing_dict()))
    else:
        print(json.dumps(report.timing_dict()), file=sys.stderr)
    return 0


def cmd_ablate(args) -> int:
    config = _train_config_only(args.config, "ablate")
    report = evaluate.run_ablation(args.data, args.seed, config)
    _write_json(report.to_json_dict(), args.json)
    return 0


def cmd_gradcheck(args) -> int:
    tolerance = 1e-4
    refl_report = reflectnet.gradcheck_random_sample(seed=args.seed)
    grid_report = gridcnn.gradcheck_random_sample(
        seed=args.seed, max_checks_per_tensor=64
    )
    result = {
        "tolerance": tolerance,
        "deepreflecs_max_relative_error": refl_report.max_relative_error,
        "gridcnn_max_relative_error": grid_report.max_relative_error,
        "pass": bool(
            refl_report.max_relative_error < tolerance
            and grid_report.max_relative_error < tolerance
        ),
    }
    _write_json(result, args.json)
    return 0 if result["pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deepreflecs",
        description="Radar reflection-list object classification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset")
    p.add_argument("--spec", help="generation spec JSON (default: desk-scale spec)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train one method on a dataset")
    p.add_argument("--method", required=True, choices=list(evaluate.BY_NAME))
    p.add_argument("--data", required=True)
    p.add_argument("--config", help="JSON with optional 'train'/'model' sections")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--json", help="also write the metrics JSON here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("benchmark", help="train and compare all methods")
    p.add_argument("--data", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config")
    p.add_argument("--json")
    p.add_argument("--methods", help="comma-separated subset of methods")
    p.add_argument("--timing-json", dest="timing_json")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("ablate", help="compare with/without the global context layer")
    p.add_argument("--data", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config")
    p.add_argument("--json")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv: List[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # pragma: no cover - exercised via subprocess tests
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
