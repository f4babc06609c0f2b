"""Command-line surface: generate, train, eval, benchmark, ablate, gradcheck.

Every command exits 0 on success; failures print one machine-readable
JSON object to stderr and exit nonzero. All randomness flows from the
single --seed argument (default 0): no config or spec file may set a seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import List

from . import datagen, evaluate, gridcnn
from . import model as reflectnet
from . import preprocess, schema, trainer


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_json(obj: dict, path: str | None) -> None:
    text = _dump(obj)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, huge integer, deep nesting
            raise schema.ConfigError(f"{path} is not readable JSON: {exc}") from exc


def _seeded(cls, raw, what: str, seed: int):
    """The checked `cls` built from `raw`, which may not set its seed, with the run's seed."""
    return replace(schema.build(cls, raw, what, fixed=("seed",)), seed=seed)


def _load_config(path: str | None, seed: int) -> trainer.TrainConfig:
    """The checked 'train' section of a config file; the file and the section are optional."""
    raw = {} if path is None else _read_json(path)
    sections = schema.mapping(raw, ("train",), "the config")
    return _seeded(trainer.TrainConfig, sections.get("train", {}), "the 'train' config", seed)


def seed(text: str) -> int:
    """The argparse type of every --seed: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, not {value}")
    return value


def cmd_generate(args) -> int:
    raw = {} if args.spec is None else _read_json(args.spec)
    spec = _seeded(datagen.GenSpec, raw, "the generation spec", args.seed)
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
    method = evaluate.BY_NAME[args.method]
    config = _load_config(args.config, args.seed)
    samples = preprocess.read_dataset(args.data)
    splits = preprocess.trackwise_split(samples, seed=args.seed)
    trained, report = method.train(splits, config, None)
    with open(args.out, "wb") as fh:
        fh.write(method.serialize(trained))
    summary = {"method": method.name, "out": args.out, "seed": args.seed}
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
    config = _load_config(args.config, args.seed)
    methods = evaluate.METHODS if args.methods is None else args.methods.split(",")
    report = evaluate.run_benchmark(args.data, config, methods)
    _write_json(report.benchmark_json(), args.json)
    if args.timing_json:
        with open(args.timing_json, "w", encoding="utf-8") as fh:
            fh.write(_dump(report.timing_dict()))
    else:
        print(json.dumps(report.timing_dict()), file=sys.stderr)
    return 0


def cmd_ablate(args) -> int:
    config = _load_config(args.config, args.seed)
    _write_json(evaluate.run_ablation(args.data, config).ablation_json(), args.json)
    return 0


def cmd_gradcheck(args) -> int:
    tolerance = 1e-4
    refl_report = reflectnet.gradcheck_random_sample(seed=args.seed)
    grid_report = gridcnn.gradcheck_random_sample(seed=args.seed)
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
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train one method on a dataset")
    p.add_argument("--method", required=True, choices=list(evaluate.BY_NAME))
    p.add_argument("--data", required=True)
    p.add_argument("--config", help="JSON with an optional 'train' section")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=seed, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--json", help="also write the metrics JSON here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("benchmark", help="train and compare all methods")
    p.add_argument("--data", required=True)
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--config")
    p.add_argument("--json")
    p.add_argument("--methods", help="comma-separated subset of methods")
    p.add_argument("--timing-json", dest="timing_json")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("ablate", help="compare with/without the global context layer")
    p.add_argument("--data", required=True)
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--config")
    p.add_argument("--json")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--seed", type=seed, default=0)
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
