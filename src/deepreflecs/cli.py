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
from typing import Dict, List

import numpy as np

from . import container, datagen, evaluate, forest, gridcnn
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


def _load_config(path: str | None) -> tuple[trainer.TrainConfig, dict]:
    """Read {'train': {...}, 'model': {...}} (both sections optional)."""
    if path is None:
        return trainer.TrainConfig(), {}
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    train_section = dict(raw.get("train", {}))
    if "resample_factors" in train_section:
        factors = dict(trainer.DEFAULT_RESAMPLE)
        factors.update(train_section["resample_factors"])
        train_section["resample_factors"] = factors
    config = dataclasses.replace(trainer.TrainConfig(), **train_section)
    return config, dict(raw.get("model", {}))


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
    config, model_overrides = _load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    seed = config.seed
    samples = preprocess.read_dataset(args.data)
    splits = preprocess.trackwise_split(samples, seed=seed)
    summary: Dict[str, object] = {"method": args.method, "out": args.out, "seed": seed}

    if args.method == "deepreflecs":
        net_config = reflectnet.ReflectNetConfig(**model_overrides)
        stats = preprocess.compute_norm_stats(splits[0])
        net = reflectnet.build_model(net_config, seed=seed)
        net.norm_stats = stats
        inputs = lambda ss: [
            preprocess.prepare_input(s, net_config.pad_length, stats) for s in ss
        ]
        labels = lambda ss: np.array([s.class_index for s in ss])
        best, report = trainer.train(
            net,
            inputs(splits[0]), labels(splits[0]),
            [s.class_label for s in splits[0]],
            inputs(splits[1]), labels(splits[1]),
            config,
        )
        reflectnet.save_model(best, args.out)
        summary["param_count"] = reflectnet.count_params(best)
        summary["train_report"] = report.to_json_dict()
    elif args.method == "gridcnn":
        net = gridcnn.build_gridcnn(seed=seed)
        train_grids = [gridcnn.rasterize(s) for s in splits[0]]
        gridcnn.set_channel_stats(net, train_grids)
        labels = lambda ss: np.array([s.class_index for s in ss])
        best, report = trainer.train(
            net,
            train_grids, labels(splits[0]),
            [s.class_label for s in splits[0]],
            [gridcnn.rasterize(s) for s in splits[1]], labels(splits[1]),
            config,
        )
        gridcnn.save_model(best, args.out)
        summary["param_count"] = gridcnn.count_params(best)
        summary["train_report"] = report.to_json_dict()
    elif args.method == "forest":
        features = forest.extract_features(splits[0])
        labels = np.array([s.class_index for s in splits[0]])
        fitted = forest.fit_forest(features, labels, seed=seed)
        forest.save_forest(fitted, args.out)
        summary["node_count"] = forest.count_nodes(fitted)
    else:
        raise ValueError(f"unknown method '{args.method}'")

    _write_json(summary, None)
    return 0


def cmd_eval(args) -> int:
    with open(args.model, "rb") as fh:
        blob = fh.read()
    magic = container.peek_magic(blob)
    samples = preprocess.read_dataset(args.data)
    y_true = [s.class_index for s in samples]

    if magic == reflectnet.MAGIC:
        net = reflectnet.deserialize(blob)
        inputs = [
            preprocess.prepare_input(s, net.config.pad_length, net.norm_stats)
            for s in samples
        ]
        y_pred = [dist.predicted for dist in net.predict_batch(inputs)]
        n_classes = net.config.n_classes
    elif magic == gridcnn.MAGIC:
        net = gridcnn.deserialize(blob)
        grids = [gridcnn.rasterize(s) for s in samples]
        y_pred = [dist.predicted for dist in net.predict_batch(grids)]
        n_classes = 4
    elif magic == forest.MAGIC:
        fitted = forest.deserialize(blob)
        features = forest.extract_features(samples, fitted.feature_config)
        y_pred = list(fitted.predict_batch(features))
        n_classes = fitted.n_classes
    else:
        raise container.MagicError(f"unrecognized model magic {magic!r}")

    metrics = evaluate.MetricsReport.from_predictions(y_true, y_pred, n_classes)
    _write_json(metrics.to_json_dict(), args.json)
    return 0


def cmd_benchmark(args) -> int:
    config, _ = _load_config(args.config)
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
    config, _ = _load_config(args.config)
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
    p.add_argument("--method", required=True, choices=["deepreflecs", "gridcnn", "forest"])
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
