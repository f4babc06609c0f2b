"""Which deepreflecs functions the traced run wraps, and its counters.

Counters are taken in hooks on the same functions the spans wrap.
Per-sample counters (padding, grid window) are kept once per distinct
sample object, so they describe the dataset however many times a sample
is featurized.
"""

from __future__ import annotations

from deepreflecs import container, datagen, evaluate, forest, gridcnn, nn
from deepreflecs import model as reflectnet
from deepreflecs import preprocess, trainer

from spans import Tracer

# (owner, attribute); the metric name is <module>.<Class.>attribute
LAYERS = [
    (datagen, "generate_dataset"),
    (preprocess, "read_dataset"),
    (preprocess, "write_dataset"),
    (preprocess, "trackwise_split"),
    (preprocess, "compute_norm_stats"),
    (preprocess, "prepare_input"),
    (nn, "rowwise_linear"),
    (nn, "rowwise_linear_backward"),
    (nn, "relu"),
    (nn, "relu_backward"),
    (nn, "masked_global_max_pool"),
    (nn, "masked_global_max_pool_backward"),
    (nn, "global_context_layer"),
    (nn, "global_context_layer_backward"),
    (nn, "dense"),
    (nn, "dense_backward"),
    (nn, "softmax"),
    (nn, "adam_step"),
    (reflectnet, "train_step"),
    (reflectnet, "loss_and_grads"),
    (reflectnet, "forward"),
    (gridcnn, "rasterize"),
    (gridcnn, "set_channel_stats"),
    (gridcnn, "train_step"),
    (gridcnn, "loss_and_grads"),
    (gridcnn, "forward"),
    (forest, "extract_handcrafted"),
    (forest, "fit_forest"),
    (forest.ForestModel, "predict"),
    (forest.ForestModel, "predict_batch"),
    (forest.Tree, "predict_one"),
    (trainer, "train"),
    (container, "write_container"),
    (container, "read_container"),
    (evaluate.MetricsReport, "from_predictions"),
]

COUNTERS = {
    # name: (unit, better)
    "preprocess.range_cutoff_drops": ("count", "lower"),
    "preprocess.pad_overflows": ("count", "lower"),
    "preprocess.pad_fill_ratio": ("ratio", "higher"),
    "gridcnn.out_of_window_reflections": ("count", "lower"),
    "gridcnn.occupied_cell_ratio": ("ratio", "higher"),
    "forest.node_count": ("count", "lower"),
    "container.model_bytes": ("bytes", "lower"),
    "trainer.steps": ("count", "lower"),
}


def layer_name(owner, attr: str) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__name__}.{attr}"
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_padding(counters, args, kwargs, result) -> None:
    sample = _arg(args, kwargs, 0, "sample")
    counters.setdefault("_padding", {})[id(sample)] = (result.m_real, result.mask.size)


def _count_grid(counters, args, kwargs, result) -> None:
    sample = _arg(args, kwargs, 0, "sample")
    occupancy = result.occupancy
    counters.setdefault("_grid", {})[id(sample)] = (
        len(sample.reflections), int(occupancy.sum()),
        int((occupancy > 0).sum()), occupancy.size,
    )


def _count_nodes(counters, args, kwargs, result) -> None:
    counters["forest.node_count"] = forest.count_nodes(result)


def _count_model_bytes(counters, args, kwargs, result) -> None:
    counters["container.model_bytes"] = len(result)


def _count_steps(counters, args, kwargs, result) -> None:
    config = _arg(args, kwargs, 6, "config")
    counters["trainer.steps"] = counters.get("trainer.steps", 0) + (
        config.epochs * config.steps_in_epoch()
    )


HOOKS = {
    "preprocess.prepare_input": _count_padding,
    "gridcnn.rasterize": _count_grid,
    "forest.fit_forest": _count_nodes,
    "container.write_container": _count_model_bytes,
    "trainer.train": _count_steps,
}


def install(tracer: Tracer) -> int:
    """Wrap every layer; returns the pad-overflow count to diff against."""
    for owner, attr in LAYERS:
        name = layer_name(owner, attr)
        tracer.wrap(owner, attr, name, after=HOOKS.get(name))
    return preprocess.overflow_count()


def counters(tracer: Tracer, overflows_before: int) -> dict:
    """The named counters; ones whose layer never ran read 0."""
    raw = tracer.counters
    out = {name: 0 for name in COUNTERS}
    out.update({k: v for k, v in raw.items() if k in COUNTERS})
    out["preprocess.pad_overflows"] = preprocess.overflow_count() - overflows_before
    padding = list(raw.get("_padding", {}).values())
    if padding:
        out["preprocess.pad_fill_ratio"] = (
            sum(m for m, _ in padding) / sum(rows for _, rows in padding)
        )
    grid = list(raw.get("_grid", {}).values())
    if grid:
        out["gridcnn.out_of_window_reflections"] = sum(n - inside for n, inside, _, _ in grid)
        out["gridcnn.occupied_cell_ratio"] = (
            sum(occ for _, _, occ, _ in grid) / sum(cells for _, _, _, cells in grid)
        )
    return out
