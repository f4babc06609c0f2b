"""Each network checks its operands once, where they enter it.

Inputs are checked by the network's stage, which gives the network's own
staged type; predict_batch and loss_and_grads take nothing else, and
labels are checked at the top of loss_and_grads. A bad operand ends in a
ShapeError, an EmptyPoolError or a ValueError that names the input, the
staged batch or the labels, on every public path, and a refused train
step leaves the weights as they were. The layers in nn re-check nothing:
an AST scan lists the only package functions that raise ShapeError or
EmptyPoolError.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import deepreflecs
from deepreflecs import gridcnn, nn
from deepreflecs import model as reflectnet
from deepreflecs.preprocess import PaddedInput

PACKAGE = Path(deepreflecs.__file__).resolve().parent

# network name: (its module, its builder)
NETWORKS = {
    "deepreflecs": (reflectnet, reflectnet.build_model),
    "gridcnn": (gridcnn, gridcnn.build_gridcnn),
}


def rows(shape):
    return PaddedInput(np.ones(shape), 64)


def cells(shape):
    return gridcnn.Grid(cells=np.ones(shape), occupancy=np.ones(shape[:2], dtype=np.int64))


# (network, case id, the bad input or None for an empty list, error, message
# with {i} for the input's index)
INPUT_CASES = [
    ("deepreflecs", "empty-list", None, nn.ShapeError, "cannot stage an empty list of inputs"),
    ("gridcnn", "empty-list", None, nn.ShapeError, "cannot stage an empty list of grids"),
    ("deepreflecs", "no-rows", rows((0, 5)), nn.EmptyPoolError, "input {i} has no rows"),
    ("deepreflecs", "4-columns", rows((3, 4)), nn.ShapeError,
     r"input {i} has rows \(3, 4\), not \(m, 5\)"),
    ("deepreflecs", "1-d-rows", rows((5,)), nn.ShapeError,
     r"input {i} has rows \(5,\), not \(m, 5\)"),
    ("gridcnn", "10x10-cells", cells((10, 10, 2)), nn.ShapeError,
     r"grid {i} has cells \(10, 10, 2\), not \(11, 11, 2\)"),
]

def empty(net):
    """An empty batch of the network's staged type, built around stage."""
    if isinstance(net, gridcnn.GridCnnModel):
        return gridcnn.GridStack(np.empty((0, 11, 11, 2), dtype=np.float32))
    return reflectnet.Staged(np.empty((0, 5), dtype=np.float32), nn.Segments([]))


def other(net):
    """A staged batch of the other network."""
    name = "deepreflecs" if isinstance(net, gridcnn.GridCnnModel) else "gridcnn"
    build = NETWORKS[name][1]
    return build(seed=0).stage([build(seed=0).random_input(np.random.default_rng(0))])


# (case id, the bad staged batch given the network and two of its inputs,
# message naming what it got)
STAGED_CASES = [
    ("bare-array", lambda net, inputs: np.ones((2, 11, 11, 2), dtype=np.float32), "got ndarray"),
    ("bare-10x10-array", lambda net, inputs: np.ones((2, 10, 10, 2), dtype=np.float32),
     "got ndarray"),
    ("bare-rows", lambda net, inputs: np.ones((6, 5), dtype=np.float32), "got ndarray"),
    ("empty-stack", lambda net, inputs: empty(net), "got 0 at float32"),
    ("float64", lambda net, inputs: net.astype(np.float64).stage(inputs), "got 2 at float64"),
    ("other-network", lambda net, inputs: other(net), "got (GridStack|Staged)"),
]


def staged_paths(module, net, batch):
    """(path id, call) of every path a staged batch takes."""
    return [
        ("predict_batch", lambda: net.predict_batch(batch)),
        ("train_step", lambda: net.train_step(batch, [0, 1], 0.01, None)),
        ("loss_and_grads", lambda: module.loss_and_grads(net, batch, [0, 1])),
    ]


@pytest.mark.parametrize("network", NETWORKS)
@pytest.mark.parametrize(
    "make, message", [case[1:] for case in STAGED_CASES], ids=[case[0] for case in STAGED_CASES]
)
def test_only_the_networks_own_staged_type_gets_in(network, make, message):
    module, build = NETWORKS[network]
    net = build(seed=0)
    before = net.vector.copy()
    rng = np.random.default_rng(0)
    batch = make(net, [net.random_input(rng), net.random_input(rng)])
    kind = type(net.stage([net.random_input(rng)])).__name__
    for path, call in staged_paths(module, net, batch):
        with pytest.raises(nn.ShapeError, match=rf"need a non-empty {kind} at float32, {message}"):
            call()
        assert net.vector.tobytes() == before.tobytes(), path


# (case id, a staged batch or its segments built by hand around stage, message
# naming what is wrong)
HAND_BUILT_CASES = [
    ("10x10-grid-stack", lambda: gridcnn.GridStack(np.ones((2, 10, 10, 2), np.float32)),
     r"a GridStack holds cells \(B, 11, 11, 2\), got \(2, 10, 10, 2\)"),
    ("one-grid-stack", lambda: gridcnn.GridStack(np.ones((11, 11, 2), np.float32)),
     r"a GridStack holds cells \(B, 11, 11, 2\), got \(11, 11, 2\)"),
    ("more-rows-than-segment-ids", lambda: reflectnet.Staged(
        np.ones((3, 5), np.float32), nn.Segments([2])),
     r"a Staged table over 2 segment rows holds rows \(2, 5\), got \(3, 5\)"),
    ("fewer-rows-than-segment-ids", lambda: reflectnet.Staged(
        np.ones((3, 5), np.float32), nn.Segments([7])),
     r"a Staged table over 7 segment rows holds rows \(7, 5\), got \(3, 5\)"),
    ("1-d-rows", lambda: reflectnet.Staged(np.ones(5, np.float32), nn.Segments([5])),
     r"a Staged table over 5 segment rows holds rows \(5, 5\), got \(5,\)"),
    ("4-columns", lambda: reflectnet.Staged(np.ones((3, 4), np.float32), nn.Segments([3])),
     r"a Staged table over 3 segment rows holds rows \(3, 5\), got \(3, 4\)"),
] + [
    # the segment lengths of a ragged batch: a 1-D list of integers >= 1
    (case, lambda lengths=lengths: nn.Segments(lengths),
     r"segment lengths must be a 1-D list of integers >= 1, got array\(")
    for case, lengths in [
        ("zero-length-segment", [2, 0, 1]),
        ("negative-segment-length", [4, -1]),
        ("2-d-segment-lengths", [[1, 2]]),
        ("ragged-segment-lengths", [[1], [1, 2]]),
        ("float-segment-length", [1.5]),
        ("bool-segment-length", [True]),
    ]
]


@pytest.mark.parametrize(
    "make, message", [case[1:] for case in HAND_BUILT_CASES],
    ids=[case[0] for case in HAND_BUILT_CASES],
)
def test_a_staged_batch_built_by_hand_is_checked_at_construction(make, message):
    with pytest.raises(nn.ShapeError, match=message):
        make()


# (case id, an index into a staged set of 3 inputs)
BAD_INDICES = [
    ("booleans", [True, False, True]),
    ("floats", [0.5, 2.9]),
    ("slice", slice(0, 2)),
    ("scalar", 1),
    ("empty", []),
    ("2-d", [[0, 1]]),
    ("past-the-end", [5]),
    ("negative", [-1]),
]


@pytest.mark.parametrize("network", NETWORKS)
@pytest.mark.parametrize(
    "index", [case[1] for case in BAD_INDICES], ids=[case[0] for case in BAD_INDICES]
)
def test_a_staged_batch_takes_only_in_range_integer_indices(network, index):
    net = NETWORKS[network][1](seed=0)
    rng = np.random.default_rng(0)
    staged = net.stage([net.random_input(rng) for _ in range(3)])
    with pytest.raises(nn.ShapeError, match=r"need a 1-D, non-empty index array of integers"):
        staged[index]
    assert len(staged[np.array([2, 0, 2])]) == 3


# (case id, labels of a one-input batch, error, message)
LABEL_CASES = [
    ("minus-1", [-1], ValueError, r"labels must lie in \[0, 4\), got -1 to -1"),
    ("4", [4], ValueError, r"labels must lie in \[0, 4\), got 4 to 4"),
    ("2.5", [2.5], ValueError, "labels must be a list of class indices"),
    ("too-few", [], nn.ShapeError, "0 labels for a batch of size 1"),
    ("too-many", [0, 1], nn.ShapeError, "2 labels for a batch of size 1"),
]


def input_paths(module, net, inputs, bad):
    """(path id, call, index of the bad input on that path) of every path an input takes."""
    labels = [0] * len(inputs)
    paths = [
        ("predict_batch", lambda: net.predict_batch(net.stage(inputs)), len(inputs) - 1),
        ("train_step-list", lambda: net.train_step(inputs, labels, 0.01, None), len(inputs) - 1),
        ("train_step-staged",
         lambda: net.train_step(net.stage(inputs), labels, 0.01, None), len(inputs) - 1),
        ("loss_and_grads",
         lambda: module.loss_and_grads(net, net.stage(inputs), labels), len(inputs) - 1),
    ]
    if bad is not None:
        paths.append(("predict", lambda: net.predict(bad), 0))
    return paths


def label_paths(module, net, inputs, labels):
    """(path id, call) of every path labels take."""
    return [
        ("train_step-list", lambda: net.train_step(inputs, labels, 0.01, None)),
        ("train_step-staged", lambda: net.train_step(net.stage(inputs), labels, 0.01, None)),
        ("loss_and_grads", lambda: module.loss_and_grads(net, net.stage(inputs), labels)),
    ]


@pytest.mark.parametrize(
    "network, bad, error, message", [case[:1] + case[2:] for case in INPUT_CASES],
    ids=[f"{case[0]}-{case[1]}" for case in INPUT_CASES],
)
def test_a_bad_input_is_refused_on_every_path_naming_it(network, bad, error, message):
    module, build = NETWORKS[network]
    net = build(seed=0)
    before = net.vector.copy()
    inputs = [] if bad is None else [net.random_input(np.random.default_rng(0)), bad]
    for path, call, index in input_paths(module, net, inputs, bad):
        with pytest.raises(error, match=message.format(i=index)):
            call()
        assert net.vector.tobytes() == before.tobytes(), path


@pytest.mark.parametrize("network", NETWORKS)
@pytest.mark.parametrize(
    "labels, error, message", [case[1:] for case in LABEL_CASES],
    ids=[case[0] for case in LABEL_CASES],
)
def test_bad_labels_are_refused_on_every_training_path_naming_them(
    network, labels, error, message
):
    module, build = NETWORKS[network]
    net = build(seed=0)
    before = net.vector.copy()
    inputs = [net.random_input(np.random.default_rng(0))]
    for path, call in label_paths(module, net, inputs, labels):
        with pytest.raises(error, match=message):
            call()
        assert net.vector.tobytes() == before.tobytes(), path


# the only package functions that raise ShapeError or EmptyPoolError
CHECKERS = {
    # the two network entries for inputs, and the one rule for an input's
    # rows that the reflection network's stage and forward share
    ("model", "ReflectNetModel.stage"),
    ("gridcnn", "GridCnnModel.stage"),
    ("model", "_checked_rows"),
    # the shapes of a staged type built by hand, checked at construction,
    # and the segment lengths of a ragged batch, the only way to build one
    ("model", "Staged.__post_init__"),
    ("gridcnn", "GridStack.__post_init__"),
    ("nn", "Segments.__init__"),
    # the staged type, the index rule of a staged set, and the labels, at
    # the top of both predict_batch and loss_and_grads
    ("nn", "check_staged"),
    ("nn", "batch_index"),
    ("nn", "batch_labels"),
    # the masked kernels and dense serve only perfbench's trace list
    # (ROADMAP item 1 removes them)
    ("nn", "_valid_rows"),
    ("nn", "dense"),
}

CHECK_ERRORS = {"ShapeError", "EmptyPoolError"}


def raisers(path: Path):
    """(module, qualified function name) of each raise of a check error in a module."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", "")
                if name in CHECK_ERRORS:
                    found.add((path.stem, ".".join(scope)))
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), [])
    return found


def test_only_the_network_entries_raise_shape_errors():
    found = set().union(*map(raisers, sorted(PACKAGE.glob("*.py"))))
    assert found == CHECKERS

