"""Benchmark one desk workload of deepreflecs, end to end or traced per layer.

    python3 perfbench/run.py --workload deepreflecs_desk --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
The lines before it are a run record (versions, sample counts, digest)
and a table of the metrics with their units and directions. End-to-end
times are scaled to a reference speed of the host (hostspeed.py).
See perfbench/README.md for what each metric and workload means.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]

# outside a source checkout this import fails, so no result is printed
import deepreflecs  # noqa: E402
from deepreflecs import datagen, preprocess  # noqa: E402

import layers  # noqa: E402
from hostspeed import INTERVAL_S, REFERENCE_S, HostSpeed, WallClock  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, eval_from_bytes, labels_of  # noqa: E402

SETUP_REPS = 5
MIN_REPS = 3  # fewest rounds behind a median
PROB_SUM_TOLERANCE = 1e-6
MAX_REPORTED_FAILURES = 5
CLASSIFY_CHUNK = 128  # classify calls scaled by one host slowness
WALL = WallClock()

END_TO_END = {
    # name: (unit, better)
    "setup_s": ("s", "lower"),
    "train_samples_per_s": ("1/s", "higher"),
    "eval_samples_per_s": ("1/s", "higher"),
    "classify_us_p50": ("us", "lower"),
    "classify_us_p99": ("us", "lower"),
    "test_accuracy": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


@dataclass
class Tally:
    """Operations attempted and failed; a failure is an exception or a failed check."""

    attempted: int = 0
    failed: int = 0
    messages: List[str] = field(default_factory=list)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.messages) < MAX_REPORTED_FAILURES:
            self.messages.append(message)

    def check(self, passed: bool, message: str) -> None:
        if passed:
            self.ok()
        else:
            self.fail(message)


@dataclass
class Setup:
    seconds: float
    slowness: float  # of the host while it ran (hostspeed.py)
    samples: list
    labels: np.ndarray
    test: list
    test_labels: np.ndarray
    test_index: np.ndarray  # position of each test sample in `samples`
    prep: object
    range_cutoff_drops: int


@dataclass
class Trained:
    seconds: float  # training time alone
    slowness: float
    blob: bytes
    test_pred: np.ndarray
    test_accuracy: float


@dataclass
class Evaluated:
    seconds: float
    slowness: float
    model: object
    preds: np.ndarray
    digest: str


def no_phase(name: str):
    return contextlib.nullcontext()


def set_up(method, seed: int, workdir: str, clock=WALL) -> Setup:
    """Generate, write and read the dataset, split it, featurize, warm up."""
    started = clock.mark()
    generated = datagen.generate_dataset(datagen.desk_genspec(seed=seed))
    path = os.path.join(workdir, "desk.jsonl")
    preprocess.write_dataset(generated, path)
    samples = preprocess.read_dataset(path)
    train, val, test = preprocess.trackwise_split(samples, seed=seed)
    prep = method.prepare(train, val, seed)
    method.warm_up(prep)
    seconds = clock.seconds_since(started)
    slowness = clock.slowness_since(started)

    position = {id(s): i for i, s in enumerate(samples)}
    return Setup(
        seconds=seconds,
        slowness=slowness,
        samples=samples,
        labels=labels_of(samples),
        test=test,
        test_labels=labels_of(test),
        test_index=np.array([position[id(s)] for s in test], dtype=np.int64),
        prep=prep,
        range_cutoff_drops=len(generated) - len(samples),
    )


def probabilities_ok(probs) -> bool:
    if probs is None:
        return True
    probs = np.asarray(probs, dtype=np.float64)
    return bool(
        np.all(np.isfinite(probs))
        and np.all(np.abs(probs.sum(axis=-1) - 1.0) <= PROB_SUM_TOLERANCE)
    )


def train_once(method, st: Setup, tally: Tally, phase, clock=WALL) -> Optional[Trained]:
    """Train on the fixed schedule, predict the test split, save to container bytes."""
    try:
        with phase("perfbench.train"):
            started = clock.mark()
            trained = method.train(st.prep)
            seconds = clock.seconds_since(started)
            slowness = clock.slowness_since(started)
        test_pred, _ = method.predict_all(trained, st.test)
        blob = method.serialize(trained)
    except Exception:
        tally.fail("train: " + traceback.format_exc(limit=3))
        return None
    tally.ok()
    return Trained(
        seconds=seconds,
        slowness=slowness,
        blob=blob,
        test_pred=test_pred,
        test_accuracy=float(np.mean(test_pred == st.test_labels)),
    )


def eval_once(
    method, st: Setup, trained: Trained, tally: Tally, phase, clock=WALL
) -> Optional[Evaluated]:
    """The eval path over the whole dataset, checked against the in-memory model."""
    try:
        with phase("perfbench.eval"):
            started = clock.mark()
            loaded, preds, probs = eval_from_bytes(method, trained.blob, st.samples, st.labels)
            seconds = clock.seconds_since(started)
            slowness = clock.slowness_since(started)
    except Exception:
        tally.fail("eval: " + traceback.format_exc(limit=3))
        return None
    tally.check(
        probabilities_ok(probs)
        and np.array_equal(preds[st.test_index], trained.test_pred)
        and method.serialize(loaded) == trained.blob,
        "eval: bad probabilities or the container round trip changed the model",
    )
    digest = hashlib.sha256(
        preds.astype("<i8").tobytes() + trained.test_pred.astype("<i8").tobytes()
    ).hexdigest()[:16]
    return Evaluated(seconds, slowness, loaded, preds, digest)


def classify_once(
    method, st: Setup, evaluated: Evaluated, tally: Tally, phase, clock=WALL
) -> np.ndarray:
    """Closed loop with one caller: classify every sample once.

    Returns each sample's latency in us, NaN where the call raised, without
    the time the clock spent in readings and divided by the host slowness
    over each chunk of CLASSIFY_CHUNK calls.
    """
    latencies = np.full(len(st.samples), np.nan)
    chunk = clock.mark()
    chunk_start = 0
    clock_ns = time.perf_counter_ns
    with phase("perfbench.classify"):
        for i, sample in enumerate(st.samples):
            try:
                started = clock_ns()
                paused_s = clock.paused_s
                pred, probs = method.classify(evaluated.model, sample)
                paused_s = clock.paused_s - paused_s
                latencies[i] = (clock_ns() - started) / 1000.0 - paused_s * 1e6
            except Exception:
                tally.fail(f"classify sample {i}: " + traceback.format_exc(limit=3))
            else:
                tally.check(
                    pred == evaluated.preds[i] and probabilities_ok(probs),
                    f"classify sample {i}: predicted {pred}, eval predicted {evaluated.preds[i]}",
                )
            if i + 1 - chunk_start == CLASSIFY_CHUNK or i == len(st.samples) - 1:
                latencies[chunk_start:i + 1] /= clock.slowness_since(chunk)
                chunk = clock.mark()
                chunk_start = i + 1
    return latencies


def run_round(method, st: Setup, tally: Tally, phase) -> Optional[Tuple[Trained, Evaluated]]:
    """Train, eval and classify once."""
    trained = train_once(method, st, tally, phase)
    evaluated = eval_once(method, st, trained, tally, phase) if trained else None
    if evaluated is None:
        return None
    classify_once(method, st, evaluated, tally, phase)
    return trained, evaluated


def measure(method, seed: int, seconds: float, workdir: str, tally: Tally) -> tuple:
    """Untraced run; every timing is taken over repetitions spread across the run.

    Set-up runs SETUP_REPS times. Then rounds repeat until `seconds` have
    passed, at least MIN_REPS times: one training, then eval and classify
    passes for about as long as the training took. All phases so sample
    the same stretches of a noisy machine. Every time is scaled to the
    reference host speed (hostspeed.py); the raw times are in the run
    record. Throughputs are totals over all repetitions and p50 pools every
    classify call. p99 is taken over objects of each object's median
    latency over the passes, so one stall inside one pass does not set it.
    """
    with HostSpeed() as clock:
        setups = []  # (seconds, slowness); only the last set-up is kept
        for _ in range(SETUP_REPS):
            st = set_up(method, seed, workdir, clock)
            setups.append((st.seconds, st.slowness))
            tally.ok()
        trains: List[Trained] = []
        evals: List[Evaluated] = []
        latencies: List[np.ndarray] = []
        models, digests = set(), set()
        attempts = 0
        started = time.perf_counter()
        while attempts < MIN_REPS or time.perf_counter() - started < seconds:
            attempts += 1
            round_started = time.perf_counter()
            trained = train_once(method, st, tally, no_phase, clock)
            if trained is None:
                continue
            trains.append(trained)
            models.add(hashlib.sha256(trained.blob).hexdigest())
            # eval/classify passes take about as long as the training before them,
            # so every phase gets its share of the run however long training is
            training_s = time.perf_counter() - round_started
            passes_started = time.perf_counter()
            while True:
                evaluated = eval_once(method, st, trained, tally, no_phase, clock)
                if evaluated is None:
                    break
                evals.append(evaluated)
                digests.add(evaluated.digest)
                latencies.append(classify_once(method, st, evaluated, tally, no_phase, clock))
                if time.perf_counter() - passes_started >= training_s:
                    break
    if not latencies:
        raise SystemExit("perfbench: no round completed:\n" + "\n".join(tally.messages))
    tally.check(len(models) == 1, "repeated training gave different models")
    tally.check(len(digests) == 1, f"rounds gave different predictions {sorted(digests)}")

    passes = np.stack(latencies)  # (pass, sample)
    classify_us = passes[np.isfinite(passes)]
    per_object_us = np.nanmedian(passes, axis=0)
    per_object_us = per_object_us[np.isfinite(per_object_us)]
    train_samples = method.samples_per_train(st.prep)
    n_samples = len(st.samples)
    train_scaled_s = [t.seconds / t.slowness for t in trains]
    eval_scaled_s = [e.seconds / e.slowness for e in evals]
    test_accuracy = trains[-1].test_accuracy
    metrics = {
        "setup_s": statistics.median(t / f for t, f in setups),
        "train_samples_per_s": len(trains) * train_samples / sum(train_scaled_s),
        "eval_samples_per_s": len(evals) * n_samples / sum(eval_scaled_s),
        "classify_us_p50": float(np.percentile(classify_us, 50)),
        "classify_us_p99": float(np.percentile(per_object_us, 99)),
        "test_accuracy": test_accuracy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record = {
        "samples": n_samples,
        "test_samples": len(st.test),
        "range_cutoff_drops": st.range_cutoff_drops,
        "host_speed": {
            "reference_s": REFERENCE_S,
            "interval_s": INTERVAL_S,
            "readings": len(clock.readings),
            "read_s": clock.paused_s,
            "slowness_quartiles": statistics.quantiles(
                [r / REFERENCE_S for r in clock.readings], n=4
            ),
        },
        "raw": {
            "setup_s": statistics.median(t for t, _ in setups),
            "train_samples_per_s": len(trains) * train_samples / sum(t.seconds for t in trains),
            "eval_samples_per_s": len(evals) * n_samples / sum(e.seconds for e in evals),
        },
        "setup_s_each": [t / f for t, f in setups],
        "train_samples_per_rep": train_samples,
        "train_samples_per_s_each": [train_samples / t for t in train_scaled_s],
        "eval_samples_per_pass": n_samples,
        "eval_samples_per_s_each": [n_samples / t for t in eval_scaled_s],
        "classify_calls_behind_p50": int(classify_us.size),
        "classify_passes": len(latencies),
        "classify_objects_behind_p99": int(per_object_us.size),
        "classify_us_p50_each": [float(np.nanpercentile(lat, 50)) for lat in latencies],
        "classify_us_p99_each": [float(np.nanpercentile(lat, 99)) for lat in latencies],
        "test_accuracy": test_accuracy,
        "digest": min(digests),
    }
    return metrics, record


def measure_traced(method, seed: int, workdir: str, tally: Tally, trace_path: Path) -> tuple:
    """One set-up plus one round untraced, then the same again traced.

    A first untimed set-up and round warm the process, so both timed
    halves start warm. The tracing overhead is the traced wall time minus
    the untraced one.
    """
    run_round(method, set_up(method, seed, workdir), tally, no_phase)
    tally.ok()

    started = time.perf_counter()
    st = set_up(method, seed, workdir)
    tally.ok()
    plain = run_round(method, st, tally, no_phase)
    untraced_s = time.perf_counter() - started

    tracer = Tracer()
    overflows_before = layers.install(tracer)
    try:
        started = time.perf_counter()
        with tracer.span("perfbench.setup"):
            st = set_up(method, seed, workdir)
        tally.ok()
        traced = run_round(method, st, tally, tracer.span)
        traced_s = time.perf_counter() - started
    finally:
        tracer.unwrap_all()
    tracer.counters["preprocess.range_cutoff_drops"] = st.range_cutoff_drops
    if plain is None or traced is None:
        raise SystemExit("perfbench: traced run failed:\n" + "\n".join(tally.messages))
    trained, evaluated = traced
    tally.check(plain[1].digest == evaluated.digest, "tracing changed the predictions")

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(str(trace_path))

    summary = tracer.summary()
    metrics = {}
    for owner, attr in layers.LAYERS:
        name = layers.layer_name(owner, attr)
        calls, total_ns, self_ns = summary.get(name, (0, 0, 0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.total_ms"] = total_ns / 1e6
        metrics[f"{name}.self_ms"] = self_ns / 1e6
    metrics.update(layers.counters(tracer, overflows_before))
    metrics["trace.overhead_ms"] = (traced_s - untraced_s) * 1000.0
    record = {
        "samples": len(st.samples),
        "spans": len(tracer.spans),
        "trace_file": str(trace_path.relative_to(ROOT)),
        "untraced_wall_s": untraced_s,
        "traced_wall_s": traced_s,
        "phases_ms": {
            name: summary[name][1] / 1e6 for name in summary if name.startswith("perfbench.")
        },
        "test_accuracy": trained.test_accuracy,
        "digest": evaluated.digest,
    }
    return metrics, record


def per_layer_units() -> dict:
    """name -> (unit, better) of every per-layer metric, in output order."""
    out = {}
    for owner, attr in layers.LAYERS:
        name = layers.layer_name(owner, attr)
        out[f"{name}.calls"] = ("count", "lower")
        out[f"{name}.total_ms"] = ("ms", "lower")
        out[f"{name}.self_ms"] = ("ms", "lower")
    out.update(layers.COUNTERS)
    out["trace.overhead_ms"] = ("ms", "lower")
    return out


def blas_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                record["threads"] = int(getter())
                return record
    return record


def run(workload: str, seed: int, seconds: float, trace: bool, tally: Tally) -> tuple:
    """(metrics, record) of one run; the metrics are plain numbers."""
    method = WORKLOADS[workload]
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-work-") as workdir:
        if trace:
            trace_path = ROOT / ".perfbench-trace" / f"{workload}-seed{seed}.jsonl"
            return measure_traced(method, seed, workdir, tally, trace_path)
        return measure(method, seed, seconds, workdir, tally)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not Path(deepreflecs.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: deepreflecs was imported from {deepreflecs.__file__}")

    tally = Tally()
    metrics, record = run(args.workload, args.seed, args.seconds, bool(args.trace), tally)
    units = per_layer_units() if args.trace else END_TO_END
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(),
        "nproc": len(os.sched_getaffinity(0)),
        **record,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": tally.failed / tally.attempted,
        "failures": tally.messages,
    }
    print(json.dumps({"run_record": record}))
    for name, (unit, better) in units.items():
        print(f"{name:52s} {metrics[name]:16.6f} {unit:6s} ({better} is better)")
    print(f"{'error_rate':52s} {record['error_rate']:16.6f} {'ratio':6s} (lower is better;"
          f" {tally.failed} failed of {tally.attempted} attempted)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, (unit, _) in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
