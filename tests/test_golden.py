"""Golden digests: every canonical output of the command list below is
byte-identical to the one pinned in golden.json.

The list runs through `cli.main` in one subprocess with one BLAS thread:
the seed-0 desk dataset; a model of each method on a short schedule;
the eval report of each method; the benchmark and ablation reports; and the gradient check.
Model files and report JSONs are hashed; train summaries (wall time) and
timing output are not. The same list in a subprocess with two BLAS
threads must give the same digests.

The digests depend on the numpy and OpenBLAS builds, which the table
records. To re-pin after a deliberate change, run this file as a script
from the repository root and write its output over golden.json:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/test_golden.py > tests/golden.json
"""

import contextlib
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import deepreflecs
from deepreflecs import cli

GOLDEN = Path(__file__).with_name("golden.json")
CONFIG = {"train": {"epochs": 2, "steps_per_epoch": 8}}
METHODS = ("deepreflecs", "forest", "gridcnn")


def versions() -> dict:
    return {
        "numpy": np.__version__,
        "openblas": np.__config__.CONFIG["Build Dependencies"]["blas"]["version"],
    }


def commands() -> list:
    """(argv, the output files it writes that are hashed)."""
    runs = [(["generate", "--seed", "0", "--out", "desk.jsonl"], ["desk.jsonl"])]
    for name in METHODS:
        argv = ["train", "--method", name, "--data", "desk.jsonl", "--seed", "0",
                "--config", "config.json", "--out", f"{name}.model"]
        runs.append((argv, [f"{name}.model"]))
    for name in METHODS:
        argv = ["eval", "--model", f"{name}.model", "--data", "desk.jsonl",
                "--json", f"eval_{name}.json"]
        runs.append((argv, [f"eval_{name}.json"]))
    for command in ("benchmark", "ablate"):
        argv = [command, "--data", "desk.jsonl", "--seed", "0", "--config", "config.json",
                "--json", f"{command}.json"]
        if command == "benchmark":
            argv += ["--timing-json", "timing.json"]
        runs.append((argv, [f"{command}.json"]))
    runs.append((["gradcheck", "--seed", "0", "--json", "gradcheck.json"], ["gradcheck.json"]))
    return runs


def digests(workdir: Path) -> dict:
    """Run the command list in `workdir`; the sha256 of every hashed output."""
    (workdir / "config.json").write_text(json.dumps(CONFIG))
    out = {}
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        for argv, files in commands():
            with contextlib.redirect_stdout(sys.stderr):
                code = cli.main(argv)
            if code != 0:
                raise SystemExit(f"{' '.join(argv)} exited {code}")
            for name in files:
                out[name] = hashlib.sha256((workdir / name).read_bytes()).hexdigest()
    finally:
        os.chdir(previous)
    return out


def table() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {**versions(), "sha256": digests(Path(tmp))}


def pinned_table() -> dict:
    """golden.json, once it is checked to be pinned on this numpy and OpenBLAS."""
    pinned = json.loads(GOLDEN.read_text())
    here = versions()
    other = {k: (pinned[k], here[k]) for k in here if pinned[k] != here[k]}
    assert not other, f"digests were pinned on other builds, (pinned, here): {other}"
    return pinned


def blas_env(threads: int) -> dict:
    """This environment with OpenBLAS at `threads` threads and the package importable."""
    # the package's parent directory, so a source checkout needs no install
    src = str(Path(deepreflecs.__file__).resolve().parents[1])
    return dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))


def differing_outputs(threads: int) -> list:
    """The hashed outputs whose digest under `threads` BLAS threads is not the pinned one."""
    pinned = pinned_table()["sha256"]
    done = subprocess.run(
        [sys.executable, __file__], capture_output=True, text=True, env=blas_env(threads),
        timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    got = json.loads(done.stdout)["sha256"]
    return sorted(n for n in pinned.keys() | got.keys() if pinned.get(n) != got.get(n))


def test_outputs_match_the_golden_digests():
    differ = differing_outputs(1)
    assert not differ, f"outputs differ from golden.json: {differ}"


def test_outputs_hold_at_two_blas_threads():
    """Every pinned output is the same under two OpenBLAS threads: no
    product of either network or of the forest sums in a thread-dependent
    order."""
    differ = differing_outputs(2)
    assert not differ, f"outputs under two BLAS threads differ from golden.json: {differ}"


if __name__ == "__main__":
    sys.stdout.write(json.dumps(table(), sort_keys=True, indent=2) + "\n")
