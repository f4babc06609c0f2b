"""The repo's pytest settings keep a run going past a failing test.

`filterwarnings = ["error"]` turns every warning into an error. A failing
`@given` test makes hypothesis's pytest plugin import libcst, which imports
mypy_extensions, whose import warns; unless pyproject.toml ignores that
warning, the run ends there with an INTERNALERROR and no later test runs.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_a_failing_property(x):
    assert x < 0


def test_after_it():
    pass
'''


def test_a_failing_property_test_does_not_end_the_run(tmp_path):
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), str(probe)],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
    )
    output = done.stdout + done.stderr
    assert "INTERNALERROR" not in output, output
    assert "1 failed, 1 passed" in output, output
