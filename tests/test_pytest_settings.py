"""The repository's pytest settings let a failing property test report its example."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent

ALWAYS_FAILS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_fails(x):
    assert x != x
"""


def test_failing_hypothesis_test_prints_its_falsifying_example(tmp_path):
    # hypothesis's failure reporter imports libcst, which raises a
    # DeprecationWarning that the settings would otherwise make an error
    # inside pytest's report hook (INTERNALERROR, no example shown)
    (tmp_path / "test_always_fails.py").write_text(ALWAYS_FAILS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         "test_always_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output
    assert run.returncode == 1, output
    assert "Falsifying example: test_always_fails(" in output
