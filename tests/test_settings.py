"""The suite's pytest settings, checked in a child pytest session."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

CHILD_TESTS = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert False


def test_passes():
    pass
"""


def test_failing_hypothesis_test_stops_only_itself(tmp_path):
    # filterwarnings turns warnings into errors; one raised while a plugin
    # reports a failure would end the session before test_passes ran
    (tmp_path / "test_child.py").write_text(CHILD_TESTS, encoding="utf-8")
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_child.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=50,
    )
    output = child.stdout + child.stderr
    assert child.returncode == 1, output
    assert "1 failed, 1 passed" in output, output
    assert "INTERNALERROR" not in output, output
