"""The repo's pytest settings, run on throwaway test files in a pytest subprocess."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

THROWAWAY = '''
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_hypothesis_fails(x):
    assert x < 10


def test_other_deprecation_warning_fails():
    warnings.warn("some other deprecation", DeprecationWarning)
'''


def test_failing_hypothesis_test_prints_its_falsifying_example(tmp_path):
    # warnings stay errors, except the one hypothesis's own reporting raises
    (tmp_path / "test_throwaway.py").write_text(THROWAWAY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         "test_throwaway.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_hypothesis_fails(" in out
    assert "DeprecationWarning: some other deprecation" in out
    assert "2 failed" in out
