"""The test settings in pyproject.toml report every failure: a falsified
property test is one failure, and the tests after it still run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FALSIFIED_THEN_PASSING = '''\
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_falsified(value):
    assert value < 10


def test_after_the_falsified_one():
    pass
'''


def test_a_falsified_property_does_not_end_the_session(tmp_path):
    test_file = tmp_path / "test_generated.py"
    test_file.write_text(FALSIFIED_THEN_PASSING, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), str(test_file)],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout.splitlines()[-1]
