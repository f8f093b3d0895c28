"""The repository's pytest settings keep a failing test's report intact."""
import subprocess
import sys
from pathlib import Path

_FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
"""


def test_a_failing_hypothesis_test_prints_its_falsifying_example(tmp_path):
    # filterwarnings = error must not turn a warning raised while hypothesis
    # reports the failure into an INTERNALERROR that hides the example.
    (tmp_path / "test_fails.py").write_text(_FAILING)
    settings = Path(__file__).parents[1] / "pyproject.toml"
    argv = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(settings), "--rootdir", str(tmp_path)]
    done = subprocess.run(
        [sys.executable, *argv, "test_fails.py"], cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "Falsifying example: test_fails(" in done.stdout
    assert "INTERNALERROR" not in done.stdout + done.stderr
