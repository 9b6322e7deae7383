"""The suite's pytest configuration reports every test it runs, and the
slowest ones."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(n):
    assert n < 0


def test_a_passing_test():
    pass
'''


def test_a_failing_property_leaves_later_results_reported(tmp_path):
    """Under ``pyproject.toml``'s warning filters, a failing ``@given`` test
    counts as one failure and the test after it still runs. A warning raised
    in hypothesis's report hook used to end the run with INTERNALERROR, so
    only ``1 failed`` was reported. The run lists its ten slowest tests."""
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", os.path.join(ROOT, "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
    assert "= slowest 10 durations =" in out
