"""pyproject.toml's pytest settings, checked on a probe file run by a child pytest under them."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"

PROBE = '''
import numpy as np
from hypothesis import given, strategies as st


@given(st.integers())
def test_hypothesis_failure(x):
    assert x < 0


def test_numpy_warning():
    np.log(np.zeros(1))


def test_passes():
    pass
'''


def test_warnings_fail_tests_and_a_hypothesis_failure_does_not_stop_the_session(tmp_path):
    # Hypothesis's failure report imports libcst, whose import warns a DeprecationWarning;
    # under a bare "error" filter that warning became an INTERNALERROR that ended the session
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "FAILED test_probe.py::test_hypothesis_failure - assert 0 < 0" in out.stdout
    assert "FAILED test_probe.py::test_numpy_warning - RuntimeWarning: divide by zero" in out.stdout
    assert out.stdout.splitlines()[-1].startswith("2 failed, 1 passed")
