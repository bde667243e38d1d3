"""The repository's pytest configuration reports every test, even after a failing property test."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass
'''


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    # reporting a failing @given test imports libcst, whose import warning
    # the "error" filter would turn into an INTERNALERROR (exit 3)
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(REPO / "pyproject.toml"), "--rootdir", str(tmp_path),
         "-q", "-p", "no:cacheprovider", str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
