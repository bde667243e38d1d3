"""The research scripts run end to end at their smallest sizes."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *argv: str, cwd: Path) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_abc_instability_survey(tmp_path):
    out = run_script("abc_instability_survey.py", "--steps", "1", "--out", "survey.csv", cwd=tmp_path)
    rows = read_rows(tmp_path / "survey.csv")
    assert len(rows) == 1 and rows[0]["certified"] == "True"
    assert "1/1 triples certified unstable" in out


def test_growth_vs_eps(tmp_path):
    run_script(
        "growth_vs_eps.py", "--truncation", "1", "--t-end", "1", "--target-eps", "0.95",
        "--out", "growth.csv", cwd=tmp_path,
    )
    rows = read_rows(tmp_path / "growth.csv")
    # the continuation reaches the target, and every sample keeps growing
    assert [float(r["eps"]) for r in rows] == pytest.approx([1.0, 0.95])
    assert all(float(r["p_re"]) > 0.0 for r in rows)


def test_separation_constant_sweep(tmp_path):
    out = run_script("separation_constant_sweep.py", "--n-max", "1", "--ell-max", "1", cwd=tmp_path)
    assert "smallest passing dyadic constant:" in out
