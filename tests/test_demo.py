import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_walkthrough_runs_and_reports_the_oracle_dimension():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-B",
                           str(ROOT / "demos" / "walkthrough.py")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert ("Brute-force oracle: solution space has dimension 2"
            in done.stdout.splitlines())
    assert "spans the oracle nullspace: False" not in done.stdout
