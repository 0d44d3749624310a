"""The demo scripts run to completion (each is also a narrated smoke test of
the paths it calls)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_curvature_profile.py", "02_geodesics.py", "03_jacobi_fields.py",
         "04_stable_certificates.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
