import os
import subprocess
import sys
from pathlib import Path

import pytest

import smpx

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", smpx.__all__)
def test_public_name_resolves(name):
    assert getattr(smpx, name) is not None


def test_prox_geometry_demo_runs():
    src = str(Path(smpx.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(DEMOS / "01_prox_geometries.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "=== Product geometry ===" in done.stdout
