import ast
import importlib
import inspect
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


@pytest.mark.parametrize("demo", sorted(DEMOS.glob("*.py")), ids=lambda p: p.name)
def test_demo_names_resolve(demo):
    """Every smpx name a demo imports or reads off an smpx module exists.

    Only demo 01 runs in the tests; this catches a rename that breaks the
    others without running them.
    """
    tree = ast.parse(demo.read_text(), filename=str(demo))
    modules = {}  # local name -> smpx module object
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "smpx":
                    mod = importlib.import_module(alias.name)
                    modules[alias.asname or alias.name] = mod
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "smpx":
            mod = importlib.import_module(node.module)
            for alias in node.names:
                obj = getattr(mod, alias.name, None)
                if obj is None:
                    missing.append(f"{node.module}.{alias.name}")
                elif inspect.ismodule(obj):
                    modules[alias.asname or alias.name] = obj
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and not hasattr(modules[node.value.id], node.attr)):
            missing.append(f"{node.value.id}.{node.attr} (line {node.lineno})")
    assert not missing, f"{demo.name} reads names smpx does not have: {missing}"


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
