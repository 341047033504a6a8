"""The demo scripts run against the current API: every hypermle name they import exists.

Demos 01, 02, 03 and 05 take a few seconds together and are run whole;
demo 04 (a Monte Carlo study of about 15 s) has only its imports checked.
"""
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
RUN = ["01", "02", "03", "05"]


def hypermle_imports(path):
    """(module, name) of every `from hypermle... import name` in a file, and (module, None) per `import hypermle...`."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hypermle":
            out += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            out += [(alias.name, None) for alias in node.names if alias.name.split(".")[0] == "hypermle"]
    return out


def test_every_demo_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_imported_names_resolve(path):
    names = hypermle_imports(path)
    assert names, f"{path.name} imports nothing from hypermle"
    for module, name in names:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), f"{path.name}: {module} has no {name}"


@pytest.mark.parametrize("path", [p for p in DEMOS if p.name[:2] in RUN], ids=lambda p: p.name)
def test_demo_runs(path, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(path)], capture_output=True, text=True, cwd=tmp_path,
                          env=env)
    assert done.returncode == 0, done.stderr[-2000:]
