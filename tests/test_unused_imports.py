"""Every name a hypermle module imports is used there.

__init__.py re-exports, and a module may import a name only so that the
benchmark's tracer can wrap it there; both are exempt.
"""
import ast
from pathlib import Path

import pytest

from test_benchmark_names import wrapped_names

SRC = Path(__file__).resolve().parent.parent / "src" / "hypermle"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(path):
    """Names bound by an import anywhere in the file and never read there."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in imported.items() if name not in read}


def test_scan_finds_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import math\nfrom os import path, sep\n\n\ndef f():\n"
                      "    from math import erf\n    return path.join(sep)\n")
    assert unused_imports(module) == {"math": 1, "erf": 6}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    exempt = {attr for module, attr in wrapped_names() if module == path.stem}
    unused = {name: line for name, line in unused_imports(path).items() if name not in exempt}
    assert not unused, f"{path.name}: imported and never used (name: line) {unused}"
