"""Every private module-level name of a hypermle module is read somewhere besides its definition.

A private name is a module-level function, class or constant whose name
starts with "_".  It is read where a file of src/, tests/ or perfbench/
loads it as a name or an attribute, or holds it as a string, as
monkeypatch.setattr and the benchmark's tracer do.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "hypermle").glob("*.py"))
SOURCES = sorted(p for folder in ("src", "tests", "perfbench") for p in (ROOT / folder).rglob("*.py"))


def private_definitions(tree):
    """Names of the module-level functions, classes and constants of a module starting with "_"."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def reads(tree):
    """The names and attributes a file loads and the strings it holds."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_scan_finds_a_dead_name(tmp_path):
    module = tmp_path / "m.py"
    module.write_text('"""_D is dead."""\n_A = 1\n_B = _A\n_C, _D = 2, 3\n\n\ndef _f():\n'
                      '    return _C\n\n\nclass _K:\n    _E = 4\n')
    tree = ast.parse(module.read_text())
    assert private_definitions(tree) == ["_A", "_B", "_C", "_D", "_f", "_K"]
    assert [name for name in private_definitions(tree) if name not in reads(tree)] == [
        "_B", "_D", "_f", "_K"]


@pytest.fixture(scope="module")
def read():
    return set().union(*(reads(ast.parse(source.read_text())) for source in SOURCES))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_private_names_are_read(path, read):
    unread = [name for name in private_definitions(ast.parse(path.read_text())) if name not in read]
    assert not unread, f"{path.name}: private names nothing reads {unread}"
