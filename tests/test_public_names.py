"""Every name in a hypermle module's __all__ is read by the program, or is kept API listed here.

A name is read where a package module (cli.py among them; __init__.py's
re-exports aside), a demo, or a Python block of README.md loads it as a name
or an attribute.  Names only the tests call stay public when KEPT lists
them; README names the same set as the library's kept API.
"""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "hypermle").glob("*.py") if p.name != "__init__.py")

# name -> why it stays public though the program never reads it
KEPT = {
    "covariance_u": "the closed-form E u(s)u(t) of a mode",
    "upsilon": "the growth scale of sum k^gamma",
    "transition": "one mode's exact step in plain coordinates",
    "simulate_mode": "one path of one mode from a given generator",
    "ito_sum": "a left-endpoint Ito sum of a path",
    "Explicit": "a config kind, reached through spectrum.GENERATORS",
    "SignedAlternating": "a config kind, reached through spectrum.GENERATORS",
    "eigenvalues": "(kappa_k, tau_k, rho_k, nu_k) of one k as floats",
    "lambda_mu": "(lambda_k, mu_k) of one k as floats",
    "slowly_increasing_test": "the slowly-increasing test of a sequence",
    "conditions_1_2": "the weak-law conditions of non-algebraic spectra",
}


def reads(source):
    """The names and attributes a piece of Python source loads."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def exported(source):
    """The names of a module's __all__."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def test_scan_finds_an_unread_name():
    source = '__all__ = ["f", "g", "h"]\n\n\ndef f():\n    return g\n\n\ndef g():\n    pass\n\n\ndef h():\n    pass\n'
    assert [name for name in exported(source) if name not in reads(source)] == ["f", "h"]


@pytest.fixture(scope="module")
def read():
    readme = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    sources = [p.read_text() for p in MODULES + sorted((ROOT / "demos").glob("*.py"))] + readme
    return set().union(*map(reads, sources))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_public_names_are_read_or_kept(path, read):
    unread = [name for name in exported(path.read_text()) if name not in read and name not in KEPT]
    assert not unread, f"{path.name}: public names nothing reads and KEPT does not list {unread}"


def test_kept_names_are_public(read):
    public = set().union(*(exported(p.read_text()) for p in MODULES))
    assert set(KEPT) <= public
    assert not set(KEPT) & read, "a kept name the program now reads leaves KEPT"
