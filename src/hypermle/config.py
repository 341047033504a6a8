"""JSON configuration for the command line: one document drives everything.

Schema (all sections except "spectrum"/"preset" and "params" are optional;
a key not listed here is an error):

    {
      "spectrum": {
        "kappa": {"kind": "power_law", "coefficient": 1.0, "exponent": 2.0},
        "tau":   {"kind": "power_law", "coefficient": 1.0, "exponent": 2.0},
        "rho":   {"kind": "constant", "coefficient": 0.0},
        "nu":    {"kind": "constant", "coefficient": 1.0},
        "dimension": 1, "k_max": 1000000
      },
      // or:  "preset": "alg_ex1", "dimension": 1,
      "params": {"theta1": 1.0, "theta2": -0.5,
                 "theta1_box": [0.5, 2.0], "theta2_box": [-1.0, 1.0], "T": 1.0},
      "grid": {"n_steps": 4096},
      "experiment": {"N_list": [25, 50, 100, 200], "replicates": 200,
                     "seed": 20240901, "out": "results"},
      "check": {"k_range": [1, 1000]}
    }

Generator kinds: power_law (coefficient, exponent), exp_law (coefficient,
rate), log_law (coefficient, exponent, shift), loglog_law (coefficient,
shift), constant (coefficient), explicit (values), signed_alternating
(inner).

A "preset" or a top-level "dimension" next to a "spectrum" section is an
error, and so is 2.9 or true in an integer field (4096.0 is 4096).
"""
from __future__ import annotations

import json
import os
from dataclasses import MISSING, asdict, fields
from pathlib import Path

from .equations import preset as make_preset
from .simulate import TimeGrid
from .spectrum import GENERATORS, ModelParams, SpectrumSpec

__all__ = ["ConfigError", "load_config", "generator_from_config", "spectrum_from_config"]

_SECTIONS = {
    "top level": ("spectrum", "preset", "dimension", "params", "grid", "experiment", "check"),
    "spectrum": ("kappa", "tau", "rho", "nu", "dimension", "k_max"),
    "params": ("theta1", "theta2", "theta1_box", "theta2_box", "T"),
    "grid": ("n_steps",),
    "experiment": ("N_list", "replicates", "seed", "out"),
    "check": ("k_range",),
}


class ConfigError(ValueError):
    """Invalid configuration; carries a human-readable location."""


def _check_fields(node, allowed, where):
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: expected an object")
    extras = set(node) - set(allowed)
    if extras:
        raise ConfigError(f"{where}: unexpected fields {sorted(extras)}")
    return node


def _checked(convert, value, where):
    """convert(value), with a failure reported as a ConfigError at `where`."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _integer(value):
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"must be an integer, got {value!r}")
    return int(value)


def _positive_int(value):
    n = _integer(value)
    if n < 1:
        raise ValueError(f"must be a positive integer, got {value!r}")
    return n


def _seed(value):
    n = _integer(value)
    if not 0 <= n < 2 ** 64:
        raise ValueError(f"must be an integer in [0, 2^64), got {value!r}")
    return n


def _n_list(values):
    ns = [_positive_int(n) for n in values]
    if not ns or sorted(set(ns)) != ns:
        raise ValueError(f"must be a non-empty strictly increasing list of positive integers, got {values!r}")
    return ns


def _k_range(values):
    lo, hi = (_integer(k) for k in values)
    if not 1 <= lo <= hi:
        raise ValueError(f"must satisfy 1 <= k_lo <= k_hi, got {values!r}")
    return lo, hi


def generator_from_config(node, where="generator"):
    if not isinstance(node, dict) or "kind" not in node:
        raise ConfigError(f"{where}: expected an object with a 'kind' tag")
    cls = GENERATORS.get(str(node["kind"]))
    if cls is None:
        raise ConfigError(f"{where}: unknown generator kind {node['kind']!r}")
    _check_fields(node, ["kind"] + [f.name for f in fields(cls)], where)
    try:
        return cls(**{f.name: _field_from_config(f.type, node[f.name], f"{where}.{f.name}")
                      for f in fields(cls) if f.name in node or f.default is MISSING})
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _field_from_config(declared, value, where):
    if declared == "Generator":
        return generator_from_config(value, where)
    if declared == "tuple":
        return tuple(float(v) for v in value)
    return float(value)


def spectrum_from_config(node, where="spectrum"):
    _check_fields(node, _SECTIONS["spectrum"], where)
    for name in ("kappa", "tau", "rho", "nu"):
        if name not in node:
            raise ConfigError(f"{where}: missing sequence {name!r}")
    gens = {name: generator_from_config(node[name], f"{where}.{name}") for name in
            ("kappa", "tau", "rho", "nu")}
    return SpectrumSpec(
        gens["kappa"], gens["tau"], gens["rho"], gens["nu"],
        dimension=_checked(_positive_int, node.get("dimension", 1), f"{where}.dimension"),
        k_max=_checked(_positive_int, node.get("k_max", 10 ** 6), f"{where}.k_max"),
    )


def _params_from_config(node, where="params"):
    try:
        return ModelParams(
            theta1=float(node["theta1"]),
            theta2=float(node["theta2"]),
            theta1_box=tuple(float(x) for x in node["theta1_box"]),
            theta2_box=tuple(float(x) for x in node["theta2_box"]),
            T=float(node.get("T", 1.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_config(path):
    """Parse a config file into spec/params/grid/experiment/check pieces."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    _check_fields(doc, _SECTIONS["top level"], f"{path}: top level")
    param_node, grid_node, exp, check = (_check_fields(doc.get(name, {}), _SECTIONS[name], name)
                                         for name in ("params", "grid", "experiment", "check"))

    for key in ("preset", "dimension"):
        if key in doc and "spectrum" in doc:
            raise ConfigError(f"{path}: {key}: conflicts with 'spectrum', which sets the dimension too")
    if "preset" in doc:
        kwargs = {}
        if "dimension" in doc:
            kwargs["d"] = _checked(_positive_int, doc["dimension"], "dimension")
        if "T" in param_node:
            kwargs["T"] = _checked(float, param_node["T"], "params.T")
        try:
            spec, params = make_preset(doc["preset"], **kwargs)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"preset: {exc}") from exc
        params = _params_from_config({**asdict(params), **param_node})
    elif "spectrum" in doc:
        spec = spectrum_from_config(doc["spectrum"])
        if "params" not in doc:
            raise ConfigError(f"{path}: 'params' section is required")
        params = _params_from_config(param_node)
    else:
        raise ConfigError(f"{path}: need either 'spectrum' or 'preset'")

    grid = TimeGrid(params.T, _checked(_positive_int, grid_node.get("n_steps", 4096), "grid.n_steps"))
    experiment = {
        "N_list": _checked(_n_list, exp.get("N_list", [25, 50, 100, 200]), "experiment.N_list"),
        "replicates": _checked(_positive_int, exp.get("replicates", 100), "experiment.replicates"),
        "seed": _checked(_seed, exp.get("seed", 0), "experiment.seed"),
        "out": _checked(os.fspath, exp.get("out", "results"), "experiment.out"),
    }
    check_opts = {
        "k_range": _checked(_k_range, check.get("k_range", (1, 1000)), "check.k_range"),
    }
    return {"spec": spec, "params": params, "grid": grid,
            "experiment": experiment, "check": check_opts, "raw": doc}
