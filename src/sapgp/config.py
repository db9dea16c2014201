"""Run configuration: validation, file loading, and CLI overrides."""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError
from .kernels import FAMILIES, KernelSpec

SOLVERS = ("sap", "adasap", "adasap_i", "sdd", "pcg")
SAMPLERS = ("uniform", "kdpp")
_INT_FIELDS = ("blocksize", "nystrom_rank", "max_iters", "seed", "num_workers", "residual_every")
_REAL_FIELDS = ("lam", "max_passes", "mu", "nu", "stepsize_scale", "tol")
_OPTIONAL = ("blocksize", "nystrom_rank", "max_passes", "max_iters", "tol")
# {field: (lower bound, bound allowed)}; stepsize_scale = 0 freezes a solver
_LOWER_BOUNDS = {
    "lam": (0.0, False), "max_passes": (0.0, False), "max_iters": (1, True),
    "blocksize": (1, True), "nystrom_rank": (0, True), "seed": (0, True),
    "num_workers": (1, True), "residual_every": (0, True), "tol": (0.0, True),
    "stepsize_scale": (0.0, True),
}


def _number(name, value, integral):
    """A finite real (a whole number, returned as int, if ``integral``)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if not integral:
        return value
    if value != int(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def section_numbers(section, values, table):
    """Read each key of ``table`` ({key: (default, integral)}) from ``values``
    through ``_number``, naming the dotted key ``section.key``; real values are
    returned as floats."""
    out = {}
    for key, (default, integral) in table.items():
        value = _number(f"{section}.{key}", values.get(key, default), integral)
        out[key] = value if integral else float(value)
    return out


@dataclass
class RunConfig:
    """Solver run parameters; one root seed determines all randomness."""

    lam: float = 1e-3
    blocksize: int | None = None
    nystrom_rank: int | None = None
    max_passes: float | None = 50.0
    max_iters: int | None = None
    solver_id: str = "adasap"
    sampler: str = "uniform"
    tail_average: bool = False
    seed: int = 0
    num_workers: int = 1
    mu: float | str = "default"
    nu: float | str = "default"
    stepsize_scale: float = 10.0
    tol: float | None = None
    residual_every: int = 1
    grad_eval_point: str = "z"

    def __post_init__(self):
        for name in _INT_FIELDS + _REAL_FIELDS:
            value = getattr(self, name)
            if value is None and name in _OPTIONAL or value == "default" and name in ("mu", "nu"):
                continue
            setattr(self, name, _number(name, value, integral=name in _INT_FIELDS))
        for name, (bound, allowed) in _LOWER_BOUNDS.items():
            value = getattr(self, name)
            if value is not None and not (value >= bound if allowed else value > bound):
                relation = ">=" if allowed else ">"
                raise ConfigError(f"{name} must be {relation} {bound}, got {value!r}")
        if not isinstance(self.tail_average, bool):
            raise ConfigError(f"tail_average must be true or false, got {self.tail_average!r}")
        if self.solver_id not in SOLVERS:
            raise ConfigError(f"solver_id must be one of {SOLVERS}")
        if self.sampler not in SAMPLERS:
            raise ConfigError(f"sampler must be one of {SAMPLERS}")
        if self.grad_eval_point not in ("z", "w"):
            raise ConfigError("grad_eval_point must be 'z' or 'w'")
        if self.max_passes is None and self.max_iters is None:
            raise ConfigError("need max_passes or max_iters")
        for name in ("mu", "nu"):
            value = getattr(self, name)
            if value != "default" and not value > 0.0:
                raise ConfigError(f"{name} must be positive or 'default'")

    def validate_for(self, n):
        """Size-dependent checks once the problem size is known."""
        if self.blocksize is not None and self.blocksize > n:
            raise ConfigError(f"blocksize {self.blocksize} exceeds n={n}")
        if (
            self.blocksize is not None
            and self.nystrom_rank is not None
            and self.solver_id in ("adasap", "adasap_i")
            and self.nystrom_rank > self.blocksize
        ):
            raise ConfigError("nystrom_rank must not exceed blocksize")

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, values):
        known = {f.name for f in fields(cls)}
        unknown = set(values) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**values)


def kernel_from_dict(values, d=None):
    """Build a KernelSpec from config keys {family, lengthscales, variance}."""
    known = {"family", "lengthscales", "variance"}
    unknown = set(values) - known
    if unknown:
        raise ConfigError(f"unknown kernel keys: {sorted(unknown)}")
    family = values.get("family", "rbf")
    if family not in FAMILIES:
        raise ConfigError(f"kernel family must be one of {FAMILIES}")
    ls = np.atleast_1d(np.asarray(values.get("lengthscales", 1.0), dtype=np.float64))
    if d is not None and ls.size == 1 and d > 1:
        ls = np.full(d, ls[0])
    return KernelSpec(family, ls, float(values.get("variance", 1.0)))


def load_config(path):
    """Read the JSON key/value tree."""
    with open(path) as handle:
        try:
            tree = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(tree, dict):
        raise ConfigError(f"{path}: config root must be an object")
    return tree


def _parse_literal(text):
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("null", "none"):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def apply_overrides(tree, overrides):
    """Apply repeatable ``--set dotted.key=value`` flags onto the config tree."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, _, raw = item.partition("=")
        node = tree
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {key!r} crosses a non-object node")
        node[parts[-1]] = _parse_literal(raw)
    return tree
