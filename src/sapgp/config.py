"""Run configuration: one table-driven reader for every config section,
file loading, and CLI overrides."""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError
from .kernels import FAMILIES, KernelSpec

SOLVERS = ("sap", "adasap", "adasap_i", "sdd", "pcg")


def _number(name, value, integral, lower=None):
    """A finite real (a whole number, returned as int, if ``integral``; a float
    otherwise) that meets ``lower``, a bound such as ">= 1" or "> 0"."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if integral and value != int(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    value = int(value) if integral else float(value)
    if lower is not None:
        relation, bound = lower.split()
        if not (value > float(bound) if relation == ">" else value >= float(bound)):
            raise ConfigError(f"{name} must be {lower}, got {value!r}")
    return value


def _read(name, value, kind, lower=None):
    if isinstance(kind, tuple):
        if value in kind or str in kind and isinstance(value, str):
            return value
        if kind[-1] not in (int, float):
            raise ConfigError(f"{name} must be one of {kind}, got {value!r}")
        kind = kind[-1]
    if kind is bool and not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    if kind in (int, float):
        return _number(name, value, kind is int, lower)
    return value


def read_section(section, values, table):
    """Read the config section ``values`` by ``table``: {key: (default, kind[, lower])}.

    ``kind`` is int, float or bool; a tuple of allowed values, taking any string too
    if it holds str and numbers if it ends in int or float; or None for a value that
    a loader checks later. Numbers go through ``_number`` with the bound ``lower``. A key
    missing from ``values`` takes its default unchecked. Keys outside ``table``
    end in one ConfigError naming each; values are named ``section.key`` (the
    bare key when ``section`` is None). Returns {key: value} for every key.
    """
    prefix = f"{section}." if section else ""
    unknown = sorted(set(values) - set(table))
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(prefix + key for key in unknown))
    return {key: _read(prefix + key, values[key], kind, *lower) if key in values else default
            for key, (default, kind, *lower) in table.items()}


# {field: (kind, lower bound)} for read_section; stepsize_scale = 0 freezes a solver
_RUN_FIELDS = {
    "lam": (float, "> 0"), "blocksize": ((None, int), ">= 1"),
    "nystrom_rank": ((None, int), ">= 0"), "max_passes": ((None, float), "> 0"),
    "max_iters": ((None, int), ">= 1"), "solver_id": (SOLVERS, None),
    "tail_average": (bool, None), "seed": (int, ">= 0"),
    "num_workers": (int, ">= 1"), "mu": (("default", float), "> 0"),
    "nu": (("default", float), "> 0"), "stepsize_scale": (float, ">= 0"),
    "tol": ((None, float), ">= 0"), "residual_every": (int, ">= 0"),
}


@dataclass
class RunConfig:
    """Solver run parameters; one root seed determines all randomness."""

    lam: float = 1e-3
    blocksize: int | None = None
    nystrom_rank: int | None = None
    max_passes: float | None = 50.0
    max_iters: int | None = None
    solver_id: str = "adasap"
    tail_average: bool = False
    seed: int = 0
    num_workers: int = 1
    mu: float | str = "default"
    nu: float | str = "default"
    stepsize_scale: float = 10.0
    tol: float | None = None
    residual_every: int = 1

    def __post_init__(self):
        values = {name: getattr(self, name) for name in _RUN_FIELDS}
        table = {name: (None, *rule) for name, rule in _RUN_FIELDS.items()}
        for name, value in read_section(None, values, table).items():
            setattr(self, name, value)
        if self.max_passes is None and self.max_iters is None:
            raise ConfigError("need max_passes or max_iters")

    def reject_ignored(self, solver=None):
        """ConfigError if ``solver`` (by default ``solver_id``) would ignore a
        set ``tail_average``."""
        solver = self.solver_id if solver is None else solver
        if self.tail_average and solver in ("sdd", "pcg"):
            raise ConfigError(f"run.tail_average = true is ignored by solver {solver!r}; "
                              "only sap, adasap, adasap_i read it")

    def validate_for(self, n):
        """Size-dependent checks once the problem size is known."""
        blocksize = resolve_blocksize(self, n)
        if self.solver_id == "adasap":
            resolve_rank(self, blocksize)

    @classmethod
    def from_dict(cls, values):
        """The ``run`` section; the constructor checks each value."""
        return cls(**read_section("run", values, {f.name: (f.default, None) for f in fields(cls)}))


def resolve_blocksize(config, n):
    b = config.blocksize if config.blocksize is not None else max(1, n // 100)
    if b > n:
        raise ConfigError(f"blocksize {b} exceeds n={n}")
    return b


def resolve_rank(config, blocksize, lowest=1):
    """The Nystrom rank, by default min(100, blocksize); a set rank outside
    [``lowest``, blocksize] is a ConfigError naming that range."""
    r = config.nystrom_rank if config.nystrom_rank is not None else min(100, blocksize)
    if not lowest <= r <= blocksize:
        raise ConfigError(f"nystrom_rank {r} outside [{lowest}, {blocksize}]")
    return r


_KERNEL_KEYS = {"family": ("rbf", FAMILIES), "lengthscales": (1.0, None),
                "variance": (1.0, float, "> 0")}


def kernel_from_dict(values, d=None):
    """Build a KernelSpec from the ``kernel`` section {family, lengthscales,
    variance}; one lengthscale is repeated over ``d`` dimensions."""
    values = read_section("kernel", values, _KERNEL_KEYS)
    ls = values["lengthscales"]
    ls = np.array([_number("kernel.lengthscales", value, False, "> 0")
                   for value in (ls if isinstance(ls, list) else [ls])])
    if d is not None and ls.size == 1 and d > 1:
        ls = np.full(d, ls[0])
    return KernelSpec(values["family"], ls, values["variance"])


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
    for parse in (int, float):
        try:
            return parse(text)
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
