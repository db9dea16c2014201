"""Run configuration: one table-driven reader for every config section,
file loading, and CLI overrides."""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, fields

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


def _setting(default, kind, lower=None, readers=SOLVERS):
    """A ``RunConfig`` field: its default, its kind and lower bound (as in
    ``read_section``) and the solvers that read it."""
    return field(default=default, metadata={"rule": (kind, lower), "readers": readers})


@dataclass
class RunConfig:
    """Solver run parameters; one root seed determines all randomness.

    Each field declares the solvers that read it. ``lam`` is read by all:
    the CLI builds the oracle from it, while the library solvers take
    ``oracle.lam``.
    """

    lam: float = _setting(1e-3, float, "> 0")
    blocksize: int | None = _setting(None, (None, int), ">= 1",
                                     ("sap", "adasap", "adasap_i", "sdd"))
    nystrom_rank: int | None = _setting(None, (None, int), ">= 0", ("adasap", "pcg"))
    max_passes: float | None = _setting(50.0, (None, float), "> 0")
    max_iters: int | None = _setting(None, (None, int), ">= 1")
    solver_id: str = _setting("adasap", SOLVERS)
    tail_average: bool = _setting(False, bool, readers=("sap", "adasap", "adasap_i"))
    seed: int = _setting(0, int, ">= 0")
    num_workers: int = _setting(1, int, ">= 1")
    mu: float | str = _setting("default", ("default", float), "> 0", ("adasap", "adasap_i"))
    nu: float | str = _setting("default", ("default", float), "> 0", ("adasap", "adasap_i"))
    stepsize_scale: float = _setting(10.0, float, ">= 0", ("sdd",))  # 0 freezes a solver
    tol: float | None = _setting(None, (None, float), ">= 0")
    residual_every: int = _setting(1, int, ">= 0")

    def __post_init__(self):
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        table = {f.name: (None, *f.metadata["rule"]) for f in fields(self)}
        for name, value in read_section(None, values, table).items():
            setattr(self, name, value)
        if self.max_passes is None and self.max_iters is None:
            raise ConfigError("need max_passes or max_iters")

    def reject_ignored(self, solver=None):
        """ConfigError for the first field, in declaration order, that differs
        from its default and that ``solver`` (by default ``solver_id``) does
        not read; then for a ``max_passes`` other than null or its default
        next to a ``max_iters``, which overrides it."""
        solver = self.solver_id if solver is None else solver
        for f in fields(self):
            value, readers = getattr(self, f.name), f.metadata["readers"]
            if solver not in readers and value != f.default:
                raise ConfigError(f"run.{f.name} = {json.dumps(value)} is ignored by solver "
                                  f"{solver!r}; only {', '.join(readers)} read it")
        if self.max_iters is not None and self.max_passes not in (None, RunConfig.max_passes):
            raise ConfigError(f"max_iters must be null when max_passes is set, got max_iters = "
                              f"{self.max_iters} and max_passes = {self.max_passes!r}")

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
