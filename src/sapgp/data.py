"""Dataset ingestion, standardization, and train/test splitting."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParseError, ValidationError
from .rng import substream


@dataclass(frozen=True)
class Dataset:
    """Feature matrix and targets. Standardized copies keep no inverse
    transform: predictions and metrics stay in standardized space."""

    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        features = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        targets = np.ascontiguousarray(np.asarray(self.targets, dtype=np.float64)).ravel()
        if features.ndim != 2:
            raise ValidationError("features must be a 2-d array")
        n, d = features.shape
        if n < 1 or d < 1:
            raise ValidationError("need at least one row and one feature column")
        if targets.shape[0] != n:
            raise ValidationError("targets length does not match feature rows")
        if not np.all(np.isfinite(features)) or not np.all(np.isfinite(targets)):
            raise ValidationError("non-finite values are not accepted")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "targets", targets)

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def d(self):
        return self.features.shape[1]

    def subset(self, indices):
        """The rows ``indices``, in that order."""
        indices = np.asarray(indices, dtype=np.intp)
        return Dataset(self.features[indices], self.targets[indices])


def _try_float(token):
    try:
        return float(token)
    except ValueError:
        return None


def load_csv(path, target_column=-1):
    """Load a comma-separated file into an (un-standardized) Dataset.

    The file may carry a single header line; it is detected by any
    non-numeric token in the first row. ``target_column`` is a column index
    or, when a header is present, a column name. Row numbers in error
    messages are 1-based file line numbers.
    """
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise ParseError(f"{path}: empty file")

    header = None
    first = rows[0]
    if any(_try_float(tok) is None for tok in first):
        header = [tok.strip() for tok in first]
        data_rows = rows[1:]
        first_line = 2
    else:
        data_rows = rows
        first_line = 1
    if not data_rows:
        raise ParseError(f"{path}: no data rows")

    arity = len(data_rows[0])
    if arity < 2:
        raise ParseError(f"{path}: row {first_line}: need at least two columns")

    if isinstance(target_column, str):
        if header is None:
            raise ParseError(f"{path}: named target column requires a header line")
        try:
            target_idx = header.index(target_column)
        except ValueError:
            raise ParseError(f"{path}: no column named {target_column!r}") from None
    else:
        target_idx = int(target_column)
        if target_idx < 0:
            target_idx += arity
        if not 0 <= target_idx < arity:
            raise ParseError(f"{path}: target column {target_column} out of range")

    values = np.empty((len(data_rows), arity), dtype=np.float64)
    for i, row in enumerate(data_rows):
        line = first_line + i
        if len(row) != arity:
            raise ParseError(f"{path}: row {line}: expected {arity} fields, got {len(row)}")
        for j, tok in enumerate(row):
            val = _try_float(tok)
            if val is None:
                raise ParseError(f"{path}: row {line}: cannot parse {tok!r}")
            values[i, j] = val
        if not np.all(np.isfinite(values[i])):
            raise ValidationError(f"{path}: row {line}: non-finite value rejected")

    mask = np.ones(arity, dtype=bool)
    mask[target_idx] = False
    return Dataset(values[:, mask], values[:, target_idx])


def _standardizer(ds):
    """The z-score map fitted on ``ds``: per-column mean and sample std
    (ddof=1) of features and targets; degenerate stds forced to 1."""
    means = ds.features.mean(axis=0)
    if ds.n >= 2:
        stds = ds.features.std(axis=0, ddof=1)
        tstd = float(ds.targets.std(ddof=1))
    else:
        stds = np.zeros(ds.d)
        tstd = 0.0
    stds = np.where(stds > 0.0, stds, 1.0)
    tstd = tstd if tstd > 0.0 else 1.0
    tmean = float(ds.targets.mean())
    return lambda part: Dataset((part.features - means) / stds, (part.targets - tmean) / tstd)


def standardize(ds):
    """Z-score features (per column) and targets."""
    return _standardizer(ds)(ds)


def train_test_split(ds, test_fraction, seed):
    """Deterministic split; standardization fitted on train, applied to both.

    The test part gets ``max(1, floor(n * test_fraction))`` rows.
    """
    if not 0.0 < float(test_fraction) < 1.0:
        raise ConfigError("test_fraction must lie strictly between 0 and 1")
    n = ds.n
    n_test = max(1, math.floor(n * float(test_fraction)))
    if n - n_test < 1:
        raise ConfigError("split leaves an empty train part")
    perm = substream(seed, "split").permutation(n)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    train = ds.subset(train_idx)
    test = ds.subset(test_idx)
    fitted = _standardizer(train)
    return fitted(train), fitted(test)
