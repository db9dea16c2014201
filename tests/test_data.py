import numpy as np
import pytest

from sapgp import ConfigError, ParseError, ValidationError
from sapgp.data import Dataset, load_csv, standardize, train_test_split


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def row_ids(*parts):
    """Targets that began as the row ids 0..n-1 of one dataset, recovered from
    the standardized parts: one increasing affine map took every id to its
    value, so the smallest and the largest value pin it."""
    z = np.concatenate([part.targets for part in parts])
    return (z - z.min()) * ((z.size - 1) / (z.max() - z.min()))


def test_load_csv_shapes(tmp_path):
    path = write(tmp_path, "1.0,2.0,3.0\n4.0,5.0,6.0\n7.0,8.0,9.0\n")
    ds = load_csv(path)
    assert ds.n == 3 and ds.d == 2
    # row order preserved, last column is the target by default
    assert np.allclose(ds.features[0], [1.0, 2.0])
    assert np.allclose(ds.targets, [3.0, 6.0, 9.0])


def test_load_csv_named_target(tmp_path):
    path = write(tmp_path, "a,b,label\n1,2,10\n3,4,20\n")
    ds = load_csv(path, target_column="label")
    assert np.allclose(ds.targets, [10.0, 20.0])
    assert np.allclose(ds.features, [[1.0, 2.0], [3.0, 4.0]])


def test_load_csv_rejects_nan_with_row_number(tmp_path):
    path = write(tmp_path, "1,2\n3,NaN\n5,6\n")
    with pytest.raises(ValidationError, match="row 2"):
        load_csv(path)


def test_load_csv_ragged_row(tmp_path):
    path = write(tmp_path, "1,2\n3\n")
    with pytest.raises(ParseError, match="row 2"):
        load_csv(path)


def test_load_csv_bad_token(tmp_path):
    path = write(tmp_path, "x,y\n1,2\n3,oops\n")
    with pytest.raises(ParseError, match="row 3"):
        load_csv(path)


def test_standardize_two_point_column():
    # sample-std convention (n-1): column [1, 3] has std sqrt(2)
    ds = Dataset(np.array([[1.0], [3.0]]), np.array([0.0, 1.0]))
    out = standardize(ds)
    assert np.allclose(out.features[:, 0], [-1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)])


def test_standardize_idempotent():
    rng = np.random.default_rng(0)
    ds = Dataset(rng.standard_normal((50, 3)), rng.standard_normal(50))
    once = standardize(ds)
    twice = standardize(once)
    assert np.abs(twice.features - once.features).max() < 1e-8
    assert np.abs(twice.targets - once.targets).max() < 1e-8


def test_standardize_constant_column():
    ds = Dataset(
        np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 4.0]]), np.zeros(3)
    )
    out = standardize(ds)
    # a constant column is divided by 1, not by its zero std
    assert np.all(out.features[:, 0] == 0.0)


def test_standardize_moments():
    rng = np.random.default_rng(1)
    ds = Dataset(rng.uniform(5, 9, size=(200, 4)), rng.uniform(-3, 3, 200))
    out = standardize(ds)
    assert np.abs(out.features.mean(axis=0)).max() < 1e-8
    assert np.abs(out.features.std(axis=0, ddof=1) - 1.0).max() < 1e-6


def test_rejects_nonfinite_arrays():
    with pytest.raises(ValidationError):
        Dataset(np.array([[np.inf]]), np.array([1.0]))


def test_standardize_single_row():
    ds = Dataset(np.array([[3.0, 4.0]]), np.array([7.0]))
    out = standardize(ds)
    # one row has no sample std; features and target are divided by 1
    assert np.all(out.features == 0.0) and np.all(out.targets == 0.0)


def test_split_sizes_and_partition():
    rng = np.random.default_rng(3)
    ds = Dataset(rng.standard_normal((10, 2)), rng.standard_normal(10))
    train, test = train_test_split(ds, 0.1, seed=0)
    assert train.n == 9 and test.n == 1


def test_split_partition_property():
    rng = np.random.default_rng(4)
    raw = rng.standard_normal((40, 2))
    ds = Dataset(raw, np.arange(40.0))
    train, test = train_test_split(ds, 0.25, seed=5)
    # targets started as row ids: every id lands in exactly one part
    assert np.allclose(np.sort(row_ids(train, test)), np.arange(40.0))


def test_split_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(5)
    ds = Dataset(rng.standard_normal((30, 2)), rng.standard_normal(30))
    a1, b1 = train_test_split(ds, 0.2, seed=7)
    a2, b2 = train_test_split(ds, 0.2, seed=7)
    assert np.array_equal(b1.targets, b2.targets)
    _, b3 = train_test_split(ds, 0.2, seed=8)
    assert not np.array_equal(b1.targets, b3.targets)


def test_split_distribution_over_seeds():
    # n=5, one test row: across many seeds each row should appear ~1/5 of the time
    ds = Dataset(np.arange(5.0)[:, None], np.arange(5.0))
    counts = np.zeros(5)
    trials = 400
    for seed in range(trials):
        train, test = train_test_split(ds, 0.2, seed=seed)
        row = int(round(row_ids(test, train)[0]))
        counts[row] += 1
    expected = trials / 5
    sigma = np.sqrt(trials * 0.2 * 0.8)
    assert np.abs(counts - expected).max() < 4 * sigma


def test_split_standardizes_on_train_only():
    rng = np.random.default_rng(6)
    ds = Dataset(rng.uniform(0, 10, size=(50, 2)), rng.uniform(0, 5, 50))
    train, test = train_test_split(ds, 0.3, seed=1)
    assert np.abs(train.features.mean(axis=0)).max() < 1e-8
    # test split uses the train transform, so its mean is not exactly zero
    assert np.abs(test.features.mean(axis=0)).max() > 1e-8
    # both parts went through the train transform: together they are one
    # affine image of the raw columns
    for j in range(2):
        raw = np.sort(ds.features[:, j])
        both = np.sort(np.concatenate([train.features[:, j], test.features[:, j]]))
        slope, offset = np.polyfit(raw, both, 1)
        assert np.abs(slope * raw + offset - both).max() < 1e-10


def test_split_bad_fraction():
    ds = Dataset(np.zeros((5, 1)), np.zeros(5))
    with pytest.raises(ConfigError):
        train_test_split(ds, 1.5, seed=0)
