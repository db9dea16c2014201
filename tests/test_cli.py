import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import sapgp.cli
from sapgp.cli import main
from sapgp.config import apply_overrides


def run_cli(*args):
    return main(list(args))


def write_config(tmp_path, tree, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(tree))
    return str(path)


def sine_csv(tmp_path, n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 4.0 * np.pi, n))
    y = np.sin(x) + 0.1 * rng.standard_normal(n)
    path = tmp_path / "sine.csv"
    path.write_text(
        "x,y\n" + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(x, y))
    )
    return str(path)


def test_solve_synthetic_writes_outputs(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "problem": {"type": "synthetic", "n": 200, "beta": 2.0},
            "run": {"lam": 1e-2, "solver_id": "sap", "blocksize": 20,
                    "max_passes": 30, "residual_every": 10, "seed": 1},
        },
    )
    out = tmp_path / "out"
    code = run_cli("--config", cfg, "--out", str(out), "solve")
    assert code == 0
    assert (out / "trace.csv").exists()
    assert (out / "weights.npy").exists()
    assert (out / "manifest.json").exists()
    result = json.loads((out / "result.json").read_text())
    assert result["diverged"] is False
    assert result["final_residual"] < 1e-2
    # a budget stop: the last row is carried, and the true residual sits beside it
    assert result["true_checks"] == 0 and result["max_residual_gap"] == 0.0
    assert result["final_true_residual"] == pytest.approx(result["final_residual"], rel=1e-8)


def test_solve_tol_stop_reports_its_true_check(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "problem": {"type": "synthetic", "n": 200, "beta": 2.0},
            "run": {"lam": 1e-2, "solver_id": "adasap", "blocksize": 20, "tol": 1e-2,
                    "max_passes": 30, "residual_every": 10, "seed": 1},
        },
    )
    out = tmp_path / "out"
    assert run_cli("--config", cfg, "--out", str(out), "solve") == 0
    result = json.loads((out / "result.json").read_text())
    assert result["passes"] < 30 and result["true_checks"] == 1
    assert result["final_true_residual"] == result["final_residual"] <= 1e-2
    assert 0.0 <= result["max_residual_gap"] < 1e-12


def test_solve_divergence_exit_code(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "problem": {"type": "synthetic", "n": 400, "beta": 3.0},
            "run": {"lam": 1e-6, "solver_id": "sdd", "stepsize_scale": 100,
                    "max_passes": 40, "seed": 0},
        },
    )
    # trace-normalized local basis is the ill-conditioned showcase problem
    out = tmp_path / "out"
    code = run_cli(
        "--config", cfg, "--out", str(out),
        "--set", "problem.normalize=trace", "--set", "problem.basis=local",
        "solve",
    )
    assert code == 2
    assert json.loads((out / "result.json").read_text())["diverged"] is True


def test_solve_adasap_synthetic_budget_run(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "problem": {"type": "synthetic", "n": 1000, "beta": 2.0},
            "run": {"lam": 1e-2, "solver_id": "adasap", "max_passes": 50,
                    "residual_every": 20, "seed": 4},
        },
    )
    out = tmp_path / "out"
    assert run_cli("--config", cfg, "--out", str(out), "solve") == 0
    result = json.loads((out / "result.json").read_text())
    assert np.isfinite(result["final_residual"])
    assert result["passes"] == pytest.approx(50.0, abs=0.5)
    # final relative residual present in the trace
    last = (out / "trace.csv").read_text().strip().splitlines()[-1]
    assert float(last.split(",")[3]) == pytest.approx(result["final_residual"])


def test_solve_missing_dataset(tmp_path):
    cfg = write_config(
        tmp_path,
        {"problem": {"type": "csv", "path": str(tmp_path / "nope.csv")},
         "run": {"lam": 0.1}},
    )
    assert run_cli("--config", cfg, "--out", str(tmp_path / "o"), "solve") == 1


def test_unknown_config_key_rejected(tmp_path):
    cfg = write_config(tmp_path, {"run": {"lam": 0.1, "bogus": 1}})
    assert run_cli("--config", cfg, "--out", str(tmp_path / "o"), "solve") == 1


def test_unknown_verify_suite(tmp_path):
    assert run_cli("--out", str(tmp_path / "o"), "verify", "nonsense") == 1


def test_verify_nystrom_passes(tmp_path):
    out = tmp_path / "o"
    assert run_cli("--out", str(out), "verify", "nystrom") == 0
    report = json.loads((out / "report_nystrom.json").read_text())
    assert report["pass"] is True


def test_verify_lemma2_small_config(tmp_path):
    out = tmp_path / "o"
    code = run_cli(
        "--out", str(out),
        "--set", "verify.n=32", "--set", "verify.half_blocksize=4",
        "--set", "verify.num_samples=800",
        "verify", "lemma2",
    )
    assert code == 0


def test_infer_with_samples_and_determinism(tmp_path):
    data = sine_csv(tmp_path)
    cfg = write_config(
        tmp_path,
        {
            "problem": {"type": "csv", "path": data, "target_column": "y",
                        "test_fraction": 0.2},
            "kernel": {"family": "rbf", "lengthscales": 1.0},
            "run": {"lam": 0.05, "solver_id": "pcg", "nystrom_rank": 40,
                    "tol": 1e-8, "max_iters": 200, "seed": 3},
            "infer": {"num_samples": 16, "num_features": 512},
        },
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("--config", cfg, "--out", str(out1), "infer") == 0
    assert run_cli("--config", cfg, "--out", str(out2), "infer") == 0
    metrics = json.loads((out1 / "metrics.json").read_text())
    assert metrics["rmse"] < 1.0  # beats the predict-the-mean baseline
    assert "mean_nll" in metrics
    # identical seed -> byte-identical numeric outputs
    assert (out1 / "predictions.csv").read_bytes() == (out2 / "predictions.csv").read_bytes()
    assert (out1 / "metrics.json").read_bytes() == (out2 / "metrics.json").read_bytes()
    header = (out1 / "predictions.csv").read_text().splitlines()[0]
    assert header.startswith("point_id,mean,variance,sample_0")


def test_infer_diverged_solve_exits_2_without_predictions(tmp_path, capsys):
    data = sine_csv(tmp_path)
    cfg = write_config(
        tmp_path,
        {
            "problem": {"type": "csv", "path": data, "target_column": "y",
                        "test_fraction": 0.2},
            "kernel": {"family": "rbf", "lengthscales": 1.0},
            "run": {"lam": 0.05, "solver_id": "sdd", "stepsize_scale": 1e4,
                    "max_passes": 20, "seed": 3},
            "infer": {"num_samples": 0},
        },
    )
    out = tmp_path / "o"
    assert run_cli("--config", cfg, "--out", str(out), "infer") == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: the solve diverged after ")
    assert not (out / "predictions.csv").exists()
    assert not (out / "metrics.json").exists()


def test_infer_without_samples_omits_nll(tmp_path):
    data = sine_csv(tmp_path, seed=1)
    cfg = write_config(
        tmp_path,
        {
            "problem": {"type": "csv", "path": data, "test_fraction": 0.25},
            "kernel": {"family": "rbf", "lengthscales": 1.0},
            "run": {"lam": 0.05, "solver_id": "pcg", "nystrom_rank": 40,
                    "tol": 1e-8, "max_iters": 200, "seed": 5},
            "infer": {"num_samples": 0},
        },
    )
    out = tmp_path / "o"
    assert run_cli("--config", cfg, "--out", str(out), "infer") == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert set(metrics) == {"rmse"}


def test_solve_rerun_reproduces_weights(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "problem": {"type": "synthetic", "n": 150, "beta": 2.0},
            "run": {"lam": 1e-2, "solver_id": "adasap", "blocksize": 15,
                    "max_passes": 10, "seed": 9},
        },
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("--config", cfg, "--out", str(out1), "solve") == 0
    assert run_cli("--config", cfg, "--out", str(out2), "solve") == 0
    w1 = np.load(out1 / "weights.npy")
    w2 = np.load(out2 / "weights.npy")
    assert np.array_equal(w1, w2)
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["config_sha256"] == m2["config_sha256"]


def test_workers_flag_does_not_change_results(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "problem": {"type": "synthetic", "n": 300, "beta": 2.0},
            "run": {"lam": 1e-2, "solver_id": "sap", "blocksize": 30,
                    "max_passes": 10, "seed": 2},
        },
    )
    outs = []
    for workers in (1, 2, 4):
        out = tmp_path / f"w{workers}"
        assert run_cli("--config", cfg, "--out", str(out), "--workers",
                       str(workers), "solve") == 0
        outs.append(np.load(out / "weights.npy"))
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(outs[0], outs[2])


def test_set_override_reaches_manifest(tmp_path):
    cfg = write_config(
        tmp_path,
        {"problem": {"type": "synthetic", "n": 100},
         "run": {"lam": 1e-2, "solver_id": "sap", "blocksize": 10, "max_passes": 5}},
    )
    out = tmp_path / "o"
    assert run_cli("--config", cfg, "--out", str(out), "--set", "run.seed=17",
                   "solve") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 17
    assert manifest["config"]["run"]["seed"] == 17


def test_bench_writes_timings(tmp_path):
    cfg = write_config(
        tmp_path,
        {"problem": {"type": "synthetic", "n": 300},
         "run": {"lam": 1e-2, "num_workers": 4}},
    )
    out = tmp_path / "o"
    assert run_cli("--config", cfg, "--out", str(out), "bench") == 0
    lines = (out / "bench.csv").read_text().strip().splitlines()
    assert lines[0] == "op,workers,seconds,max_abs_diff_vs_serial"
    diffs = [float(line.split(",")[3]) for line in lines[1:]]
    assert max(diffs) == 0.0
    assert {line.split(",")[0] for line in lines[1:]} == {
        "col_dist_matmul", "row_dist_matmul", "matmul"}
    for op in ("col_dist_matmul", "row_dist_matmul", "matmul"):
        found = [line.split(",") for line in lines[1:] if line.startswith(op + ",")]
        assert sorted(int(row[1]) for row in found) == [1, 2, 4]
        assert all(float(row[3]) == 0.0 for row in found)


@pytest.mark.parametrize("override", [
    "run.max_passes=inf", "run.blocksize=abc", "run.residual_every=x", "run.lam=abc",
    "run.seed=1.5", "run.tail_average=no", "run.max_iters=0", "run.max_iters=-3",
    "run.max_passes=-1", "run.max_passes=0", "run.tol=-1e-3", "run.stepsize_scale=-1",
])
def test_bad_run_value_is_one_error_line(tmp_path, capsys, override):
    code = run_cli("--out", str(tmp_path / "out"), "--set", "problem.n=50",
                   "--set", override, "solve")
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    key = override.partition("=")[0].removeprefix("run.")
    assert len(err) == 1 and err[0].startswith(f"error: {key} must be")


@pytest.mark.parametrize("command", ["solve", "infer"])
@pytest.mark.parametrize("overrides,message", [
    (["run.solver_id=adasap", "run.sampler=kdpp"],
     'error: run.sampler = "kdpp" is ignored by solver \'adasap\''),
    (["run.solver_id=adasap_i", "run.sampler=kdpp"],
     'error: run.sampler = "kdpp" is ignored by solver \'adasap_i\''),
    (["run.solver_id=sdd", "run.sampler=kdpp"],
     'error: run.sampler = "kdpp" is ignored by solver \'sdd\''),
    (["run.solver_id=pcg", "run.sampler=kdpp"],
     'error: run.sampler = "kdpp" is ignored by solver \'pcg\''),
    (["run.solver_id=sdd", "run.tail_average=true"],
     "error: run.tail_average = true is ignored by solver 'sdd'"),
    (["run.solver_id=pcg", "run.tail_average=true"],
     "error: run.tail_average = true is ignored by solver 'pcg'"),
    (["run.solver_id=sap", "run.sampler=kdpp"],
     'error: run.sampler = "kdpp" is available only through the Python API'),
])
def test_setting_the_solver_cannot_use_is_one_error_line(tmp_path, capsys, command, overrides,
                                                        message):
    args = [arg for override in overrides for arg in ("--set", override)]
    out = tmp_path / "out"
    code = run_cli("--out", str(out), "--set", "problem.n=50", *args, command)
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(message)
    assert not out.exists()


@pytest.mark.parametrize("seed", ["abc", "1.5"])
def test_verify_bad_seed_is_one_error_line(tmp_path, capsys, seed):
    code = run_cli("--out", str(tmp_path / "out"), "--set", f"run.seed={seed}",
                   "verify", "nystrom")
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("command", ["solve", "infer"])
def test_non_object_run_section_is_one_error_line(tmp_path, capsys, command):
    cfg = write_config(tmp_path, {"run": 5})
    code = run_cli("--config", cfg, "--out", str(tmp_path / "out"), command)
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "'run'" in err[0]


def test_unexpected_exception_is_one_error_line(tmp_path, capsys, monkeypatch):
    # a handler that fails outside every config check reaches the catch-all
    def broken(args):
        return int("abc")

    monkeypatch.setattr(sapgp.cli, "cmd_infer", broken)
    code = run_cli("--out", str(tmp_path / "out"), "infer")
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: ValueError: invalid literal for int() with base 10: 'abc'"]


def test_verify_rejects_unknown_run_keys(tmp_path, capsys):
    code = run_cli("--out", str(tmp_path / "out"), "--set", "run.bogus=1",
                   "--set", "run.solver_id=nope", "verify", "nystrom")
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "out" / "report_nystrom.json").exists()


@pytest.mark.parametrize("key,value", [
    ("n", "50.7"), ("n", "abc"), ("beta", "abc"), ("test_fraction", "abc"),
])
def test_bad_problem_value_names_its_key(tmp_path, capsys, key, value):
    args = ["--set", f"problem.{key}={value}"]
    if key == "test_fraction":
        args += ["--set", "problem.type=csv", "--set", f"problem.path={sine_csv(tmp_path)}"]
    code = run_cli("--out", str(tmp_path / "out"), *args, "solve")
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: problem.{key} must be")


@pytest.mark.parametrize("args,key", [
    (["--set", "verify.n=50.7", "--set", "verify.half_blocksize=4",
      "--set", "verify.num_samples=200", "verify", "lemma2"], "verify.n"),
    (["--set", "verify.beta=abc", "verify", "theorem1"], "verify.beta"),
    (["--set", "verify.projection_samples=1e400", "verify", "linear_rate"],
     "verify.projection_samples"),
    (["--set", "infer.num_samples=abc", "infer"], "infer.num_samples"),
    (["--set", "infer.num_features=2.5", "infer"], "infer.num_features"),
    (["--set", "infer.num_features=0", "infer"], "infer.num_features"),
    (["--set", "infer.num_features=-4", "infer"], "infer.num_features"),
    (["--set", "infer.num_samples=-1", "infer"], "infer.num_samples"),
])
def test_bad_verify_and_infer_values_name_their_key(tmp_path, capsys, args, key):
    code = run_cli("--out", str(tmp_path / "out"), *args)
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {key} must be")


@pytest.mark.parametrize("args,key", [
    (["--set", "verify.bogus=1", "verify", "nystrom"], "verify.bogus"),
    (["--set", "verify.trails=5", "--set", "verify.n=12", "verify", "theorem1"],
     "verify.trails"),
])
def test_verify_rejects_keys_outside_the_suite_table(tmp_path, capsys, args, key):
    code = run_cli("--out", str(tmp_path / "out"), *args)
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and key in err[0]
    assert "verify.n" not in err[0]  # a key the suite reads is not named
    assert not (tmp_path / "out").exists()


CSV = ["problem.type=csv", "problem.test_fraction=0.25"]  # problem.path is added per test


@pytest.mark.parametrize("command,overrides,message", [
    ("solve", ["run.bogus=1"], "unknown config keys: run.bogus"),
    ("solve", ["run.lam=abc"], "lam must be a number"),  # run values name the bare field
    ("solve", ["problem.bogus=1"], "unknown config keys: problem.bogus"),
    ("solve", ["problem.n=abc"], "problem.n must be a number"),
    ("solve", ["problem.basis=nope"], "problem.basis must be one of"),
    ("solve", CSV + ["problem.bogus=1"], "unknown config keys: problem.bogus"),
    ("solve", CSV + ["problem.test_fraction=abc"], "problem.test_fraction must be a number"),
    ("solve", CSV + ["kernel.bogus=1"], "unknown config keys: kernel.bogus"),
    ("solve", CSV + ["kernel.variance=true"], "kernel.variance must be a number"),
    ("solve", CSV + ["kernel.variance=abc"], "kernel.variance must be a number"),
    ("solve", CSV + ["kernel.lengthscales=abc"], "kernel.lengthscales must be a number"),
    ("solve", CSV + ["kernel.family=nope"], "kernel.family must be one of"),
    ("infer", CSV + ["infer.bogus=1"], "unknown config keys: infer.bogus"),
    ("infer", CSV + ["infer.num_features=abc"], "infer.num_features must be a number"),
    # one sample has no predictive variance: the run would write NaN columns
    ("infer", CSV + ["infer.num_samples=1"], "infer.num_samples must be 0 or >= 2, got 1"),
    *[(f"verify {suite}", ["verify.bogus=1"], "unknown config keys: verify.bogus")
      for suite in sapgp.cli.VERIFY_SUITES],
    *[(f"verify {suite}", ["verify.n=abc"], "verify.n must be a number")
      for suite in ("lemma2", "theorem1", "linear_rate")],
    # sections the command does not read are checked too
    ("solve", ["problem.n=50", "kernel.bogus=1"], "unknown config keys: kernel.bogus"),
    ("solve", ["problem.n=50", "infer.num_samples=abc"], "infer.num_samples must be a number"),
    ("solve", ["problem.n=50", "verify.bogus=1"], "unknown config keys: verify.bogus"),
    ("verify nystrom", ["problem.bogus=1"], "unknown config keys: problem.bogus"),
    ("verify nystrom", ["kernel.variance=abc"], "kernel.variance must be a number"),
])
def test_every_section_rejects_bad_input(tmp_path, capsys, command, overrides, message):
    if "problem.type=csv" in overrides:
        overrides = overrides + [f"problem.path={sine_csv(tmp_path)}"]
    out = tmp_path / "out"
    args = [arg for item in overrides for arg in ("--set", item)]
    code = run_cli("--out", str(out), *args, *command.split())
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {message}")
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("value,message", [
    ("1.5", "must be an integer"), ("true", "must be a number"), ("null", "must be a number"),
    ("y", None), ("-1", None), ("0", None),
])
def test_target_column_is_a_name_or_an_integer(tmp_path, capsys, value, message):
    out = tmp_path / "out"
    overrides = CSV + [f"problem.path={sine_csv(tmp_path)}", f"problem.target_column={value}",
                       "run.solver_id=pcg", "run.max_iters=5"]
    code = run_cli("--out", str(out), *[arg for item in overrides for arg in ("--set", item)],
                   "solve")
    err = capsys.readouterr().err.strip().splitlines()
    if message is None:  # 0 takes x as the target, "y" and -1 take y
        assert code == 0 and err == []
    else:
        assert code == 1 and err == [f"error: problem.target_column {message}, got "
                                     + {"1.5": "1.5", "true": "True", "null": "None"}[value]]
        assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("suite,override", [
    ("theorem1", "verify.iters=1"), ("theorem1", "verify.trials=1"),
    ("theorem1", "verify.trials=0"), ("linear_rate", "verify.iters=1"),
    ("linear_rate", "verify.trials=1"),
])
def test_verify_without_grid_points_or_trials_is_one_error_line(tmp_path, capsys, suite,
                                                                 override):
    # no grid point, or no stderr from a single trial, cannot give a verdict
    args = ["--set", "verify.n=16", "--set", "verify.half_blocksize=2", "--set", override]
    if suite == "linear_rate":
        args += ["--set", "verify.projection_samples=20"]
    code = run_cli("--out", str(tmp_path / "out"), *args, "verify", suite)
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: need at least one grid point (iters >= 2) and trials >= 2"]
    assert not (tmp_path / "out" / f"report_{suite}.json").exists()


def _is_literal(text):
    if text.lower() in ("true", "false", "null", "none"):
        return True
    try:
        float(text)
    except ValueError:
        return False
    return True


@given(
    st.lists(st.from_regex(r"[a-z_]{1,8}", fullmatch=True), min_size=1, max_size=3),
    st.one_of(
        st.integers(),
        st.floats(allow_nan=False, allow_infinity=False),
        st.booleans(),
        st.none(),
        st.text(min_size=1).filter(lambda text: not _is_literal(text)),
    ),
)
def test_set_override_round_trips(path, value):
    if value is None:
        raw = "null"
    elif isinstance(value, bool):
        raw = str(value).lower()
    else:
        raw = repr(value) if isinstance(value, float) else str(value)
    tree = apply_overrides({}, [f"{'.'.join(path)}={raw}"])
    expected = value
    for part in reversed(path):
        expected = {part: expected}
    assert tree == expected
    leaf = tree
    for part in path:
        leaf = leaf[part]
    assert type(leaf) is type(value)
