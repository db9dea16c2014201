import json

import numpy as np
import pytest

import sapgp.cli
from sapgp.cli import main


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
    for op in ("matmul", "col_dist_matmul_block"):
        found = [line.split(",") for line in lines[1:] if line.startswith(op + ",")]
        assert sorted(int(row[1]) for row in found) == [1, 2, 4]
        assert all(float(row[3]) == 0.0 for row in found)


@pytest.mark.parametrize("override", [
    "run.max_passes=inf", "run.blocksize=abc", "run.residual_every=x", "run.lam=abc",
    "run.seed=1.5",
])
def test_bad_run_value_is_one_error_line(tmp_path, capsys, override):
    code = run_cli("--out", str(tmp_path / "out"), "--set", "problem.n=50",
                   "--set", override, "solve")
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


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
