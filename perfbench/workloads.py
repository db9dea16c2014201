"""The seeded sapgp workloads: inputs, set-up, the timed call and its checks.

A workload is built from the run's seed, a size table (full or smoke) and a
work directory inside the checkout. ``make_inputs`` writes the generated
inputs with numpy alone, before sapgp is imported. ``setup`` imports sapgp
and builds what the timed call needs; a fresh interpreter runs it again to
time set-up. ``call`` is the timed call. ``checks`` runs after timing and
returns ``(name, ok, detail)`` triples; the first call gets the full checks,
later calls must reproduce its output exactly.

Every call into sapgp goes through a module or class attribute at call time,
so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math

import numpy as np


class SolveMatern:
    """``solvers.solve`` with adasap to a relative residual of ``tol``."""

    name = "solve_matern"
    FULL = dict(n=4000, d=8, lam=1e-2, blocksize=400, rank=100, workers=2, tol=0.05,
                max_passes=40)
    SMOKE = dict(n=600, d=8, lam=1e-2, blocksize=60, rank=30, workers=2, tol=0.05,
                 max_passes=40)

    def __init__(self, seed, smoke, workdir):
        self.seed = seed
        self.size = self.SMOKE if smoke else self.FULL
        self.inputs = workdir / "inputs.npz"

    def make_inputs(self):
        rng = np.random.default_rng(self.seed)
        X = rng.standard_normal((self.size["n"], self.size["d"]))
        y = rng.standard_normal(self.size["n"])
        np.savez(self.inputs, X=X, y=y)

    def setup(self):
        import sapgp.kernels
        from sapgp.config import RunConfig

        size = self.size
        with np.load(self.inputs) as data:
            X, y = data["X"], data["y"]
        spec = sapgp.kernels.KernelSpec("matern32", np.ones(size["d"]))
        oracle = sapgp.kernels.KernelOracle(spec, X, size["lam"])
        config = RunConfig(
            lam=size["lam"], solver_id="adasap", blocksize=size["blocksize"],
            nystrom_rank=size["rank"], num_workers=size["workers"], tol=size["tol"],
            max_passes=size["max_passes"], residual_every=size["n"] // size["blocksize"],
            seed=self.seed,
        )
        return oracle, y, config

    def call(self, state):
        import sapgp.solvers

        oracle, y, config = state
        return sapgp.solvers.solve(oracle, y, config)

    def fingerprint(self, result):
        return hashlib.sha256(result.W.tobytes()).hexdigest()

    def quality(self, state, result):
        oracle, y, _ = state
        W = result.W[:, None]
        res = oracle.matmul(W) + oracle.lam * W - y[:, None]
        relres = float(np.linalg.norm(res) / max(np.linalg.norm(y), np.finfo(np.float64).tiny))
        return {"relres": (relres, "1"), "passes": (float(result.passes), "passes")}

    def checks(self, state, result, quality):
        import sapgp.dist

        oracle, _, config = state
        relres = quality["relres"][0]
        traced = result.trace.final_residual()
        block = np.sort(np.random.default_rng(self.seed).choice(
            oracle.n, size=config.blocksize, replace=False))
        W = np.column_stack([result.W, np.arange(oracle.n, dtype=np.float64)])
        serial = sapgp.dist.col_dist_matmul(oracle, W, block)
        with sapgp.dist.WorkerPool(config.num_workers) as pool:
            pooled = sapgp.dist.col_dist_matmul(oracle, W, block, pool)
        return [
            ("not_diverged", not result.diverged, f"diverged={result.diverged}"),
            ("relres_within_tol", relres <= config.tol, f"{relres!r} <= {config.tol}"),
            ("relres_matches_trace", relres == traced, f"{relres!r} == {traced!r}"),
            ("col_dist_matmul_bitwise_1_vs_2_workers", bool(np.array_equal(serial, pooled)),
             f"max abs diff {float(np.abs(serial - pooled).max())!r}"),
        ]


class InferPathwise:
    """``sapgp infer`` through ``cli.main`` on a generated CSV."""

    name = "infer_pathwise"
    FULL = dict(rows=10000, d=4, test_fraction=0.2, lam=0.05, blocksize=800, rank=100,
                max_passes=8, samples=64, features=2048)
    SMOKE = dict(rows=500, d=4, test_fraction=0.2, lam=0.05, blocksize=100, rank=20,
                 max_passes=4, samples=4, features=128)

    def __init__(self, seed, smoke, workdir):
        self.seed = seed
        self.size = self.SMOKE if smoke else self.FULL
        self.csv = workdir / "data.csv"
        self.config = workdir / "config.json"
        self.out = workdir / "infer_out"

    def make_inputs(self):
        size = self.size
        rng = np.random.default_rng(self.seed)
        x = rng.uniform(-2.0, 2.0, size=(size["rows"], size["d"]))
        y = (np.sin(2.0 * x[:, 0]) + np.cos(x[:, 1] * x[:, 2]) + 0.5 * x[:, 3]
             + 0.2 * rng.standard_normal(size["rows"]))
        with open(self.csv, "w") as handle:
            handle.write(",".join(f"x{j + 1}" for j in range(size["d"])) + ",y\n")
            for row, target in zip(x, y):
                handle.write(",".join(repr(float(v)) for v in row) + f",{float(target)!r}\n")
        config = {
            "problem": {"type": "csv", "path": str(self.csv), "target_column": "y",
                        "test_fraction": size["test_fraction"]},
            "kernel": {"family": "rbf", "lengthscales": 1.0},
            "run": {"lam": size["lam"], "solver_id": "adasap", "blocksize": size["blocksize"],
                    "nystrom_rank": size["rank"], "max_passes": size["max_passes"],
                    "residual_every": 0, "num_workers": 1, "seed": self.seed},
            "infer": {"num_samples": size["samples"], "num_features": size["features"]},
        }
        self.config.write_text(json.dumps(config, indent=2) + "\n")

    def setup(self):
        import sapgp.cli  # noqa: F401  (the timed call builds everything else)

        return ["--config", str(self.config), "--out", str(self.out), "infer"]

    def call(self, argv):
        import sapgp.cli

        with contextlib.redirect_stdout(io.StringIO()):
            return sapgp.cli.main(argv)

    def fingerprint(self, code):
        digest = hashlib.sha256(str(code).encode())
        for name in ("predictions.csv", "metrics.json"):
            path = self.out / name
            if path.exists():
                digest.update(path.read_bytes())
        return digest.hexdigest()

    def quality(self, argv, code):
        metrics = json.loads((self.out / "metrics.json").read_text())
        return {
            "rmse": (float(metrics["rmse"]), "1"),
            "mean_nll": (float(metrics["mean_nll"]), "nats"),
            "passes": (float(self.size["max_passes"]), "passes"),
        }

    def checks(self, argv, code, quality):
        from sapgp.data import load_csv, train_test_split

        size = self.size
        with open(self.out / "predictions.csv") as handle:
            rows = [line.rstrip("\n").split(",") for line in handle]
        body = rows[1:]
        want_rows = math.floor(size["rows"] * size["test_fraction"])
        want_cols = 3 + size["samples"]
        _, test = train_test_split(load_csv(self.csv, "y"), size["test_fraction"], self.seed)
        mean_rmse = float(np.sqrt(np.mean(test.targets ** 2)))
        rmse = quality["rmse"][0]
        nll = quality["mean_nll"][0]
        return [
            ("exit_code_0", code == 0, f"exit code {code}"),
            ("prediction_rows", len(body) == want_rows, f"{len(body)} == {want_rows}"),
            ("prediction_columns", all(len(r) == want_cols for r in rows),
             f"widths {sorted({len(r) for r in rows})} == {want_cols}"),
            ("rmse_below_mean_predictor", math.isfinite(rmse) and rmse < mean_rmse,
             f"{rmse!r} < {mean_rmse!r}"),
            ("nll_finite", math.isfinite(nll), f"{nll!r}"),
        ]


class TheoryMc:
    """Expected-projection Monte Carlo, then the theorem-1 certification."""

    name = "theory_mc"
    FULL = dict(n=256, beta=2.0, lam=1e-4, half_blocksize=16, num_top=8, mc_samples=250,
                iters=2000, trials=2)
    SMOKE = dict(n=64, beta=2.0, lam=1e-4, half_blocksize=4, num_top=4, mc_samples=100,
                 iters=200, trials=3)

    def __init__(self, seed, smoke, workdir):
        self.seed = seed
        self.size = self.SMOKE if smoke else self.FULL

    def make_inputs(self):
        pass  # the planted problem is built from the seed during set-up

    def setup(self):
        from sapgp.theory import SyntheticSpectrumProblem

        size = self.size
        problem = SyntheticSpectrumProblem.poly(size["n"], size["beta"], size["lam"], self.seed)
        return problem, problem.dpp_model(2 * size["half_blocksize"])

    def call(self, state):
        import sapgp.dpp
        import sapgp.theory

        problem, model = state
        size = self.size
        projection = sapgp.dpp.expected_projection_mc(
            model, size["mc_samples"], self.seed, basis="eigen")
        return sapgp.theory.verify_theorem1(
            problem, size["half_blocksize"], size["num_top"], size["trials"], size["iters"],
            self.seed, projection=projection)

    def fingerprint(self, report):
        return hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True).encode()).hexdigest()

    def quality(self, state, report):
        problem, _ = state
        size = self.size
        passes = size["trials"] * size["iters"] * 2 * size["half_blocksize"] / problem.n
        return {"passes": (float(passes), "passes")}

    def checks(self, state, report, quality):
        gap = report.details["assumption_gap_held"]
        return [
            ("report_passed", report.passed is True, f"passed={report.passed}"),
            ("assumption_gap_held", gap is True, f"assumption_gap_held={gap}"),
        ]


WORKLOADS = {cls.name: cls for cls in (SolveMatern, InferPathwise, TheoryMc)}
