"""Batch command-line entry point.

Subcommands: ``solve`` (run a solver on a dataset or synthetic problem and
emit a trace), ``infer`` (posterior mean + pathwise samples with metrics),
``verify`` (theory-certification suites), ``bench`` (worker-scaling timings).
All randomness flows from one root seed through named substreams, so reruns
with an identical manifest reproduce every numeric output (wall-clock columns
are informational).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, apply_overrides, kernel_from_dict, load_config, read_section
from .data import load_csv, standardize, train_test_split
from .dist import WorkerPool, col_dist_matmul, row_dist_matmul
from .errors import ConfigError, DivergedError, SapgpError
from .gp import RandomFeatureMap, RandomFeaturePrior, mean_nll, pathwise_sample, rmse
from .kernels import KernelOracle
from .rng import substream
from .solvers import relative_residual, solve
from .theory import (
    SyntheticSpectrumProblem,
    verify_lemma2,
    verify_linear_rate,
    verify_nystrom,
    verify_pathwise,
    verify_theorem1,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DIVERGED = 2
EXIT_FAILED = 2

_SECTIONS = ("problem", "kernel", "run", "infer", "verify")


def _effective_config(args):
    tree = load_config(args.config) if args.config else {}
    unknown = set(tree) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    apply_overrides(tree, args.set or [])
    for name, section in tree.items():
        if not isinstance(section, dict):
            raise ConfigError(f"config section {name!r} must be an object, got {section!r}")
    run = tree.setdefault("run", {})
    if args.workers is not None:
        run["num_workers"] = args.workers
    if args.seed is not None:
        run["seed"] = args.seed
    # every command reads `run`; the other sections are checked here (lengthscales: d later)
    _problem_values(tree)
    kernel_from_dict(tree.get("kernel", {}))
    read_section("infer", tree.get("infer", {}), INFER_KEYS)
    read_section("verify", tree.get("verify", {}), VERIFY_KEYS)
    return tree


def _write_json(path, payload):
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _manifest(out_dir, command, tree, run_config, outputs):
    canonical = json.dumps(tree, sort_keys=True)
    payload = {
        "command": command,
        "config": tree,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "seed": run_config.seed,
        "outputs": sorted(outputs),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "sapgp": __version__,
        },
    }
    _write_json(out_dir / "manifest.json", payload)


# problem type -> {key: (default, kind[, lower])}, read by config.read_section
PROBLEM_KEYS = {
    "synthetic": {"type": (None, None), "n": (1000, int, ">= 2"), "beta": (2.0, float, "> 0"),
                  "response": ("planted", ("planted", "gaussian")),
                  "normalize": ("none", ("none", "trace")), "basis": ("haar", ("haar", "local"))},
    "csv": {"type": (None, None), "path": (None, None), "target_column": (-1, (str, int)),
            "test_fraction": (None, float)},
}


def _run_config(tree):
    """The ``run`` section of a ``solve`` or ``infer`` command, refused where a
    solver would ignore a setting or needs what no config can give."""
    run_config = RunConfig.from_dict(tree.get("run", {}))
    run_config.reject_ignored()
    if run_config.sampler == "kdpp":
        raise ConfigError('run.sampler = "kdpp" is available only through the Python API, '
                          "which takes the DppModel as solve(..., dpp_model=...)")
    return run_config


def _problem_values(tree):
    """(type, {key: value}) of the problem section."""
    section = tree.get("problem", {})
    kind = section.get("type", "synthetic")
    if kind not in tuple(PROBLEM_KEYS):
        raise ConfigError(f"unknown problem type {kind!r}")
    return kind, read_section("problem", section, PROBLEM_KEYS[kind])


def _build_problem(tree, run_config):
    """Returns (oracle, y, dataset_or_None) from the problem section."""
    kind, values = _problem_values(tree)
    if kind == "synthetic":
        problem = SyntheticSpectrumProblem.poly(
            values["n"], values["beta"], run_config.lam, run_config.seed,
            response=values["response"], normalize=values["normalize"], basis=values["basis"],
        )
        return problem.oracle, problem.y, None
    if values["path"] is None:
        raise ConfigError("csv problem needs a path")
    ds = load_csv(values["path"], values["target_column"])
    if values["test_fraction"] is not None:
        train, test = train_test_split(ds, values["test_fraction"], run_config.seed)
    else:
        train, test = standardize(ds), None
    spec = kernel_from_dict(tree.get("kernel", {}), d=train.d)
    oracle = KernelOracle(spec, train.features, run_config.lam)
    return oracle, train.targets, (train, test, spec)


def cmd_solve(args):
    tree = _effective_config(args)
    run_config = _run_config(tree)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    oracle, y, _ = _build_problem(tree, run_config)
    run_config.validate_for(oracle.n)
    result = solve(oracle, y, run_config)
    result.trace.to_csv(out_dir / "trace.csv")
    np.save(out_dir / "weights.npy", result.W)
    _write_json(
        out_dir / "result.json",
        {
            "diverged": result.diverged,
            "iterations": result.iterations,
            "passes": result.passes,
            "final_residual": result.trace.final_residual(),
            # one full product beyond the run, so `passes` leaves it out
            "final_true_residual": relative_residual(oracle, result.W, y),
            "true_checks": result.true_checks,
            "max_residual_gap": result.max_residual_gap,
        },
    )
    _manifest(out_dir, "solve", tree, run_config, ["trace.csv", "weights.npy", "result.json"])
    print(
        f"solve: iterations={result.iterations} passes={result.passes:.3f} "
        f"residual={result.trace.final_residual():.3e} diverged={result.diverged}"
    )
    return EXIT_DIVERGED if result.diverged else EXIT_OK


INFER_KEYS = {"num_samples": (64, int, ">= 0"), "num_features": (2048, int, ">= 1")}


def cmd_infer(args):
    tree = _effective_config(args)
    run_config = _run_config(tree)
    values = read_section("infer", tree.get("infer", {}), INFER_KEYS)
    num_samples, num_features = values["num_samples"], values["num_features"]
    if num_samples == 1:  # a predictive variance needs two samples
        raise ConfigError("infer.num_samples must be 0 or >= 2, got 1")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    oracle, y, bundle = _build_problem(tree, run_config)
    if bundle is None or bundle[1] is None:
        raise ConfigError("infer needs a csv problem with a test_fraction")
    train, test, spec = bundle
    run_config.validate_for(oracle.n)

    def solve_fn(orc, rhs):
        result = solve(orc, rhs, run_config)
        if result.diverged:
            raise DivergedError(f"the solve diverged after {result.iterations} iterations; "
                                "no predictions written")
        return result.W

    metrics = {}
    outputs = ["predictions.csv", "metrics.json"]
    if num_samples == 0:
        weights = solve_fn(oracle, y)
        mean_values = oracle.cross_matmul(test.features, weights)
        metrics["rmse"] = rmse(mean_values, test.targets)
        columns = [mean_values]
        header = "point_id,mean"
    else:
        rfm = RandomFeatureMap.sample(spec, train.d, num_features, substream(run_config.seed, "features"))
        prior = RandomFeaturePrior(rfm, train.features, test.features)
        samples = pathwise_sample(
            oracle, prior, y, num_samples, run_config.seed, solve_fn, Xstar=test.features
        )
        mean_values = samples.mean_values
        variance = samples.predictive_variance(run_config.lam)
        metrics["rmse"] = rmse(mean_values, test.targets)
        metrics["mean_nll"] = mean_nll(mean_values, variance, test.targets)
        columns = [mean_values, variance] + [samples.sample_values[:, i] for i in range(num_samples)]
        header = "point_id,mean,variance," + ",".join(f"sample_{i}" for i in range(num_samples))
    with open(out_dir / "predictions.csv", "w") as handle:
        handle.write(header + "\n")
        for i in range(len(mean_values)):
            row = ",".join(repr(float(col[i])) for col in columns)
            handle.write(f"{i},{row}\n")
    _write_json(out_dir / "metrics.json", metrics)
    _manifest(out_dir, "infer", tree, run_config, outputs)
    print("infer: " + " ".join(f"{k}={v:.6f}" for k, v in sorted(metrics.items())))
    return EXIT_OK


def _poly(p, seed):
    return SyntheticSpectrumProblem.poly(p["n"], p["beta"], p["lam"], seed)


# suite -> ({verify key: (default, kind)}, run(values, seed) -> report)
VERIFY_SUITES = {
    "lemma2": (
        {"n": (64, int), "beta": (2.0, float), "lam": (1e-3, float),
         "half_blocksize": (8, int), "num_samples": (5000, int)},
        lambda p, seed: verify_lemma2(_poly(p, seed), p["half_blocksize"], p["num_samples"], seed),
    ),
    "theorem1": (
        {"n": (256, int), "beta": (2.0, float), "lam": (1e-4, float),
         "half_blocksize": (16, int), "num_top": (8, int), "trials": (100, int),
         "iters": (2000, int)},
        lambda p, seed: verify_theorem1(_poly(p, seed), p["half_blocksize"], p["num_top"],
                                        p["trials"], p["iters"], seed),
    ),
    "linear_rate": (
        {"n": (256, int), "beta": (2.0, float), "lam": (1e-4, float),
         "half_blocksize": (16, int), "trials": (100, int), "iters": (512, int),
         "projection_samples": (2000, int)},
        lambda p, seed: verify_linear_rate(_poly(p, seed), p["half_blocksize"], p["trials"],
                                           p["iters"], seed,
                                           projection_samples=p["projection_samples"]),
    ),
    "nystrom": ({}, lambda p, seed: verify_nystrom(seed)),
    "pathwise": ({}, lambda p, seed: verify_pathwise(seed)),
}
# every key some suite reads (the suites agree on each key's kind)
VERIFY_KEYS = {key: rule for table, _ in VERIFY_SUITES.values() for key, rule in table.items()}


def cmd_verify(args):
    tree = _effective_config(args)
    run_config = RunConfig.from_dict(tree["run"])
    suite = args.suite
    if suite not in VERIFY_SUITES:
        print(f"error: unknown verify suite {suite!r}", file=sys.stderr)
        return EXIT_ERROR
    table, run_suite = VERIFY_SUITES[suite]
    values = read_section("verify", tree.get("verify", {}), table)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = run_suite(values, run_config.seed)
    _write_json(out_dir / f"report_{suite}.json", report.to_dict())
    if report.gridpoints:
        report.to_csv(out_dir / f"report_{suite}.csv")
    _manifest(out_dir, f"verify:{suite}", tree, run_config, [f"report_{suite}.json"])
    print(f"verify {suite}: {'PASS' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_FAILED


def cmd_bench(args):
    tree = _effective_config(args)
    run_config = RunConfig.from_dict(tree.get("run", {}))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    oracle, _, _ = _build_problem(tree, run_config)
    n = oracle.n
    rng = substream(run_config.seed, "bench")
    blocksize = min(max(n // 4, 1), n)
    block = np.sort(rng.choice(n, size=blocksize, replace=False))
    W = rng.standard_normal((n, 4))
    omega = rng.standard_normal((blocksize, min(32, blocksize)))
    counts = sorted({1, 2, 4, run_config.num_workers})
    ref_col = col_dist_matmul(oracle, W, block)
    ref_row = row_dist_matmul(oracle, omega, block)
    ref_full = oracle.matmul(W)
    rows = []
    for workers in counts:
        with WorkerPool(workers) as pool:
            start = time.perf_counter()
            col = col_dist_matmul(oracle, W, block, pool)
            col_secs = time.perf_counter() - start
            start = time.perf_counter()
            row = row_dist_matmul(oracle, omega, block, pool)
            row_secs = time.perf_counter() - start
            start = time.perf_counter()
            full = oracle.matmul(W, pool)
            full_secs = time.perf_counter() - start
        rows.append(("col_dist_matmul", workers, col_secs, float(np.abs(col - ref_col).max())))
        rows.append(("row_dist_matmul", workers, row_secs, float(np.abs(row - ref_row).max())))
        rows.append(("matmul", workers, full_secs, float(np.abs(full - ref_full).max())))
    with open(out_dir / "bench.csv", "w") as handle:
        handle.write("op,workers,seconds,max_abs_diff_vs_serial\n")
        for op, workers, secs, diff in rows:
            handle.write(f"{op},{workers},{secs!r},{diff!r}\n")
    _manifest(out_dir, "bench", tree, run_config, ["bench.csv"])
    for op, workers, secs, diff in rows:
        print(f"bench {op} workers={workers} seconds={secs:.4f} max_diff={diff:g}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="sapgp", description=__doc__)
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config entry (repeatable, dotted keys)")
    parser.add_argument("--workers", type=int, help="worker pool size")
    parser.add_argument("--seed", type=int, help="root seed")
    parser.add_argument("--out", default="out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve", help="run a solver, write trace and weights")
    sub.add_parser("infer", help="posterior mean + samples, write predictions and metrics")
    verify = sub.add_parser("verify", help="run a certification suite")
    verify.add_argument("suite", help="lemma2|theorem1|linear_rate|nystrom|pathwise")
    sub.add_parser("bench", help="time partitioned products across worker counts")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"solve": cmd_solve, "infer": cmd_infer, "verify": cmd_verify, "bench": cmd_bench}
    try:
        return handlers[args.command](args)
    except DivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (SapgpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # the CLI boundary: one line, never a traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
