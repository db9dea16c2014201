"""Smoke test of the benchmark harness at reduced sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload with ``--smoke`` untraced and traced, one by one and
through ``run_all.py``, and checks that each run prints every metric with its
unit, runs its correctness checks and traces the layers each workload is
meant to exercise.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

END_TO_END = {"wall_s", "setup_s", "peak_rss_mb", "passes", "failed"}
QUALITY = {"solve_matern": {"relres"}, "infer_pathwise": {"rmse", "mean_nll"}, "theory_mc": set()}
CHECKS = {
    "solve_matern": {"not_diverged", "relres_within_tol", "relres_matches_trace",
                     "col_dist_matmul_bitwise_1_vs_2_workers"},
    "infer_pathwise": {"exit_code_0", "prediction_rows", "prediction_columns",
                       "rmse_below_mean_predictor", "nll_finite"},
    "theory_mc": {"report_passed", "assumption_gap_held"},
}
PER_LAYER = {
    "kernels.tile_calls", "kernels.tile_entries", "kernels.tile_s", "kernels.entries_per_s",
    "kernels.block_s", "kernels.matmul_calls", "kernels.matmul_s", "kernels.cross_matmul_s",
    "dist.col_calls", "dist.col_s", "dist.row_s", "dist.check_indices_s", "dist.pool_busy_ratio",
    "randnla.nystrom_calls", "randnla.nystrom_attempts", "randnla.nystrom_s", "randnla.power_s",
    "randnla.inv_sqrt_s", "randnla.woodbury_s", "randnla.woodbury_fallbacks",
    "solvers.steps", "solvers.step_s_p50", "solvers.step_s_hi", "solvers.step_s_hi_pct",
    "solvers.residual_checks", "solvers.residual_s", "solvers.update_s", "solvers.self_s",
    "gp.prior_s", "gp.pathwise_s", "gp.cross_s", "data.load_csv_s", "data.split_s",
    "cli.self_s", "dpp.sample_calls", "dpp.sample_s", "dpp.sample_s_p50", "dpp.projection_mc_s",
    "theory.trials", "theory.trial_s_p50", "theory.self_s", "rng.substream_calls",
    "rng.substream_s", "trace.overhead_ratio", "trace.unattributed_s",
}
# Work each workload must show in its trace (> 0) and must not (== 0).
BUSY = {
    "solve_matern": {"kernels.tile_calls", "dist.pool_busy_ratio", "randnla.nystrom_calls",
                     "solvers.residual_checks", "solvers.update_s"},
    "infer_pathwise": {"kernels.tile_calls", "kernels.cross_matmul_s", "randnla.nystrom_calls",
                       "gp.prior_s", "data.load_csv_s", "cli.self_s"},
    "theory_mc": {"dpp.sample_calls", "theory.trials", "rng.substream_calls", "solvers.steps"},
}
IDLE = {
    "solve_matern": {"gp.self_s", "data.self_s", "cli.self_s", "dpp.sample_calls",
                     "theory.trials"},
    "infer_pathwise": {"dpp.sample_calls", "theory.trials"},
    "theory_mc": {"kernels.tile_calls", "randnla.nystrom_calls", "gp.self_s", "cli.self_s",
                  "dist.pool_busy_ratio"},
}


def run(cwd, workload, trace, smoke=True):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace)] + (["--smoke"] if smoke else [])
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_metrics_and_runs_checks(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1 + trace

    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    assert {name: item["unit"] for name, item in result["metrics"].items()} == units
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            printed[name] = (float(value), unit)
    assert all(printed[name][1] == unit for name, unit in units.items())
    assert (PER_LAYER if trace else END_TO_END | QUALITY[workload]) <= printed.keys()

    checks = {line.split()[2].rstrip(":"): line.split()[3] for line in lines
              if line.startswith("check call0 ")}
    assert CHECKS[workload] <= checks.keys()
    assert all(verdict == "ok" for verdict in checks.values())

    env = json.loads(lines[0].removeprefix("env "))
    for key in ("nproc", "cpu_model", "blas_threads", "python", "numpy", "scipy",
                "git_commit", "seed", "workers"):
        assert key in env
    assert set(env["blas_threads"].values()) == {"1"}

    if trace:
        values = {name: item["value"] for name, item in result["metrics"].items()}
        assert all(values[name] > 0 for name in BUSY[workload])
        assert all(values[name] == 0 for name in IDLE[workload])
        assert values["trace.overhead_ratio"] > 0
        assert 0 <= values["trace.unattributed_s"] < 0.1 * values["trace.wall_s"]


def test_one_command_runs_every_workload_untraced_and_traced():
    proc = subprocess.run(
        [sys.executable, "perfbench/run_all.py", "--seed", "4", "--seconds", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert set(result["metrics"]) == {f"{w}.{n}" for w in WORKLOADS for n in names}


def test_failed_check_counts_against_attempts(tmp_path):
    sys.path.insert(0, str(HERE))
    try:
        import run as harness
    finally:
        sys.path.remove(str(HERE))

    class Workload:
        def __init__(self, raises):
            self.raises = raises

        def call(self, state):
            if self.raises:
                raise RuntimeError("call fails")
            return 1

        def fingerprint(self, output):
            return str(output)

        def quality(self, state, output):
            return {"passes": (1.0, "passes")}

        def checks(self, state, output, quality):
            return [("always_fails", False, "")]

    for raises in (False, True):
        calls, _ = harness.run_loop(Workload(raises), None, 0.0, 0, tmp_path)
        assert len(calls) == 1 and calls[0].failed
        assert calls[0].error == ("RuntimeError: call fails" if raises else None)


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run(tmp_path, WORKLOADS[0], 0, smoke=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
