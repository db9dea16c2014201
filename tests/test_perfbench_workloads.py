"""The benchmark's own correctness checks (``relres_matches_trace`` and the
rest in ``perfbench/workloads.py``), run at smoke size, so that a change that
breaks one fails here and not only in a benchmark run."""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("name", sorted(load_workloads()))
def test_smoke_workload_passes_its_checks(name, tmp_path):
    workload = load_workloads()[name](1, True, tmp_path)
    workload.make_inputs()
    state = workload.setup()
    output = workload.call(state)
    checks = workload.checks(state, output, workload.quality(state, output))
    assert checks
    assert [(check, detail) for check, ok, detail in checks if not ok] == []
