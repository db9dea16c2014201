"""The benchmark tracer wraps package functions by name; a rename must fail
here instead of silently dropping spans from the traced benchmark."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module_name, path, _ in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{path}")
    assert not missing
