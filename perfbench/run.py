"""Run one seeded sapgp benchmark workload and print its metrics.

    python3 perfbench/run.py --workload solve_matern --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports sapgp from ``src/`` there and
nowhere else. One process runs one workload in a closed loop with a single
caller: it repeats the workload's timed call on the same inputs while the
time spent in calls, plus one more call of median length, fits in
``--seconds`` (always at least one call; two with ``--trace 1``).

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` alternates untraced and traced calls and prints the per-layer
metrics, each the median over the traced calls. ``--smoke`` shrinks every
workload for a quick check of the harness. Every run checks the outputs of
its calls; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Results, the
environment and the spans of the last traced call go to
``perfbench/results/``.
"""

import os

# Each workload process pins BLAS to one thread before numpy loads.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer, layer_metrics, write_spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes")
    return parser.parse_args(argv)


def git_commit():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args, workload):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "workload": workload.name,
        "seed": args.seed,
        "workers": workload.size.get("workers", 1),
        "smoke": args.smoke,
        "sizes": workload.size,
    }


def time_setup(args, workdir):
    """Median-ready list of fresh-interpreter set-up times; the first probe
    only warms the bytecode and file caches and is dropped."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), args.workload, str(args.seed),
           str(workdir)] + (["--smoke"] if args.smoke else [])
    times = []
    for probe in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            try:
                _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise RuntimeError("set-up probe timed out") from None
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {err.strip()[-500:]}")
        if probe:
            times.append(elapsed)
    return times


class Call:
    __slots__ = ("traced", "wall_s", "peak_rss_mb", "error", "checks", "layer")

    def __init__(self, traced):
        self.traced = traced
        self.error = None
        self.checks = []
        self.layer = None

    @property
    def failed(self):
        return self.error is not None or not all(ok for _, ok, _ in self.checks)


def run_loop(workload, state, seconds, trace, workdir):
    """Closed loop with one caller; returns (calls, quality of the first
    successful call)."""
    calls = []
    quality = None
    reference = None
    tracer = Tracer() if trace else None
    last_spans = None
    need = 2 if trace else 1
    while True:
        walls = [c.wall_s for c in calls]
        if len(calls) >= need and sum(walls) + statistics.median(walls) > seconds:
            break
        call = Call(traced=bool(trace) and len(calls) % 2 == 1)
        output = None
        with tracer if call.traced else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                output = workload.call(state)
            except Exception as exc:  # a failed call is counted, the loop goes on
                call.error = f"{type(exc).__name__}: {exc}"
            call.wall_s = time.perf_counter() - start
        call.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        calls.append(call)
        if call.traced:
            spans = tracer.take()
            call.layer = layer_metrics(spans, call.wall_s)
            last_spans = spans
        if call.error is not None:
            continue
        try:
            fingerprint = workload.fingerprint(output)
            if reference is None:
                reference = fingerprint
                quality = workload.quality(state, output)
                call.checks = workload.checks(state, output, quality)
            else:
                call.checks = [("same_output_as_first_call", fingerprint == reference,
                                fingerprint[:16])]
        except Exception as exc:  # a check that cannot run fails the call
            call.error = f"check raised {type(exc).__name__}: {exc}"
    if last_spans is not None:
        write_spans(last_spans, workdir / "spans.csv")
    return calls, quality


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "sapgp" / "__init__.py").is_file():
        sys.exit(f"error: no sapgp sources under {SRC}")
    bench_path = ROOT / "BENCHMARK.json"
    if not bench_path.is_file():
        sys.exit(f"error: {bench_path} is missing")
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    spec = json.loads(bench_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = HERE / "results" / (f"{args.workload}-seed{args.seed}"
                                  + ("-smoke" if args.smoke else ""))
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.smoke, workdir)
    workload.make_inputs()
    setup_times = [] if args.trace else time_setup(args, workdir)
    state = workload.setup()
    import sapgp

    if Path(sapgp.__file__).resolve().parent != SRC / "sapgp":
        sys.exit(f"error: imported sapgp from {sapgp.__file__}, not from {SRC}")
    env = environment(args, workload)
    print("env " + json.dumps(env, sort_keys=True))

    calls, quality = run_loop(workload, state, args.seconds, args.trace, workdir)
    failed = sum(c.failed for c in calls)
    for i, call in enumerate(calls):
        print(f"call {i} traced={int(call.traced)} wall_s={call.wall_s!r}"
              + (f" error={call.error}" if call.error else ""))
        for name, ok, detail in call.checks:
            print(f"check call{i} {name}: {'ok' if ok else 'FAILED'} ({detail})")

    untraced = [c.wall_s for c in calls if not c.traced]
    if args.trace:
        traced = [c for c in calls if c.traced]
        values = {name: statistics.median(c.layer[name] for c in traced)
                  for name in traced[0].layer}
        values["trace.overhead_ratio"] = (statistics.median(c.wall_s for c in traced)
                                          / statistics.median(untraced))
    else:
        values = {
            "wall_s": statistics.median(untraced),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": calls[0].peak_rss_mb,
            "passes": quality["passes"][0] if quality else 0.0,
        }
        for name, (value, unit) in (quality or {}).items():
            if name != "passes":
                print(f"metric {name} {value!r} {unit}")
        print(f"metric failed {failed} count")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        sys.exit(f"error: metrics not computed: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, item in metrics.items():
        print(f"metric {name} {item['value']!r} {item['unit']}")

    result = {
        "correct": failed == 0 and quality is not None,
        "attempted": len(calls),
        "failed": failed,
        "metrics": metrics,
    }
    (workdir / f"result-trace{args.trace}.json").write_text(json.dumps({
        **result,
        "env": env,
        "setup_s_samples": setup_times,
        "calls": [{"traced": c.traced, "wall_s": c.wall_s, "error": c.error,
                   "checks": [list(chk) for chk in c.checks]} for c in calls],
        "quality": quality,
    }, indent=2, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
