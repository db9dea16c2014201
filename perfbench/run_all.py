"""Run every workload of BENCHMARK.json, untraced and then traced.

    python3 perfbench/run_all.py --seed 1 [--seconds 40] [--smoke]

Each run is its own ``run.py`` process, started one after another. Their
output is passed through; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, where each metric is
keyed ``<workload>.<metric>``. Exits 1 when a run fails or reports an
incorrect result.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--smoke", action="store_true", help="reduced sizes")
    args = parser.parse_args(argv)

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                ok = False
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            total["correct"] = total["correct"] and result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for name, item in result["metrics"].items():
                total["metrics"][f"{workload}.{name}"] = item
    total["correct"] = total["correct"] and ok
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
