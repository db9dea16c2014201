"""Set up one workload in a fresh interpreter, to time set-up from its start.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir> [--smoke]

Imports sapgp from ``src/`` of the checkout, builds the workload's objects
from the inputs already in ``workdir`` and prints ``ready``. ``run.py``
measures from starting this process to reading that line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
WORKLOADS[name](seed, "--smoke" in sys.argv[4:], workdir).setup()
print("ready", flush=True)
