"""One fresh start-up: import the package, build the first op's inputs, print ``ready``.

``run.py`` times this from process launch to the ``ready`` line; its median
over several launches is the ``setup_s`` metric.
Usage: python3 perfbench/startup.py <workload> <seed>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports metastrain from the checkout's src)

workloads.make_inputs(sys.argv[1], int(sys.argv[2]), 0)
print("ready", flush=True)
