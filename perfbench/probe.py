"""Set-up probe: import aclab, prepare a workload, print "ready", exit.

perfbench/run.py starts this script several times and times each start up
to the "ready" line; that is the workload's set-up time.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

name, seed = sys.argv[1], int(sys.argv[2])
WORKLOADS[name](name, seed, None).setup()
print("ready", flush=True)
