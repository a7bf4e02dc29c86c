"""Set-up probe: import the package, generate and parse one workload's inputs, exit.

run.py times this script from spawn to exit as `setup_s`, so the figure
covers a fresh interpreter, the package import and the input parse.
Usage: python3 bench/probe.py WORKLOAD SEED  (with src on PYTHONPATH)
"""

import sys

from tracing import no_span
from workloads import WORKLOADS

WORKLOADS[sys.argv[1]].prepare(int(sys.argv[2]), no_span)
