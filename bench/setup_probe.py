"""Time one set-up of a workload in a fresh interpreter.

Usage: python3 bench/setup_probe.py WORKLOAD SEED OUT_DIR

Prints the seconds taken to import tfqss (with numpy) and build the
workload's inputs. run.py starts this several times per run, because an
import can only be timed once per process.
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), sys.argv[3])
print(repr(time.perf_counter() - START))
