"""The benchmark's four workloads: their inputs and one pass of each.

Importing this module imports tfqss, so the caller puts the checkout's
``src`` directory on ``sys.path`` first. The benchmark seed reaches the
program only as the ``--seed`` of the simulate workloads; the scan and
crossover workloads are deterministic.

Every call into the package goes through a module attribute looked up at
call time (``cli.main``, ``optimize.find_crossover``), so that the traced
run can wrap those bindings from outside the package.
"""

from __future__ import annotations

import os
from dataclasses import replace

from tfqss import cli, optimize
from tfqss.core import SystemParams

# name -> (n_pairs, distance km, mu) of the simulate workloads
SIMULATE = {
    "simulate_sparse": (10**7, 100.0, 0.05),
    "simulate_dense": (4 * 10**6, 0.0, 0.4),
}
# acceptance criterion 2: bracket ends, then bisection steps
CROSSOVER_ENDS = (0.02, 0.10)
CROSSOVER_STEPS = 10

NAMES = ("scan_default", "crossover_threshold", *SIMULATE)


class CliWorkload:
    """One `tfqss` command run in-process, writing to a file."""

    def __init__(self, name: str, argv: list[str], output_path: str):
        self.name = name
        self.argv = argv + ["--output", output_path]
        self.output_path = output_path
        self.rc = None

    def run(self) -> None:
        self.rc = cli.main(self.argv)

    def result(self) -> tuple[int, str]:
        with open(self.output_path, encoding="utf-8") as fh:
            return self.rc, fh.read()


class CrossoverWorkload:
    """Bisection for the largest e_d whose rate still beats PLOB."""

    name = "crossover_threshold"

    def __init__(self):
        self.params = SystemParams()
        self._result = None

    def _crosses(self, e_d: float) -> bool:
        params = replace(self.params, misalignment=e_d)
        return optimize.find_crossover(params) is not None

    def run(self) -> None:
        lo, hi = CROSSOVER_ENDS
        low_end, high_end = self._crosses(lo), self._crosses(hi)
        for _ in range(CROSSOVER_STEPS):
            mid = 0.5 * (lo + hi)
            if self._crosses(mid):
                lo = mid
            else:
                hi = mid
        self._result = {"low_end_crosses": low_end,
                        "high_end_crosses": high_end, "bracket": (lo, hi)}

    def result(self) -> dict:
        return self._result


def build(name: str, seed: int, out_dir: str):
    """Inputs of one workload; output files go to out_dir."""
    output = os.path.join(out_dir, f"{name}-{os.getpid()}.out")
    if name == "scan_default":
        return CliWorkload(name, ["scan"], output)
    if name == "crossover_threshold":
        return CrossoverWorkload()
    n_pairs, distance, mu = SIMULATE[name]
    return CliWorkload(name, [
        "simulate", "--n_pairs", str(n_pairs), "--distance", str(distance),
        "--mu", str(mu), "--seed", str(seed)], output)
