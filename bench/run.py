"""Benchmark of tfqss: one workload per run, end to end or traced.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: scan_default, crossover_threshold, simulate_sparse,
simulate_dense (see bench/README.md for why each). The program is the
checkout's own ``src/tfqss``, driven in-process through its CLI and public
API. Each run

* runs one warm-up pass, then passes back to back for S seconds,
* between passes, times set-up (import tfqss, build the inputs) in fresh
  interpreters,
* checks every pass's output and that every pass gives the same output,
* checks that the workload's checker rejects a corrupted output.

With ``--trace 0`` it reports the end-to-end metrics (wall time per pass
and set-up time, both at the reference machine pace of pace.py; peak RSS;
share of passes that passed); with ``--trace 1`` it
alternates untraced and traced passes and reports per-layer metrics from
the traced ones, plus the tracing overhead. The last line of stdout is the
result as JSON; the full record, with the machine it ran on, goes to
``.bench_out/`` in the checkout, as do the spans of the last traced pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import pace

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
                    "pass_ratio": "ratio"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest() -> str:
    """sha256 over src/tfqss/*.py: names the code when there is no git."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "tfqss")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout's own repository; None for an exported tree."""
    git_dir = os.path.join(ROOT, ".git")
    if not os.path.exists(git_dir):  # do not let git search parent dirs
        return None
    try:
        out = subprocess.run(["git", "--git-dir", git_dir, "rev-parse",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_record() -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def time_setup(workload: str, seed: int) -> float:
    """Seconds of one set-up, timed in a fresh interpreter (unpaced)."""
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"),
         workload, str(seed), OUT_DIR],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if out.returncode != 0:
        fail(f"set-up probe failed:\n{out.stderr}")
    return float(out.stdout.strip().splitlines()[-1])


def tail(samples: list[float]) -> tuple[int, float] | None:
    """Highest listed percentile with at least ten samples above it."""
    n = len(samples)
    for pct in TAIL_PERCENTILES:
        if n * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(samples, n=100,
                                              method="inclusive")[pct - 1]
    return None


def checker(workload: str, seed: int):
    """Checks of one workload's output.

    Returns (check, corrupt, expected): check(output) lists failures,
    corrupt(output) damages an output, and the failures of a damaged
    output must include one that contains `expected`.
    """
    import numpy as np

    import checks
    import workloads

    if workload == "scan_default":
        ref = checks.ScanReference()
        rng = np.random.default_rng(seed)
        return (lambda out: ([f"scan: exit code {out[0]}"] if out[0] != 0
                             else checks.check_scan(out[1], ref)),
                lambda out: (out[0], checks.corrupt_scan(out[1], rng)),
                "column rate wrong in 1 rows")
    if workload == "crossover_threshold":
        return checks.check_crossover, checks.corrupt_crossover, "bracket"
    n_pairs, distance, mu = workloads.SIMULATE[workload]
    return (lambda out: checks.check_simulate(out[0], out[1], n_pairs,
                                              distance, mu),
            lambda out: (out[0], checks.corrupt_simulate(out[1], distance,
                                                         mu)),
            "gain band")


class Passes:
    """Runs passes of one workload, checking each output.

    run() returns the pass's wall time and that time at the reference pace
    (pace.py), from loop timings taken just before and just after it;
    time_setup() does the same for a set-up probe between two passes.
    """

    def __init__(self, work, check):
        self.work = work
        self.check = check
        self.pace_before = pace.now()
        self.first = None
        self.first_problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # distinct messages, first seen first

    def _paced(self, elapsed: float) -> tuple[float, float]:
        """(elapsed, elapsed at the reference pace); times the loop again."""
        pace_after = pace.now()
        paced = elapsed * pace.REFERENCE_S / (
            0.5 * (self.pace_before + pace_after))
        self.pace_before = pace_after
        return elapsed, paced

    def run(self) -> tuple[float, float]:
        start = time.perf_counter()
        self.work.run()
        times = self._paced(time.perf_counter() - start)
        output = self.work.result()
        self.attempted += 1
        if self.first is None:
            self.first = output
            self.first_problems = problems = self.check(output)
        elif output == self.first:
            problems = self.first_problems
        else:
            problems = ["output differs from the first pass of this run"]
            problems += self.check(output)
        if problems:
            self.failed += 1
            self.failures.extend(p for p in problems
                                 if p not in self.failures)
        return times

    def time_setup(self, workload: str, seed: int) -> tuple[float, float]:
        """One set-up probe between passes: (seconds, paced seconds)."""
        return self._paced(time_setup(workload, seed))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tfqss", "__init__.py")):
        fail(f"no tfqss sources under {SRC}; run from a full checkout")
    if args.seed < 0 or args.seconds <= 0:
        fail("need --seed >= 0 and --seconds > 0")
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    load_start = os.getloadavg()

    import tfqss
    import tracing
    import workloads
    if args.workload not in workloads.NAMES:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(workloads.NAMES)}")
    if os.path.dirname(os.path.abspath(tfqss.__file__)) != os.path.join(
            SRC, "tfqss"):
        fail(f"imported tfqss from {tfqss.__file__}, not from {SRC}")

    work = workloads.build(args.workload, args.seed, OUT_DIR)
    check, corrupt, expected = checker(args.workload, args.seed)
    passes = Passes(work, check)
    passes.run()  # warm-up: checked, not timed

    # Set-up probes are spread over the run, between passes, so that they
    # see the same phases of a shared machine's speed as the passes do.
    # (wall s, paced s) per pass and per set-up probe
    untraced, traced, layers, setup = [], [], [], []
    probes = 0 if args.trace else SETUP_PROBES
    tracer = tracing.Tracer() if args.trace else None
    start = time.perf_counter()
    deadline = start + args.seconds
    while time.perf_counter() < deadline or not (untraced and (
            traced or not args.trace)):
        if len(setup) < probes and time.perf_counter() >= (
                start + len(setup) * args.seconds / probes):
            setup.append(passes.time_setup(args.workload, args.seed))
        untraced.append(passes.run())
        if tracer is not None:
            tracer.install()
            try:
                traced.append(passes.run())
            finally:
                tracer.uninstall()
            layers.append(tracing.layer_metrics(tracer.spans))
    while len(setup) < probes:
        setup.append(passes.time_setup(args.workload, args.seed))

    corrupted_problems = [problem for problem in check(corrupt(passes.first))
                          if expected in problem]
    self_check_ok = bool(corrupted_problems)
    if not self_check_ok:
        passes.failures.append("self-check: a corrupted output passed")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if os.path.exists(getattr(work, "output_path", "")):
        os.remove(work.output_path)

    wall = statistics.median(w for w, _ in untraced)
    paced = [p for _, p in untraced]
    if args.trace:
        tracer.write_csv(os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv"))
        metrics = {name: statistics.median_low(m[name] for m in layers)
                   for name in layers[0]}
        overhead = statistics.median(w for w, _ in traced) - wall
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_ratio"] = overhead / wall
        units = tracing.UNITS
    else:
        metrics = {
            "wall_s": statistics.median(paced),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(p for _, p in setup),
            "pass_ratio": (passes.attempted - passes.failed)
            / passes.attempted,
        }
        units = END_TO_END_UNITS

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": dict(machine_record(), loadavg_start=load_start,
                        loadavg_end=os.getloadavg()),
        "unpaced_wall_s": wall,
        "wall_and_paced_samples_s": untraced,
        "traced_wall_and_paced_samples_s": traced,
        "unpaced_setup_s": statistics.median(raw for raw, _ in setup)
        if setup else None,
        "setup_and_paced_samples_s": setup,
        "failures": passes.failures,
        "self_check": corrupted_problems,
        "metrics": metrics,
    }
    with open(os.path.join(
            OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}"
            ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"machine: {json.dumps(record['machine'])}")
    if not args.trace:
        pct = tail(paced)
        print(f"wall_s (paced): median {metrics['wall_s']:.6f} s over "
              f"{len(paced)} passes; "
              + (f"p{pct[0]} {pct[1]:.6f} s" if pct else
                 "under 20 passes, so no percentile has 10 beyond it")
              + f"; unpaced median {wall:.6f} s")
        print(f"setup_s (paced): median {metrics['setup_s']:.6f} s over "
              f"{len(setup)} probes; unpaced median "
              f"{record['unpaced_setup_s']:.6f} s")
        print(f"fail_ratio: {passes.failed / passes.attempted} "
              f"({passes.failed} of {passes.attempted} passes)")
    print(f"self-check: corrupted output "
          f"{'rejected' if self_check_ok else 'ACCEPTED'}: "
          f"{corrupted_problems[:1]}")
    for problem in passes.failures[:5]:
        print(f"failure: {problem}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": passes.failed == 0 and self_check_ok,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
