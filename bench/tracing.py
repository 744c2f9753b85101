"""Spans around the calls into each tfqss module, recorded from outside.

The tracer replaces the module attributes that callers look up at call
time (``tfqss.optimize.rate_at_transmittance``, ``tfqss.mcsim.detect_slots``
and so on) with wrappers that record a span per call: name, parent span,
start and end. Nothing inside the package changes. Spans stay in memory
until the pass ends; per-layer metrics are computed from them and the last
traced pass is written out as CSV.

A layer's self time is its spans' duration minus the part of that
interval its child spans cover. `tfqss scan` evaluates distances on a
thread pool; a span opened on a worker thread with no open span of its
own takes the innermost open span of the installing thread as parent,
which is the scan call that submitted it.
"""

from __future__ import annotations

import importlib
import threading
import time
import tracemalloc

import numpy as np

# (module, attribute, span name). Each binding is the one its callers
# look up: cli -> scan_distances/run_protocol, optimize -> keyrate and
# bounds, bounds.dps_qss_baseline -> optimize.maximize_rate_at_transmittance,
# mcsim -> channel.detect_slots.
BINDINGS = (
    ("tfqss.cli", "main", "cli.main"),
    ("tfqss.cli", "scan_distances", "optimize.scan_distances"),
    ("tfqss.cli", "run_protocol", "mcsim.run_protocol"),
    ("tfqss.optimize", "find_crossover", "optimize.find_crossover"),
    ("tfqss.optimize", "optimize_mu", "optimize.optimize_mu"),
    ("tfqss.optimize", "maximize_rate_at_transmittance", "optimize.maximize"),
    ("tfqss.optimize", "rate_at_transmittance", "keyrate.rate"),
    ("tfqss.optimize", "dps_qss_baseline", "bounds.baseline"),
    ("tfqss.optimize", "plob_bound", "bounds.plob"),
    ("tfqss.mcsim", "prepare_train", "mcsim.prepare_train"),
    ("tfqss.mcsim", "run_measurement", "mcsim.run_measurement"),
    ("tfqss.mcsim", "detect_slots", "channel.detect_slots"),
    ("tfqss.mcsim", "sift", "mcsim.sift"),
    ("tfqss.mcsim", "estimate_qber", "mcsim.estimate_qber"),
)
# Stages whose tracemalloc peak is recorded (numpy allocations included).
MEMORY_SPANS = {"mcsim.run_measurement", "mcsim.sift"}
# What a span keeps of its call: O(1) to take, so a parent's self time
# does not pay for it. Clicks are counted from the kept outcome array
# after the pass.
NOTES = {
    "channel.detect_slots": lambda args, res: (len(args[0]), res[0]),
    "mcsim.sift": lambda args, res: len(res),
    "mcsim.estimate_qber": lambda args, res: len(args[0]) - len(res[1]),
}

# Unit of every per-layer metric, in the order they are reported.
UNITS = {
    "cli.self_s": "s",
    "optimize.scan_s": "s",
    "optimize.optimize_mu_calls": "count",
    "optimize.maximize_calls": "count",
    "optimize.maximize_us": "us",
    "optimize.crossover_calls": "count",
    "optimize.crossover_s": "s",
    "keyrate.rate_calls": "count",
    "keyrate.rate_s": "s",
    "keyrate.rate_us": "us",
    "bounds.baseline_calls": "count",
    "bounds.baseline_s": "s",
    "bounds.plob_calls": "count",
    "bounds.plob_s": "s",
    "channel.detect_s": "s",
    "channel.detect_ns_per_slot": "ns",
    "channel.slots": "count",
    "channel.clicks": "count",
    "channel.click_ratio": "ratio",
    "mcsim.prepare_s": "s",
    "mcsim.measure_self_s": "s",
    "mcsim.sift_s": "s",
    "mcsim.qber_s": "s",
    "mcsim.sifted_slots": "count",
    "mcsim.test_slots": "count",
    "mcsim.measure_peak_mb": "MB",
    "mcsim.sift_peak_mb": "MB",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Field order of a span record.
NAME, PARENT, START, END, THREAD, NOTE, PEAK = range(7)


class Tracer:
    """Collects spans while installed; install() and uninstall() pair up."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._main_stack: list = []
        self._saved: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, func):
        spans = self.spans
        memory = name in MEMORY_SPANS
        note = NOTES.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = self._main_stack[-1]
                except IndexError:
                    parent = None
            record = [name, parent, 0, 0, threading.get_ident(), None, 0]
            spans.append(record)
            stack.append(record)
            if memory:
                tracemalloc.start()
            record[START] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                record[END] = clock()
                if memory:
                    record[PEAK] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()
            if note is not None:
                record[NOTE] = note(args, result)
            return result

        return traced

    def install(self) -> None:
        self.spans.clear()
        self._local = threading.local()
        self._main_stack = self._stack()
        for module_name, attr, span in BINDINGS:
            module = importlib.import_module(module_name)
            func = getattr(module, attr)
            self._saved.append((module, attr, func))
            setattr(module, attr, self._wrap(span, func))

    def uninstall(self) -> None:
        for module, attr, func in reversed(self._saved):
            setattr(module, attr, func)
        self._saved.clear()

    def write_csv(self, path: str) -> None:
        """One line per span: id, parent id, name, thread, start/end ns."""
        ids = {id(rec): i for i, rec in enumerate(self.spans)}
        t0 = min((rec[START] for rec in self.spans), default=0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,thread,start_ns,end_ns\n")
            for i, rec in enumerate(self.spans):
                parent = "" if rec[PARENT] is None else ids[id(rec[PARENT])]
                fh.write(f"{i},{parent},{rec[NAME]},{rec[THREAD]},"
                         f"{rec[START] - t0},{rec[END] - t0}\n")


def _covered_ns(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of [start, end) intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (names as in BENCHMARK.json)."""
    by_name: dict[str, list[list]] = {}
    children: dict[int, list[tuple[int, int]]] = {}
    for rec in spans:
        by_name.setdefault(rec[NAME], []).append(rec)
        if rec[PARENT] is not None:
            children.setdefault(id(rec[PARENT]), []).append(
                (rec[START], rec[END]))

    def recs(name):
        return by_name.get(name, [])

    def count(name):
        return len(recs(name))

    def total_s(name):
        return sum(r[END] - r[START] for r in recs(name)) * 1e-9

    def self_s(name):
        return sum(r[END] - r[START] - _covered_ns(children.get(id(r), []))
                   for r in recs(name)) * 1e-9

    def mean_us(name):
        return total_s(name) / count(name) * 1e6 if count(name) else 0.0

    def peak_mb(name):
        return max((r[PEAK] for r in recs(name)), default=0) / 2**20

    def note_sum(name):
        return sum(r[NOTE] for r in recs(name))

    detects = [r[NOTE] for r in recs("channel.detect_slots")]
    slots = sum(n for n, _ in detects)
    clicks = sum(int(np.count_nonzero(outcomes)) for _, outcomes in detects)
    detect_s = total_s("channel.detect_slots")
    return {
        "cli.self_s": self_s("cli.main"),
        "optimize.scan_s": total_s("optimize.scan_distances"),
        "optimize.optimize_mu_calls": count("optimize.optimize_mu"),
        "optimize.maximize_calls": count("optimize.maximize"),
        "optimize.maximize_us": mean_us("optimize.maximize"),
        "optimize.crossover_calls": count("optimize.find_crossover"),
        "optimize.crossover_s": total_s("optimize.find_crossover"),
        "keyrate.rate_calls": count("keyrate.rate"),
        "keyrate.rate_s": total_s("keyrate.rate"),
        "keyrate.rate_us": mean_us("keyrate.rate"),
        "bounds.baseline_calls": count("bounds.baseline"),
        "bounds.baseline_s": total_s("bounds.baseline"),
        "bounds.plob_calls": count("bounds.plob"),
        "bounds.plob_s": total_s("bounds.plob"),
        "channel.detect_s": detect_s,
        "channel.detect_ns_per_slot": detect_s / slots * 1e9 if slots else 0.0,
        "channel.slots": slots,
        "channel.clicks": clicks,
        "channel.click_ratio": clicks / slots if slots else 0.0,
        "mcsim.prepare_s": total_s("mcsim.prepare_train"),
        "mcsim.measure_self_s": self_s("mcsim.run_measurement"),
        "mcsim.sift_s": total_s("mcsim.sift"),
        "mcsim.qber_s": total_s("mcsim.estimate_qber"),
        "mcsim.sifted_slots": note_sum("mcsim.sift"),
        "mcsim.test_slots": note_sum("mcsim.estimate_qber"),
        "mcsim.measure_peak_mb": peak_mb("mcsim.run_measurement"),
        "mcsim.sift_peak_mb": peak_mb("mcsim.sift"),
    }
