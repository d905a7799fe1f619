#!/usr/bin/env python3
"""tnngrass benchmark: one workload, one run, one JSON result on the last line.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src``.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` is the median
of several fresh-interpreter set-ups, then items run back to back for
``--seconds`` seconds, one process, one thread.  Item costs are given in
``cal``: one cal is the time of a fixed ``Fraction`` loop (about 1 ms on a
2-core x86-64 cloud VM), timed after every item, and each item's time is
divided by the median of the ten loop timings around it.  The host's speed
swings by up to a factor of two for seconds at a time; the library is
pure-Python rational arithmetic, which the loop slows along with.
``setup_s`` is scaled the same way, to a host on which one cal takes 1 ms.  ``--trace 1`` runs a fixed
block of items three times (untraced, traced, untraced) and prints the
per-layer metrics of the traced block plus the tracing overhead.

Every item's output is checked independently.  The result line has the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; earlier lines
show a table of the metrics and a ``context`` line (failure share, tail
percentile, host calibration probe, and for traced runs the output digest).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 11

CAL_WINDOW = 5  # an item is normalised by the loop timings of 5 items either side
REF_CAL_S = 1e-3  # setup_s is given for a host on which one cal takes 1 ms

END_TO_END_UNITS = {
    "setup_s": "s",
    "item_mean_cal": "cal",
    "item_p50_cal": "cal",
    "item_tail_cal": "cal",
    "peak_rss_mb": "MB",
}

COUNT_UNITS = {
    "exact_linalg.all_maximal_minors.subsets": "count",
    "exact_linalg.matmul.mults": "count",
    "exact_linalg.matrix_new.calls": "count",
    "exact_linalg.max_entry_bits": "bits",
    "cli.json_out.bytes": "bytes",
    "amplituhedron_map.z0_attempts": "count",
    "fiber.accepted": "count",
    "fiber.rejected": "count",
    "fiber.accept_ratio": "ratio",
    "fiber.degenerate_pairs": "count",
    "fiber.tables_per_cert": "tables/cert",
    "trace.overhead_frac": "ratio",
}

_CHILD = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.child_setup(sys.argv[3], int(sys.argv[4])); print(time.monotonic_ns())"
)


def fraction_loop_ns(steps: int) -> int:
    """Time of a fixed pure-Python ``Fraction`` loop; 400 steps are one cal."""
    start = time.perf_counter_ns()
    acc = Fraction(0)
    for i in range(1, steps + 1):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
    return time.perf_counter_ns() - start


def host_calib_ms() -> float:
    """Median of three timings of a 20000-step ``Fraction`` loop."""
    return statistics.median(fraction_loop_ns(20000) for _ in range(3)) / 1e6


def fresh_setup_seconds(workload: str, seed: int) -> float:
    """Process start to first item: interpreter, ``import tnngrass`` and set-up."""
    start = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(SRC), str(HERE), workload, str(seed)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return (int(proc.stdout.split()[-1]) - start) / 1e9


class Items:
    """Outcome of running items 0, 1, 2, ... of one workload."""

    def __init__(self) -> None:
        self.durations_ns: list[int] = []
        self.cal_ns: list[int] = []  # loop timings: before item 0 and after each item
        self.failed: set[int] = set()
        self.digest = hashlib.sha256()


def run_items(wl, count: int | None = None, deadline_ns: int | None = None,
              calibrate: bool = False, side_task=None, side_every_ns: int = 0) -> Items:
    """Run, time and check items until ``count`` are done or the deadline passes.

    With ``calibrate``, one cal loop is timed before the first item and
    after each item.  ``side_task(i)`` runs untimed before item ``i``, first
    before item 0 and then once every ``side_every_ns``.
    """
    items = Items()
    clock = time.perf_counter_ns
    if calibrate:
        items.cal_ns.append(fraction_loop_ns(400))
    side_due = clock()
    i = 0
    while (count is None or i < count) and (deadline_ns is None or i == 0 or clock() < deadline_ns):
        if side_task is not None and clock() >= side_due:
            side_task(i)
            side_due += side_every_ns
        inp = wl.make_input(i)
        start = clock()
        try:
            out = wl.run(inp)
        except Exception:
            out = None
            traceback.print_exc()
        items.durations_ns.append(clock() - start)
        if calibrate:
            items.cal_ns.append(fraction_loop_ns(400))
        ok = False
        if out is not None:
            try:
                ok, digest_bytes = wl.check(inp, out)
                items.digest.update(digest_bytes)
            except Exception:
                traceback.print_exc()
        if not ok:
            items.failed.add(i)
        i += 1
    return items


def run_workload(wl, count: int | None = None, deadline_s: float | None = None, **item_args):
    """Set-up, items and the closing command; returns (items, finish_ok, busy_ns).

    ``busy_ns`` is the time spent inside the program: set-up, every item
    and the closing command, without input generation or checks.
    """
    start = time.perf_counter_ns()
    wl.setup()
    setup_ns = time.perf_counter_ns() - start
    deadline_ns = None if deadline_s is None else time.perf_counter_ns() + int(deadline_s * 1e9)
    items = run_items(wl, count, deadline_ns, **item_args)
    start = time.perf_counter_ns()
    try:
        finish_failed, finish_ok = wl.finish()
    except Exception:
        traceback.print_exc()
        finish_failed, finish_ok = set(), False
    finish_ns = time.perf_counter_ns() - start
    items.failed |= finish_failed
    return items, finish_ok, setup_ns + sum(items.durations_ns) + finish_ns


def nearest_rank(sorted_values: list[int], pct: float) -> tuple[int, int]:
    """Value at the ``pct`` percentile and the number of items beyond it."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def cal_around_ns(items: Items, j: int) -> float:
    """Median cal loop timing around item ``j``, which ran between timings ``j`` and ``j + 1``."""
    return statistics.median(items.cal_ns[max(0, j + 1 - CAL_WINDOW): j + 1 + CAL_WINDOW])


def end_to_end(name: str, seed: int, seconds: float, workdir: Path):
    calib_before = host_calib_ms()
    fresh_setup_seconds(name, seed)  # unmeasured: fills the file cache and bytecode
    # set-ups are spread over the run, so their median sees every host speed of it
    setups = []  # (index of the next item, seconds)
    wl = workloads.WORKLOADS[name](seed, workdir)
    items, finish_ok, _ = run_workload(
        wl, deadline_s=seconds, calibrate=True,
        side_task=lambda i: setups.append((i, fresh_setup_seconds(name, seed))),
        side_every_ns=int(seconds * 1e9 / SETUP_SAMPLES),
    )
    calib_after = host_calib_ms()

    costs = sorted(d / cal_around_ns(items, j) for j, d in enumerate(items.durations_ns))
    setup_cals = [t * 1e9 / cal_around_ns(items, i) for i, t in setups]
    tail_cal, beyond = nearest_rank(costs, wl.tail_pct)
    durations = sorted(items.durations_ns)
    tail_ns, _ = nearest_rank(durations, wl.tail_pct)
    metrics = {
        "setup_s": statistics.median(setup_cals) * REF_CAL_S,
        "item_mean_cal": statistics.fmean(costs),
        "item_p50_cal": statistics.median(costs),
        "item_tail_cal": tail_cal,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    context = {
        "failed_frac": len(items.failed) / len(durations),
        "item_tail_pct": wl.tail_pct,
        "item_tail_beyond": beyond,
        "items": len(durations),
        "items_per_s": len(durations) / (sum(durations) / 1e9),
        "item_p50_ms": statistics.median(durations) / 1e6,
        "item_tail_ms": tail_ns / 1e6,
        "cal_ms": statistics.median(items.cal_ns) / 1e6,
        "setup_wall_s": statistics.median(t for _, t in setups),
        "setup_samples_s": [t for _, t in setups],
        "host.calib_ms": (calib_before + calib_after) / 2,
        "host.calib_ms_before": calib_before,
        "host.calib_ms_after": calib_after,
    }
    if beyond < 10:
        print(f"warning: only {beyond} items beyond p{wl.tail_pct}", file=sys.stderr)
    return items, finish_ok, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, context


def per_layer(name: str, seed: int, count: int | None, workdir: Path):
    cls = workloads.WORKLOADS[name]
    count = cls.trace_items if count is None else count
    # untraced, traced, untraced: the overhead compares the traced block
    # with the mean of the untraced blocks around it
    plain, plain_ok, before_ns = run_workload(cls(seed, workdir / "before"), count)
    tracer = spans.Tracer()
    tracer.install()
    try:
        wl = cls(seed, workdir / "traced")
        items, finish_ok, traced_ns = run_workload(wl, count)
    finally:
        tracer.uninstall()
    after, after_ok, after_ns = run_workload(cls(seed, workdir / "after"), count)
    plain_ns = (before_ns + after_ns) / 2

    calls, self_s = tracer.layer_totals()
    metrics = {}
    for layer in spans.LAYERS:
        metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.self_s"] = self_s[layer]
    metrics.update(tracer.counts)
    counters = wl.counters()
    accepted = counters.get("fiber.accepted", 0)
    rejected = counters.get("fiber.rejected", 0)
    certificates = counters.get("certificates", 0)
    metrics["fiber.accepted"] = accepted
    metrics["fiber.rejected"] = rejected
    metrics["fiber.accept_ratio"] = accepted / (accepted + rejected) if accepted + rejected else 0.0
    metrics["fiber.degenerate_pairs"] = counters.get("fiber.degenerate_pairs", 0)
    metrics["fiber.tables_per_cert"] = (
        calls["exact_linalg.all_maximal_minors"] / certificates if certificates else 0.0
    )
    metrics["trace.overhead_frac"] = traced_ns / plain_ns - 1

    split = sorted(((s / (traced_ns / 1e9), layer) for layer, s in self_s.items()), reverse=True)
    context = {
        "digest": items.digest.hexdigest(),
        "digest_untraced": plain.digest.hexdigest(),
        "items": len(items.durations_ns),
        "self_time_split": {layer: share for share, layer in split[:8]},
    }
    ok = (
        finish_ok and plain_ok and after_ok and not plain.failed and not after.failed
        and context["digest"] == context["digest_untraced"] == after.digest.hexdigest()
    )
    units = {f"{layer}.{kind}": unit for layer in spans.LAYERS for kind, unit in (("calls", "count"), ("self_s", "s"))}
    units.update(COUNT_UNITS)
    return items, ok, {k: (v, units[k]) for k, v in metrics.items()}, context


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--trace-items", type=int, help="size of the traced block (default per workload)")
    args = parser.parse_args(argv)

    if not (SRC / "tnngrass" / "__init__.py").is_file():
        print(f"error: no tnngrass sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            items, finish_ok, metrics, context = per_layer(
                args.workload, args.seed, args.trace_items, workdir
            )
        else:
            items, finish_ok, metrics, context = end_to_end(
                args.workload, args.seed, args.seconds, workdir
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    for metric, (value, unit) in metrics.items():
        print(f"{metric:48s} {value:>16.6g} {unit}")
    print("context " + json.dumps(context, sort_keys=True))
    attempted = len(items.durations_ns)
    result = {
        "correct": finish_ok and not items.failed,
        "attempted": attempted,
        "failed": len(items.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
