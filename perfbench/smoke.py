#!/usr/bin/env python3
"""Smoke run of the benchmark at a tiny size.

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it runs one untraced and one traced
run and checks the result line: exactly the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a correct run; and every metric
that BENCHMARK.json names for that mode, printed with its unit.  It also
checks that every per-layer metric appears in ``layers.json``, and that
the benchmark exits non-zero, printing no result, in a directory that
holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_bench(cwd: Path, args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_problems(proc: subprocess.CompletedProcess, expected: dict[str, str]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        value = entry.get("value")
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r}, expected {unit!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
    return problems


def bare_checkout_problems() -> list[str]:
    """The benchmark must refuse to run without the library's sources."""
    bare = ROOT / ".perfbench_work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run_bench(bare, ["--workload", "wide", "--seed", "1", "--seconds", "1", "--trace", "0"])
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit code {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((HERE / "layers.json").read_text())
    groups = {0: "end_to_end", 1: "per_layer"}
    problems = []
    for workload in spec["workloads"]:
        for trace, group in groups.items():
            expected = {m["name"]: m["unit"] for m in spec[group]}
            args = ["--workload", workload["name"], "--seed", "1", "--seconds", "1",
                    "--trace", str(trace), "--trace-items", "4"]
            found = result_problems(run_bench(ROOT, args), expected)
            problems += [f"{workload['name']} trace={trace}: {p}" for p in found]
            print(f"{workload['name']:10s} trace={trace}: {'ok' if not found else 'FAILED'}")
    mapped = {name for entry in layer_map["layer_map"] for name in entry["metrics"]}
    problems += [f"{m['name']} missing from layers.json" for m in spec["per_layer"] if m["name"] not in mapped]
    problems += bare_checkout_problems()
    for problem in problems:
        print(f"problem: {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
