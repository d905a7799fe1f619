#!/usr/bin/env python3
"""Determinism check: two traced runs with the same seed agree exactly.

    python3 perfbench/check_determinism.py

For every workload it makes two traced runs at the default seed and
compares every count (``.calls``, ``.subsets``, ``.mults``, ``.bytes``,
``fiber.*``, ``max_entry_bits``, ``z0_attempts``) and the output digest.
Digests are printed for the record, not compared with stored values,
because a change to the sampler legitimately changes campaign bytes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT = ("exact_linalg.max_entry_bits", "amplituhedron_map.z0_attempts")


def is_count(name: str) -> bool:
    if name.endswith(".self_s"):
        return False
    return name.endswith((".calls", ".subsets", ".mults", ".bytes")) or name.startswith("fiber.") or name in EXACT


def traced_run(workload: str) -> tuple[dict, str]:
    args = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--trace", "1"]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    context = json.loads(next(line for line in lines if line.startswith("context "))[len("context "):])
    metrics = json.loads(lines[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if is_count(k)}, context["digest"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    mismatches = 0
    for workload in (w["name"] for w in spec["workloads"]):
        counts_a, digest_a = traced_run(workload)
        counts_b, digest_b = traced_run(workload)
        differing = sorted(k for k in counts_a.keys() | counts_b.keys() if counts_a.get(k) != counts_b.get(k))
        if digest_a != digest_b:
            differing.append("digest")
        mismatches += len(differing)
        print(f"{workload:10s} counts={len(counts_a)} digest={digest_a} "
              + ("identical" if not differing else f"DIFFER: {differing}"), flush=True)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
