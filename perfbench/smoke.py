"""Smoke test of the benchmark: two traced runs with the same seed must
report the same work counts, and the layer a workload is built to stress
must carry the most self time.

    python3 perfbench/smoke.py [workload ...]     # default: all four

Takes about two and a half minutes on 2 cores. Exits 1 on the first
mismatch.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("decide", "reconstruct", "classify", "cli")
# Layer expected to dominate self time in the traced run.
DOMINANT = {"decide": "quaddiff", "reconstruct": "fiber"}


def traced_run(workload, seed):
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=BENCH_DIR.parent, capture_output=True, text=True, check=True, timeout=600)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(workloads):
    for workload in workloads:
        first, second = traced_run(workload, 7), traced_run(workload, 7)
        counts = {k: m["value"] for k, m in first["metrics"].items() if m["unit"] == "count"}
        again = {k: m["value"] for k, m in second["metrics"].items() if m["unit"] == "count"}
        differ = sorted(k for k in counts if counts[k] != again.get(k))
        if differ or (first["attempted"], first["failed"]) != (second["attempted"],
                                                               second["failed"]):
            sys.exit(f"{workload}: counts differ between same-seed runs: {differ}")
        layers = {k: m["value"] for k, m in first["metrics"].items()
                  if k.startswith("layer.")}
        if not any(layers.values()):
            sys.exit(f"{workload}: the traced run recorded no spans")
        top = max(layers, key=layers.get).split(".")[1]
        if workload in DOMINANT and top != DOMINANT[workload]:
            sys.exit(f"{workload}: {top} dominates self time, expected {DOMINANT[workload]}")
        print(f"{workload}: {len(counts)} counts repeat exactly; top layer {top}")


if __name__ == "__main__":
    main(sys.argv[1:] or WORKLOADS)
