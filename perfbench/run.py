"""Benchmark of the schwarzian library and CLI, run from outside ``src/``.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): ``decide``, ``reconstruct``, ``classify`` and
``cli``. Each is a closed loop with one client in its own process. The
amount of work is fixed by ``--seconds``: a run does as many input rounds
as took ``--seconds`` at the seed commit on a 2-core box (ROUND_S), so two
commits always time the same operations and the tail percentile means the
same on both.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` times one set of
rounds untraced, then the same inputs with spans around every public
library function, and prints per-layer calls, self time and work counts;
spans go to .perfbench_out/. Every operation's result is checked by an
independent oracle in both modes. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Seconds one input round took at the seed commit (2 cores, CPython 3.11.7,
# numpy 2.4.6). Fixed, so every later commit runs the same rounds.
ROUND_S = {"decide": 5.2, "reconstruct": 18.5, "classify": 0.0046, "cli": 5.0}
# Claims must also hold on the held-out seed in baseline.json.
DEFAULT_SEED = 20261017
# Rounds per trial where one run holds many: the metrics are then medians
# over trials. A 20 s classify run makes 44,000 sub-millisecond operations,
# whose p99.98 would time other processes on the machine, not the library.
TRIAL_ROUNDS = {"classify": 200}
SETUP_SPAWNS = 5
TAIL_BEYOND = 10
UNCHECKED = "unchecked"


@dataclass
class Spec:
    make_round: object
    op: object
    check: object


def load_library():
    if not (SRC / "schwarzian" / "__init__.py").is_file():
        sys.exit(f"error: no schwarzian package under {SRC}")
    sys.path.insert(0, str(SRC))
    import schwarzian

    if Path(schwarzian.__file__).resolve().parent != SRC / "schwarzian":
        sys.exit(f"error: imported schwarzian from {schwarzian.__file__}, not {SRC}")


def setup_seconds(env):
    """Median wall time of a fresh interpreter running ``import schwarzian``;
    one untimed spawn first fills the bytecode cache."""
    times = []
    for i in range(SETUP_SPAWNS + 1):
        t0 = time.perf_counter()
        # Captured pipes make the wait end at the child's exit; a bare wait
        # with a timeout polls in steps of up to 50 ms.
        subprocess.run([sys.executable, "-c", "import schwarzian"], env=env, cwd=ROOT,
                       check=True, timeout=120, capture_output=True)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def tail(times):
    """Value and percentile of the highest rank with TAIL_BEYOND samples above it."""
    ordered = sorted(times)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        return ordered[-1], 100.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def warm_up(op, inp):
    """One untimed operation: lazy imports and first-call set-up."""
    try:
        op(inp)
    except Exception:  # counted when the timed pass meets it
        pass


def run_pass(spec, seed_key, rounds, op, warm=False, tracer=None, on_result=None):
    """Make and run ``rounds`` input rounds; inputs are made between
    operations, outside the timed region. Returns op wall times and
    failure reasons; ``on_result(i, inp, res, seconds)`` sees each outcome."""
    import numpy as np

    rng = np.random.default_rng(seed_key)
    times, failures = [], []
    for _ in range(rounds):
        for inp in spec.make_round(rng):
            if warm:
                warm_up(op, inp)
                warm = False
            i = len(times)
            t0 = time.perf_counter()
            try:
                res = tracer.run_op(i, op, inp) if tracer else op(inp)
            except Exception as exc:  # the library's failure is the measurement
                res = exc
            times.append(time.perf_counter() - t0)
            try:
                why = spec.check(inp, res)
            except Exception as exc:  # the oracle could not judge this outcome
                why = f"{UNCHECKED}: {type(exc).__name__}: {exc}"
            if why is not None:
                failures.append(f"{inp.kind}: {why}")
            if on_result is not None:
                on_result(i, inp, res, times[-1])
    return times, failures


def failure_kinds(failures):
    """Counts of rejected valid inputs, wrong answers and unchecked outcomes."""
    import workloads

    kinds = [f.split(": ", 2)[1] for f in failures]
    rejected = kinds.count(workloads.REJECTED)
    unchecked = kinds.count(UNCHECKED)
    return rejected, len(kinds) - rejected - unchecked, unchecked


def metric(value, unit):
    return {"value": value, "unit": unit}


def report_failures(failures):
    for why in failures[:10]:
        print(f"  failed {why}", file=sys.stderr)
    if len(failures) > 10:
        print(f"  ... {len(failures) - 10} more failures", file=sys.stderr)


def cli_ops(env):
    """(plain op, traced op, spans file) for the cli workload."""
    import workloads

    spans = str(ROOT / ".perfbench_out" / f"child-spans-{os.getpid()}.npz")
    child_env = dict(env, PERFBENCH_SPANS=spans)

    def plain(inp):
        return workloads.cli_op(inp, workloads.cli_argv(inp, False, str(BENCH_DIR)), env, ROOT)

    def traced(inp):
        if os.path.exists(spans):
            os.unlink(spans)
        return workloads.cli_op(inp, workloads.cli_argv(inp, True, str(BENCH_DIR)),
                                child_env, ROOT)

    return plain, traced, spans


def print_metrics(metrics, notes=None):
    notes = notes or {}
    for key, m in metrics.items():
        print(f"{key} = {m['value']:.6g} {m['unit']}{notes.get(key, '')}")


def untraced(name, spec, seed_key, rounds, trial_rounds, env):
    import workloads

    setup = setup_seconds(env)
    op = cli_ops(env)[0] if name == "cli" else spec.op
    complete, by_command = [], {}

    def on_result(i, inp, res, seconds):
        if name == "reconstruct":
            done = workloads.fiber_complete(inp, res)
            if done is not None:
                complete.append(done)
        if name == "cli":
            by_command.setdefault(inp.command, []).append(seconds)

    times, failures = run_pass(spec, seed_key, rounds, op, warm=name != "cli",
                               on_result=on_result)
    n = len(times)
    per_trial = n // rounds * trial_rounds
    trials = [times[i:i + per_trial] for i in range(0, n, per_trial)]
    tails = [tail(t) for t in trials]
    usage = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    metrics = {
        "op_p50_ms": metric(statistics.median(map(statistics.median, trials)) * 1e3, "ms"),
        "op_tail_ms": metric(statistics.median(v for v, _ in tails) * 1e3, "ms"),
        # Time inside operations: input making and oracle checks between
        # operations are not the program's work.
        "throughput_ops_s": metric(statistics.median(len(t) / sum(t) for t in trials),
                                   "ops/s"),
        "setup_s": metric(setup, "s"),
        "peak_rss_mb": metric(resource.getrusage(usage).ru_maxrss / 1024.0, "MB"),
    }
    # Workload-specific end-to-end metrics; not every workload has them, so
    # they are printed here and kept out of the JSON line.
    extra = {"fail_frac": metric(len(failures) / n, "ratio")}
    if name == "reconstruct":
        extra["fiber_complete_frac"] = metric(sum(complete) / max(len(complete), 1), "ratio")
    for command, ts in sorted(by_command.items()):
        extra[f"cli.{command}_p50_ms"] = metric(statistics.median(ts) * 1e3, "ms")
    print_metrics(metrics, {"op_tail_ms": f"  (p{tails[0][1]:.2f}, {TAIL_BEYOND} samples "
                                          f"beyond, n={per_trial}; median of {len(trials)} "
                                          "trials)"})
    rejected, wrong, unchecked = failure_kinds(failures)
    print_metrics(extra, {"fail_frac": f"  ({len(failures)} of {n}: {rejected} valid inputs "
                                       f"rejected, {wrong} wrong answers, {unchecked} "
                                       "unchecked)"})
    report_failures(failures)
    return n, failures, metrics


def traced(name, spec, seed_key, rounds, env, seed):
    import tracing

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tracer = tracing.Tracer()
    on_result = None
    if name == "cli":
        plain_op, traced_op, spans = cli_ops(env)

        def on_result(i, inp, res, seconds):
            if os.path.exists(spans):
                tracer.absorb(spans, i, tracer.last_op_span)
                os.unlink(spans)
    else:
        plain_op = traced_op = spec.op

    plain_times, failures = run_pass(spec, seed_key, rounds, plain_op, warm=name != "cli")
    tracer.install()
    try:
        traced_times, traced_failures = run_pass(spec, seed_key, rounds, traced_op,
                                                 tracer=tracer, on_result=on_result)
    finally:
        tracer.uninstall()
    failures += traced_failures
    summary = tracer.summary()
    metrics = {key: metric(value, "ms" if key.endswith("_ms") else "count")
               for key, value in summary.items()}
    starts = summary["fiber.starts"]
    metrics["fiber.useful_start_ratio"] = metric(
        summary["fiber.solutions"] / starts if starts else 0.0, "ratio")
    metrics["fiber.jacobian_per_start"] = metric(
        summary["fiber.wronskian_jacobian.calls"] / starts if starts else 0.0, "ratio")
    layers = {}
    for fn in tracing.FUNCTIONS:
        mod = fn.split(".")[0]
        layers[mod] = layers.get(mod, 0.0) + summary[f"{fn}.self_ms"]
    for mod, ms in layers.items():
        metrics[f"layer.{mod}.self_ms"] = metric(ms, "ms")
    main_s = tracer.durations("cli.main")
    op_s = tracer.durations(tracing.OP)
    overhead = [(op_s[i] - main_s[i]) * 1e3 for i in main_s]
    metrics["cli.process_overhead_ms"] = metric(
        statistics.median(overhead) if overhead else 0.0, "ms")
    metrics["trace.overhead_frac"] = metric(sum(traced_times) / sum(plain_times) - 1, "ratio")
    tracer.save(out_dir / f"spans-{name}-seed{seed}.npz")

    print(f"self time per layer over {len(traced_times)} traced operations:")
    for mod, ms in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {mod:12s} {ms:12.3f} ms")
    print(f"  {'(outside)':12s} {summary['op.self_ms']:12.3f} ms")
    print_metrics(metrics)
    report_failures(failures)
    return len(plain_times) + len(traced_times), failures, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUND_S))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_library()
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    env = workloads.cli_env(str(SRC))
    spec = {
        "decide": Spec(workloads.decide_round, workloads.decide_op, workloads.decide_check),
        "reconstruct": Spec(workloads.reconstruct_round, workloads.reconstruct_op,
                            workloads.reconstruct_check),
        "classify": Spec(workloads.classify_round, workloads.classify_op,
                         workloads.classify_check),
        "cli": Spec(workloads.cli_round, None, workloads.cli_check),
    }[args.workload]
    # A traced run times its rounds twice, the second time at up to twice the cost.
    share = 3.0 if args.trace else 1.0
    trial_rounds = TRIAL_ROUNDS.get(args.workload)
    if trial_rounds:
        rounds = trial_rounds * max(
            1, round(args.seconds / (share * ROUND_S[args.workload] * trial_rounds)))
    else:
        rounds = trial_rounds = max(1, round(args.seconds / (share * ROUND_S[args.workload])))
    seed_key = [args.seed, sorted(ROUND_S).index(args.workload)]
    print(f"workload {args.workload}  seed {args.seed}  rounds {rounds}  trace {args.trace}")
    if args.trace:
        attempted, failures, metrics = traced(args.workload, spec, seed_key, rounds, env,
                                              args.seed)
    else:
        attempted, failures, metrics = untraced(args.workload, spec, seed_key, rounds,
                                                trial_rounds, env)
    # Rejected valid inputs and wrong answers are failed operations, the
    # numerator of fail_frac; "correct" holds when the oracles judged every
    # outcome, so that count is complete.
    print(json.dumps({"correct": failure_kinds(failures)[2] == 0, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
