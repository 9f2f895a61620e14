"""The brt benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from the checkout this file sits in and prints, as the
last line of stdout, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones (``wall_s``, ``task_p50_ms``, ``task_p90_ms``, ``setup_s``,
``peak_rss_mb``); with ``--trace 1`` they are the per-layer ones.  A
readable report, ``error_frac`` included, goes to stderr.

Set-up (interpreter start, ``brt`` import, input generation) is timed from
this process: it starts ``SETUP_RUNS`` worker processes, each timed up to
its ``READY`` line, and reports the median.  The last of them measures.

Other entry points:
    --workload all      every workload in turn, with a summary table
    --tier1             wall time of the tier-1 test suite (informational)
    --record-golden     record the output digests in bench/golden.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
GOLDEN = os.path.join(HERE, "golden.json")

WORKLOADS = ("envelope-tree", "degree-prefix")
DEFAULT_SEED = 1
HELD_BACK_SEED = 7919   # kept out of tuning; validates later speed claims
SETUP_RUNS = 7
DEADLINE_S = 170.0

END_TO_END = {"wall_s": "s", "task_p50_ms": "ms", "task_p90_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    pass


def spawn(args: list[str], deadline: float, hash_seed: str = "0") -> tuple[float, str]:
    """Start a worker, time it up to its READY line, and collect its output.

    The hash seed is fixed so that set and dict orders, and with them the
    timings, repeat from run to run; outputs must not depend on it (the
    golden recording checks that under several seeds).
    """
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER] + args, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "READY" or proc.returncode != 0:
        raise WorkerError(f"worker {' '.join(args)} failed (exit {proc.returncode})")
    return setup, rest


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> dict:
    base = ["--workload", workload, "--seed", str(seed)]
    setups = [spawn(base + ["--mode", "setup"], deadline)[0] for _ in range(SETUP_RUNS - 1)]
    setup, out = spawn(base + ["--mode", "run", "--seconds", str(seconds),
                               "--trace", str(trace)], deadline)
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = statistics.median(setups + [setup])
    return result


def metrics_of(result: dict, trace: int) -> dict:
    if trace:
        return result["per_layer"]
    return {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END.items()}


def report(workload: str, seed: int, result: dict, trace: int) -> None:
    w = sys.stderr.write
    error_frac = result["failed"] / result["attempted"]
    w(f"workload {workload} seed {seed}: {result['tasks']} tasks x {result['batches']} "
      f"batches, {result['samples']} latency samples ({result['beyond_p90']} beyond p90), "
      f"{result['golden_checked']} tasks checked against golden digests\n")
    for name, m in metrics_of(result, 0).items():
        w(f"  {name:<14} {m['value']:>12.4f} {m['unit']}\n")
    w(f"  {'error_frac':<14} {error_frac:>12.4f} ratio "
      f"({result['failed']} of {result['attempted']} tasks failed)\n")
    for line in result["failures"]:
        w(f"  FAIL {line}\n")
    if trace:
        for name, m in result["per_layer"].items():
            w(f"  {name:<30} {m['value']:>14.4f} {m['unit']}\n")
        w("  size sweep (point: tasks, untraced s, traced s, top self-time layers)\n")
        for row in result["points"]:
            top = sorted(row["self_s"].items(), key=lambda kv: -kv[1])[:3]
            w(f"    {row['point']:<44} {row['tasks']:>4} {row['time_s']:>8.3f} "
              f"{row['traced_s']:>8.3f}  " + " ".join(f"{k}={v:.3f}" for k, v in top) + "\n")


def final_result(result: dict, trace: int) -> dict:
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics_of(result, trace)}


def tier1() -> int:
    """Time the tier-1 suite once; the figure is informational, not gated."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    print(json.dumps({"tier1_wall_s": wall, "exit": proc.returncode, "summary": tail}))
    return 0


def record_golden(seeds: list[int]) -> int:
    """Record each task's output digest for the given seeds.  The first seed
    also runs under a second hash seed; a task whose output depends on the
    hash seed or fails its semantic check stops the recording."""
    digests: dict[str, str] = {}
    deadline = time.monotonic() + 3600 * len(seeds)
    for workload in WORKLOADS:
        for seed in seeds:
            seen = []
            for hash_seed in ("1", "2") if seed == seeds[0] else ("1",):
                _, out = spawn(["--workload", workload, "--seed", str(seed), "--mode", "golden"],
                               deadline, hash_seed)
                result = json.loads(out.strip().splitlines()[-1])
                if result["failures"]:
                    sys.stderr.write("\n".join(result["failures"]) + "\n")
                    return 1
                seen.append(result["digests"])
            if any(s != seen[0] for s in seen):
                sys.stderr.write(f"{workload} seed {seed}: output depends on the hash seed\n")
                return 1
            digests.update(seen[0])
            sys.stderr.write(f"{workload} seed {seed}: {len(seen[0])} tasks\n")
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"seeds": seeds, "digests": dict(sorted(digests.items()))}, fh, indent=0)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="brt benchmark")
    p.add_argument("--workload", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"workload seed (default {DEFAULT_SEED}; {HELD_BACK_SEED} is held back "
                        "for validating later speed claims)")
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tier1", action="store_true")
    p.add_argument("--record-golden", metavar="SEEDS",
                   help="comma-separated seeds to record digests for")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "brt", "cli.py")):
        sys.stderr.write(f"bench: no brt sources under {os.path.join(ROOT, 'src')}\n")
        return 2
    if args.tier1:
        return tier1()
    if args.record_golden:
        return record_golden([int(s) for s in args.record_golden.split(",")])
    if args.workload is None:
        p.error("--workload is required")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace,
                                         time.monotonic() + DEADLINE_S)
            report(name, args.seed, results[name], args.trace)
    except WorkerError as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 1
    final = {name: final_result(r, args.trace) for name, r in results.items()}
    print(json.dumps(final if args.workload == "all" else final[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
