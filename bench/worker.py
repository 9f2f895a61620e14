"""Benchmark worker: one process, one thread, one workload.

Started by ``run.py``.  It imports ``brt`` from the checkout's ``src/``,
generates the workload's inputs, prints ``READY`` (the parent times set-up
up to that line), then runs the task batch in a closed loop with a single
caller until the measuring time is spent, checking every output.  The last
line it prints is a JSON summary for the parent.

Modes: ``setup`` stops after ``READY``; ``run`` measures (with ``--trace 1``
one untraced reference batch is followed by traced batches); ``golden``
runs the batch once and prints the output digests of tasks that pass their
semantic checks.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
GOLDEN = os.path.join(HERE, "golden.json")

sys.path.insert(0, SRC)

import brt  # noqa: E402

if not os.path.abspath(brt.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"brt imported from {brt.__file__}, not from {SRC}")

from brt import adversarial, cli, envelopes, reductions, structures, trees, valuation  # noqa: E402
from brt import io as bio  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

LAYER_MODULES = {"valuation": valuation, "trees": trees, "envelopes": envelopes,
                 "structures": structures, "reductions": reductions,
                 "adversarial": adversarial, "io": bio, "cli": cli}


def execute(task):
    """Run one task; returns (seconds, exit code, output text, stderr,
    exception, library result).

    Only the ``brt`` call itself is timed.  A library task's output text is
    the benchmark's rendering of the returned value, made after timing.
    """
    out, err = io.StringIO(), io.StringIO()
    rc, result, exc = None, None, None
    t0 = time.perf_counter()
    try:
        if task.argv is not None:
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(task.argv)
        else:
            result = task.call()
            rc = 0
    except Exception as e:  # an exception escaping the program is a failed task
        exc = e
    dt = time.perf_counter() - t0
    text = out.getvalue() if task.argv is not None else (
        task.render(result) if exc is None else "")
    return dt, rc, text, err.getvalue(), exc, result


class Runner:
    """Runs batches of one workload and judges every output."""

    def __init__(self, batch, golden: dict[str, str], seed: int):
        self.tasks = batch.tasks
        self.order = random.Random(seed)
        self.golden = golden
        self.digests: list[str | None] = [None] * len(self.tasks)
        self.verdicts: list[str | None] = [None] * len(self.tasks)
        self.checked: list[bool] = [False] * len(self.tasks)
        self.latencies: list[float] = []
        self.last: list[float] = [0.0] * len(self.tasks)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.golden_hits = 0
        self.execute = execute
        self.per_task: list = [None] * len(self.tasks)

    def judge(self, i: int, rc, text: str, err: str, exc, result) -> str | None:
        task = self.tasks[i]
        if exc is not None:
            return f"exception escaped main: {type(exc).__name__}: {exc}"
        if rc != task.expect:
            return f"exit {rc}, want {task.expect}: {err.strip()[:160]}"
        d = workloads.digest(text if task.expect == 0 else err)
        gold = self.golden.get(task.golden_key)
        if gold is not None and gold != d:
            return "output differs from the golden digest"
        if self.digests[i] is not None and self.digests[i] != d:
            return "output changed between repetitions"
        if not self.checked[i]:
            self.checked[i] = True
            self.golden_hits += gold is not None
            self.digests[i] = d
            if task.check is not None:
                self.verdicts[i] = task.check(text, err, result)
        return self.verdicts[i]

    def shuffled(self) -> list[int]:
        """A fresh seeded order of the task list.  Each pass runs the tasks
        in another order, so that every kind of task is timed all through
        the run and not only in one stretch of each pass."""
        order = list(range(len(self.tasks)))
        self.order.shuffle(order)
        return order

    def run(self, i: int, tracer=None) -> tuple[float, int]:
        """Run and judge task ``i``; returns (latency, stdout bytes).

        With a tracer, the task's latency and per-layer self time are kept
        in ``per_task`` for the size-sweep rows.
        """
        task = self.tasks[i]
        before = tracer.layer_self[:] if tracer else None
        dt, rc, text, err, exc, result = self.execute(task)
        if tracer:
            self.per_task[i] = (dt, [b - a for a, b in zip(before, tracer.layer_self)])
        self.latencies.append(dt)
        self.last[i] = dt
        self.attempted += 1
        verdict = self.judge(i, rc, text, err, exc, result)
        if verdict is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{task.name}: {verdict}")
        return dt, len(text.encode()) if task.argv is not None else 0

    def batch(self, tracer=None) -> tuple[float, int]:
        """One pass over the task list; returns (summed latency, stdout bytes)."""
        gc.collect()
        wall, stdout_bytes = 0.0, 0
        for i in self.shuffled():
            dt, nbytes = self.run(i, tracer)
            wall += dt
            stdout_bytes += nbytes
        return wall, stdout_bytes

    def fill(self, end: float) -> None:
        """Run tasks of one more pass, in its order, while the next one's
        last latency still ends before ``end``: latency samples for the
        rest of the measuring time.  Stopping at the first task that does
        not fit keeps the sampled tasks a random share of the list."""
        gc.collect()
        for i in self.shuffled():
            if time.perf_counter() + self.last[i] > end:
                return
            self.run(i)


def percentile(samples: list[float], q: int) -> float:
    """The q-th percentile (exclusive method) of the samples."""
    return statistics.quantiles(samples, n=100)[q - 1]


def summary(runner: Runner, walls: list[float], lat: list[float]) -> dict:
    p90 = percentile(lat, 90)
    return {"attempted": runner.attempted, "failed": runner.failed,
            "failures": runner.failures,
            "tasks": len(runner.tasks), "batches": len(walls),
            "golden_checked": runner.golden_hits,
            "wall_s": statistics.median(walls), "walls": walls,
            "task_p50_ms": 1e3 * statistics.median(lat),
            "task_p90_ms": 1e3 * p90,
            "samples": len(lat),
            "beyond_p90": sum(x > p90 for x in lat),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def repeat(batch, seconds: float, start: float) -> list:
    """Run ``batch`` once, then again while one more batch, judged by the
    summed latency of the last, still ends within ``seconds`` of ``start``."""
    results = []
    while True:
        results.append(batch())
        if time.perf_counter() + results[-1][0] - start > seconds:
            return results


def measure(runner: Runner, seconds: float) -> dict:
    start = time.perf_counter()
    walls = [wall for wall, _ in repeat(runner.batch, seconds, start)]
    runner.fill(start + seconds)
    return summary(runner, walls, runner.latencies)


def measure_traced(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    """An untraced reference batch, then traced batches for the rest of the
    measuring time.  Per-layer times are medians over the traced batches."""
    start = time.perf_counter()
    ref_wall, _ = runner.batch()
    ref_latency = runner.last[:]
    tracer = tracing.Tracer()
    tracer.install(LAYER_MODULES)
    runner.execute = tracer.wrap(execute, "bench.task", len(tracing.LAYERS))

    def traced_batch():
        tracer.reset()
        wall, stdout_bytes = runner.batch(tracer)
        return wall, tracer.metrics(stdout_bytes)

    try:
        runs = repeat(traced_batch, seconds, start)
    finally:
        runner.execute = execute
        tracer.uninstall()

    metrics = dict(runs[-1][1])
    for name, (_, unit) in runs[-1][1].items():
        if unit == "s":
            metrics[name] = (statistics.median(r[1][name][0] for r in runs), unit)
    traced_wall = statistics.median(r[0] for r in runs)
    metrics["trace.overhead_s"] = (traced_wall - ref_wall, "s")

    points: dict[str, dict] = {}
    for i, task in enumerate(runner.tasks):
        row = points.setdefault(task.point_key, {"point": task.point_key, "tasks": 0,
                                                 "time_s": 0.0, "traced_s": 0.0,
                                                 "self_s": dict.fromkeys(tracing.LAYERS, 0.0)})
        dt, layer_ns = runner.per_task[i]
        row["tasks"] += 1
        row["time_s"] += ref_latency[i]
        row["traced_s"] += dt
        for layer, ns in zip(tracing.LAYERS, layer_ns):
            row["self_s"][layer] += ns / 1e9
    report = {"workload": workload, "seed": seed, "untraced_wall_s": ref_wall,
              "traced_wall_s": traced_wall, "traced_batches": len(runs),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "points": sorted(points.values(), key=lambda r: r["point"])}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"trace-{workload}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    tracer.write(os.path.join(OUT, f"trace-{workload}.spans"),
                 {"workload": workload, "seed": seed})
    out = summary(runner, [ref_wall], ref_latency)
    out["per_layer"] = report["metrics"]
    out["points"] = report["points"]
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "run", "golden"), default="run")
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        batch = workloads.build(args.workload, args.seed, workdir)
        print("READY", flush=True)
        if args.mode == "setup":
            return 0
        golden = {}
        if args.mode == "run" and os.path.exists(GOLDEN):
            with open(GOLDEN, encoding="utf-8") as fh:
                golden = json.load(fh)["digests"]
        runner = Runner(batch, golden, args.seed)
        if args.mode == "golden":
            runner.batch()
            result = {"failures": runner.failures,
                      "digests": {t.golden_key: d for t, d in zip(batch.tasks, runner.digests)}}
        elif args.trace:
            result = measure_traced(runner, args.workload, args.seed, args.seconds)
        else:
            result = measure(runner, args.seconds)
        print(json.dumps(result, sort_keys=True), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
