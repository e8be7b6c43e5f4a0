"""Closed-loop run of one workload: set-up, timed ops, checks, metrics.

One client issues ops back to back; each op starts only after the previous
one finished and was checked.  Input generation and checks run outside the
timed window.  With tracing on, every second op runs with the tracer
installed: the per-layer numbers come from those ops and the untraced ops
give the tracing overhead.

The speed of a shared machine drifts by up to 2x over seconds to minutes.
A fixed reference task is therefore timed before set-up and after every
set-up run and op, and each measured time is scaled by ``REFERENCE_MS``
over the median reference time around it: the bounded metrics are times at
a fixed machine speed.  The record keeps the unscaled values beside them.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import time
from pathlib import Path

import numpy as np

import layertrace

SETUP_RUNS = 9
WARMUP_OPS = 1  # checked and counted, but left out of the op-time statistics
TAIL_GRID = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10
MAX_FAILURES_KEPT = 5
# Median time of ``reference_task`` on the machine that defined the
# benchmark (2 shared vCPUs, Python 3.11, numpy 2.x); scaled times are
# times at that speed.
REFERENCE_MS = 3.8
# Reference marks on each side of an interval that set its speed.
SPEED_WINDOW = 4

# (name, unit, better); the benchmark's end-to-end metrics.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
)

# Reported next to the end-to-end metrics but not bounded: fail_frac is 0
# at a correct commit and test_acc exists only on the training workloads.
RECORDED = {
    "fail_frac": ("ratio", "lower"),
    "test_acc": ("ratio", "higher"),
}

# (name, unit, better); the per-layer metrics of a traced run.
PER_LAYER = tuple((name, unit, "lower") for name, unit in layertrace.REPORTED) + (
    ("trace.spans", "count", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
)


def reference_task() -> float:
    """Fixed work of the ops' kind: an interpreter loop, small and mid-sized numpy calls."""
    total = 0
    for k in range(15_000):
        total += k * k % 7
    block = np.full((4, 4), 0.25)
    for _ in range(150):
        block = 0.5 * (block @ block) + 0.1
    rows = np.arange(2_000) * 7 % 1_000
    x = np.linspace(0.0, 1.0, 16_000).reshape(1_000, 16)
    for _ in range(3):
        y = np.tanh(x[rows] @ block.repeat(4, 0).repeat(4, 1))
        x = np.zeros_like(x)
        np.add.at(x, rows, y * 0.5)
    return total + float(x.sum())


def reference_ms() -> float:
    start = time.perf_counter()
    reference_task()
    return (time.perf_counter() - start) * 1e3


class SpeedScale:
    """Machine speed around each timed interval, from reference-task marks.

    A mark is taken before the first interval and after every interval, so
    interval ``j`` lies between marks ``j`` and ``j + 1``.  Its factor is
    ``REFERENCE_MS`` over the median of the ``SPEED_WINDOW`` marks on each
    side of it, which scales its time to the speed ``REFERENCE_MS`` stands
    for.
    """

    def __init__(self):
        self.marks = [reference_ms()]

    def mark(self) -> int:
        """Time the reference task after an interval; return the interval's index."""
        self.marks.append(reference_ms())
        return len(self.marks) - 2

    def factor(self, interval: int) -> float:
        lo = max(0, interval + 1 - SPEED_WINDOW)
        return REFERENCE_MS / statistics.median(self.marks[lo:interval + 1 + SPEED_WINDOW])


def tail(times_ms: list[float], pct: float) -> tuple[float, float, int]:
    """``(percentile, value, samples beyond)`` for the workload's tail percentile.

    The workload fixes ``pct`` so that runs of different speed compare the
    same percentile.  When fewer than ``MIN_BEYOND`` samples lie beyond it,
    the highest grid percentile that has them is used instead (the maximum
    when none has).
    """
    arr = np.asarray(times_ms)
    for p in [pct] + [g for g in reversed(TAIL_GRID) if g < pct]:
        value = float(np.percentile(arr, p))
        beyond = int(np.sum(arr > value))
        if beyond >= MIN_BEYOND:
            return p, value, beyond
    return 100.0, float(arr.max()), 0


def git_sha(root: Path) -> str | None:
    """Commit of a git checkout, read from its files; ``None`` outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def environment(root: Path, seed: int, trace: bool) -> dict:
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")) or None,
        "nproc": os.cpu_count(),
        "seed": seed,
        "trace": trace,
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run(workload, seed: int, seconds: float, trace: bool, root: Path, out_dir: Path) -> dict:
    """Run one workload for ``seconds`` of op loop; return the full record."""
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = layertrace.Tracer() if trace else None

    speed = SpeedScale()
    setup_raw, setup_ops = [], []  # (seconds, interval)
    for r in range(SETUP_RUNS):
        gc.collect()
        start = time.perf_counter()
        if tracer:
            setup_ops.append(-1 - r)
            with tracer.root("bench.setup", -1 - r):
                state = workload.setup(seed, out_dir)
        else:
            state = workload.setup(seed, out_dir)
        setup_raw.append((time.perf_counter() - start, speed.mark()))

    raw_ms = {False: [], True: []}  # (ms, interval)
    traced_ops, failures, quality = [], [], {}
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    # a traced run needs one traced and one untraced op after the warm-up
    min_ops = WARMUP_OPS + (2 if tracer else 1)
    while time.perf_counter() < deadline or attempted < min_ops:
        i = attempted
        inp = workload.make_input(state, seed, i)
        traced = bool(tracer) and i % 2 == 1
        if tracer:
            tracer.counts[i]["hypergraph.incidences"] = workload.incidences(state, inp)
        gc.collect()
        start = time.perf_counter()
        try:
            if traced:
                with tracer.root("bench.op", i):
                    output = workload.op(state, inp)
            else:
                output = workload.op(state, inp)
            elapsed = time.perf_counter() - start
            interval = speed.mark()
            problems = workload.check(state, inp, output)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            elapsed = time.perf_counter() - start
            interval = speed.mark()
            output, problems = None, [f"{type(exc).__name__}: {exc}"]
        attempted += 1
        if i >= WARMUP_OPS:
            raw_ms[traced].append((elapsed * 1e3, interval))
        if traced:
            traced_ops.append(i)
        if problems:
            failed += 1
            failures.extend(f"op {i}: {p}" for p in problems[:MAX_FAILURES_KEPT])
            dump = getattr(output, "instance_dump", None)
            if dump:
                (out_dir / f"failed-{workload.name}-seed{seed}-op{i}.txt").write_text(dump + "\n")
        elif output is not None:
            for key, value in workload.quality(output).items():
                quality.setdefault(key, []).append(value)
        del output

    setup_times = [t * speed.factor(j) for t, j in setup_raw]
    times = {k: [t * speed.factor(j) for t, j in v] for k, v in raw_ms.items()}
    untraced, unscaled = times[False], [t for t, _ in raw_ms[False]]
    pct, tail_ms, beyond = tail(untraced, workload.tail_pct)
    values = {
        "setup_s": statistics.median(setup_times),
        "op_p50_ms": statistics.median(untraced),
        "op_tail_ms": tail_ms,
        "ops_per_s": len(untraced) / (sum(untraced) / 1e3),
        "peak_rss_mb": peak_rss_mib(),
        "fail_frac": failed / attempted,
        **{key: float(np.mean(v)) for key, v in quality.items()},
    }
    units = {name: (unit, better) for name, unit, better in END_TO_END} | RECORDED
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "environment": environment(root, seed, trace),
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:MAX_FAILURES_KEPT],
        "end_to_end": {
            name: {"value": value, "unit": units[name][0], "better": units[name][1]}
            for name, value in values.items()
        },
        "op_tail": {"percentile": pct, "samples_beyond": beyond, "samples": len(untraced)},
        "setup_runs": setup_times,
        "unscaled": {
            "setup_s": statistics.median(t for t, _ in setup_raw),
            "op_p50_ms": statistics.median(unscaled),
            "op_tail_ms": float(np.percentile(unscaled, pct)),
            "ops_per_s": len(unscaled) / (sum(unscaled) / 1e3),
        },
        "reference_ms": {"nominal": REFERENCE_MS, "median": statistics.median(speed.marks),
                         "min": min(speed.marks), "max": max(speed.marks), "marks": len(speed.marks)},
    }
    if tracer:
        layers = layertrace.layer_metrics(tracer, setup_ops, traced_ops)
        traced_set = set(traced_ops)
        layers["trace.spans"] = sum(1 for s in tracer.spans if s[4] in traced_set) / len(traced_ops)
        layers["trace.overhead_ms"] = statistics.median(times[True]) - values["op_p50_ms"]
        units = {name: (unit, better) for name, unit, better in PER_LAYER}
        record["per_layer"] = {
            name: {"value": layers[name], "unit": units[name][0], "better": units[name][1]}
            for name, *_ in PER_LAYER
        }
        record["missing_targets"] = tracer.missing
        record["traced_ops"] = len(traced_ops)
        with open(out_dir / f"spans-{workload.name}-seed{seed}.jsonl", "w") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "op"]) + "\n")
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    return record


def result_line(record: dict, trace: bool) -> dict:
    """The one-line result: every end-to-end metric, or every per-layer metric when traced."""
    names = PER_LAYER if trace else END_TO_END
    source = record["per_layer" if trace else "end_to_end"]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": source[name]["value"], "unit": unit} for name, unit, _better in names
        },
    }
