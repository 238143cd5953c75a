#!/usr/bin/env python3
"""Benchmark for qest: closed-loop CLI workloads checked against classical oracles.

Run from the repository root:

    python3 perfbench/run.py --workload thermal_chain --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

One process runs one workload as a closed loop with one client: the next
task starts only when the previous one has finished, so no task ever waits
for another and waiting time is zero by construction. The program is built
from ``src/`` of the same checkout. One untimed warm-up task runs first;
every report is checked against the oracles after the timed loop. A short
calibration workload runs between calls and around each part of the set-up;
the gated time metrics divide each timed part by the calibration beside it,
so that the host's changing speed cancels.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced tasks and prints the per-layer metrics, including the
tracing overhead. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. ``--workload all`` runs every
workload in its own child process. ``--smoke`` shrinks every input for the
self-test.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("thermal_chain", "circuit_table", "chain_diagnostics")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Distinct task inputs per run; tasks cycle through them when a run is
# long enough to use them all. Entry 0 feeds the warm-up task.
N_INPUTS = 41
# Set-ups per run; setup_s is their median.
SETUP_REPEATS = 5
TAIL_BEYOND = 10

CALIBRATION_STEPS = 2400
CALIBRATION_FLOATS = 10000
CALIBRATION_PRODUCTS = 120
CALIBRATION_THREADED_PRODUCTS = 4
# The calibration parts that match the work of each workload and of the
# set-up (see calibrate). chain_diagnostics is dense algebra, much of it in
# multi-threaded BLAS and LAPACK, with almost no interpreter or text work.
CALIBRATION_PARTS = {
    "thermal_chain": ("loop", "text", "dense"),
    "circuit_table": ("loop", "text", "dense"),
    "chain_diagnostics": ("dense", "threaded"),
    "setup": ("loop", "text", "dense"),
}
# A timed part is divided by the median of this many calibration runs on
# each side of it: near enough to follow the host's speed, and enough of
# them that one odd calibration run does not move the result.
CALIBRATION_WINDOW = 5
# Seconds one calibration run takes at the reference speed (the machine of
# record when it is not slowed down); setup_s is reported at that speed.
CALIBRATION_REF_S = 0.02


def cap_blas_threads() -> int:
    """Cap BLAS threads at the processors this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)
    return min(int(os.environ[var]) for var in BLAS_THREAD_VARS)


def _qest_modules() -> dict:
    return {name: m for name, m in sys.modules.items() if name == "qest" or name.startswith("qest.")}


def setup(workload: str, seed: int, directory: Path, smoke: bool):
    """Import qest from this checkout and write the workload's inputs, timed.

    One set-up is a fresh import of every qest module (numpy and the standard
    library stay loaded) followed by writing the inputs one by one. It runs
    SETUP_REPEATS times; the last inputs are kept, and the first import's
    modules, which the benchmark's own code is bound to, are put back at the
    end. Like the calls of a task, the import and each input run between
    calibration runs and are scaled by in_calibrations.
    Returns (median set-up seconds at the reference speed, median wall
    seconds, tasks).
    """
    sys.path.insert(0, str(SRC))
    import qest
    import workloads

    if Path(qest.__file__).resolve().parent != (SRC / "qest").resolve():
        raise SystemExit(f"qest was imported from {qest.__file__}, not from {SRC}")
    bound = _qest_modules()
    calibration = CALIBRATION_PARTS["setup"]
    calibrate(calibration)
    cal = [calibrate(calibration)]
    parts, owner = [], []  # wall seconds of each timed part, and its set-up

    def part_done(seconds, k):
        parts.append(seconds)
        owner.append(k)
        cal.append(calibrate(calibration))

    for k in range(SETUP_REPEATS):
        for name in _qest_modules():
            del sys.modules[name]
        shutil.rmtree(directory, ignore_errors=True)
        start = time.perf_counter()
        for name in bound:
            importlib.import_module(name)
        part_done(time.perf_counter() - start, k)
        inputs = workloads.generate(workload, seed, directory, N_INPUTS, smoke)
        tasks = []
        for _ in range(N_INPUTS):
            start = time.perf_counter()
            tasks.append(next(inputs))
            part_done(time.perf_counter() - start, k)
    for name in _qest_modules():
        del sys.modules[name]
    sys.modules.update(bound)
    setup_cal, wall = [0.0] * SETUP_REPEATS, [0.0] * SETUP_REPEATS
    for k, seconds, scaled in zip(owner, parts, in_calibrations(parts, cal)):
        wall[k] += seconds
        setup_cal[k] += scaled
    return CALIBRATION_REF_S * statistics.median(setup_cal), statistics.median(wall), tasks


def machine_info(blas_threads: int) -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return (f"machine: nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas} blas_threads={blas_threads}")


def tail_stat(times):
    """Highest percentile with at least TAIL_BEYOND tasks beyond it.

    Returns (value, percentile label); falls back to the median when the
    run has too few tasks for any such percentile.
    """
    n = len(times)
    if n <= TAIL_BEYOND:
        return statistics.median(times), "p50 (too few tasks for a tail)"
    ordered = sorted(times)
    return ordered[n - TAIL_BEYOND - 1], f"p{100 * (n - TAIL_BEYOND) // n}"


def in_calibrations(seconds, cal):
    """Each timed part over the median calibration around it.

    Part j ran between cal[j] and cal[j + 1]; its window is the
    CALIBRATION_WINDOW calibration runs before it and as many after it.
    """
    w = CALIBRATION_WINDOW
    return [s / statistics.median(cal[max(0, j + 1 - w):j + 1 + w]) for j, s in enumerate(seconds)]


class Task:
    def __init__(self, tag, traced):
        self.tag = tag
        self.traced = traced
        self.results = []
        self.calls = []      # wall time of each of the task's CLI calls
        self.cal_units = 0.0  # the same calls in calibration units
        self.problems = []


def calibrate(parts) -> float:
    """Seconds the named parts of a fixed calibration workload take now.

    Each part is about 6 ms of one kind of work the benchmark does: "loop"
    is a Python loop over numpy scalars (the Metropolis chain), "text"
    encodes floats as JSON (the set-up and the reports), "dense" is a chain
    of small single-threaded complex matrix products and "threaded" a few
    large ones that BLAS spreads over its threads (the circuit's and the
    walk's dense algebra). It shares no code with qest, so only the host's
    speed moves it. Shared hosts change CPU speed by up to 2x within
    seconds, which moves every wall-time median with it; a time divided by
    the calibration next to it does not.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    mu = np.linspace(1.0, 2.0, 16)
    floats = rng.normal(size=CALIBRATION_FLOATS).tolist()
    state = rng.normal(size=(128, 64)) * (1 + 1j)
    step = rng.normal(size=(64, 64)) * (0.08 + 0.08j)
    big = rng.normal(size=(256, 256)) * (1 + 1j)
    x = 0
    start = time.perf_counter()
    if "loop" in parts:
        for _ in range(CALIBRATION_STEPS):
            y = x ^ (1 << int(rng.integers(0, 4)))
            if rng.random() < min(1.0, float(mu[y] / mu[x])):
                x = y
    if "text" in parts:
        json.dumps(floats)
    if "dense" in parts:
        for _ in range(CALIBRATION_PRODUCTS):
            state = state @ step
    if "threaded" in parts:
        for _ in range(CALIBRATION_THREADED_PRODUCTS):
            big @ big
    return time.perf_counter() - start


def run_loop(args, inputs, out_dir: Path, tracer, recorder):
    """Closed loop for args.seconds; a calibration run sits between calls."""
    import workloads

    min_tasks = 2 if tracer else 1
    parts = CALIBRATION_PARTS[args.workload]
    calibrate(parts)
    cal = [calibrate(parts)]
    tasks = []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or len(tasks) < min_tasks:
        i = len(tasks)
        task = Task(f"task{i}", tracer is not None and i % 2 == 1)
        if task.traced:
            recorder.task = i
            tracer.install()
        try:
            for j, call in enumerate(inputs[1 + i % (len(inputs) - 1)]):
                t0 = time.perf_counter()
                task.results.append(workloads.run_call(call, out_dir / f"{task.tag}-{j}.out"))
                task.calls.append(time.perf_counter() - t0)
                cal.append(calibrate(parts))
        finally:
            if task.traced:
                tracer.uninstall()
        tasks.append(task)
    scaled = iter(in_calibrations([s for task in tasks for s in task.calls], cal))
    for task in tasks:
        task.cal_units = sum(next(scaled) for _ in task.calls)
    return tasks, cal


def listed_units(trace: int) -> dict:
    """Name to unit of the metrics BENCHMARK.json lists for this mode."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def measure(args, tmp: Path, blas_threads: int):
    setup_s, setup_wall_s, inputs = setup(args.workload, args.seed, tmp / "inputs", args.smoke)

    import tracing
    import workloads

    print(machine_info(blas_threads))
    out_dir = tmp / "out"
    out_dir.mkdir()
    recorder = tracing.Recorder()
    tracer = tracing.Tracer(recorder) if args.trace else None
    warmup = Task("warmup", False)
    warmup.results = [workloads.run_call(call, out_dir / f"warmup-{j}.out")
                      for j, call in enumerate(inputs[0])]
    tasks, cal = run_loop(args, inputs, out_dir, tracer, recorder)

    for task in [warmup] + tasks:
        for result in task.results:
            task.problems += workloads.check(result)
        for problem in task.problems:
            print(f"FAIL {task.tag}: {problem}")
    n = len(tasks)
    failed = sum(1 for task in tasks if task.problems)
    w = args.workload
    report = [("failed_frac", failed / n, "ratio",
               f"{failed} of {n} tasks failed an exit code or oracle check")]

    if args.trace:
        traced = [t.cal_units for t in tasks if t.traced]
        plain = [t.cal_units for t in tasks if not t.traced]
        metrics = recorder.summary(len(traced))
        metrics["trace.tasks"] = len(traced)
        metrics["trace.overhead_ratio"] = statistics.mean(traced) / statistics.mean(plain)
        metrics["trace.overhead_frac"] = metrics["trace.overhead_ratio"] - 1
        units = dict(tracing.metric_specs())
        spans = ROOT / ".perfbench_out" / f"spans-{w}-seed{args.seed}.jsonl"
        recorder.dump(spans)
        print(f"{w} per-layer values are per traced task over {len(traced)} traced tasks "
              f"({len(plain)} untraced tasks interleaved); spans in {spans.relative_to(ROOT)}")
        rows = [(name, value, units[name], "") for name, value in metrics.items()]
    else:
        seconds = [sum(t.calls) for t in tasks]
        cal_units = [t.cal_units for t in tasks]
        tail_s, label = tail_stat(seconds)
        tail_cal, label_cal = tail_stat(cal_units)
        rows = [
            ("setup_s", setup_s, "s",
             f"median of {SETUP_REPEATS} set-ups (import qest, write the inputs) at the reference "
             f"speed of {CALIBRATION_REF_S} s per calibration"),
            ("setup_wall_s", setup_wall_s, "s", f"median of the same {SETUP_REPEATS} set-ups in wall time"),
            ("tasks_per_s", n / sum(seconds), "1/s", f"{n} tasks in {sum(seconds):.2f} s of task wall time"),
            ("task_s.p50", statistics.median(seconds), "s", f"n={n} tasks"),
            ("task_s.tail", tail_s, "s", f"{label}, n={n} tasks"),
            ("calibration_s", statistics.median(cal), "s",
             f"median of {len(cal)} calibration runs between the calls"),
            ("tasks_per_kcal", 1000 * n / sum(cal_units), "1/kcal", "tasks per 1000 calibration times"),
            ("task_cal.p50", statistics.median(cal_units), "cal",
             f"n={n} tasks, sum over calls of call time / median calibration around it"),
            ("task_cal.tail", tail_cal, "cal", f"{label_cal}, n={n} tasks"),
            ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
             "peak resident memory of this process"),
            ("wait_s", 0, "s", "one client in a closed loop: waiting is zero by construction"),
        ]
    report += rows
    for name, value, unit, note in report:
        print(f"{w} {name} {value!r} {unit}" + (f" ({note})" if note else ""))
    listed = listed_units(args.trace)
    metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in rows if name in listed}
    wrong = {name for name, unit in listed.items() if metrics.get(name, {}).get("unit") != unit}
    if wrong:
        raise SystemExit(f"BENCHMARK.json lists metrics this run did not produce as listed: {sorted(wrong)}")
    return {
        "correct": failed == 0 and not warmup.problems,
        "attempted": n,
        "failed": failed,
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Each workload in its own child process; the last line merges them."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(merged, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "qest" / "__init__.py").is_file():
        sys.stderr.write(f"error: no qest sources under {SRC}; run from a full checkout\n")
        return 2
    blas_threads = cap_blas_threads()
    if args.workload == "all":
        return run_all(args)

    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        result = measure(args, tmp, blas_threads)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
