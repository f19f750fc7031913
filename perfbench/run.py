"""qpmkit benchmark: four seeded workloads through the public API, checked by oracles.

    python3 perfbench/run.py --workload {sweep,operator,trajectory,cli} \\
        --seed N --seconds S --trace {0,1}

The package is imported from ``src/`` of the checkout this file sits in.
``--trace 0`` prints the end-to-end metrics of a timed run; ``--trace 1``
runs the tasks once plain and once with spans around qpmkit's public
functions, and prints the per-layer metrics.  The last line of stdout is
the result object; the line before it stamps the run (versions, seed,
thread counts, tail percentile, per-task word digests, failures).
"""

from __future__ import annotations

import os

# one BLAS thread, fixed before numpy loads, so one process keeps to one core
# of a two-core machine and the set-up subprocesses inherit the same setting
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(ROOT, "tests", "fixtures")
OUT = os.path.join(ROOT, ".perfbench")

# Whole cycles of a workload's task list make a run, so every commit
# measures the same tasks.  The count is --seconds over the cycle's
# nominal length (its typical wall time on a shared 2-core x86 host,
# Python 3.11, numpy 2.4), and a run stops early after
# SAFETY_FACTOR * --seconds on a much slower machine.
NOMINAL_CYCLE_S = {"sweep": 2.9, "operator": 4.9, "trajectory": 3.8, "cli": 0.6}
SAFETY_FACTOR = 2
SETUP_REPEATS = 5

# On a shared host the same code runs at two speeds about 1.8x apart,
# switching every few tens of milliseconds as other tenants' work comes
# and goes, and the share of slow time drifts over minutes, moving whole
# runs by up to ~25%.  While the timed loop runs, a timer signal every
# PROBE_EVERY_S runs a short fixed kernel that does not touch qpmkit; its
# time is taken off the task it interrupts.  Each task's time is scaled by
# PROBE_REF_S over the kernel's mean time within PROBE_WINDOW_S of the
# task, so timings read as seconds at the speed at which the kernel takes
# PROBE_REF_S.  Set-up runs are scaled by SETUP_PROBES kernel runs after
# each.  Raw wall times are in the stamp.
PROBE_EVERY_S = 0.02
PROBE_WINDOW_S = 0.5
PROBE_REF_S = 4.5e-4
SETUP_PROBES = 20

SETUP_CHILD = """
import json, sys, time
started = time.perf_counter()
import qpmkit
spec = json.loads(sys.argv[1])
for path in spec["valid"]:
    qpmkit.load_model(path)
for path in spec["invalid"]:
    if not qpmkit.load_model_report(path)[2]:
        sys.exit(f"{path} loaded without violations")
print(time.perf_counter() - started)
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qpmkit", "__init__.py")):
        print(f"error: no qpmkit sources under {SRC}", file=sys.stderr)
        return 2
    if not os.path.isdir(FIXTURES):
        print(f"error: no fixtures under {FIXTURES}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import qpmkit
    import qpmkit.cli  # noqa: F401  (not imported by the package itself)

    import gen
    import oracles
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 64
    if not os.path.dirname(os.path.abspath(qpmkit.__file__)).startswith(SRC):
        print(f"error: imported qpmkit from {qpmkit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = workloads.prepare(args.workload, workdir, args.seed, FIXTURES)
        setup_s = None if args.trace else _setup_seconds(workload)
        tasks = workload.build(qpmkit)
        self_check_ok = _self_check(gen, oracles, workloads)
        if args.trace:
            result, stamp_extra = _traced(qpmkit, workloads, workload, tasks, args)
        else:
            result, stamp_extra = _timed(workloads, tasks, args, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["correct"] = bool(result["correct"] and self_check_ok)
    stamp = _stamp(args, qpmkit)
    stamp.update(stamp_extra)
    stamp["oracle_self_check"] = self_check_ok
    print(json.dumps({"stamp": stamp}, sort_keys=True))
    print(json.dumps(result))
    return 0


# --------------------------------------------------------------------------


def _setup_seconds(workload) -> tuple[float, float]:
    """Median over fresh interpreters of import qpmkit plus loading every input file.

    Returns the median scaled by the speed probes taken after each
    interpreter, and the raw median.
    """
    spec = json.dumps({"valid": workload.files, "invalid": workload.invalid})
    env = dict(os.environ, PYTHONPATH=SRC)
    times, probes = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_CHILD, spec], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up run failed: {done.stderr.strip()[-500:]}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
        for _ in range(SETUP_PROBES):
            time.sleep(PROBE_EVERY_S / 5)
            probes.append(_probe())
    scale = PROBE_REF_S / statistics.fmean(probes)
    return statistics.median(times) * scale, statistics.median(times)


def _self_check(gen, oracles, workloads) -> bool:
    """One perturbed value fed to the Hankel comparison must fail it."""
    hmm = gen.random_hmm(np.random.default_rng(0), 3, 2)
    want = oracles.hmm_hankel(hmm, 2, 2)
    got = want.copy()
    got[2, 3] *= 1 + 1e-9
    ctx = workloads.Ctx()
    ctx.check("process", oracles.max_abs_err(want, want), 1e-12, "self-check, unperturbed")
    try:
        ctx.check("process", oracles.max_abs_err(got, want), 1e-12, "self-check, perturbed")
    except workloads.Failure:
        return True
    return False


PROBE_MATRIX = np.random.default_rng(12345).random((12, 12)) + 6.0 * np.eye(12)


def _probe() -> float:
    """Seconds one fixed mix of interpreter work and small dense solves takes."""
    started = time.perf_counter()
    table: dict[int, float] = {}
    for i in range(400):
        key = i % 37
        table[key] = table.get(key, 0.0) + i * 0.5
    vector = np.ones(12)
    for _ in range(16):
        vector = np.linalg.solve(PROBE_MATRIX, vector)
        vector = vector / np.abs(vector).sum()
    return time.perf_counter() - started


def _run_cycle(workloads, tasks, ctx, spans, outcomes, tracer=None) -> None:
    """Runs each task once, recording its start and end time and its outcome."""
    for task in tasks:
        if tracer is not None:
            tracer.task += 1
        started = time.perf_counter()
        try:
            task.run(ctx)
            kind = None
        except workloads.Failure as exc:
            kind, detail = exc.kind, str(exc)
        except Exception as exc:  # a task boundary: record the failure and go on
            kind, detail = type(exc).__name__, traceback.format_exception_only(exc)[-1].strip()
        spans.append((started, time.perf_counter()))
        outcomes.append((task.name, kind, None if kind is None else detail))


class SpeedSampler:
    """Runs the speed probe on a wall-clock timer signal every PROBE_EVERY_S.

    The handler runs between two bytecodes of whatever task is running, so
    the samples fall evenly over the timed loop.
    """

    def __init__(self):
        self.at: list[float] = []  # when each probe started
        self.samples: list[float] = []  # how long it took
        self.spent = 0.0  # time in the handler

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        self.at.append(started)
        self.samples.append(_probe())
        self.spent += time.perf_counter() - started

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def task_times(self, spans) -> tuple[list[float], list[float]]:
        """Each task's time less the probes inside it, raw and scaled.

        The scale is PROBE_REF_S over the mean probe time from
        PROBE_WINDOW_S before the task to PROBE_WINDOW_S after it.
        """
        sums = list(itertools.accumulate(self.samples, initial=0.0))
        raw, scaled = [], []
        for started, ended in spans:
            lo = bisect.bisect_left(self.at, started)
            hi = bisect.bisect_left(self.at, ended)
            seconds = ended - started - sum(min(at + probe, ended) - at for at, probe
                                            in zip(self.at[lo:hi], self.samples[lo:hi]))
            lo = bisect.bisect_left(self.at, started - PROBE_WINDOW_S)
            hi = bisect.bisect_right(self.at, ended + PROBE_WINDOW_S)
            if hi == lo:
                lo, hi = 0, len(self.samples)
            raw.append(seconds)
            scaled.append(seconds * PROBE_REF_S * (hi - lo) / (sums[hi] - sums[lo]))
        return raw, scaled


def _summary(workloads, outcomes) -> tuple[dict, dict]:
    failures = {}
    for name, kind, detail in outcomes:
        if kind is not None:
            failures.setdefault(name, {"kind": kind, "detail": detail[:300], "count": 0})
            failures[name]["count"] += 1
    unexpected = sorted(n for n, f in failures.items() if f["kind"] not in workloads.KNOWN_DEFECTS)
    result = {
        "correct": not unexpected,
        "attempted": len(outcomes),
        "failed": sum(1 for _, kind, _ in outcomes if kind is not None),
    }
    return result, {"failures": failures, "unexpected_failures": unexpected}


def _timed(workloads, tasks, args, setup_s):
    cycles = max(1, round(args.seconds / NOMINAL_CYCLE_S[args.workload]))
    # A CLI user's process is short-lived; this one keeps modules, models
    # and oracle answers for the whole run.  Freezing them keeps full
    # collector passes, which would walk all of them, off the task times.
    gc.collect()
    gc.freeze()
    ctx = workloads.Ctx()
    spans: list[tuple[float, float]] = []
    outcomes: list = []
    _run_cycle(workloads, tasks, workloads.Ctx(), [], [])  # warm-up, untimed
    started = time.perf_counter()
    cycle_walls = []
    with SpeedSampler() as sampler:
        for _ in range(cycles):
            cycle_started = time.perf_counter()
            _run_cycle(workloads, tasks, ctx, spans, outcomes)
            cycle_walls.append(time.perf_counter() - cycle_started)
            if time.perf_counter() - started > SAFETY_FACTOR * args.seconds:
                break
    wall = time.perf_counter() - started - sampler.spent
    raw, latencies = sampler.task_times(spans)
    result, extra = _summary(workloads, outcomes)
    ordered = sorted(latencies)
    n = len(ordered)
    # highest percentile with at least ten tasks above it
    tail_index = n - 11 if n > 10 else n - 1
    passed = result["attempted"] - result["failed"]
    result["metrics"] = {
        "setup_s": {"value": setup_s[0], "unit": "s"},
        "tasks_per_s": {"value": passed / sum(latencies), "unit": "1/s"},
        "task_p50_s": {"value": statistics.median(latencies), "unit": "s"},
        "task_tail_s": {"value": ordered[tail_index], "unit": "s"},
        "correct_ratio": {"value": passed / result["attempted"], "unit": "ratio"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }
    per_task: dict[str, list[float]] = {}
    for (name, _, _), latency in zip(outcomes, latencies):
        per_task.setdefault(name, []).append(latency)
    raw_sorted = sorted(raw)
    extra.update({
        "cycles": cycles, "tasks_per_cycle": len(tasks), "timed_wall_s": wall,
        "raw_setup_s": setup_s[1], "raw_tasks_per_s": passed / wall,
        "raw_task_p50_s": statistics.median(raw), "raw_task_tail_s": raw_sorted[tail_index],
        "probes": len(sampler.samples), "probe_mean_s": statistics.fmean(sampler.samples),
        "probe_spent_s": sampler.spent,
        "task_median_s": {name: statistics.median(v) for name, v in per_task.items()},
        "task_min_s": {name: min(v) for name, v in per_task.items()},
        "cycle_walls_s": cycle_walls,
        "cycle_scaled_s": [sum(latencies[i:i + len(tasks)])
                           for i in range(0, len(latencies), len(tasks))],
        "task_tail_percentile": 100.0 * (tail_index + 1) / n, "task_tail_samples": n,
        "failed_ratio": result["failed"] / result["attempted"],
        "word_digests": ctx.digests, "max_err": ctx.max_err, "counters": ctx.counters,
    })
    return result, extra


def _traced(qpmkit, workloads, workload, tasks, args):
    import tracing

    _run_cycle(workloads, tasks, workloads.Ctx(), [], [])  # warm-up, so both timed cycles run warm
    plain_started = time.perf_counter()
    _run_cycle(workloads, tasks, workloads.Ctx(), [], [])
    plain_wall = time.perf_counter() - plain_started

    tracer = tracing.Tracer()
    tracer.install(qpmkit)
    ctx = workloads.Ctx()
    outcomes: list = []
    try:
        for path in workload.files:
            qpmkit.load_model(path)
        for path in workload.invalid:
            qpmkit.load_model_report(path)
        traced_started = time.perf_counter()
        _run_cycle(workloads, tasks, ctx, [], outcomes, tracer)
        traced_wall = time.perf_counter() - traced_started
    finally:
        tracer.uninstall()
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl")
    tracer.dump(spans_path)
    result, extra = _summary(workloads, outcomes)
    metrics = tracer.metrics(ctx.counters, ctx.max_err, traced_wall / plain_wall - 1.0)
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in metrics.items()}
    extra.update({"spans": len(tracer.names), "spans_file": os.path.relpath(spans_path, ROOT),
                  "plain_wall_s": plain_wall, "traced_wall_s": traced_wall})
    return result, extra


def _stamp(args, qpmkit) -> dict:
    import scipy

    digest = hashlib.sha256()
    package = os.path.join(SRC, "qpmkit")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "qpmkit": qpmkit.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def _git_sha():
    """HEAD of the checkout, or None when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


if __name__ == "__main__":
    sys.exit(main())
