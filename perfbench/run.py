#!/usr/bin/env python3
"""The urygrid benchmark: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload graev_sweep --seed 1 --seconds 10 --trace 0

Run from the repository root (or with this file inside the checkout's
``perfbench/``). It imports ``urygrid`` from the checkout's ``src/`` (the
backend ``import urygrid`` selects there, never compiling anything), pins
``URYGRID_WORKERS=1``, times the set-up in several fresh interpreters and
reports the median, then drives one client through the op schedule for
``--seconds`` and checks every op against its independent route.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` first runs ops
untraced for half the time, then replays exactly those ops with span
wrappers installed, and prints the per-layer metrics and the tracing
overhead. The last stdout line is the JSON result; the line before it holds
the run's metadata and summary. Exit status is 0 only when every op passed.
Only the wall clock and getrusage are used: no hardware counters and no
system-wide tracing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SHIM = os.path.join(HERE, "cli_shim.py")
SETUP_REPS = 9
TRACE_FILE_ENV = "PERFBENCH_TRACE_FILE"
# The machine-speed probe: median of PROBE_REPS runs of a fixed pure-Python
# loop, taken around each set-up repetition and every SLICE_S of ops. Times are
# reported scaled to a machine on which that median is PROBE_NOMINAL_S.
PROBE_REPS = 15
SLICE_S = 0.2
PROBE_NOMINAL_S = 250e-6

sys.path.insert(0, HERE)
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def pin_environment():
    """Children and this process see the checkout's ``src`` and one worker,
    and all run on one CPU, so the speed probe measures the CPU the ops run
    on (the single client never runs two things at once anyway)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.environ["URYGRID_WORKERS"] = "1"
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def _probe_pairings(signs, i, j):
    """Non-crossing opposite-sign pairings of signs[i:j], as arc tuples."""
    if i >= j:
        yield ()
        return
    yield from _probe_pairings(signs, i + 1, j)
    for k in range(i + 1, j):
        if signs[k] == -signs[i]:
            for inner in _probe_pairings(signs, i + 1, k):
                for outer in _probe_pairings(signs, k + 1, j):
                    yield ((i, k),) + inner + outer


def _probe_once():
    """Fixed pure-Python work shaped like the library's: an integer
    Floyd-Warshall over a flat list, tuple-of-tuples building with a
    triangle scan and dict lookups, and a recursive generator enumeration."""
    t0 = time.perf_counter()
    n = 12
    d = [(i * 7 + j * 13) % 11 + 1 for i in range(n) for j in range(n)]
    for k in range(n):
        for i in range(n):
            dik = d[i * n + k]
            for j in range(n):
                if dik + d[k * n + j] < d[i * n + j]:
                    d[i * n + j] = dik + d[k * n + j]
    n = 8
    rows = tuple(tuple(0 if i == j else d[i * 12 + j] for j in range(n)) for i in range(n))
    bad = 0
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if rows[a][b] > rows[a][c] + rows[c][b]:
                    bad += 1
    rows = tuple(r + (r[0],) for r in rows)
    index = {f"p{i}": i for i in range(n)}
    bad += sum(index[p] for p in sorted(index))
    signs = (1, -1, 1, -1, -1, 1)
    bad += min(sum(b - a for a, b in arcs) for arcs in _probe_pairings(signs, 0, 6))
    return time.perf_counter() - t0


def speed_probe():
    """Seconds the fixed probe takes on this machine right now.

    Shared machines drift in speed by tens of percent over seconds; scaling
    each measured interval by PROBE_NOMINAL_S over the probes around it
    removes that drift from the reported times, which the library under
    test cannot influence (the probe never calls it)."""
    return statistics.median(_probe_once() for _ in range(PROBE_REPS))


def setup(workload, seed, workdir):
    """Import ``urygrid`` from the checkout and build the seeded inputs in
    this process; returns (state, kernel backend)."""
    urygrid = importlib.import_module("urygrid")
    if not os.path.abspath(urygrid.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"urygrid imported from {urygrid.__file__}, not from {SRC}")
    return workload.setup(seed, workdir), urygrid.KERNEL_BACKEND


# One timed set-up in a fresh interpreter, so that every repetition pays for
# every module ``urygrid`` loads, the standard library's included. The clock
# covers importing the workload's ``urygrid`` modules and ``workload.setup``,
# not the benchmark's own imports in between.
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
import importlib
import urygrid
for name in sys.argv[5:]:
    importlib.import_module("urygrid." + name)
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from workloads import WORKLOADS
t2 = time.perf_counter()
WORKLOADS[sys.argv[2]].setup(int(sys.argv[3]), sys.argv[4])
t3 = time.perf_counter()
print(t1 - t0 + t3 - t2, urygrid.KERNEL_BACKEND)
"""


def time_setup(workload, seed, workdir, backend):
    """``setup_s`` repetitions: SETUP_REPS fresh interpreters each time
    their own import and set-up; returns the raw seconds of each and the
    same scaled by the speed probes around it."""
    times = []
    scaled = []
    before = speed_probe()
    for rep in range(SETUP_REPS):
        child = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, HERE, workload.name, str(seed),
             os.path.join(workdir, f"setup-{rep}"), *workload.modules],
            capture_output=True, text=True, timeout=120)
        if child.returncode != 0:
            raise SystemExit(f"set-up repetition failed:\n{child.stderr}")
        seconds, child_backend = child.stdout.split()
        if child_backend != backend:
            raise SystemExit(f"set-up repetition chose backend {child_backend}, not {backend}")
        times.append(float(seconds))
        after = speed_probe()
        scaled.append(times[-1] * 2 * PROBE_NOMINAL_S / (before + after))
        before = after
    return times, scaled


def inputs_digest(state):
    h = hashlib.sha256(repr(state.schedule).encode())
    h.update(json.dumps(state.extra.get("files", {}), sort_keys=True).encode())
    return h.hexdigest()


class Phase:
    """Latencies (raw and probe-scaled), failures, work units and the output
    digest of a run of consecutive ops. ``wall`` is the scaled busy time of
    the one client: the sum of scaled op latencies."""

    def __init__(self):
        self.latencies = []
        self.scaled = []
        self.failed = 0
        self.units = 0
        self.digest = hashlib.sha256()
        self.failures = []

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def wall(self):
        return sum(self.scaled)

    @property
    def raw_wall(self):
        return sum(self.latencies)


def run_ops(op, state, seconds=None, count=None):
    """``op(state, i)`` for i = 0, 1, ... until ``seconds`` elapse or
    ``count`` ops are done."""
    phase = Phase()
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds if seconds is not None else math.inf
    probes = [(0, speed_probe())]  # (first op of a slice, probe before it)
    slice_end = clock() + SLICE_S
    i = 0
    while (count is None or i < count) and (count is not None or clock() < deadline):
        t0 = clock()
        try:
            ok, output, units = op(state, i)
        except Exception as e:  # an op that raises is a failed op, not a crash
            ok, output, units = False, f"raised {type(e).__name__}: {e}", 0
        phase.latencies.append(clock() - t0)
        phase.digest.update(output.encode("utf-8", "replace") + b"\0")
        if ok:
            phase.units += units
        else:
            phase.failed += 1
            if len(phase.failures) < 5:
                phase.failures.append(f"op {i}: {output[:300]}")
        i += 1
        if clock() >= slice_end:
            probes.append((i, speed_probe()))
            slice_end = clock() + SLICE_S
    if probes[-1][0] != i:
        probes.append((i, speed_probe()))
    for (first, p0), (last, p1) in zip(probes, probes[1:]):
        factor = 2 * PROBE_NOMINAL_S / (p0 + p1)
        phase.scaled += [t * factor for t in phase.latencies[first:last]]
    return phase


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def git_rev():
    """HEAD of the checkout's own repository; "unknown" outside one (git is
    not asked to search parent directories)."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload.name == "cli_batch" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(workload, phase, setup_times, latencies, peak_rss):
    """The end-to-end metrics from the given set-up times and op latencies
    (seconds; scaled or raw) and peak RSS (MB)."""
    passed = phase.attempted - phase.failed
    busy = sum(latencies)
    lat_ms = [t * 1e3 for t in latencies]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (passed / busy, "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_tail_ms": (percentile(lat_ms, workload.tail_pct), "ms"),
        "work_per_s": (phase.units / busy, "units/s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }


def traced_cli_ops(workload, state, count):
    """Replay ``count`` cli_batch ops through the tracing shim and merge the
    span aggregates each child writes."""
    agg = {}
    extra = {"process_s": 0.0, "import_s": 0.0, "inproc_s": 0.0}
    trace_path = os.path.join(state.extra["workdir"], "child-trace.json")
    env = dict(os.environ, **{TRACE_FILE_ENV: trace_path})

    def op(st, i):
        if os.path.exists(trace_path):
            os.remove(trace_path)
        t0 = time.perf_counter()
        result = workload.op(st, i, shim=SHIM, env=env)
        extra["process_s"] += time.perf_counter() - t0
        with open(trace_path, encoding="utf-8") as fh:
            child = json.load(fh)
        extra["import_s"] += child["import_s"]
        extra["inproc_s"] += child["inproc_s"]
        spans.merge(agg, child["spans"])
        return result

    return run_ops(op, state, count=count), agg, extra


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "urygrid", "__init__.py")):
        print(f"error: no urygrid sources under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    try:
        state, backend = setup(workload, args.seed, workdir)
        phase = run_ops(workload.op, state,
                        seconds=args.seconds / 2 if args.trace else args.seconds)
        digest = phase.digest.hexdigest()
        summary = {"speed_scale": phase.wall / phase.raw_wall}
        if not args.trace:
            # peak RSS is read before the set-up repetitions, which are
            # child processes too and would otherwise count on cli_batch
            peak_rss = peak_rss_mb(workload)
            raw_setup, setup_times = time_setup(workload, args.seed, workdir, backend)
            metrics = end_to_end(workload, phase, setup_times, phase.scaled, peak_rss)
            unscaled = end_to_end(workload, phase, raw_setup, phase.latencies, peak_rss)
            summary["unscaled"] = {k: v for k, (v, _) in unscaled.items()}
            summary["setup_s_reps"] = setup_times
            if workload.name == "graev_sweep":
                summary["words_per_s"] = metrics["work_per_s"][0]
        else:
            if workload.name == "cli_batch":
                traced, agg, extra = traced_cli_ops(workload, state, phase.attempted)
            else:
                with spans.Tracer() as tracer:
                    traced = run_ops(workload.op, state, count=phase.attempted)
                agg, extra = tracer.snapshot(), {}
            extra["overhead_ratio"] = traced.wall / phase.wall
            extra["speed_scale"] = traced.wall / traced.raw_wall
            layer = spans.layer_metrics(agg, traced.attempted, extra)
            if traced.digest.hexdigest() != digest:
                traced.failed = max(traced.failed, 1)
                traced.failures.append("traced ops gave different outputs")
            metrics = {name: (layer[name], unit) for name, unit in spans.PER_LAYER}
            summary["traced_ops"] = traced.attempted
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    attempted, failed, failures = phase.attempted, phase.failed, phase.failures
    if args.trace:
        attempted += traced.attempted
        failed += traced.failed
        failures += traced.failures
    tail = percentile(phase.scaled, workload.tail_pct)
    tail_beyond = sum(1 for t in phase.scaled if t > tail)
    summary.update({
        "fail_ratio": failed / attempted,
        "op_tail_pct": workload.tail_pct,
        "op_tail_samples_beyond": tail_beyond,
        "ops_sampled": len(phase.latencies),
        "work_unit": workload.unit,
        "probe_nominal_s": PROBE_NOMINAL_S,
        "output_digest": digest,
        "inputs_digest": inputs_digest(state),
    })
    meta = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "backend": backend,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_rev": git_rev(),
        "env": {"URYGRID_WORKERS": os.environ["URYGRID_WORKERS"],
                "URYGRID_PURE": os.environ.get("URYGRID_PURE")},
        "clock": "time.perf_counter wall clock and getrusage only; "
                 "no hardware counters, no system-wide tracing; times scaled "
                 "by a pure-Python speed probe (summary.unscaled has raw values)",
    }
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    print(json.dumps({"meta": meta, "summary": summary}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
