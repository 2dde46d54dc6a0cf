"""Benchmark of the tensordim command line, end to end and per layer.

    python3 tdbench/run.py --workload exact-products --seed 1 --seconds 30 --trace 0

Run from a source checkout: the package is imported from ./src.  One
closed-loop client calls `tensordim.cli.main(argv)` in this process with
stdout captured, one call after another, always with `--threads 1`.  A
pass is one trip through the workload's call list; passes repeat until
`--seconds` would be passed by one more, and at least until the tail
percentile has ten samples beyond it.  Outputs are checked after the last
pass, outside the timed region.

End-to-end times are reported at a reference host speed.  The host is
shared: its CPU speed switches between two levels up to 2x apart, in
stretches from milliseconds to minutes, and moves every timing of
unchanged code alike.  Every PROBE_EVERY_S, a SIGALRM handler times a
fixed slice of the benchmark's own work, `reference_work`, giving the
host's speed relative to REFERENCE_WORK_S; samples land inside long calls
too, and between the set-up samples.  Each call's latency and each
set-up sample, less the sampling inside it, is multiplied by the mean
speed of the samples from SPEED_WINDOW_S before it to SPEED_WINDOW_S
after it; a pass's time is the sum of its calls' scaled latencies.  A
change to the program does not touch the slice, so it moves scaled times
as it moves raw ones.  The process and its children are pinned to one
CPU, so the slice and the program run on the same core.  Raw times are
kept in the run metadata; the traced run reports raw times.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced passes and reports per-layer self times, exact counts and the
tracing overhead.  The last stdout line is the JSON result; the line
before it holds the run metadata.  Full results and spans are written
to .bench_out/.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

import numpy

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"
SETUP_SAMPLES = 25
SETUP_SPEED_SAMPLES = 5
# Start no new pass once this much of the run has gone, so a run ends well
# inside three minutes even when the program is far slower than today.
PASS_BUDGET_S = 120.0
TAIL_BEYOND = 10
# About the time `reference_work` takes on a 2-vCPU x86-64 VM at its faster
# speed level; any fixed value works, this one keeps scaled times near real
# seconds.
REFERENCE_WORK_S = 0.002
PROBE_EVERY_S = 0.1
# Long enough to average over the short switches between speed levels,
# short enough to follow the long ones.
SPEED_WINDOW_S = 1.0

END_TO_END_UNITS = {"setup_s": "s", "sweep_s": "s", "call_p50_s": "s",
                    "call_tail_s": "s", "peak_rss_mb": "MB"}


def load_package() -> dict:
    """The package modules the tracer wraps, imported from ./src."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tensordim
    from tensordim import cli, constructions, graphs, metric, solver
    return {"cli": cli, "constructions": constructions, "solver": solver,
            "graphs": graphs, "metric": metric, "package": tensordim}


def reference_work() -> None:
    """A fixed slice of the kinds of work the CLI does: integer bit tricks,
    sorting and dict updates in Python, and a small numpy table."""
    masks = [(i * 2654435761) & 0xFFFFFFFFFFFF for i in range(1, 5000)]
    masks.sort(key=int.bit_count)
    seen: dict = {}
    for m in masks:
        low = (m & -m).bit_length()
        seen[low] = seen.get(low, 0) + (m >> 7).bit_count()
    table = numpy.arange(4096, dtype=numpy.uint16).reshape(64, 64) % 7
    numpy.unique(table[:, :6], axis=0)


class HostSpeed:
    """Samples of the host's speed, REFERENCE_WORK_S over the time
    `reference_work` takes, as (start, end, speed)."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []
        self.starts: list[float] = []
        self.sampling_now = False

    def sample(self, *_signal) -> None:
        if self.sampling_now:  # a signal that arrives during a sample
            return
        self.sampling_now = True
        # The collector stays off, so that no collection of the program's
        # objects is timed as host speed and left out of a call's latency.
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            reference_work()
            end = perf_counter()
            self.samples.append((start, end, REFERENCE_WORK_S / (end - start)))
            self.starts.append(start)
        finally:
            self.sampling_now = False
            if collecting:
                gc.enable()

    @contextlib.contextmanager
    def sampling(self):
        """Sample every PROBE_EVERY_S of wall time, from a signal handler,
        which the interpreter runs between bytecodes of whatever is running."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, t0: float, t1: float) -> float:
        """The time from t0 to t1 less the sampling inside it, at reference
        speed: times the mean speed of the samples in the window around it,
        and at least of the last one before it and the first one after it."""
        first = bisect.bisect_left(self.starts, t0)
        last = bisect.bisect_left(self.starts, t1)
        busy = (t1 - t0) - sum(end - start for start, end, _ in self.samples[first:last])
        lo = min(bisect.bisect_left(self.starts, t0 - SPEED_WINDOW_S), first - 1)
        hi = max(bisect.bisect_right(self.starts, t1 + SPEED_WINDOW_S), last + 1)
        window = self.samples[max(lo, 0):hi]
        return busy * statistics.fmean(speed for _, _, speed in window)


def measure_setup() -> tuple[list[float], list[float]]:
    """Wall times of `import tensordim.cli` in fresh interpreters: raw, and
    scaled to the reference speed.

    The first start, which may compile bytecode, is not counted.  The wait
    blocks without a timeout, because `Popen.wait(timeout)` polls at up to
    50 ms intervals; a timer kills a child that hangs.
    """
    cmd = [sys.executable, "-c", "import tensordim.cli"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    speed = HostSpeed()
    spans = []
    for _ in range(SETUP_SAMPLES + 1):
        # Sampled here, not from the signal handler: a sample taken while
        # the child runs would take the child's CPU.
        for _ in range(SETUP_SPEED_SAMPLES):
            speed.sample()
        start = perf_counter()
        with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL) as child:
            watchdog = threading.Timer(60, child.kill)
            watchdog.start()
            try:
                code = child.wait()
            finally:
                watchdog.cancel()
        spans.append((start, perf_counter()))
        if code != 0:
            raise RuntimeError(f"`import tensordim.cli` failed with exit code {code}")
    for _ in range(SETUP_SPEED_SAMPLES):
        speed.sample()
    return ([t1 - t0 for t0, t1 in spans[1:]],
            [speed.scaled(t0, t1) for t0, t1 in spans[1:]])


def call_cli(cli, argv) -> tuple[int | None, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed call, not a failed run
            return None, f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue()


def run_pass(cli, workload, tracer=None, intern=None):
    """One trip through the call list: (wall seconds, (start, end) of each
    call, results)."""
    intern = {} if intern is None else intern
    results, spans = [], []
    start = perf_counter()
    for i, call in enumerate(workload.calls):
        argv = call.argv
        if call.derive is not None:
            try:
                argv = call.derive(results[call.source][2])
            except (ValueError, KeyError, TypeError, IndexError):
                results.append((["underivable", str(i)], None, ""))
                continue
        if tracer is not None:
            tracer.call_id = i
        t0 = perf_counter()
        rc, out = call_cli(cli, argv)
        spans.append((t0, perf_counter()))
        results.append((argv, rc, intern.setdefault(out, out)))
    return perf_counter() - start, spans, results


def failures(workload, passes) -> tuple[int, list[str]]:
    """Failed calls over all passes, and the first few problems found."""
    verdicts: dict = {}
    failed, shown = 0, []
    for results in passes:
        cross = workload.cross_check(results) if workload.cross_check else {}
        for i, (argv, rc, out) in enumerate(results):
            key = (tuple(argv), rc, out)
            if key not in verdicts:
                if rc is None:
                    verdicts[key] = [f"call did not run or crashed: {out[:200]}"]
                else:
                    try:
                        verdicts[key] = workload.calls[i].check(argv, rc, out)
                    except Exception as exc:  # malformed output fails the call
                        verdicts[key] = [f"check raised {type(exc).__name__}: {exc}"]
            problems = verdicts[key] + cross.get(i, [])
            if problems:
                failed += 1
                if len(shown) < 10:
                    shown.append(f"{' '.join(argv)[:120]}: {'; '.join(problems)}")
    return failed, shown


def nearest_rank(values, percentile) -> tuple[float, int]:
    """Value at the percentile, and how many samples lie beyond it."""
    ordered = sorted(values)
    index = max(0, math.ceil(percentile / 100 * len(ordered)) - 1)
    return ordered[index], len(ordered) - index - 1


def samples_beyond(count, percentile) -> int:
    return count - max(1, math.ceil(percentile / 100 * count))


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def metadata(args, kernel, cpus) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "kernel": kernel,
            "nproc": len(cpus), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit()}


def another_pass(start, walls, calls, percentile, seconds) -> bool:
    """Whether to start one more pass: while it would still end within
    `seconds`, and until the tail percentile has enough samples beyond it."""
    elapsed = perf_counter() - start
    ends_at = elapsed + statistics.median(walls)
    if ends_at > PASS_BUDGET_S:
        return False
    return ends_at <= seconds or samples_beyond(calls, percentile) < TAIL_BEYOND


def measure(cli, workload, seconds):
    """Untraced passes: end-to-end metrics plus the raw results to check."""
    passes, call_spans, raw_walls = [], [], []
    intern: dict = {}
    start = perf_counter()
    speed = HostSpeed()
    speed.sample()
    with speed.sampling():
        while not passes or another_pass(start, raw_walls, sum(map(len, passes)),
                                         workload.tail_percentile, seconds):
            raw_wall, spans, results = run_pass(cli, workload, intern=intern)
            raw_walls.append(raw_wall)
            call_spans.append(spans)
            passes.append(results)
    speed.sample()
    scaled = [[speed.scaled(t0, t1) for t0, t1 in spans] for spans in call_spans]
    walls = [sum(pass_latencies) for pass_latencies in scaled]
    latencies = [t for pass_latencies in scaled for t in pass_latencies]
    raw_latencies = [t1 - t0 for spans in call_spans for t0, t1 in spans]
    speeds = [s for _, _, s in speed.samples]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tail, beyond = nearest_rank(latencies, workload.tail_percentile)
    metrics = {"sweep_s": statistics.median(walls),
               "call_p50_s": statistics.median(latencies),
               "call_tail_s": tail, "peak_rss_mb": peak_rss_mb}
    details = {"passes": len(walls), "pass_walls_s": walls, "raw_pass_walls_s": raw_walls,
               "raw_call_p50_s": statistics.median(raw_latencies),
               "speed_samples": len(speeds),
               "speed_quartiles": statistics.quantiles(speeds, n=4),
               "calls": len(latencies),
               "tail_percentile": workload.tail_percentile, "tail_beyond": beyond}
    return metrics, details, passes


def measure_traced(cli, workload, seconds, modules):
    """Alternating untraced and traced passes: per-layer metrics."""
    tracer = tracing.Tracer()
    untraced, traced, passes = [], [], []
    start = perf_counter()
    while not traced or perf_counter() - start + statistics.median(
            u + t for u, t in zip(untraced, traced)) <= seconds:
        untraced.append(run_pass(cli, workload)[0])
        tracer.install(modules)
        try:
            tracer.begin_pass()
            wall, _, results = run_pass(cli, workload, tracer)
        finally:
            tracer.uninstall()
        traced.append(wall)
        passes.append(results)
    selfs = [tracing.self_times(spans) for spans, _ in tracer.passes]
    metrics = {f"{layer}_s": statistics.median(s.get(layer, 0.0) for s in selfs)
               for layer in tracing.LAYERS}
    first_counts = tracer.passes[0][1]
    metrics.update({name: first_counts.get(name, 0) for name in tracing.COUNTS})
    metrics["trace.sweep_s"] = statistics.median(traced)
    metrics["trace.untraced_sweep_s"] = statistics.median(untraced)
    metrics["trace.overhead_pct"] = 100 * (metrics["trace.sweep_s"]
                                           / metrics["trace.untraced_sweep_s"] - 1)
    metrics["trace.attributed_pct"] = statistics.median(
        100 * s["root"] / wall for s, wall in zip(selfs, traced))
    details = {"passes": len(traced),
               "counts_repeat": all(c == first_counts for _, c in tracer.passes)}
    return metrics, details, passes, tracer


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    return "B" if name.endswith("_bytes") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tensordim" / "cli.py").is_file():
        print(f"error: no tensordim sources under {SRC}", file=sys.stderr)
        return 2
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    setup, setup_scaled = ([], []) if args.trace else measure_setup()
    modules = load_package()
    cli = modules["cli"]
    meta = metadata(args, modules["solver"].kernel_name(), cpus)
    meta["pinned_cpu"] = min(cpus)
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        for warm in workload.warmup:
            call_cli(cli, warm)
        tracer = None
        if args.trace:
            metrics, details, passes, tracer = measure_traced(
                cli, workload, args.seconds, modules)
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            metrics, details, passes = measure(cli, workload, args.seconds)
            metrics["setup_s"] = statistics.median(setup_scaled)
            units = END_TO_END_UNITS
        failed, problems = failures(workload, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(results) for results in passes)
    meta.update(details, failed_frac=failed / attempted)
    if setup:
        meta.update(raw_setup_samples_s=setup, setup_samples_s=setup_scaled)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({"meta": meta, "problems": problems, **result}, indent=1) + "\n")
    if tracer is not None:
        tracer.dump(OUT_DIR / f"{stem}-spans.jsonl")

    for line in problems:
        print(f"FAILED {line}")
    for name, value in metrics.items():
        note = ""
        if name == "call_tail_s":
            note = (f"  (p{details['tail_percentile']:g}, {details['tail_beyond']} of "
                    f"{details['calls']} samples beyond)")
        print(f"{args.workload:15} {name:28} {value:14.6f} {units[name]}{note}")
    print(f"{args.workload:15} {'failed_frac':28} {failed / attempted:14.6f} "
          f"({failed} of {attempted} calls)")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
