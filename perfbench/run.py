"""Repository benchmark: one workload, one run, one JSON line of results.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Run it from the repository root.  ``--trace 0`` measures the end-to-end
metrics with nothing wrapped; ``--trace 1`` wraps each layer's public
functions (``tracer.py``) and reports the per-layer metrics instead.
The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; progress and output
mismatches go to standard error.  Workloads, metrics and the
layer-to-metric map are described in ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space inside the checkout: fleet roots, logs, trace files.
WORK = ROOT / ".perfbench"
#: Fresh-process set-ups per in-process run; set-up time is their median.
SETUPS = 3
#: Seconds the host-speed kernel (``hostspeed.py``) takes in the fast
#: state of the 2-core host the benchmark was defined on.  In-process
#: host times are reported at this speed (see :class:`HostSpeed`).
REFERENCE_KERNEL_S = 0.0022
#: An interval's host speed is judged from the samples taken in it, or
#: in this many seconds around its middle if it is shorter: enough
#: samples (about 20) that their mean is steady, short enough to follow
#: the host's changes of state.
SPEED_WINDOW_S = 1.0
#: In the traced run, an untraced first pass shorter than this is a
#: warm-up (code generation caches filling) and the untraced reference
#: is the pass after it; a longer one is the reference itself, as
#: warm-up is then a small part of it.
WARM_PASS_S = 10.0

WORKLOADS = ("bytecode-alloc", "table1-locality", "object-dense",
             "fleet-serve")


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: Dict[str, float]
    problems: List[str] = field(default_factory=list)


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated ``q`` quantile (0..1) of ``values``."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_setup(workload: str) -> Tuple[float, float]:
    """``perf_counter`` times of spawning a fresh interpreter and of it
    having imported the system and built the workload's programs."""
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "probe.py"),
                             workload], cwd=str(ROOT),
                            stdout=subprocess.PIPE)
    line = proc.stdout.readline()
    ended = time.perf_counter()
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe for {workload} failed")
    return started, ended


def pin_to_one_core() -> None:
    """Keep this process, and the processes it starts, on one core."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class HostSpeed:
    """The host-speed sampler (``hostspeed.py``) as a side process.

    Used as a context manager around the timed work; afterwards
    :meth:`scaled` turns the host seconds of an interval into seconds
    at the reference speed, at which the sampler's kernel takes
    :data:`REFERENCE_KERNEL_S`.  The cores of a shared host change
    speed independently, so the sampler must run on the core the work
    runs on: :func:`pin_to_one_core` first.  It then takes about 5% of
    that core, which the timed work loses evenly.
    """

    def __enter__(self) -> "HostSpeed":
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "hostspeed.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        return self

    def __exit__(self, *exc) -> None:
        out, _ = self._proc.communicate()
        if self._proc.returncode != 0:
            raise RuntimeError("host-speed sampler failed")
        samples = json.loads(out)
        self._mids = [(start + end) / 2 for start, end, _ in samples]
        self._times = [cpu for _, _, cpu in samples]

    def median_ms(self) -> float:
        return statistics.median(self._times) * 1e3

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` host seconds at the reference speed.

        The host's speed over the interval is the mean, over the
        samples taken meanwhile (or within :data:`SPEED_WINDOW_S` of its
        middle), of ``REFERENCE_KERNEL_S / kernel time``.  Samples are
        evenly spaced in time, so for a long operation that spans fast
        and slow states this is its time-weighted mean speed."""
        half = max(end - start, SPEED_WINDOW_S) / 2
        centre = (start + end) / 2
        times = self._times[bisect.bisect_left(self._mids, centre - half):
                            bisect.bisect_right(self._mids, centre + half)]
        if not times:
            raise RuntimeError("no host-speed sample near a timed interval")
        return (end - start) * statistics.fmean(REFERENCE_KERNEL_S / t
                                                for t in times)


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------
@dataclass
class Pass:
    ops: list
    #: ``perf_counter`` times the pass started and ended.
    at: Tuple[float, float]
    #: This process's peak RSS when the pass ended.
    peak_rss_mb: float

    @property
    def wall_s(self) -> float:
        return self.at[1] - self.at[0]


def run_passes(run_pass: Callable, golden: dict, next_seed, seconds: float,
               tracer=None, label: str = "pass") -> List[Pass]:
    """Whole passes until the next one would end past ``seconds``."""
    passes: List[Pass] = []
    started = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.phase = f"{label}{len(passes)}"
        pass_started = time.perf_counter()
        ops = run_pass(golden, next_seed, tracer=tracer)
        passes.append(Pass(ops, (pass_started, time.perf_counter()),
                           peak_rss_mb()))
        print(f"  {label} {len(passes)}: {passes[-1].wall_s:.2f} s",
              file=sys.stderr)
        elapsed = time.perf_counter() - started
        if elapsed + passes[-1].wall_s > seconds:
            return passes


def reference_pass(run_pass: Callable, golden: dict, next_seed) -> Pass:
    """One untraced pass to compare a traced pass with, after a warm-up
    pass if passes are short."""
    first = run_passes(run_pass, golden, next_seed, 0.0, label="first")[0]
    if first.wall_s >= WARM_PASS_S:
        return first
    return run_passes(run_pass, golden, next_seed, 0.0,
                      label="reference")[0]


def program_times(ops, speed: HostSpeed) -> Dict[str, tuple]:
    """Per program, its median native and median work time over the
    passes, at the reference host speed: (native_s, work_s).
    Operations that raised are left out."""
    times: Dict[str, List[tuple]] = {}
    for op in ops:
        if not op.completed:
            continue
        start, end = op.native_at
        native = op.native_s * speed.scaled(start, end) / (end - start)
        times.setdefault(op.name, []).append(
            (native, speed.scaled(*op.work_at)))
    return {name: (statistics.median(native for native, _ in pairs),
                   statistics.median(work for _, work in pairs))
            for name, pairs in times.items()}


def run_in_process(name: str, seed: int, seconds: float,
                   trace: bool) -> Outcome:
    from perfbench import suite

    workload = suite.IN_PROCESS[name]
    golden = suite.load_golden()[name]
    rng = random.Random(seed)

    def next_seed() -> int:
        return rng.randrange(1, 2 ** 31)

    pin_to_one_core()
    if trace:
        return _traced_in_process(workload, golden, next_seed, seconds)
    with HostSpeed() as speed:
        probes = [probe_setup(name) for _ in range(SETUPS)]
        passes = run_passes(workload.run_pass, golden, next_seed, seconds)
    print(f"  host-speed kernel: median {speed.median_ms():.2f} ms, "
          f"reference {REFERENCE_KERNEL_S * 1e3:.2f} ms", file=sys.stderr)
    setups = [speed.scaled(*probe) for probe in probes]
    ops = [op for p in passes for op in p.ops]
    # One latency per program, so the percentiles do not depend on how
    # many passes fitted in the run.
    times = program_times(ops, speed)
    latencies = [(native + work) * 1e3 for native, work in times.values()]
    native_s = sum(native for native, _ in times.values())
    work_s = sum(work for _, work in times.values())
    metrics = {
        "setup_s": statistics.median(setups),
        # Over the first pass: later passes raise it a little further,
        # so the whole run's peak would depend on how many passes fit.
        "peak_rss_mb": passes[0].peak_rss_mb,
        "op_p50_ms": percentile(latencies, 0.5) if times else 0.0,
        "op_p90_ms": percentile(latencies, 0.9) if times else 0.0,
        "ops_per_s": _ratio(len(times), native_s + work_s),
        "overhead_x": _ratio(work_s, native_s),
    }
    problems = [msg for op in ops for msg in op.problems]
    return Outcome(len(ops), sum(1 for op in ops if op.problems), metrics,
                   problems)


def _traced_in_process(workload, golden, next_seed, seconds) -> Outcome:
    from perfbench.tracer import Tracer

    tracer = Tracer()
    with HostSpeed() as speed:
        reference = reference_pass(workload.run_pass, golden, next_seed)
        tracer.install()
        try:
            passes = run_passes(workload.run_pass, golden, next_seed,
                                seconds, tracer=tracer, label="traced")
        finally:
            tracer.uninstall()
    ops = [op for p in passes for op in p.ops]
    overhead = (statistics.fmean(speed.scaled(*p.at) for p in passes)
                / speed.scaled(*reference.at))
    metrics = layer_metrics(tracer, len(passes),
                            sum(p.wall_s for p in passes),
                            reference.wall_s, overhead)
    metrics.update(model_metrics(ops))
    _write_trace(tracer, workload.name, metrics)
    problems = [msg for op in ops for msg in op.problems]
    return Outcome(len(ops), sum(1 for op in ops if op.problems), metrics,
                   problems)


def model_metrics(ops) -> Dict[str, float]:
    """Deterministic simulated-cycle figures (geometric means)."""
    from perfbench.suite import geomean

    def mean_of(attr: str) -> float:
        values = [getattr(op, attr) for op in ops if getattr(op, attr) > 0]
        return geomean(values) if values else 0.0

    return {"model.sim_overhead_x": mean_of("sim_overhead"),
            "model.sim_mem_overhead_x": mean_of("sim_mem_overhead"),
            "model.optimized_speedup_x": mean_of("sim_speedup")}


# ----------------------------------------------------------------------
# Layer metrics
# ----------------------------------------------------------------------
def metric_units(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics, as
    ``BENCHMARK.json`` declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"]
                for metric in json.load(handle)[kind]}


def layer_metrics(tracer, passes: int, traced_wall: float,
                  untraced_wall: float, overhead_x: float) -> Dict[str, float]:
    """Per-pass layer figures from a traced run of ``passes`` passes.

    Times are raw host seconds, so the self times add up to the traced
    wall; ``overhead_x``, traced over untraced time per pass, is taken
    at the reference host speed, as the two are measured at different
    times."""
    self_s = tracer.self_s
    total_s = tracer.total_s
    counts = tracer.counts

    def per_pass(value: float) -> float:
        return value / passes

    accesses = counts["memsys.accesses"]
    samples = counts["pmu.samples"]
    metrics = {
        "trace.overhead_x": overhead_x,
        "trace.wall_s": per_pass(traced_wall),
        "trace.untraced_wall_s": untraced_wall,
        "other.self_s": per_pass(traced_wall - sum(self_s.values())),
        "jvm.self_s": per_pass(self_s["jvm"]),
        "jvm.ns_per_instruction": _ratio(self_s["jvm"] * 1e9,
                                         counts["jvm.instructions"]),
        "jvm.fused_executions": per_pass(counts["jvm.fused_executions"]),
        "jvm.guard_bailouts": per_pass(counts["jvm.guard_bailouts"]),
        "memsys.self_s": per_pass(self_s["memsys"]),
        "memsys.ns_per_access": _ratio(self_s["memsys"] * 1e9, accesses),
        "memsys.accesses": per_pass(accesses),
        "memsys.l1_miss_ratio": _ratio(counts["memsys.l1_misses"], accesses),
        "memsys.tlb_misses": per_pass(counts["memsys.tlb_misses"]),
        "heap.self_s": per_pass(self_s["heap"]),
        "heap.allocations": per_pass(counts["heap.allocations"]),
        "heap.allocated_bytes": per_pass(counts["heap.allocated_bytes"]),
        "heap.gc_collections": per_pass(counts["heap.gc_collections"]),
        "heap.gc_self_s": per_pass(self_s["heap.gc"]),
        "heap.gc_moved_bytes": per_pass(counts["heap.gc_moved_bytes"]),
        "obs.bus_self_s": per_pass(self_s["obs"]),
        "obs.events_published": per_pass(counts["obs.events_published"]),
        "pmu.samples": per_pass(samples),
        "core.agent_self_s": per_pass(self_s["core.agent"]),
        "core.allocations_tracked": per_pass(
            counts["core.allocations_tracked"]),
        "core.attributed_ratio": _ratio(counts["core.samples_attributed"],
                                        samples),
        "core.splay_self_s": per_pass(self_s["core.splay"]),
        "core.splay_ops": per_pass(counts["core.splay_ops"]),
        "core.splay_ns_per_op": _ratio(self_s["core.splay"] * 1e9,
                                       counts["core.splay_ops"]),
        "core.splay_cache_hit_ratio": _ratio(
            counts["core.splay_cache_hits"], counts["core.splay_lookups"]),
        "core.analyze_s": per_pass(total_s["core.analyze"]),
        "optim.profile_s": per_pass(total_s["optim.profile"]),
        "optim.engine_check_s": per_pass(total_s["optim.engine_check"]),
        "optim.transform_s": per_pass(total_s["optim.transform"]),
    }
    # Layers a workload does not exercise report 0.
    for name in metric_units("per_layer"):
        metrics.setdefault(name, 0.0)
    ledger = sorted(((per_pass(v), k) for k, v in self_s.items()),
                    reverse=True)
    print("  self time per pass: " + ", ".join(
        f"{layer} {seconds:.3f} s" for seconds, layer in ledger)
        + f", other {metrics['other.self_s']:.3f} s"
        + f" (traced {metrics['trace.wall_s']:.3f} s,"
        f" untraced {untraced_wall:.3f} s, overhead at the reference"
        f" speed {overhead_x:.3f}x)", file=sys.stderr)
    return metrics


def _write_trace(tracer, workload: str, metrics: dict) -> None:
    path = WORK / "trace"
    path.mkdir(parents=True, exist_ok=True)
    tracer.write(str(path / f"{workload}.jsonl"),
                 {"workload": workload, "metrics": metrics})


# ----------------------------------------------------------------------
# fleet-serve
# ----------------------------------------------------------------------
def run_fleet(seed: int, seconds: float, trace: bool) -> Outcome:
    from perfbench import serve_load, suite

    golden = suite.load_golden()["fleet-serve"]
    work = WORK / f"fleet-{seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    fleet = None
    try:
        starts = []
        # The sampler runs during the start-ups only: under load it
        # would take CPU from the fleet.  A start-up uses both cores
        # and the sampler times one, so this follows only the changes
        # of speed the cores share.
        with HostSpeed() as speed:
            for attempt in range(serve_load.SETUPS):
                if fleet is not None:
                    fleet.stop()
                fleet = serve_load.FleetProcess(ROOT,
                                                work / f"fleet{attempt}")
                starts.append((fleet.started,
                               fleet.started + fleet.wait_ready()))
        jobs = serve_load.drive(fleet.port, seed, seconds)
        ended = time.perf_counter()
        rss_kb = fleet.peak_rss_kb()
        fleet.stop()
        serve_load.check(jobs, golden)
        done = [job for job in jobs if not job.problems]
        if not done:
            raise RuntimeError("no job of the schedule finished")
        if trace:
            metrics = _traced_fleet(jobs, work, seed)
        else:
            latencies = serve_load.latencies_ms(jobs, ended)
            first_due = min(job.due for job in jobs)
            last_seen = max(job.seen for job in done)
            metrics = {
                "setup_s": statistics.median(speed.scaled(*start)
                                             for start in starts),
                "peak_rss_mb": rss_kb / 1024.0,
                "op_p50_ms": percentile(latencies, 0.5),
                "op_p90_ms": percentile(latencies, 0.9),
                "ops_per_s": len(done) / (last_seen - first_due),
                "overhead_x": (sum(job.seen - job.due for job in done)
                               / sum(_residence(job) for job in done)),
            }
    finally:
        if fleet is not None:
            fleet.stop()
        shutil.rmtree(work, ignore_errors=True)
    problems = [msg for job in jobs for msg in job.problems]
    return Outcome(len(jobs), len(jobs) - len(done), metrics, problems)


def _residence(job) -> float:
    """Seconds the job spent inside the fleet: spooled to finished."""
    record = job.outcome["job"]
    return record["finished_at"] - record["submitted_at"]


def _traced_fleet(jobs, work: Path, seed: int) -> Dict[str, float]:
    from perfbench import serve_load
    from perfbench.tracer import Tracer

    pin_to_one_core()        # the fleet has stopped; the replay is serial
    tracer = Tracer()
    with HostSpeed() as speed:
        serve_load.replay_in_process(work, seed)      # warm-up
        started = time.perf_counter()
        serve_load.replay_in_process(work, seed)
        untraced = (started, time.perf_counter())
        tracer.install()
        tracer.phase = "replay"
        try:
            started = time.perf_counter()
            replay = serve_load.replay_in_process(work, seed)
            traced = (started, time.perf_counter())
        finally:
            tracer.uninstall()
    metrics = layer_metrics(tracer, 1, traced[1] - traced[0],
                            untraced[1] - untraced[0],
                            speed.scaled(*traced) / speed.scaled(*untraced))

    done = [job for job in jobs if not job.problems]
    unique = [job for job in done if job.unique]
    repeats = [job for job in jobs if not job.unique]
    metrics.update({
        "serve.submit_rtt_ms": statistics.median(job.rtt for job in jobs)
        * 1e3,
        "serve.residence_ms": statistics.median(
            _residence(job) for job in done) * 1e3,
        "serve.queue_wait_ms": statistics.median(
            _residence(job) - replay["service"][job.row]
            for job in unique) * 1e3,
        "serve.notify_lag_ms": statistics.median(
            job.seen_wall - job.outcome["job"]["finished_at"]
            for job in done) * 1e3,
        "serve.service_s": statistics.median(replay["service"].values()),
        "serve.store_write_s": replay["store_write_s"],
        "serve.store_read_s": replay["store_read_s"],
        "serve.dedupe_hit_ratio": _ratio(
            sum(1 for job in repeats if not job.problems
                and job.outcome["job"]["result"].get("cached")),
            len(repeats)),
        "serve.throttled": sum(1 for job in jobs if job.status == 429),
        "serve.generator_lag_ms": max(job.sent - job.due
                                      for job in jobs) * 1e3,
    })
    _write_trace(tracer, "fleet-serve", metrics)
    return metrics


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

    print(f"{args.workload}: seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}", file=sys.stderr)
    if args.workload == "fleet-serve":
        outcome = run_fleet(args.seed, args.seconds, bool(args.trace))
    else:
        outcome = run_in_process(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    for problem in outcome.problems[:20]:
        print(f"  check failed: {problem}", file=sys.stderr)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
