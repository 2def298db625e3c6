"""In-process workloads: program lists, output checks and timed passes.

Each workload is a fixed list of operations.  One *pass* runs every
operation once, serially, on the calling thread, and returns one
:class:`Op` per operation with its host timings and the problems its
output check found.  The checks compare against ``golden.json``, which
``record_golden.py`` wrote from the code the benchmark was defined on:
a simulator-speed change must leave every simulated statistic as it was.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

#: Fig. 4 Renaissance rows that allocate heavily, plus the four
#: engine-bound kernels of the §7.3 overhead study.
BYTECODE_ALLOC = ("akka-uct", "db-shootout", "dec-tree", "mnemonics",
                  "par-mnemonics", "scrabble", "neo4j-analytics",
                  "kernel-arith", "kernel-mixed", "kernel-array",
                  "kernel-field")
#: DJXPerf settings of the Fig. 4 overhead runs.
BYTECODE_ALLOC_CONFIG = {"sample_period": 64, "size_threshold": 1024}

#: Table 1 rows: (workload, the paper's problematic allocation site as
#: (class, method, line), rank it must reach in the profile).  Copied
#: from the paper's Table 1, so the check does not depend on this code.
TABLE1 = (
    ("objectlayout", ("Objectlayout", "run", 292), 1),
    ("findbugs", ("Findbugs", "run", 120), 2),
    ("ranklib", ("Ranklib", "run", 218), 1),
    ("cache2k", ("Cache2K", "run", 313), 2),
    ("samoa", ("Samoa", "run", 165), 2),
    ("commons-collections", ("CommonsCollections", "run", 151), 2),
    ("scala-stm-bench7", ("AccessHistory", "grow", 619), 2),
    ("scimark-fft", ("FFT", "transform_internal", 166), 1),
    ("montecarlo", ("RatePath", "run", 205), 1),
    ("moldyn", ("md", "run", 348), 1),
    ("eclipse-collections", ("Interval", "toArray", 758), 1),
    ("npb-sp", ("SPBase", "toArray", 155), 1),
    ("apache-druid", ("WrappedImmutableBitSetBitmap", "<init>", 37), 1),
)
#: The Table 1 harness's DJXPerf settings (1 KiB threshold by default).
TABLE1_CONFIG = {"sample_period": 32}

#: (workload, profiler family) for the optimizer workload.
OBJECT_DENSE = (("unsized-growth", "djxperf"), ("padded-layout", "djxperf"),
                ("boxed-counters", "djxperf"),
                ("redundant-fill", "redundancy"))

#: Short Table 1 rows the fleet workload submits as profile jobs, and
#: the job settings (the serving tier's defaults).
SERVE_ROWS = ("montecarlo", "moldyn", "npb-sp", "commons-collections")
SERVE_CONFIG = {"sample_period": 64, "size_threshold": 1024}


@dataclass
class Op:
    """One timed operation and the result of its output check."""

    name: str
    #: Host seconds of the uninstrumented run of the program.
    native_s: float
    #: Host seconds of the work done on it: the profiled run (including
    #: ``analyze()``) or the optimizer's verdict.
    work_s: float
    problems: List[str] = field(default_factory=list)
    #: Modelled (simulated-cycle) figures for the model.* metrics.
    sim_overhead: float = 0.0
    sim_mem_overhead: float = 0.0
    sim_speedup: float = 0.0
    #: ``perf_counter`` (start, end) of the native run(s) and of the
    #: work, to match with the host-speed samples taken meanwhile.
    native_at: Tuple[float, float] = (0.0, 0.0)
    work_at: Tuple[float, float] = (0.0, 0.0)
    #: False when the operation raised: it then counts as failed and
    #: its timings are left out of every figure.
    completed: bool = True


# ----------------------------------------------------------------------
# Output digests
# ----------------------------------------------------------------------
def result_digest(result) -> dict:
    """Every ``MachineResult`` field, with the printed output hashed."""
    fields = dataclasses.asdict(result)
    fields["output"] = hashlib.sha256(
        "\n".join(result.output).encode("utf-8")).hexdigest()[:16]
    fields["thread_cycles"] = {str(tid): cycles for tid, cycles
                               in sorted(result.thread_cycles.items())}
    return fields


def top_sites(analysis, n: int = 5) -> List[list]:
    """The analysis's top ``n`` sites as ``[location, primary metric]``."""
    event = analysis.primary_event
    return [[site.location, site.metric(event)]
            for site in analysis.top_sites(n)]


def agent_digest(run) -> dict:
    """The DJXPerf agent's counters and the profiler's modelled memory.

    They do not depend on attribution, so they check the profiled run
    even where no object passes the size threshold and ``top5`` is
    empty."""
    fields = dataclasses.asdict(run.profiler.agent.stats)
    fields["profiler_bytes"] = run.profiler.memory_footprint()
    return fields


def raised(name: str, error: Exception) -> Op:
    """The record of an operation that raised instead of finishing; its
    traceback goes to standard error."""
    traceback.print_exception(error, file=sys.stderr)
    return Op(name=name, native_s=0.0, work_s=0.0, completed=False,
              problems=[f"{name}: raised {type(error).__name__}: {error}"])


#: Verdict fields that must repeat exactly.
VERDICT_FIELDS = ("status", "transform", "target", "baseline_cycles",
                  "optimized_cycles", "metric_total_before",
                  "metric_total_after", "site_metric_before",
                  "site_metric_after")


def verdict_digest(verdict) -> dict:
    return {name: getattr(verdict, name) for name in VERDICT_FIELDS}


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _diff(label: str, got, want) -> List[str]:
    if got == want:
        return []
    if isinstance(got, dict) and isinstance(want, dict):
        keys = sorted(k for k in set(got) | set(want)
                      if got.get(k) != want.get(k))
        return [f"{label}.{k}: got {got.get(k)!r}, want {want.get(k)!r}"
                for k in keys]
    return [f"{label}: got {got!r}, want {want!r}"]


def culprit_rank(analysis, site: Tuple[str, str, int]) -> Optional[int]:
    """1-based rank of the allocation site in the profile, or None."""
    found = analysis.site_at(*site)
    if found is None:
        return None
    return 1 + analysis.top_sites(len(analysis.sites)).index(found)


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def profile_pass(rows: Sequence[str], config: Dict[str, int],
                 golden: Dict[str, dict], next_seed: Callable[[], int],
                 culprits: Optional[Dict[str, Tuple[tuple, int]]] = None,
                 tracer=None) -> List[Op]:
    """Run each program natively, then under DJXPerf, and check both."""
    from repro.core import DjxConfig
    from repro.workloads import (OverheadMeasurement, get_workload,
                                 run_native, run_profiled)

    ops = []
    for name in rows:
        seed = next_seed()
        if tracer is not None:
            tracer.begin_op(name)
        try:
            workload = get_workload(name)
            started = time.perf_counter()
            native = run_native(workload, seed=seed)
            mid = time.perf_counter()
            run = run_profiled(workload, config=DjxConfig(**config),
                               seed=seed)
            ended = time.perf_counter()
            want = golden[name]
            problems = (_diff(f"{name}.native", result_digest(native),
                              want["native"])
                        + _diff(f"{name}.profiled",
                                result_digest(run.result), want["profiled"])
                        + _diff(f"{name}.agent", agent_digest(run),
                                want["agent"])
                        + _diff(f"{name}.top5", top_sites(run.analysis),
                                want["top5"]))
            if culprits is not None:
                site, topk = culprits[name]
                rank = culprit_rank(run.analysis, site)
                if rank is None or rank > topk:
                    problems.append(f"{name}: culprit {site} ranked "
                                    f"{rank}, want top-{topk}")
            overhead = OverheadMeasurement(
                name=name, native_cycles=native.wall_cycles,
                profiled_cycles=run.result.wall_cycles,
                native_peak_memory=native.heap_peak_used,
                profiler_memory=run.profiler.memory_footprint())
        except Exception as error:
            ops.append(raised(name, error))
            continue
        finally:
            if tracer is not None:
                tracer.end_op()
        ops.append(Op(name=name, native_s=mid - started,
                      work_s=ended - mid, problems=problems,
                      native_at=(started, mid), work_at=(mid, ended),
                      sim_overhead=overhead.runtime_overhead,
                      sim_mem_overhead=overhead.memory_overhead))
    return ops


#: Native runs per optimizer target; their median is the op's native
#: time.  One native run is short next to a verdict, so a single timing
#: would make ``overhead_x`` noisy.
NATIVE_REPEATS = 5


def optimize_pass(golden: Dict[str, dict], next_seed: Callable[[], int],
                  tracer=None) -> List[Op]:
    """Run each fixable program natively, then ask for a verdict on it."""
    from repro.optim.engine import optimize_workload
    from repro.workloads import get_workload, run_native

    ops = []
    for name, family in OBJECT_DENSE:
        seed = next_seed()
        if tracer is not None:
            tracer.begin_op(name)
        try:
            workload = get_workload(name)
            native_times = []
            first = time.perf_counter()
            for _ in range(NATIVE_REPEATS):
                started = time.perf_counter()
                native = run_native(workload, seed=seed)
                native_times.append(time.perf_counter() - started)
            started = time.perf_counter()
            verdict = optimize_workload(workload, family=family, seed=seed)
            ended = time.perf_counter()
            want = golden[name]
            problems = (_diff(f"{name}.native", result_digest(native),
                              want["native"])
                        + _diff(f"{name}.verdict", verdict_digest(verdict),
                                want["verdict"]))
            if verdict.status != "accepted":
                problems.append(f"{name}: verdict {verdict.status} "
                                f"({verdict.reason})")
        except Exception as error:
            ops.append(raised(name, error))
            continue
        finally:
            if tracer is not None:
                tracer.end_op()
        ops.append(Op(name=name, native_s=statistics.median(native_times),
                      work_s=ended - started, problems=problems,
                      native_at=(first, started), work_at=(started, ended),
                      sim_speedup=verdict.speedup or 0.0))
    return ops


# ----------------------------------------------------------------------
# Workload table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class InProcessWorkload:
    name: str
    #: Runs one pass: (golden, next_seed, tracer) -> ops.
    run_pass: Callable[..., List[Op]]
    #: Workload names whose programs set-up builds.
    programs: Tuple[str, ...]


def _bytecode_alloc(golden, next_seed, tracer=None):
    return profile_pass(BYTECODE_ALLOC, BYTECODE_ALLOC_CONFIG, golden,
                        next_seed, tracer=tracer)


def _table1(golden, next_seed, tracer=None):
    return profile_pass([row[0] for row in TABLE1], TABLE1_CONFIG, golden,
                        next_seed, tracer=tracer,
                        culprits={row[0]: (row[1], row[2])
                                  for row in TABLE1})


def _object_dense(golden, next_seed, tracer=None):
    return optimize_pass(golden, next_seed, tracer=tracer)


IN_PROCESS = {
    "bytecode-alloc": InProcessWorkload(
        "bytecode-alloc", _bytecode_alloc, BYTECODE_ALLOC),
    "table1-locality": InProcessWorkload(
        "table1-locality", _table1, tuple(row[0] for row in TABLE1)),
    "object-dense": InProcessWorkload(
        "object-dense", _object_dense,
        tuple(name for name, _ in OBJECT_DENSE)),
}
