"""Layer ledger for the traced run: wrap public functions, time spans.

Nothing in the program is edited.  :meth:`Tracer.install` replaces the
public functions and methods :func:`_targets` lists with wrappers that
keep a stack of open calls, so each call's *self time* (its duration
minus the time of the wrapped calls it made) is charged to its layer.
Calls at coarse boundaries (a machine run, an analysis, a GC, an
optimizer phase, a served job) are also kept as spans
``[name, start, end, parent span, operation id]``; the per-access and
per-event calls are too many to keep one by one, so they only add to
their layer's totals, which are also kept per operation.  The spans and
per-operation ledgers are written out when the run ends.

Work the program inlines into a caller is charged to that caller, not
to the layer that owns the code (see :data:`INLINED`).
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Work that runs inside a caller's frame and is attributed there.
INLINED = {
    "jvm": ("object dereference (Heap.get, HeapObject field/element "
            "reads and writes) inside interpreter handlers and fused "
            "blocks; Machine.memory_access/touch_range latency charging "
            "and bulk-walk chunking; the skip-ahead outcome histogram "
            "that fused blocks build before one observe_bulk_map call"),
    "memsys": ("the L1/TLB-hit replay of access_hot, which fused blocks "
               "reach through their bound _ah, and the cache pollution "
               "of GC compaction (nested under heap.gc)"),
    "obs": ("per-access PMU counting (PerfCounter.observe) and overflow "
            "sample construction, which run inside observe_access and "
            "observe_bulk*"),
    "heap": ("allocation zeroing is nested: its hierarchy walk is memsys "
             "and its allocation event is obs"),
}


def _targets():
    """(owner, attribute, layer, span name or None, hook or None) for
    every wrapper.  A hook runs after a call returns, with the tracer,
    the call's arguments and its result, to read program counters."""
    from repro.core import javaagent
    from repro.core.profiler import DJXPerf
    from repro.core.splay import IntervalSplayTree
    from repro.families.base import ObjectFamilyProfiler
    from repro.heap.allocator import Heap
    from repro.heap.gc import MarkCompactCollector
    from repro.heap.semispace import SemispaceCollector
    from repro.jvm.machine import Machine
    from repro.memsys.hierarchy import MemoryHierarchy
    from repro.obs.bus import EventBus
    from repro.obs.collector import Collector
    from repro.optim import engine
    from repro.serve import service
    from repro.serve.store import ProfileStore
    from repro.workloads.base import Workload

    targets = [
        (Workload, "build_verified", "jvm", "jvm.build"),
        (Machine, "__init__", "jvm", "jvm.init"),
        (Machine, "run", "jvm", "jvm.run", _after_machine_run),
        (MemoryHierarchy, "access", "memsys", None),
        (MemoryHierarchy, "access_hot", "memsys", None),
        (MemoryHierarchy, "touch_range", "memsys", None),
        (MemoryHierarchy, "set_range_policy", "memsys", None),
        (MemoryHierarchy, "flush_all", "memsys", None),
        (Heap, "allocate_instance", "heap", None),
        (Heap, "allocate_array", "heap", None),
        (Machine, "allocate_instance", "heap", None),
        (Machine, "allocate_array", "heap", None),
        (Machine, "allocate_multi_array", "heap", None),
        (MarkCompactCollector, "collect", "heap.gc", "heap.gc"),
        (SemispaceCollector, "collect", "heap.gc", "heap.gc"),
        (EventBus, "publish", "obs", None),
        (EventBus, "flush", "obs", None),
        (EventBus, "observe_access", "obs", None),
        (EventBus, "observe_bulk", "obs", None),
        (EventBus, "observe_bulk_map", "obs", None),
        (EventBus, "bulk_budget", "obs", None),
        (EventBus, "thread_started", "obs", None),
        (EventBus, "thread_ended", "obs", None),
        (EventBus, "open_sampler", "obs", None),
        (Collector, "handle_batch", "core.agent", None),
        (DJXPerf, "instrument", "core.agent", "core.instrument"),
        (javaagent, "instrument_program", "core.agent", "core.instrument"),
        (IntervalSplayTree, "insert", "core.splay", None),
        (IntervalSplayTree, "lookup", "core.splay", None),
        (IntervalSplayTree, "interval_at", "core.splay", None),
        (IntervalSplayTree, "overlapping", "core.splay", None),
        (IntervalSplayTree, "remove_containing", "core.splay", None),
        (IntervalSplayTree, "remove_start", "core.splay", None),
        (IntervalSplayTree, "clear", "core.splay", None),
        (DJXPerf, "analyze", "core.analyze", "core.analyze",
         _after_djxperf_analyze),
        (ObjectFamilyProfiler, "analyze", "core.analyze", "core.analyze",
         _after_family_analyze),
        (engine, "optimize_workload", "optim", "optim.optimize"),
        (engine, "profile_program", "optim.profile", "optim.profile"),
        (engine, "_run_engine", "optim.engine_check", "optim.engine_check"),
        (service, "execute_job", "serve.service", "serve.service"),
        (ProfileStore, "put_profile", "serve.store_write",
         "serve.store_write"),
        (ProfileStore, "find_latest", "serve.store_read",
         "serve.store_read"),
        (ProfileStore, "get_profile", "serve.store_read",
         "serve.store_read"),
    ]
    from repro.optim.transforms import TRANSFORMS
    for transform in TRANSFORMS.values():
        targets.append((transform, "apply", "optim.transform",
                        "optim.transform"))
    return targets


class Tracer:
    """Self-time ledger plus coarse spans; one per traced run."""

    def __init__(self) -> None:
        #: Open wrapped calls, innermost last: [time spent in children].
        self._stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Inclusive seconds per layer (sum over every call).
        self.total_s: Dict[str, float] = defaultdict(float)
        #: [name, start, end, parent index, operation id]
        self.spans: List[list] = []
        self._open_span = -1
        self.op: Optional[str] = None
        #: Prefix of operation ids: the pass (or phase) being traced.
        self.phase = ""
        #: Per operation: layer -> self seconds.
        self.op_ledgers: Dict[str, Dict[str, float]] = {}
        #: Program counters read at run/analysis boundaries.
        self.counts: Dict[str, float] = defaultdict(float)
        self._undo: List[tuple] = []
        self._op_start: Dict[str, float] = {}

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        for owner, attr, layer, span, *after in _targets():
            own = vars(owner)
            self._undo.append((owner, attr, attr in own, own.get(attr)))
            setattr(owner, attr, self._wrap(getattr(owner, attr), layer,
                                            span, after[0] if after else None))

    def uninstall(self) -> None:
        """Put every wrapped attribute back as it was."""
        for owner, attr, had, original in reversed(self._undo):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()

    def _wrap(self, fn: Callable, layer: str, span: Optional[str],
              after: Optional[Callable]) -> Callable:
        stack = self._stack
        self_s = self.self_s
        total_s = self.total_s
        clock = time.perf_counter
        spans = self.spans
        tracer = self

        if span is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                frame = [0.0]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = clock() - start
                    stack.pop()
                    self_s[layer] += duration - frame[0]
                    total_s[layer] += duration
                    if stack:
                        stack[-1][0] += duration
            return traced

        @functools.wraps(fn)
        def traced_span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            parent = tracer._open_span
            index = len(spans)
            record = [span, 0.0, 0.0, parent, tracer.op]
            spans.append(record)
            tracer._open_span = index
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(tracer, args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                tracer._open_span = parent
                record[1] = start
                record[2] = end
                duration = end - start
                self_s[layer] += duration - frame[0]
                total_s[layer] += duration
                if stack:
                    stack[-1][0] += duration
        return traced_span

    # -- operations -----------------------------------------------------
    def begin_op(self, op: str) -> None:
        self.op = f"{self.phase}:{op}"
        self._op_start = dict(self.self_s)

    def end_op(self) -> None:
        self.op_ledgers[self.op] = {
            layer: seconds - self._op_start.get(layer, 0.0)
            for layer, seconds in self.self_s.items()
            if seconds != self._op_start.get(layer, 0.0)}
        self.op = None

    def write(self, path: str, meta: dict) -> None:
        """Spans, per-operation ledgers and layer totals as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "meta": meta, "inlined": INLINED,
                "self_s": dict(self.self_s),
                "total_s": dict(self.total_s),
                "counts": dict(self.counts)}) + "\n")
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps(
                    {"span": name, "start": start, "end": end,
                     "parent": parent, "op": op}) + "\n")
            for op, ledger in self.op_ledgers.items():
                handle.write(json.dumps({"op": op, "self_s": ledger}) + "\n")


# ----------------------------------------------------------------------
# Counters read when a run or an analysis ends
# ----------------------------------------------------------------------
def _after_machine_run(tracer: Tracer, args, result) -> None:
    machine = args[0]
    counts = tracer.counts
    counts["jvm.instructions"] += result.total_instructions
    counts["jvm.fused_executions"] += machine.fusion.fused_executions
    counts["jvm.guard_bailouts"] += machine.fusion.guard_bailouts
    counts["memsys.accesses"] += result.loads + result.stores
    counts["memsys.l1_misses"] += result.l1_misses
    counts["memsys.tlb_misses"] += result.tlb_misses
    counts["heap.allocations"] += result.heap_allocations
    counts["heap.allocated_bytes"] += result.heap_allocated_bytes
    counts["heap.gc_collections"] += result.gc_collections
    counts["heap.gc_moved_bytes"] += machine.collector.stats.moved_bytes
    counts["obs.events_published"] += machine.bus.events_published


def _harvest_collector(tracer: Tracer, stats, splay) -> None:
    counts = tracer.counts
    counts["pmu.samples"] += stats.samples_handled
    counts["core.samples_attributed"] += (stats.samples_handled
                                          - stats.samples_unknown)
    counts["core.allocations_tracked"] += (stats.allocations_seen
                                           - stats.allocations_filtered)
    counts["core.splay_ops"] += (splay.stats.inserts + splay.stats.removes
                                 + splay.stats.lookups)
    counts["core.splay_lookups"] += splay.stats.lookups
    counts["core.splay_cache_hits"] += splay.stats.cache_hits


def _after_djxperf_analyze(tracer: Tracer, args, result) -> None:
    agent = args[0].agent
    _harvest_collector(tracer, agent.stats, agent.splay)


def _after_family_analyze(tracer: Tracer, args, result) -> None:
    profiler = args[0]
    _harvest_collector(tracer, profiler.stats, profiler.splay)
