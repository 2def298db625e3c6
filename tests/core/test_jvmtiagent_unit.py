"""Unit-level tests of the JVMTI agent's GC-handling edge cases.

These call the agent's typed event handlers directly (the same entry
points :meth:`~repro.obs.collector.Collector.handle_batch` dispatches
to), simulating GC activity by hand.
"""

import dataclasses

import pytest

from repro.core import DJXPerf, DjxConfig
from repro.core.jvmtiagent import AgentCostModel
from repro.core.splay import IntervalSplayTree
from repro.heap.layout import Kind
from repro.jvm import JProgram, Machine, MachineConfig, MethodBuilder
from repro.obs.events import (
    AllocEvent,
    GcFinalizeEvent,
    GcMoveEvent,
    GcNotifyEvent,
    SampleEvent,
)

from tests.core.test_splay import NaiveIntervalMap
from tests.jvm.helpers import counting_loop


def attached_agent(iterations=5, heap=1024 * 1024, threshold=0):
    p = JProgram()
    b = MethodBuilder("C", "main")
    counting_loop(b, iterations, 0,
                  lambda b: b.iconst(256).newarray(Kind.INT).store(1))
    b.ret()
    p.add_builder(b)
    p.add_entry("main")
    profiler = DJXPerf(DjxConfig(sample_period=64, size_threshold=threshold))
    machine = Machine(profiler.instrument(p),
                      MachineConfig(heap_size=heap))
    profiler.attach(machine)
    return profiler, machine


def gc_notify(gc_id=1, reclaimed_objects=0, reclaimed_bytes=0,
              moved_objects=0, moved_bytes=0):
    return GcNotifyEvent(gc_id=gc_id, reclaimed_objects=reclaimed_objects,
                         reclaimed_bytes=reclaimed_bytes,
                         moved_objects=moved_objects,
                         moved_bytes=moved_bytes, live_bytes=0,
                         pause_cycles=0)


class TestRelocationMap:
    def test_memmove_buffered_until_notification(self):
        profiler, machine = attached_agent()
        machine.run()
        agent = profiler.agent
        # Simulate GC activity by hand: one tracked object "moves".
        start, end, payload = next(iter(agent.splay))
        size = end - start
        agent.on_gc_move(GcMoveEvent(oid=0, src=start, dst=0x9000,
                                     size=size))
        # Not yet applied: lookups still resolve the old address.
        assert agent.splay.lookup(start) is payload
        assert agent._relocation_map == {start: (0x9000, size)}
        agent.on_gc_notification(gc_notify(moved_objects=1,
                                           moved_bytes=size))
        assert agent.splay.lookup(start) is None
        assert agent.splay.lookup(0x9000) is payload
        assert agent._relocation_map == {}

    def test_move_of_untracked_object_inserts_unknown(self):
        profiler, machine = attached_agent()
        machine.run()
        agent = profiler.agent
        agent.on_gc_move(GcMoveEvent(oid=0, src=0x777000, dst=0x888000,
                                     size=64))
        agent.on_gc_notification(gc_notify(moved_objects=1, moved_bytes=64))
        tracked = agent.splay.lookup(0x888000)
        assert tracked is not None
        assert tracked.known is False
        assert agent.stats.relocations_unknown == 1

    def test_finalize_cancels_pending_relocation(self):
        profiler, machine = attached_agent()
        machine.run()
        agent = profiler.agent
        start, end, _payload = next(iter(agent.splay))
        size = end - start
        agent.on_gc_move(GcMoveEvent(oid=0, src=start, dst=0xA000,
                                     size=size))
        agent.on_gc_finalize(GcFinalizeEvent(oid=0, addr=start, size=size,
                                             type_name="int[]"))
        agent.on_gc_notification(gc_notify(reclaimed_objects=1,
                                           reclaimed_bytes=size))
        # Reclaimed object must not be resurrected at its destination.
        assert agent.splay.lookup(0xA000) is None
        assert agent.splay.lookup(start) is None

    def test_unknown_object_samples_counted_unknown(self):
        profiler, machine = attached_agent()
        machine.run()
        agent = profiler.agent
        agent.on_gc_move(GcMoveEvent(oid=0, src=0x777000, dst=0x888000,
                                     size=64))
        agent.on_gc_notification(gc_notify(moved_objects=1, moved_bytes=64))
        # A sample landing in the unknown interval is recorded as
        # unknown, not attributed to a bogus path.
        thread = machine.threads[0]
        sampler_id = next(iter(agent._sampler_ids))
        before = agent.stats.samples_unknown
        agent.on_sample(SampleEvent(
            sampler_id=sampler_id, event="MEM_LOAD_UOPS_RETIRED:L1_MISS",
            tid=thread.tid, cpu=0, address=0x888010, size=8,
            is_write=False, latency=200, level="DRAM", home_node=0,
            remote=False, path=(), thread=thread))
        assert agent.stats.samples_unknown == before + 1

    def test_foreign_sampler_ignored(self):
        profiler, machine = attached_agent()
        machine.run()
        agent = profiler.agent
        thread = machine.threads[0]
        foreign = max(agent._sampler_ids) + 1000
        before = agent.stats.samples_handled
        agent.on_sample(SampleEvent(
            sampler_id=foreign, event="MEM_LOAD_UOPS_RETIRED:L1_MISS",
            tid=thread.tid, cpu=0, address=0x888010, size=8,
            is_write=False, latency=200, level="DRAM", home_node=0,
            remote=False, path=(), thread=thread))
        assert agent.stats.samples_handled == before


class TestDisabledAgent:
    def test_events_ignored_after_stop(self):
        profiler, machine = attached_agent()
        machine.run()
        agent = profiler.agent
        agent.stop()
        before = len(agent.splay)
        agent.on_gc_move(GcMoveEvent(oid=0, src=0x1, dst=0x2, size=8))
        assert agent._relocation_map == {}
        agent.on_gc_finalize(GcFinalizeEvent(oid=0, addr=0x1, size=8,
                                             type_name="x"))
        assert len(agent.splay) == before


class TestCostCharging:
    def test_alloc_dispatch_charged_even_when_filtered(self):
        costs = AgentCostModel()
        profiler, machine = attached_agent(threshold=1 << 20)  # filter all
        machine.run()
        agent = profiler.agent
        assert agent.stats.allocations_seen == 5
        assert agent.stats.allocations_filtered == 5
        # Dispatch cost must have been charged for each filtered alloc;
        # full hook cost must not (no splay entries).
        assert len(agent.splay) == 0
        # Per-collector accounting: at least the five dispatch charges,
        # but none of the alloc_hook_base charges (all filtered).
        assert agent.charged_cycles >= 5 * costs.alloc_hook_dispatch
        alloc_charges = agent.charged_cycles - 5 * costs.alloc_hook_dispatch
        # Remaining charges are all sample handling, in sample_base units.
        assert agent.stats.samples_handled > 0 or alloc_charges == 0


class TestGcSlideAtScale:
    """One sliding collection over 1,000 tracked objects, checked
    against a naive interval list.  ``__iter__`` raises throughout, so
    no splay insert may fall back to walking every tracked object."""

    N = 1000
    BASE = 1 << 32          # above every address the machine allocated
    STRIDE = 96

    def test_slide_matches_naive_list(self, monkeypatch):
        def no_full_walk(self):
            raise AssertionError("full traversal during a GC batch")

        profiler, machine = attached_agent()
        machine.run()
        agent = profiler.agent
        thread = machine.threads[0]
        before = dataclasses.replace(agent.stats)
        evictions_before = agent.splay.stats.evictions
        model = NaiveIntervalMap()
        starts = [self.BASE + i * self.STRIDE for i in range(self.N)]
        sizes = [32 + (i % 4) * 16 for i in range(self.N)]
        live = [i for i in range(self.N) if i % 3]
        # One dead object in five misses its finalize: its interval
        # stays until a moved object lands over it.
        finalized = [i for i in range(self.N) if i % 3 == 0 and i % 15]
        untracked = 5
        evictions = 0
        with monkeypatch.context() as patch:
            patch.setattr(IntervalSplayTree, "__iter__", no_full_walk)
            for i, (start, size) in enumerate(zip(starts, sizes)):
                agent.on_alloc(AllocEvent(
                    tid=thread.tid, addr=start, end=start + size, size=size,
                    type_name=f"T{i}", path=(), thread=thread))
                model.insert(start, start + size, f"T{i}")
            for i in finalized:
                agent.on_gc_finalize(GcFinalizeEvent(
                    oid=i, addr=starts[i], size=sizes[i],
                    type_name=f"T{i}"))
                model.remove_start(starts[i])
            moves = []
            cursor = self.BASE
            for i in live:
                moves.append((starts[i], cursor, sizes[i]))
                cursor += sizes[i]
            # Moves of objects the agent never saw allocated land past
            # the slid region.
            for k in range(untracked):
                moves.append((self.BASE // 2 + 0x100 * k,
                              self.BASE + self.N * self.STRIDE + 64 * k, 64))
            for oid, (src, dst, size) in enumerate(moves):
                agent.on_gc_move(GcMoveEvent(oid=oid, src=src, dst=dst,
                                             size=size))
            agent.on_gc_notification(gc_notify(moved_objects=len(moves)))
            for src, dst, size in sorted(moves, key=lambda m: m[1]):
                payload = model.remove_start(src) or "<moved>"
                evictions += len(model.insert(dst, dst + size, payload))

        expected = dataclasses.replace(
            before,
            allocations_seen=before.allocations_seen + self.N,
            relocations_applied=before.relocations_applied + len(live),
            relocations_unknown=before.relocations_unknown + untracked,
            finalized_removed=before.finalized_removed + len(finalized))
        assert agent.stats == expected
        assert evictions > 0
        assert agent.splay.stats.evictions - evictions_before == evictions
        agent.splay.check_invariants()
        for src, dst, size in moves:
            for address in (dst, dst + size - 1):
                tracked = agent.splay.lookup(address)
                assert tracked.type_name == model.lookup(address), hex(dst)
        top = self.BASE + self.N * self.STRIDE + 64 * untracked
        for address in range(self.BASE, top + 64, 8):
            tracked = agent.splay.lookup(address)
            assert (tracked.type_name if tracked else None) \
                == model.lookup(address), hex(address)
