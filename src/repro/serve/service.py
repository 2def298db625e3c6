"""The continuous-profiling daemon.

One service instance owns a spool queue and a profile store.  Each poll
it claims every pending job, serves exact-key repeats straight from the
store (no re-simulation), runs the rest one at a time in its own
process, persists the resulting profiles, and appends a heartbeat line
to ``<spool>/status.jsonl`` so an operator (or the CI smoke job) can
watch it without attaching a debugger.

Before each job the heartbeat names the job and its ``deadline``
(start + ``JobSpec.timeout``).  Only the multi-process fleet's
supervisor enforces it, by killing the shard; standalone and on fleet
threads there is no process to kill, so the deadline is informational.

Job outcomes are written back into the spool (``done/``/``failed/``),
so ``submit`` callers can poll for their job id.  Failed jobs are
requeued with a counted attempt until ``max_attempts`` is exhausted.
"""

from __future__ import annotations

import json
import os
import random
import signal
import time
import traceback
from typing import Dict, List, Optional

from repro.core.analyzer import AnalysisResult
from repro.core.profiler import DjxConfig
from repro.serve.queue import FairnessPolicy, JobSpec, SpoolQueue
from repro.serve.store import ProfileKey, ProfileStore, profile_key_for

#: Heartbeat file name inside the spool directory.
STATUS_FILE = "status.jsonl"

#: Seconds one attempt of a job may run when its spec sets no timeout.
DEFAULT_JOB_TIMEOUT = 300.0


def read_heartbeat(path: str) -> Optional[dict]:
    """The last complete JSON line of a heartbeat file (tail only), or
    None; a torn final line (a write in progress) is skipped."""
    try:
        with open(path, "rb") as fh:
            fh.seek(0, os.SEEK_END)
            fh.seek(max(0, fh.tell() - 8192))
            tail = fh.read().decode("utf-8", "replace").splitlines()
    except OSError:
        return None
    for line in reversed(tail):
        try:
            beat = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(beat, dict):
            return beat
    return None


# ----------------------------------------------------------------------
# Job execution
# ----------------------------------------------------------------------
def _job_config(spec: JobSpec) -> DjxConfig:
    return DjxConfig(sample_period=spec.period,
                     size_threshold=spec.threshold)


def execute_job(payload: dict) -> dict:
    """Run one job and return a JSON-able result."""
    spec = JobSpec.from_dict(payload)
    if spec.kind == "profile":
        return _execute_profile(spec)
    if spec.kind == "bench":
        return _execute_bench(spec)
    if spec.kind == "fuzz":
        return _execute_fuzz(spec)
    if spec.kind == "optimize":
        return _execute_optimize(spec)
    raise ValueError(f"unknown job kind {spec.kind!r}")


def _execute_profile(spec: JobSpec) -> dict:
    from repro.jvm.dispatch import warm_cache_stats
    from repro.workloads import get_workload, run_profiled

    workload = get_workload(spec.workload)
    trace_path = spec.meta.get("trace_path")
    before = warm_cache_stats()
    run = run_profiled(workload, variant=spec.variant,
                       config=_job_config(spec), seed=spec.seed,
                       trace_path=trace_path, family=spec.family)
    after = warm_cache_stats()
    return {
        "kind": "profile",
        "family": spec.family,
        "analysis": run.analysis.to_dict(),
        "wall_cycles": run.result.wall_cycles,
        "total_samples": run.analysis.total(),
        "trace_path": trace_path,
        # Fused-codegen warm-cache delta for this job: a long-lived
        # daemon compiles each (method, variant) once, so repeat
        # traffic shows hits > 0 and misses == 0 here.
        "warm": {"hits": after["hits"] - before["hits"],
                 "misses": after["misses"] - before["misses"]},
    }


def _execute_bench(spec: JobSpec) -> dict:
    from repro.bench import bench_workload
    from repro.workloads import get_workload

    row = bench_workload(get_workload(spec.workload),
                         repeat=int(spec.meta.get("repeat", 1)),
                         legacy=bool(spec.meta.get("legacy", False)),
                         seed=spec.seed)
    return {
        "kind": "bench",
        "name": row.name,
        "instructions": row.instructions,
        "accesses": row.accesses,
        "fastpath_seconds": row.fastpath.seconds,
        "ips": row.fastpath.ips,
        "aps": row.fastpath.aps,
    }


def _execute_optimize(spec: JobSpec) -> dict:
    from repro.optim.engine import optimize_workload

    capacity = spec.meta.get("capacity")
    verdict = optimize_workload(
        spec.workload, variant=spec.variant, family=spec.family,
        transform=spec.meta.get("transform"),
        config=_job_config(spec), seed=spec.seed,
        capacity=None if capacity is None else int(capacity))
    return {"kind": "optimize", "verdict": verdict.to_dict()}


def _execute_fuzz(spec: JobSpec) -> dict:
    from repro.fuzz import run_fuzz

    report = run_fuzz(seed=spec.seed or 0,
                      iterations=int(spec.meta.get("iterations", 25)))
    return {
        "kind": "fuzz",
        "ok": report.ok,
        "iterations_run": report.iterations_run,
        "failures": len(report.failures),
    }


# ----------------------------------------------------------------------
# The daemon
# ----------------------------------------------------------------------
class ProfilingService:
    """Poll the spool, execute jobs, persist profiles, heartbeat."""

    def __init__(self, spool_dir: str, store_path: str,
                 heartbeat_path: Optional[str] = None,
                 fleet_index=None, shard_id: int = 0,
                 queue_policy: Optional[FairnessPolicy] = None,
                 retention: Optional[float] = None,
                 heartbeat_max_bytes: int = 262144) -> None:
        self.queue = SpoolQueue(spool_dir, policy=queue_policy)
        self.store = ProfileStore(store_path)
        self.heartbeat_path = heartbeat_path or os.path.join(
            spool_dir, STATUS_FILE)
        #: Fleet-wide dedupe index (:class:`repro.serve.router.FleetIndex`)
        #: when this daemon is one shard of a fleet; None standalone.
        self.fleet_index = fleet_index
        self.shard_id = shard_id
        #: Outcome files (done/failed) older than this many seconds are
        #: swept at startup and on idle polls; None keeps them forever.
        self.retention = retention
        #: Heartbeat file size (bytes) that triggers a roll to ``.1``.
        self.heartbeat_max_bytes = heartbeat_max_bytes
        self.completed = 0
        self.failed = 0
        self.cached_hits = 0
        #: Jobs handed to ``execute_job`` (store and fleet hits excluded).
        self.executed = 0
        #: Fused-codegen warm-cache totals aggregated over executed
        #: jobs (see ``_execute_profile``'s per-job ``warm`` delta).
        self.warm_hits = 0
        self.warm_misses = 0
        #: Outcome files removed by retention sweeps.
        self.swept = 0
        #: Cross-shard dedupe counters (consults of the fleet index
        #: after a local store miss), surfaced in every heartbeat.
        self.fleet_hits = 0
        self.fleet_misses = 0
        #: Read handles on other shards' stores, opened on first
        #: cross-shard hit (WAL keeps these reads safe under writers).
        self._remote_stores: Dict[str, ProfileStore] = {}
        #: Last idle-poll sleep serve_forever took (observability).
        self.idle_delay = 0.0
        self._stopping = False
        # A crashed predecessor's running/ claims must not stay
        # stranded until an operator intervenes: reclaim at startup.
        # Only the job its last heartbeat names as "working" was
        # executing; the rest were claimed but never started.
        beat = read_heartbeat(self.heartbeat_path) or {}
        running = beat.get("job_id") if beat.get("state") == "working" \
            else None
        recovered = self.queue.recover(charge=[running] if running else [])
        self.failed += sum(s.job_id == running and
                           s.attempts >= s.max_attempts for s in recovered)
        if recovered:
            self._heartbeat("recovered",
                            extra={"recovered": len(recovered)})
        self.swept += self.queue.sweep(self.retention)

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        self.store.close()
        for remote in self._remote_stores.values():
            remote.close()
        self._remote_stores.clear()

    def __enter__(self) -> "ProfilingService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def request_stop(self, *_signal_args) -> None:
        """Ask the serve loop to drain and exit (signal-handler safe)."""
        self._stopping = True

    # -- the work -------------------------------------------------------
    def _profile_key(self, spec: JobSpec) -> ProfileKey:
        from repro.workloads import get_workload

        return profile_key_for(get_workload(spec.workload), spec.variant,
                               _job_config(spec), seed=spec.seed,
                               family=spec.family)

    def _serve_from_store(self, spec: JobSpec) -> Optional[dict]:
        """A completed result for an exact-key repeat, or None.

        Two tiers: the shard's own store by exact key first, then the
        fleet-wide dedupe index by ``(program_hash, config_hash,
        seed)`` — content identity, not labels — so a submission that
        any shard already answered (e.g. its old home before a
        reshard) never touches the simulator.
        """
        if spec.kind != "profile" or spec.force:
            return None
        try:
            key = self._profile_key(spec)
        except (KeyError, ValueError) as exc:
            # Unknown workload/variant: fall through to execute_job,
            # which fails the job with the same message.
            spec.meta["key_error"] = str(exc)
            return None
        record = self.store.find_latest(key)
        if record is not None:
            self.cached_hits += 1
            return {"kind": "profile", "cached": True,
                    "record_id": record.record_id,
                    "payload_hash": record.payload_hash,
                    "wall_cycles": record.wall_cycles,
                    "total_samples": record.total_samples}
        return self._serve_from_fleet(key)

    def _serve_from_fleet(self, key: ProfileKey) -> Optional[dict]:
        """Cross-shard dedupe: serve from whichever shard has it."""
        if self.fleet_index is None:
            return None
        hit = self.fleet_index.lookup(key.program_hash, key.config_hash,
                                      key.seed)
        if hit is None:
            self.fleet_misses += 1
            return None
        try:
            store = self._store_for(hit.store_path)
            record = store.get_record(hit.record_id)
        except (KeyError, OSError):
            # The owning shard's store moved or lost the row; the
            # index entry is stale — simulate and re-register.
            self.fleet_misses += 1
            return None
        self.fleet_hits += 1
        return {"kind": "profile", "cached": True, "fleet": True,
                "origin_shard": hit.shard, "shard": self.shard_id,
                "record_id": record.record_id,
                "payload_hash": record.payload_hash,
                "wall_cycles": record.wall_cycles,
                "total_samples": record.total_samples}

    def _store_for(self, store_path: str) -> ProfileStore:
        """This shard's own store, or a cached read handle on another's."""
        if os.path.abspath(store_path) == os.path.abspath(self.store.path):
            return self.store
        store = self._remote_stores.get(store_path)
        if store is None:
            store = ProfileStore(store_path)
            self._remote_stores[store_path] = store
        return store

    def _persist(self, spec: JobSpec, result: dict) -> dict:
        """Store an execution result; returns the (augmented) job result."""
        if result.get("kind") == "profile":
            analysis = AnalysisResult.from_dict(result["analysis"])
            key = self._profile_key(spec)
            record = self.store.put_profile(
                key, analysis,
                wall_cycles=result["wall_cycles"],
                trace_path=result.get("trace_path"),
                meta={"job_id": spec.job_id})
            if self.fleet_index is not None:
                self.fleet_index.register(key, self.shard_id,
                                          record.record_id,
                                          self.store.path)
            warm = result.get("warm") or {}
            self.warm_hits += int(warm.get("hits", 0))
            self.warm_misses += int(warm.get("misses", 0))
            return {"kind": "profile", "cached": False,
                    "record_id": record.record_id,
                    "payload_hash": record.payload_hash,
                    "deduplicated": record.deduplicated,
                    "wall_cycles": result["wall_cycles"],
                    "total_samples": result["total_samples"],
                    "warm": warm}
        if result.get("kind") == "bench":
            row_id = self.store.put_bench(result["name"], result)
            return {**result, "bench_row_id": row_id}
        if result.get("kind") == "optimize":
            verdict = result["verdict"]
            row_id = self.store.put_optimize(spec.job_id, verdict)
            return {"kind": "optimize", "verdict_row_id": row_id,
                    "status": verdict.get("status"),
                    "transform": verdict.get("transform"),
                    "speedup": verdict.get("speedup"),
                    "verdict": verdict}
        return result

    def run_once(self) -> List[dict]:
        """One poll: claim, execute, persist.  Returns job summaries."""
        claimed: List[JobSpec] = list(iter(self.queue.claim, None))
        if not claimed:
            return []

        summaries: List[dict] = []
        to_run: List[JobSpec] = []
        for spec in claimed:
            cached = self._serve_from_store(spec)
            if cached is not None:
                self.queue.complete(spec, cached)
                self.completed += 1
                summaries.append({"job_id": spec.job_id, "ok": True,
                                  **cached})
            else:
                to_run.append(spec)

        summaries.extend(self._run_job(spec) for spec in to_run)
        self._heartbeat("idle")
        return summaries

    def _run_job(self, spec: JobSpec) -> dict:
        """Execute one claimed job, persist or requeue/fail it."""
        timeout = spec.timeout or DEFAULT_JOB_TIMEOUT  # validated > 0
        now = time.time()  # one clock read for both ts and deadline
        self._heartbeat("working", extra={"ts": now, "job_id": spec.job_id,
                                          "deadline": now + timeout})
        self.executed += 1
        try:
            result = execute_job(spec.to_dict())
        except Exception as exc:  # noqa: BLE001 — one job, one outcome
            traceback.print_exc()
            error = f"{type(exc).__name__}: {exc}"
        else:
            stored = self._persist(spec, result)
            self.queue.complete(spec, stored)
            self.completed += 1
            return {"job_id": spec.job_id, "ok": True, **stored}
        requeued = self.queue.retry_or_fail(spec, error)
        if not requeued:
            self.failed += 1
        return {"job_id": spec.job_id, "ok": False, "requeued": requeued,
                "error": error}

    def drain(self, max_polls: int = 100) -> int:
        """Run polls until the queue is empty; returns jobs completed."""
        before = self.completed
        for _ in range(max_polls):
            if not self.run_once() and self.queue.pending_count() == 0:
                break
        return self.completed - before

    @staticmethod
    def next_idle_delay(current: float, base: float,
                        max_backoff: float) -> float:
        """The delay after one more empty poll (exponential, capped)."""
        return min(max(current, base) * 2.0, max_backoff)

    def serve_forever(self, poll_interval: float = 1.0,
                      max_polls: Optional[int] = None,
                      install_signal_handlers: bool = False,
                      max_backoff: Optional[float] = None,
                      jitter: float = 0.1) -> None:
        """Poll until stopped (SIGINT/SIGTERM with handlers installed).

        An empty queue does not deserve a fixed-rate poll: each idle
        poll doubles the sleep (jittered ±``jitter`` so a fleet of
        daemons sharing a spool never phase-locks their directory
        scans) up to ``max_backoff`` (default ``32 * poll_interval``);
        the first claimed job resets the delay to ``poll_interval``.
        """
        if install_signal_handlers:
            signal.signal(signal.SIGTERM, self.request_stop)
            signal.signal(signal.SIGINT, self.request_stop)
        if max_backoff is None:
            max_backoff = poll_interval * 32.0
        rng = random.Random(os.getpid() ^ id(self))
        delay = poll_interval
        polls = 0
        self._heartbeat("started")
        while not self._stopping:
            if max_polls is not None and polls >= max_polls:
                break
            polls += 1
            if self.run_once():
                delay = poll_interval
            else:
                # Idle polls double as housekeeping: sweep aged outcome
                # files so long-running fleets don't grow the spool
                # without bound, and heartbeat so a supervisor can
                # tell an idle worker from a hung one (run_once only
                # heartbeats when it claimed work).
                self.swept += self.queue.sweep(self.retention)
                self._heartbeat("idle", extra={"idle_delay": delay})
                self.idle_delay = delay
                time.sleep(delay * (1.0 + rng.uniform(-jitter, jitter)))
                delay = self.next_idle_delay(delay, poll_interval,
                                             max_backoff)
        # Graceful drain: finish what is already queued, then stop.
        self.drain()
        self._heartbeat("stopped")

    # -- observability --------------------------------------------------
    def _heartbeat(self, state: str,
                   extra: Optional[Dict] = None) -> None:
        line = {
            "ts": time.time(),
            "pid": os.getpid(),
            "state": state,
            "queue": self.queue.counts(),
            "completed": self.completed,
            "failed": self.failed,
            "cached_hits": self.cached_hits,
            "warm": {"hits": self.warm_hits, "misses": self.warm_misses},
            "swept": self.swept,
            "executed": self.executed,
        }
        if self.fleet_index is not None:
            line["fleet"] = {"shard": self.shard_id,
                             "dedupe_hits": self.fleet_hits,
                             "dedupe_misses": self.fleet_misses}
        if extra:
            line.update(extra)
        self._rotate_heartbeat()
        with open(self.heartbeat_path, "a") as fh:
            fh.write(json.dumps(line, sort_keys=True) + "\n")

    def _rotate_heartbeat(self) -> None:
        """Size-capped roll: ``status.jsonl`` → ``status.jsonl.1``.

        ``serve_forever`` appends a line per poll forever; one rolled
        generation bounds disk use at ~2x the cap while keeping recent
        history for operators (the supervisor only reads the live
        file's tail, so a roll between its polls is harmless).
        """
        try:
            if os.path.getsize(self.heartbeat_path) < \
                    self.heartbeat_max_bytes:
                return
        except OSError:
            return
        os.replace(self.heartbeat_path, self.heartbeat_path + ".1")
