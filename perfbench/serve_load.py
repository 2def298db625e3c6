"""fleet-serve: an open-loop load on ``repro fleet --processes --shards 1``.

The fleet runs as the CLI starts it, with its defaults apart from
``--root`` and ``--port``.  One process generates the load over at most
two HTTP connections at a time: a submitter thread posts one profile
job at each due time of a fixed-rate schedule, whatever the fleet is
doing, and a poller thread asks for the status of every outstanding job
every :data:`POLL_S` seconds.  A job's latency runs from its due time,
not its send time, to the poll that saw its verdict, so a stalled
submitter shows up as latency.

Half the jobs carry a fresh seed (a simulation plus a store write);
the other half repeat one seed per row, which the fleet answers from
its store (a dedupe read).  The repeated seeds are submitted once
before the schedule starts, so every repeat in it is a hit.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from perfbench import suite

#: Jobs submitted per second.  On a 2-core host the 1-shard fleet keeps
#: up with this mix at 20 jobs/s and falls behind (429s, a growing
#: backlog) at 30 jobs/s.
RATE_PER_S = 10.0
#: Seconds between status polls of the outstanding jobs: well below the
#: median latency, so polling does not quantise it.
POLL_S = 0.01
#: Fleet start-ups per run; set-up time is their median.
SETUPS = 5
TENANT = "bench"


@dataclass
class Job:
    """One job of the schedule and what became of it.

    ``due``, ``sent`` and ``seen`` are ``perf_counter`` times;
    ``seen_wall`` is ``seen`` on the wall clock, to compare with the
    fleet's ``submitted_at``/``finished_at``.
    """

    row: str
    seed: int
    unique: bool
    due: float
    sent: float = 0.0
    rtt: float = 0.0
    status: int = 0
    job_id: Optional[str] = None
    seen: float = 0.0
    seen_wall: float = 0.0
    outcome: Optional[dict] = None
    problems: List[str] = field(default_factory=list)


def _request(port: int, method: str, path: str,
             payload: Optional[dict] = None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        body = json.dumps(payload) if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        data = response.read()
        return response.status, json.loads(data) if data else {}
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Fleet process tree
# ----------------------------------------------------------------------
def _stat_fields(pid: int) -> List[str]:
    """Fields of /proc/<pid>/stat after the command name."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return []


def _group(pgid: int) -> List[int]:
    """Live (non-zombie) processes in process group ``pgid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if len(fields) > 2 and fields[0] != "Z" \
                    and int(fields[2]) == pgid:
                pids.append(int(entry))
    return pids


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class FleetProcess:
    """One ``repro fleet --processes`` tree in its own process group."""

    def __init__(self, root: Path, fleet_root: Path) -> None:
        self.fleet_root = fleet_root
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self._log = open(fleet_root.with_suffix(".log"), "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "fleet", "--processes",
             "--shards", "1", "--root", str(fleet_root), "--port", "0"],
            cwd=str(root), env=env, stdout=self._log,
            stderr=subprocess.STDOUT, start_new_session=True)
        self.port = 0

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Seconds from spawn until the front door answers."""
        door = self.fleet_root / "front-door.json"
        deadline = self.started + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"fleet exited with {self.proc.returncode}")
            try:
                self.port = json.loads(door.read_text())["port"]
                if _request(self.port, "GET", "/fleet")[0] == 200:
                    return time.perf_counter() - self.started
            except (OSError, ValueError, KeyError):
                pass
            time.sleep(0.01)
        raise RuntimeError("fleet front door did not answer")

    def peak_rss_kb(self) -> int:
        """Sum of VmHWM over the supervisor and the processes it
        started (its process group)."""
        return sum(_vm_hwm_kb(pid) for pid in _group(self.proc.pid))

    def stop(self) -> None:
        """SIGTERM the supervisor (it drains its children), then make
        sure every process of the tree has ended."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        deadline = time.monotonic() + 10
        while _group(self.proc.pid):
            if time.monotonic() > deadline:
                os.killpg(self.proc.pid, signal.SIGKILL)
                deadline = time.monotonic() + 10
            time.sleep(0.05)
        self._log.close()


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------
def _payload(job: Job) -> dict:
    return {"workload": job.row, "seed": job.seed, "tenant": TENANT}


def _poll_once(port: int, jobs: List[Job]) -> int:
    """Ask for every outstanding job's status once; returns how many
    are still outstanding."""
    outstanding = 0
    for job in jobs:
        if not job.job_id or job.outcome is not None:
            continue
        status, data = _request(port, "GET", f"/status/{job.job_id}")
        if status == 200 and data.get("state") in ("done", "failed"):
            job.seen = time.perf_counter()
            job.seen_wall = time.time()
            job.outcome = data
        else:
            outstanding += 1
    return outstanding


def _warm(port: int, rows, dup_seed: int) -> None:
    """Answer each repeated seed once, so the timed repeats all hit."""
    jobs = []
    for row in rows:
        job = Job(row, dup_seed, False, 0.0)
        status, data = _request(port, "POST", "/submit", _payload(job))
        if status != 202:
            raise RuntimeError(f"warm-up submit refused: {status} {data}")
        job.job_id = data["job_id"]
        jobs.append(job)
    deadline = time.perf_counter() + 120
    while _poll_once(port, jobs) and time.perf_counter() < deadline:
        time.sleep(POLL_S)
    if any(job.outcome is None for job in jobs):
        raise RuntimeError("warm-up jobs did not finish")


def drive(port: int, seed: int, seconds: float) -> List[Job]:
    """Submit the open-loop schedule and collect every verdict."""
    rng = random.Random(seed)
    dup_seed = rng.randrange(1, 2 ** 31)
    seeds = rng.sample(range(1, 2 ** 31), int(RATE_PER_S * seconds))
    _warm(port, suite.SERVE_ROWS, dup_seed)
    start = time.perf_counter() + 0.05
    jobs = []
    for index in range(int(RATE_PER_S * seconds)):
        unique = index % 2 == 0
        row = suite.SERVE_ROWS[(index // 2) % len(suite.SERVE_ROWS)]
        jobs.append(Job(row, seeds[index] if unique else dup_seed, unique,
                        start + index / RATE_PER_S))
    submitted = threading.Event()

    def submit() -> None:
        try:
            for job in jobs:
                delay = job.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                job.sent = time.perf_counter()
                job.status, data = _request(port, "POST", "/submit",
                                            _payload(job))
                job.rtt = time.perf_counter() - job.sent
                if job.status == 202:
                    job.job_id = data["job_id"]
                else:
                    job.problems.append(f"submit refused: {job.status} "
                                        f"{data}")
        finally:
            submitted.set()

    def poll() -> None:
        deadline = start + seconds + 60
        while time.perf_counter() < deadline:
            done = submitted.is_set()
            if not _poll_once(port, jobs) and done:
                return
            time.sleep(POLL_S)

    threads = [threading.Thread(target=submit), threading.Thread(target=poll)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return jobs


def check(jobs: List[Job], golden: Dict[str, dict]) -> None:
    """A job passes if it finished and its profile matches the golden."""
    for job in jobs:
        if job.problems:
            continue
        if job.outcome is None:
            job.problems.append("no verdict before the deadline")
            continue
        if job.outcome["state"] != "done":
            job.problems.append(
                f"job failed: {job.outcome['job'].get('error')}")
            continue
        result = job.outcome["job"]["result"]
        want = golden[job.row]
        for key in ("wall_cycles", "total_samples"):
            if result.get(key) != want[key]:
                job.problems.append(f"{job.row} seed {job.seed}: {key} "
                                    f"{result.get(key)} != {want[key]}")


def latencies_ms(jobs: List[Job], ended: float) -> List[float]:
    """Due-to-verdict latency.  A failed or refused job never delivers
    a verdict: it counts as still waiting when the run ``ended``, which
    is later than any verdict that did arrive."""
    return [((job.seen if not job.problems else ended) - job.due) * 1e3
            for job in jobs]


# ----------------------------------------------------------------------
# In-process service and store timing (traced run)
# ----------------------------------------------------------------------
def replay_in_process(work_dir: Path, seed: int, repeats: int = 3) -> dict:
    """Run unique and repeated jobs' service work in this process.

    The fleet's processes cannot be wrapped from outside, so the traced
    run times ``execute_job`` and the profile store on the same job
    payloads here.  Returns per-row service seconds and the store's
    write and read seconds.  The store is a fresh file in ``work_dir``,
    which the caller removes.
    """
    from repro.core import DjxConfig
    from repro.core.analyzer import AnalysisResult
    from repro.serve import service as service_module
    from repro.serve.store import ProfileStore, profile_key_for
    from repro.workloads import get_workload

    rng = random.Random(seed)
    config = DjxConfig(**suite.SERVE_CONFIG)
    service: Dict[str, List[float]] = {row: [] for row in suite.SERVE_ROWS}
    writes: List[float] = []
    reads: List[float] = []
    store_path = work_dir / f"replay-{time.time_ns()}.sqlite"
    with ProfileStore(str(store_path)) as store:
        for _ in range(repeats):
            for row in suite.SERVE_ROWS:
                job_seed = rng.randrange(1, 2 ** 31)
                payload = {"job_id": f"replay-{row}-{job_seed}",
                           "kind": "profile", "workload": row,
                           "seed": job_seed,
                           "period": suite.SERVE_CONFIG["sample_period"],
                           "threshold": suite.SERVE_CONFIG["size_threshold"]}
                started = time.perf_counter()
                result = service_module.execute_job(payload)
                service[row].append(time.perf_counter() - started)
                key = profile_key_for(get_workload(row), "baseline", config,
                                      seed=job_seed)
                started = time.perf_counter()
                record = store.put_profile(
                    key, AnalysisResult.from_dict(result["analysis"]),
                    wall_cycles=result["wall_cycles"])
                writes.append(time.perf_counter() - started)
                started = time.perf_counter()
                found = store.find_latest(key)
                store.get_profile(found.record_id)
                reads.append(time.perf_counter() - started)
                if found.record_id != record.record_id:
                    raise RuntimeError(f"{row}: store read back another "
                                       f"record")
    return {"service": {row: statistics.median(v)
                        for row, v in service.items()},
            "store_write_s": statistics.median(writes),
            "store_read_s": statistics.median(reads)}
