"""Optimize jobs through the serve tier: store, daemon, fleet, HTTP."""

import asyncio

import pytest

from repro.serve.http import HttpFrontDoor, http_request
from repro.serve.queue import JobSpec, SpoolQueue
from repro.serve.router import Fleet
from repro.serve.service import ProfilingService, execute_job
from repro.serve.store import ProfileStore

WORKLOAD = "unsized-growth"


def verdict_dict(status="accepted", **kw):
    data = {"workload": WORKLOAD, "variant": "baseline",
            "family": "djxperf", "status": status,
            "transform": "presize", "target": "Pipeline.grow:42",
            "baseline_cycles": 100, "optimized_cycles": 80}
    data.update(kw)
    return data


class TestStore:
    def test_put_get_round_trip(self, tmp_path):
        with ProfileStore(str(tmp_path / "s.sqlite")) as store:
            store.put_optimize("job-1", verdict_dict())
            row = store.get_optimize("job-1")
            assert row["job_id"] == "job-1"
            assert row["verdict"] == verdict_dict()

    def test_get_returns_latest(self, tmp_path):
        with ProfileStore(str(tmp_path / "s.sqlite")) as store:
            store.put_optimize("job-1", verdict_dict(status="rejected"),
                               created_at=1.0)
            store.put_optimize("job-1", verdict_dict(), created_at=2.0)
            assert store.get_optimize("job-1")["verdict"]["status"] \
                == "accepted"

    def test_missing_job_is_none(self, tmp_path):
        with ProfileStore(str(tmp_path / "s.sqlite")) as store:
            assert store.get_optimize("nope") is None

    def test_history_filters(self, tmp_path):
        with ProfileStore(str(tmp_path / "s.sqlite")) as store:
            store.put_optimize("j1", verdict_dict())
            store.put_optimize("j2", verdict_dict(status="rejected"))
            store.put_optimize(
                "j3", verdict_dict(workload="padded-layout"))
            assert len(store.optimize_history()) == 3
            accepted = store.optimize_history(status="accepted")
            assert {r["job_id"] for r in accepted} == {"j1", "j3"}
            padded = store.optimize_history(workload="padded-layout")
            assert [r["job_id"] for r in padded] == ["j3"]

    def test_stats_counts_verdicts(self, tmp_path):
        with ProfileStore(str(tmp_path / "s.sqlite")) as store:
            assert store.stats()["optimize_verdicts"] == 0
            store.put_optimize("j1", verdict_dict())
            assert store.stats()["optimize_verdicts"] == 1


class TestExecuteAndDaemon:
    def test_execute_optimize_job(self):
        spec = JobSpec(job_id="j", kind="optimize", workload=WORKLOAD,
                       threshold=0)
        result = execute_job(spec.to_dict())
        assert result["kind"] == "optimize"
        verdict = result["verdict"]
        assert verdict["status"] == "accepted"
        assert verdict["transform"] == "presize"
        assert verdict["optimized_cycles"] < verdict["baseline_cycles"]

    def test_daemon_persists_verdict(self, tmp_path):
        spool = str(tmp_path / "spool")
        queue = SpoolQueue(spool)
        submitted = queue.submit(JobSpec(
            job_id="", kind="optimize", workload=WORKLOAD, threshold=0))
        with ProfilingService(spool,
                              str(tmp_path / "store.sqlite")) as service:
            assert service.drain() == 1
            outcome = service.queue.outcome(submitted.job_id)
            assert outcome["result"]["status"] == "accepted"
            row = service.store.get_optimize(submitted.job_id)
            assert row["verdict"]["transform"] == "presize"

    def test_bad_family_combo_fails_job(self, tmp_path):
        spool = str(tmp_path / "spool")
        queue = SpoolQueue(spool)
        submitted = queue.submit(JobSpec(
            job_id="", kind="optimize", workload=WORKLOAD,
            family="redundancy", threshold=0,
            meta={"transform": "presize"}, max_attempts=1))
        with ProfilingService(spool,
                              str(tmp_path / "store.sqlite")) as service:
            service.drain()
            outcome = service.queue.outcome(submitted.job_id)
            assert "not applicable" in outcome["error"]


class TestHttp:
    def drive(self, tmp_path, coro_fn, shards=2):
        async def runner():
            with Fleet(str(tmp_path / "fleet"), shards=shards) as fleet:
                door = HttpFrontDoor(fleet)
                await door.start()
                try:
                    return await coro_fn(fleet, door)
                finally:
                    await door.stop()
        return asyncio.run(runner())

    def test_submit_drain_fetch_round_trip(self, tmp_path):
        async def scenario(fleet, door):
            status, data, _h = await http_request(
                door.host, door.port, "POST", "/submit",
                {"workload": WORKLOAD, "kind": "optimize"})
            assert status == 202
            job_id, shard = data["job_id"], data["shard"]
            await asyncio.get_event_loop().run_in_executor(
                None, fleet.services[shard].drain)
            status, data, _h = await http_request(
                door.host, door.port, "GET", f"/optimize/{job_id}")
            assert status == 200
            assert data["verdict"]["status"] == "accepted"
            assert data["shard"] == shard
            status, data, _h = await http_request(
                door.host, door.port, "GET",
                "/optimize?status=accepted")
            assert status == 200
            assert len(data["verdicts"]) == 1
        self.drive(tmp_path, scenario)

    def test_unknown_verdict_is_404(self, tmp_path):
        async def scenario(fleet, door):
            status, _data, _h = await http_request(
                door.host, door.port, "GET", "/optimize/nope")
            assert status == 404
        self.drive(tmp_path, scenario)

    def test_meta_field_on_profile_kind_is_400(self, tmp_path):
        async def scenario(fleet, door):
            status, data, _h = await http_request(
                door.host, door.port, "POST", "/submit",
                {"workload": WORKLOAD, "transform": "presize"})
            assert status == 400
            assert "only applies to optimize jobs" in data["error"]
        self.drive(tmp_path, scenario)


class TestFleetViews:
    def test_cross_shard_verdict_lookup(self, tmp_path):
        with Fleet(str(tmp_path / "fleet"), shards=2) as fleet:
            submitted, shard = fleet.submit(JobSpec(
                job_id="", kind="optimize", workload=WORKLOAD,
                threshold=0))
            fleet.services[shard].drain()
            row = fleet.optimize_verdict(submitted.job_id)
            assert row is not None
            assert row["shard"] == shard
            history = fleet.optimize_history(status="accepted")
            assert len(history) == 1
