"""Record ``golden.json``: the expected outputs every benchmark run checks.

Run from the repository root, on the commit the benchmark's baseline is
measured on::

    python3 perfbench/record_golden.py

It stores, per program, every ``MachineResult`` field of the native and
the profiled run, the DJXPerf agent's counters and the top-5 analysed
sites; per optimizer target,
the verdict's status, transform and cycle counts; per served Table 1
row, the profile job's wall cycles and sample total.  All of these are
independent of the machine seed, which the benchmark varies.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import suite  # noqa: E402


def _profiled(rows, config) -> dict:
    from repro.core import DjxConfig
    from repro.workloads import get_workload, run_native, run_profiled

    out = {}
    for name in rows:
        workload = get_workload(name)
        run = run_profiled(workload, config=DjxConfig(**config))
        out[name] = {"native": suite.result_digest(run_native(workload)),
                     "profiled": suite.result_digest(run.result),
                     "agent": suite.agent_digest(run),
                     "top5": suite.top_sites(run.analysis)}
    return out


def record() -> dict:
    from repro.core import DjxConfig
    from repro.optim.engine import optimize_workload
    from repro.workloads import get_workload, run_native, run_profiled

    golden = {
        "bytecode-alloc": _profiled(suite.BYTECODE_ALLOC,
                                    suite.BYTECODE_ALLOC_CONFIG),
        "table1-locality": _profiled([row[0] for row in suite.TABLE1],
                                     suite.TABLE1_CONFIG),
        "object-dense": {},
        "fleet-serve": {},
    }
    for name, family in suite.OBJECT_DENSE:
        verdict = optimize_workload(name, family=family)
        golden["object-dense"][name] = {
            "native": suite.result_digest(run_native(get_workload(name))),
            "verdict": suite.verdict_digest(verdict)}
    for name in suite.SERVE_ROWS:
        run = run_profiled(get_workload(name),
                           config=DjxConfig(**suite.SERVE_CONFIG))
        golden["fleet-serve"][name] = {
            "wall_cycles": run.result.wall_cycles,
            "total_samples": run.analysis.total()}
    return golden


def main() -> int:
    golden = record()
    with open(suite.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {suite.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
