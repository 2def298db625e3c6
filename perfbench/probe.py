"""Set-up probe: import the system, build a workload's programs, report.

``run.py`` starts this in a fresh interpreter and times it from spawn to
the ``ready`` line: the set-up a user pays before the first operation
of the workload can run.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]


def main(workload: str) -> int:
    from perfbench import suite
    from repro.optim import engine  # noqa: F401  (object-dense needs it)
    from repro.workloads import get_workload

    for name in suite.IN_PROCESS[workload].programs:
        get_workload(name).build_verified()
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
