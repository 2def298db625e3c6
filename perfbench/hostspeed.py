"""Host-speed sampler: time a fixed pure-Python kernel, over and over.

``run.py`` starts this beside an in-process workload, on the same core.
On a shared machine each core switches, for seconds to minutes at a
time, between a fast state and states in which Python code runs up to
about 1.9x slower, and the two cores of a 2-core host do not switch
together.  The sampler times :func:`kernel` every :data:`GAP_S`
seconds, so ``run.py`` can tell from the samples taken while an
operation ran how fast its core was then, and scale the operation's
time to the speed at which the kernel takes ``run.REFERENCE_KERNEL_S``.

The kernel does not touch the program under test: it is a fixed mix of
the work the simulator does (bytecode dispatch on small integers,
attribute and dict access, method calls), so a change to the program
leaves it as it was.  It allocates nothing that outlives one step.

Each sample is the kernel's CPU time (``thread_time``), so a sample
taken while other processes keep both cores busy measures the host's
speed, not the wait for a core.  The sampler runs until standard input
is closed, then prints its samples as one JSON list of
``[start, end, cpu seconds]``, ``start`` and ``end`` being
``perf_counter`` times (the clock is system-wide, so they compare with
the parent's), and exits.
"""

import json
import select
import sys
import time

#: Seconds between samples; one kernel takes about 2–4 ms of CPU on a
#: 2-core host, so the sampler takes about 5% of the core it shares
#: with the timed work.
GAP_S = 0.05


class _Cell:
    __slots__ = ("value", "hits")

    def __init__(self) -> None:
        self.value = 0
        self.hits = 0

    def bump(self, amount: int) -> int:
        self.hits += 1
        self.value = (self.value + amount) & 0xFFFF
        return self.value


def kernel() -> int:
    """24,000 dispatch steps over registers, cells and a dict."""
    regs = [0] * 8
    cells = [_Cell() for _ in range(8)]
    table = {}
    code = [(step % 6, step % 8) for step in range(48)]
    for rounds in range(500):
        for op, reg in code:
            if op == 0:
                regs[reg] += rounds
            elif op == 1:
                regs[reg] ^= regs[(reg + 1) & 7]
            elif op == 2:
                regs[reg] = cells[reg].bump(regs[reg])
            elif op == 3:
                table[regs[reg] & 63] = table.get(regs[reg] & 63, 0) + 1
            elif op == 4:
                regs[reg] = (regs[reg] * 3) & 0xFFFF
            else:
                regs[reg] >>= 1
    return sum(regs) + len(table)


def main() -> int:
    samples = []
    while True:
        start = time.perf_counter()
        cpu = time.thread_time()
        kernel()
        cpu = time.thread_time() - cpu
        samples.append([start, time.perf_counter(), cpu])
        if select.select([sys.stdin], [], [], GAP_S)[0]:
            break
    json.dump(samples, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
