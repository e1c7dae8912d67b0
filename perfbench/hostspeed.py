"""Host speed, sampled beside the workload, to scale timings by.

The benchmark's host is shared: its CPU speed drifts by up to a third over
seconds to minutes, as other tenants come and go, and that drift, not the
inputs, was most of the run-to-run spread of every timing.  A probe — a
fixed, interpreter-bound task of about a millisecond that imports nothing
from the program under test — is run between operations (on the serve
workloads, before and after each drive, while the service is idle), and
each timing is scaled by ``(REFERENCE_PROBE_S / probe) ** ELASTICITY``.  The probe
swings more than the workloads do: over four minutes of alternating
blocks, log pass time against log probe time had a slope of 0.70 on
suite_accsat and 0.79 on synth_cse, and across two ten-seed sets synth_cse
moved by about 0.4 of the probe.  Full scaling over-corrects the workloads
that respond least, so the scale takes the square root, which removed most
of the drift between sets on every workload.  A change to the program moves
the timing, never the probe, so a slowdown in the program shows in full.
The raw timings and the scales are reported beside the scaled ones.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List

#: Median CPU time of one :func:`probe` on the reference host (a 2-vCPU
#: x86-64 VM, CPython 3.11).
REFERENCE_PROBE_S = 1.0e-3
#: How strongly a timing follows the probe (see the module docstring).
ELASTICITY = 0.5


class _Node:
    __slots__ = ("op", "kids", "key")

    def __init__(self, op: str, kids: tuple) -> None:
        self.op = op
        self.kids = kids
        self.key = hash((op, kids))


def probe() -> float:
    """CPU seconds of one hash-consing task, with the cyclic GC held off.

    CPU time of the calling thread, so that on a threaded service the time
    spent waiting for the interpreter lock does not count.
    """

    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        table = {}
        nodes = [_Node("x", (leaf,)) for leaf in range(64)]
        for i in range(600):
            left = nodes[(i * 31) % len(nodes)]
            right = nodes[(i * 17 + 5) % len(nodes)]
            key = ("+*-"[i % 3], left.key, right.key)
            if key not in table:
                table[key] = node = _Node(key[0], key[1:])
                nodes.append(node)
        sorted(table, key=lambda k: (k[1], k[2]))
        return time.thread_time() - start
    finally:
        if enabled:
            gc.enable()


def scale(probes: List[float]) -> float:
    """The factor that turns a timing taken beside *probes* into a reference one."""

    return (REFERENCE_PROBE_S / statistics.median(probes)) ** ELASTICITY
