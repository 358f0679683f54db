"""The clock that times benchmark ops."""

from __future__ import annotations

import resource
import time


def cpu_clock() -> float:
    """CPU seconds of this thread plus those of every child reaped so far.

    The shared sandbox takes a CPU away for seconds at a time, which wall
    time counts and CPU time does not.  Only the calling thread counts: idle
    BLAS workers spin, and their CPU time is not the op's work.  ``cli``
    ops run in children, whose whole CPU time counts once they exit."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.thread_time() + children.ru_utime + children.ru_stime
