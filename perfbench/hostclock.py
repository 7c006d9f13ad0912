"""Operation timing, and how much CPU the hypervisor stole meanwhile.

Every reported time is plain wall time.  On a virtual machine sharing its
host, other guests take the CPU away for stretches of seconds ("steal",
the eighth field of the ``cpu`` line of ``/proc/stat``); a run that lost
much of its CPU that way reads slow.  :class:`StealMeter` measures the
share so the run can print it and flag itself, rather than correct for it.
"""

from __future__ import annotations

from time import perf_counter

#: A run whose machine lost more than this share of its CPU time to the
#: hypervisor is flagged: its wall times are inflated.
STEAL_WARN_PCT = 5.0


def plain_root(fn, *args):
    """Call ``fn``; returns ``(result, wall seconds)``."""
    start = perf_counter()
    result = fn(*args)
    return result, perf_counter() - start


def cpu_ticks() -> tuple[int, int]:
    """``(stolen, total)`` clock ticks of all CPUs so far; ``(0, 0)`` if unknown."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(v) for v in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    if len(fields) < 8:
        return 0, 0
    return fields[7], sum(fields)


class StealMeter:
    """Share of the machine's CPU time stolen by the hypervisor since start."""

    def __init__(self) -> None:
        self._start = cpu_ticks()

    def percent(self) -> float:
        stolen, total = (now - then for now, then in zip(cpu_ticks(), self._start))
        return 100.0 * stolen / total if total > 0 else 0.0
