"""Host time for the end-to-end metrics: CPU time scaled to a reference speed.

Two things move a host-time measurement on a shared machine besides the
program itself:

* The process waits for a CPU, or its virtual CPU is stolen by the
  hypervisor.  Wall-clock time counts those waits; CPU time does not (the
  kernel accounts stolen time apart), so every host time here is the
  process's CPU time (:data:`cpu_clock`).
* The CPU itself runs slower or faster for seconds to minutes at a time, as
  neighbours load the shared caches, memory bus and cores.  CPU time counts
  that, so :class:`HostTimer` runs a fixed pure-Python calibration kernel
  right before the first timed block and right after every one.  A block's
  time is scaled by the kernel's reference time over the mean of the two
  kernel times around it, which reads as "CPU time on a host where the
  kernel takes its reference time".  The kernel lives in the benchmark, so a
  change to the program never moves it.

The kernel mixes what the simulator spends its time on: a heap of
``(time, sequence, payload)`` entries, small dicts built per message,
string-keyed lookups in a table about the size of a KVS store, and method
calls on slotted objects.  A workload whose hot path is ``copy.deepcopy``
(pact-covid, where ``ProgramState.snapshot`` takes about half the time)
also deep-copies a program table of slotted lattice-like rows in every
chunk: deepcopy's generic ``__reduce_ex__`` path slows more than the rest
when the host slows, so a kernel without it under-corrects that workload.
"""

from __future__ import annotations

import contextlib
import copy
import heapq
import time

#: The clock of every end-to-end host time: this process's CPU seconds.
cpu_clock = time.process_time

#: Kernel iterations per calibration chunk.
CHUNK_ITERATIONS = 3000
#: Entries in the kernel's lookup table: well past a core's L2 cache, as
#: the workloads' stores are, so that the kernel slows with them when
#: neighbours contend for the shared cache and memory.  It adds about 10 MB
#: to every worker's ``peak_rss_mb``, the same on every commit.
TABLE_SIZE = 50_000
#: The chunk time that defines reference speed, in CPU seconds; about
#: what a chunk takes on a 2-core x86-64 container with CPython 3.11.
REFERENCE_CHUNK_S = 0.005
#: Rows of the program table a chunk deep-copies (``table_copies``), and
#: the reference time of one copy, measured against ``REFERENCE_CHUNK_S``.
PROGRAM_ROWS = 40
REFERENCE_COPY_S = 0.0015


class _Cell:
    __slots__ = ("count", "last")

    def __init__(self) -> None:
        self.count = 0
        self.last = 0

    def bump(self, value: int) -> int:
        self.count += 1
        self.last = value
        return self.count


class _Flag:
    __slots__ = ("value",)

    def __init__(self, value: bool) -> None:
        self.value = value


class _Tags:
    __slots__ = ("elements", "frozen")

    def __init__(self, elements: frozenset) -> None:
        self.elements = elements
        self.frozen = False


class HostTimer:
    """Times blocks of work in CPU seconds, with a calibration chunk before
    the first block and after each block.

    ``table_copies`` deep copies of the program table join each chunk;
    ``reference_s`` is the chunk's time at reference speed.
    """

    def __init__(self, table_copies: int = 0) -> None:
        self._table = {f"key-{index}": _Cell() for index in range(TABLE_SIZE)}
        self._keys = list(self._table)
        self._state = 1
        self._program = {
            row: {"pid": row, "country": "US", "covid": _Flag(False), "vaccinated": _Flag(False),
                  "contacts": _Tags(frozenset(str((row * 7 + step) % PROGRAM_ROWS)
                                              for step in range(12)))}
            for row in range(PROGRAM_ROWS)}
        self._table_copies = table_copies
        self.reference_s = REFERENCE_CHUNK_S + table_copies * REFERENCE_COPY_S

    def _chunk(self) -> float:
        table, keys, size = self._table, self._keys, len(self._keys)
        state = self._state
        heap: list = []
        began = cpu_clock()
        for sequence in range(CHUNK_ITERATIONS):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            key = keys[state % size]
            count = table[key].bump(sequence)
            message = {"key": key, "count": count, "sequence": sequence}
            heapq.heappush(heap, (state / size, sequence, message))
            if len(heap) > 64:
                heapq.heappop(heap)
        for _ in range(self._table_copies):
            copy.deepcopy(self._program)
        self._state = state
        return cpu_clock() - began

    @contextlib.contextmanager
    def measure(self, samples: list[float], calibrations: list[float]):
        """Append the block's CPU seconds to ``samples`` and the chunk times
        around it to ``calibrations`` (one more than ``samples``)."""
        if not calibrations:
            calibrations.append(self._chunk())
        began = cpu_clock()
        yield
        samples.append(cpu_clock() - began)
        calibrations.append(self._chunk())


def scaled(samples: list[float], calibrations: list[float],
           reference_s: float) -> list[float]:
    """Each sample at reference speed: scaled by the chunk's ``reference_s``
    over the mean of the calibration chunks just before and just after it."""
    return [sample * 2.0 * reference_s / (before + after)
            for sample, before, after in zip(samples, calibrations, calibrations[1:])]
