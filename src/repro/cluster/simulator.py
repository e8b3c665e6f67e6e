"""The discrete-event simulation core: clock, event queue, run loop.

Everything in the simulated cluster — message deliveries, timers, crash and
recovery events — is an :class:`Event` scheduled at a simulated time.  The
simulator pops events in (time, sequence) order and invokes their callbacks,
so execution is fully deterministic for a given seed and schedule.

This is the hot loop under every benchmark and chaos sweep, so the core is
deliberately lean: events are ``__slots__`` objects with a hand-pinned
``(time, sequence)`` total order (never payload comparison), the run loop
pops the heap exactly once per event, and cancelled events are tombstones
that are *compacted* once they dominate the heap instead of leaking until
their (possibly far-future) fire time arrives.
"""

from __future__ import annotations

import heapq
import random
from typing import Callable, Optional

#: Compaction trigger: once at least this many tombstones exist *and* they
#: make up over half the heap, the queue is rebuilt without them.  Below the
#: floor the scan costs more than the garbage; above it the rebuild is
#: amortized O(1) per cancellation.
_COMPACT_MIN_TOMBSTONES = 256


class Event:
    """A scheduled callback.

    Ordering is **pinned** to ``(time, sequence)``: the sequence number is
    assigned at scheduling time so simultaneous events fire in the order
    they were scheduled, keeping runs reproducible.  Nothing else — not the
    callback, not the label — may ever participate in the comparison, or
    the event trace would depend on payload contents.
    """

    __slots__ = ("time", "sequence", "callback", "label", "cancelled", "_owner")

    def __init__(self, time: float, sequence: int,
                 callback: Callable[[], None], label: str = "",
                 owner: "Optional[Simulator]" = None) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.label = label
        self.cancelled = False
        self._owner = owner

    def __lt__(self, other: "Event") -> bool:
        # The explicit total order: time first, scheduling sequence breaks
        # ties.  Sequences are unique per simulator, so two distinct events
        # never compare equal and heap order is payload-independent.
        if self.time != other.time:
            return self.time < other.time
        return self.sequence < other.sequence

    def cancel(self) -> None:
        """Mark the event so the run loop skips it when popped.

        The owning simulator counts tombstones and compacts the heap when
        they dominate, so heavy cancel/re-arm churn (RPC retries, gossip
        cadences under clock skew) cannot leak far-future stale events.
        """
        if not self.cancelled:
            self.cancelled = True
            owner = self._owner
            if owner is not None:
                owner._note_cancelled()

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        return (f"Event(t={self.time:.3f}, seq={self.sequence}, "
                f"label={self.label!r}{state})")


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned random number generator.  All simulated
        randomness (network delays, drop decisions, jitter) must come from
        :attr:`rng` so runs are reproducible.
    """

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)
        self.now: float = 0.0
        self._queue: list[Event] = []
        self._sequence = 0
        self._cancelled = 0
        self._events_processed = 0
        self._trace: list[tuple[float, str]] = []
        self.tracing = False

    # -- scheduling -------------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` to run ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(self.now + delay, sequence, callback, label, self)
        heapq.heappush(self._queue, event)
        return event

    def schedule_at(self, time: float, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` at an absolute simulated time."""
        return self.schedule(max(0.0, time - self.now), callback, label)

    def cancel(self, event: Event) -> None:
        """Cancel ``event`` (equivalent to ``event.cancel()``)."""
        event.cancel()

    def _note_cancelled(self) -> None:
        """Tombstone accounting; compact the heap when garbage dominates.

        Without this, a workload that constantly re-arms long-deadline
        timers (every RPC retry, every drift-stretched gossip tick) grows
        the heap with cancelled events that only fall out when their
        original — possibly far-future — fire time is reached, costing
        memory and ``log n`` heap work per live event.  Compaction rebuilds
        the heap without tombstones; heapify preserves the pinned
        ``(time, sequence)`` order, so the observable event trace is
        byte-identical with or without it.
        """
        self._cancelled += 1
        if (self._cancelled >= _COMPACT_MIN_TOMBSTONES
                and self._cancelled * 2 > len(self._queue)):
            # Compact IN PLACE: the run loops hold a local reference to the
            # queue list, so rebinding ``self._queue`` to a fresh list would
            # strand every event scheduled after the compaction in a list
            # nobody drains.
            queue = self._queue
            queue[:] = [event for event in queue if not event.cancelled]
            heapq.heapify(queue)
            self._cancelled = 0

    # -- running ----------------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or ``max_events`` fire."""
        queue = self._queue
        pop = heapq.heappop
        fired = 0
        try:
            while queue:
                event = queue[0]
                if event.cancelled:
                    pop(queue)
                    self._cancelled -= 1
                    continue
                if until is not None and event.time > until:
                    # Never move the clock backwards: a caller that already
                    # ran past ``until`` keeps its current time (matching
                    # the drained-queue path, which leaves ``now`` alone).
                    if until > self.now:
                        self.now = until
                    return
                if max_events is not None and fired >= max_events:
                    return
                pop(queue)
                self.now = event.time
                if self.tracing:
                    self._trace.append((event.time, event.label))
                event.callback()
                fired += 1
        finally:
            self._events_processed += fired

    def run_until_idle(self, max_events: int = 1_000_000) -> None:
        """Run until no events remain; guard against runaway simulations."""
        processed_before = self._events_processed
        self.run(max_events=max_events)
        if self._queue and self._events_processed - processed_before >= max_events:
            raise RuntimeError(
                f"simulation did not quiesce within {max_events} events; "
                "likely a livelock in the simulated protocol"
            )

    # -- introspection ----------------------------------------------------------

    @property
    def pending_events(self) -> int:
        """Number of events still queued (cancelled tombstones included,
        until compaction reclaims them)."""
        return len(self._queue)

    @property
    def cancelled_pending(self) -> int:
        """Cancelled events still occupying the queue as tombstones."""
        return self._cancelled

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def trace(self) -> list[tuple[float, str]]:
        """Labels of processed events (only populated when ``tracing`` is on)."""
        return list(self._trace)

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self.now:.3f}, pending={self.pending_events}, "
            f"processed={self._events_processed})"
        )
