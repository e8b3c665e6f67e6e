"""The unified transport layer: typed sizing, batching, and a shared RPC runtime.

Every subsystem in the tree used to talk to :class:`~repro.cluster.network.Network`
directly, each with its own wire-size guess and its own ack/retry loop.  This
module is the single seam between protocol code and the network:

* **Typed sizing** — a logical message is a :class:`Parcel` that declares how
  many key/value entries its payload carries; its cost on the wire always
  comes from :func:`~repro.cluster.network.wire_size`, never from a hardcoded
  byte constant.
* **Per-destination batching** — parcels queued within one simulated instant
  to the same peer ride a single :class:`Envelope`, paying
  ``WIRE_HEADER_BYTES`` once.  A flush is scheduled automatically at the same
  instant (so batching never delays delivery past the tick that produced the
  sends), and protocol cadences (gossip ticks, the flow scheduler's
  end-of-tick) can call :meth:`Transport.flush` explicitly.
* **RPC** — :meth:`Transport.request` gives request/reply with timeouts,
  capped retries and duplicate suppression on both sides; replies are
  dispatched to an ordinary reply mailbox, so protocol handlers keep their
  shape.  :class:`AckedChannel` is the cadence-driven sibling used by delta
  gossip: round-numbered at-least-once delivery whose retransmissions ride
  the sender's own tick schedule instead of timers.

Determinism contract (the chaos harness relies on it): queues are plain
lists, flush iterates destinations in sorted-``repr`` order, and no code
path iterates a set — the event trace is byte-identical under every
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Optional

from repro.cluster.network import (
    _NO_COST,
    Message,
    Network,
    WIRE_ENTRY_BYTES,
    WIRE_HEADER_BYTES,
    wire_size,
)

#: The network-level mailbox that carries transport envelopes.  Logical
#: mailboxes live inside the envelope's parcels.
TRANSPORT_MAILBOX = "__transport__"

#: Modelled wire cost of one digest item in an anti-entropy control message
#: (an 8-byte bucket/key identifier plus an 8-byte blake2 digest).  Digest
#: payloads are far denser than key/value entries, but they are not free:
#: senders declare ``digest_entries(n)`` so the byte ledger — and, with the
#: bandwidth model on, the *time* ledger — stays honest.
DIGEST_WIRE_BYTES = 16


def digest_entries(count: int) -> int:
    """Honest entry count for a payload carrying ``count`` digest items.

    Rounds ``count * DIGEST_WIRE_BYTES`` up to whole ``WIRE_ENTRY_BYTES``
    units (minimum one for a non-empty payload), so a root-digest probe
    costs one entry while a 65536-leaf summary pays its real weight.
    """
    if count <= 0:
        return 0
    return max(1, -(-count * DIGEST_WIRE_BYTES // WIRE_ENTRY_BYTES))


@dataclass(frozen=True, slots=True)
class Parcel:
    """One typed logical message: a mailbox, a payload, and its entry count.

    ``entries`` is the number of key/value-sized units the payload carries
    (0 for pure control traffic — acks, votes, header-only requests).  It is
    the *only* size declaration a sender makes; bytes are always derived via
    :func:`wire_size`.
    """

    mailbox: str
    payload: Any
    entries: int = 0
    rpc_id: Optional[int] = None
    rpc_kind: Optional[str] = None  # "request" | "reply" | None
    reply_to: Optional[Hashable] = None  # requester node id (requests only)


@dataclass(frozen=True, slots=True)
class Envelope:
    """The physical wire unit: one or more parcels to one destination.

    An envelope pays ``WIRE_HEADER_BYTES`` exactly once, however many
    parcels it coalesces — that is the whole batching economy.
    """

    parcels: tuple[Parcel, ...]


@dataclass(frozen=True, slots=True)
class RpcPolicy:
    """Timeout/retry knobs for one request."""

    timeout: float = 25.0
    max_attempts: int = 2

    @property
    def retry_allowance(self) -> float:
        """Worst extra completion delay retries can add (for latency bounds)."""
        return self.timeout * (self.max_attempts - 1)


@dataclass(slots=True)
class TransportConfig:
    """Per-network default transport behaviour (nodes inherit it)."""

    batching: bool = True
    rpc: RpcPolicy = field(default_factory=RpcPolicy)
    #: Served-request memo size per node (duplicate suppression window).
    dedup_window: int = 1024
    #: Runtime sanitizer: payloads handed to ``queue``/``reply`` are
    #: digested at queue time and re-digested at flush; a mismatch raises
    #: :class:`PayloadMutationError` naming the parcel.  Pure observation —
    #: event traces are byte-identical with it on or off.
    sanitize: bool = False
    #: Runtime sanitizer: reverse the transport's sorted flush order.  Any
    #: *fixed* deterministic order is contractually valid (the sort exists
    #: to kill PYTHONHASHSEED dependence, not to promise ascending order),
    #: so all invariants must survive the reversal — running a chaos sweep
    #: with this on smokes out code that latched onto one specific order
    #: (the RL004 misses static analysis cannot see).
    perturb_order: bool = False


class PayloadMutationError(RuntimeError):
    """A payload changed between ``queue()`` and its envelope's flush.

    Payloads handed to the transport are owned by it — the batch *is* the
    snapshot.  Mutating one afterwards corrupts whatever the peer receives
    (and, worse, does so as a function of event interleaving).  Raised by
    the opt-in sanitize pass (:attr:`TransportConfig.sanitize`) at the
    flush that would have shipped the stale digest.
    """


def payload_digest(payload: Any) -> str:
    """A structural digest of ``payload``, stable under no mutation.

    Containers are folded recursively — dicts/sets in sorted-``repr``
    order, so the digest itself never depends on ``PYTHONHASHSEED`` —
    dataclasses by field, plain objects by their ``__dict__``; leaves fall
    back to ``repr``.  Two digests of an *unchanged* object are equal;
    any in-place mutation of a folded container or attribute changes it.
    """
    hasher = hashlib.blake2b(digest_size=16)
    _fold_payload(payload, hasher, seen=set())
    return hasher.hexdigest()


def _fold_payload(value: Any, hasher: Any, seen: set) -> None:
    if isinstance(value, (type(None), bool, int, float, str, bytes)):
        hasher.update(f"L{type(value).__name__}:{value!r};".encode())
        return
    marker = id(value)
    if marker in seen:
        hasher.update(b"cycle;")
        return
    seen.add(marker)
    try:
        if isinstance(value, dict):
            hasher.update(b"dict{")
            for key in sorted(value, key=repr):
                _fold_payload(key, hasher, seen)
                _fold_payload(value[key], hasher, seen)
            hasher.update(b"}")
        elif isinstance(value, (set, frozenset)):
            hasher.update(b"set{")
            for element in sorted(value, key=repr):
                _fold_payload(element, hasher, seen)
            hasher.update(b"}")
        elif isinstance(value, (list, tuple)):
            hasher.update(f"{type(value).__name__}[".encode())
            for element in value:
                _fold_payload(element, hasher, seen)
            hasher.update(b"]")
        elif dataclasses.is_dataclass(value) and not isinstance(value, type):
            hasher.update(f"dc:{type(value).__name__}(".encode())
            for field_info in dataclasses.fields(value):
                hasher.update(f"{field_info.name}=".encode())
                _fold_payload(getattr(value, field_info.name), hasher, seen)
            hasher.update(b")")
        elif hasattr(value, "__dict__"):
            hasher.update(f"obj:{type(value).__name__}(".encode())
            _fold_payload(vars(value), hasher, seen)
            hasher.update(b")")
        else:
            hasher.update(f"repr:{value!r};".encode())
    finally:
        seen.discard(marker)


@dataclass(slots=True)
class _PendingRequest:
    parcel: Parcel
    destination: Hashable
    policy: RpcPolicy
    attempts: int = 1
    timer: Any = None
    on_reply: Optional[Callable[[Any], None]] = None
    on_timeout: Optional[Callable[[], None]] = None


@dataclass(slots=True)
class _InboundRequest:
    """Per-request responder state, attached to the dispatched logical
    :class:`Message` (as ``rpc_state``) so it lives exactly as long as any
    handler still holds the message — deferred replies (a handler that
    answers from a timer or a downstream event) route correctly."""

    parcel: Parcel
    reply: Optional[Parcel] = None
    forwarded: bool = False


class AckedChannel:
    """Cadence-driven at-least-once delivery of keyed rounds to one peer.

    The sender's own tick schedule drives retransmission (no timers): each
    round of keys is tracked until acked; a round older than ``grace`` ticks
    is eligible for retransmission *under its original round number*, so the
    eventual ack always matches however slow the link is; once ``cap``
    rounds pile up unacked, the caller is told to escalate (ship everything
    and :meth:`clear` the backlog).  Extracted from the KVS delta-gossip
    protocol so any cadence-based stream can reuse it.
    """

    def __init__(self, grace: int = 2, cap: int = 8) -> None:
        self.grace = grace
        self.cap = cap
        self.ticks = 0
        #: round number -> (tick it was last sent on, frozen key set)
        self.pending: dict[int, tuple[int, frozenset]] = {}

    def begin_tick(self) -> int:
        """Advance the cadence; returns the tick ordinal (1-based)."""
        self.ticks += 1
        return self.ticks

    @property
    def saturated(self) -> bool:
        """True when the unacked backlog hit the escalation cap."""
        return len(self.pending) >= self.cap

    def stale_rounds(self) -> list[tuple[int, frozenset]]:
        """Rounds old enough to retransmit, in round order (deterministic)."""
        pending = self.pending
        if not pending:  # idle channels dominate most ticks; skip the sort
            return []
        return [
            (round_no, keys)
            for round_no, (sent_tick, keys) in sorted(pending.items())
            if self.ticks - sent_tick >= self.grace
        ]

    def track(self, round_no: int, keys: frozenset) -> None:
        """Record (or re-stamp, for a retransmission) an outstanding round."""
        self.pending[round_no] = (self.ticks, keys)

    def ack(self, round_no: int) -> None:
        self.pending.pop(round_no, None)

    def forget(self, round_no: int) -> None:
        self.pending.pop(round_no, None)

    def clear(self) -> None:
        """Drop the whole backlog (an escalation superseded it)."""
        self.pending.clear()


class Transport:
    """One node's binding to the network: batching, sizing, RPC.

    ``owner`` is the hosting :class:`~repro.cluster.node.Node` (duck-typed:
    ``alive``, ``set_timer``, ``dispatch``).  A transport can run standalone
    (owner ``None``) for tests, in which case timers go straight to the
    simulator and liveness gating is skipped.
    """

    def __init__(self, network: Network, node_id: Hashable,
                 owner: Any = None,
                 config: Optional[TransportConfig] = None) -> None:
        self.network = network
        self.node_id = node_id
        self.owner = owner
        self.config = config or network.transport_config
        self.metrics = network.metrics
        self._queues: dict[Hashable, list[Parcel]] = {}
        #: Per-destination queue-time payload digests, parallel to
        #: ``_queues`` (only populated while ``config.sanitize`` is on).
        self._queue_digests: dict[Hashable, list[str]] = {}
        self._flush_scheduled = False
        self._pending: dict[int, _PendingRequest] = {}
        self._served: OrderedDict[tuple, Optional[Parcel]] = OrderedDict()
        self._rpc_ids = itertools.count()
        self._logical_ids = itertools.count()

    # -- sending ------------------------------------------------------------------

    def send_now(self, destination: Hashable, mailbox: str, payload: Any,
                 entries: int = 1) -> Message:
        """Ship one logical message immediately, unframed and unbatched.

        This is the compatibility path behind :meth:`Node.send`: the message
        travels under its own mailbox (no envelope), so raw
        ``network.register`` handlers and tests observe it exactly as
        before.
        """
        return self._send(self.node_id, destination, mailbox, payload, entries)

    def queue(self, destination: Hashable, mailbox: str, payload: Any,
              entries: int = 0, _parcel: Optional[Parcel] = None) -> None:
        """Queue a parcel for ``destination``; it ships at this instant's flush.

        Parcels queued to the same destination before the flush coalesce
        into one envelope.  The payload must not be mutated after queueing
        (ownership passes to the transport — the batch is the snapshot).
        """
        parcel = _parcel if _parcel is not None else Parcel(mailbox, payload, entries)
        if not self.config.batching:
            self._ship(destination, [parcel])
            return
        self._queues.setdefault(destination, []).append(parcel)
        if self.config.sanitize:
            self._queue_digests.setdefault(destination, []).append(
                payload_digest(parcel.payload))
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self.network.simulator.schedule(
                0.0, self._auto_flush, label=f"transport-flush@{self.node_id}")

    def _auto_flush(self) -> None:
        self._flush_scheduled = False
        self.flush()

    def flush(self, destination: Optional[Hashable] = None) -> None:
        """Ship queued parcels now (all destinations, or one).

        Crashed owners ship nothing: their queues are dropped, matching
        fail-stop send semantics.
        """
        if self.owner is not None and not self.owner.alive:
            if destination is None:
                self._queues.clear()
                self._queue_digests.clear()
            else:
                self._queues.pop(destination, None)
                self._queue_digests.pop(destination, None)
            return
        if destination is not None:
            parcels = self._queues.pop(destination, None)
            digests = self._queue_digests.pop(destination, None)
            if parcels:
                self._ship(destination, parcels, digests)
            return
        queues, self._queues = self._queues, {}
        digest_map, self._queue_digests = self._queue_digests, {}
        # Sorted, never hash order — and reversed under the perturb-order
        # sanitizer, which any correct caller must be indifferent to.
        for dest in sorted(queues, key=repr,
                           reverse=self.config.perturb_order):
            self._ship(dest, queues[dest], digest_map.get(dest))

    def _ship(self, destination: Hashable, parcels: list[Parcel],
              digests: Optional[list[str]] = None) -> None:
        if self.config.sanitize and digests:
            for parcel, queued_digest in zip(parcels, digests):
                if payload_digest(parcel.payload) != queued_digest:
                    raise PayloadMutationError(
                        f"payload of parcel {parcel.mailbox!r} "
                        f"{self.node_id!r}->{destination!r} (entries="
                        f"{parcel.entries}, rpc_id={parcel.rpc_id}) was "
                        "mutated after queue(); the transport owns queued "
                        "payloads — snapshot before queueing instead")
        self._send(self.node_id, destination, TRANSPORT_MAILBOX,
                   Envelope(tuple(parcels)),
                   sum(parcel.entries for parcel in parcels), len(parcels))

    def _send(self, source: Hashable, destination: Hashable, mailbox: str,
              payload: Any, entries: int, parcel_count: int = 1) -> Message:
        """Put one physical message on the network and ledger it.

        The shared registry is the transport's only ledger: ``parcel_count``
        logical messages ride one envelope of ``entries`` entries, saving
        a header per extra parcel.  With the bandwidth model on, bytes
        take time, so the transmission cost the network stamped on the
        message is ledgered too — batching amortizes serialization ticks
        (one header, one queue slot), not just header bytes.
        """
        metrics = self.metrics
        size = wire_size(entries)
        metrics.increment("transport.logical_messages_sent", parcel_count)
        metrics.increment("transport.envelopes_sent")
        metrics.increment("transport.bytes_sent", size)
        if parcel_count > 1:
            metrics.increment("transport.header_bytes_saved",
                              (parcel_count - 1) * WIRE_HEADER_BYTES)
        message = self.network.send(source, destination, mailbox, payload,
                                    size_bytes=size)
        timing = message.transmission
        if timing is not _NO_COST:  # model off: nothing stamped, nothing to ledger
            queue_wait, serialization, nic_wait = timing
            if serialization:
                metrics.increment("transport.serialization_ticks", serialization)
            if queue_wait:
                metrics.increment("transport.queue_wait_ticks", queue_wait)
            if nic_wait:
                metrics.increment("transport.nic_wait_ticks", nic_wait)
        return message

    # -- RPC: requester side ------------------------------------------------------

    def request(self, destination: Hashable, mailbox: str, payload: Any, *,
                entries: int = 0,
                policy: Optional[RpcPolicy] = None,
                on_reply: Optional[Callable[[Any], None]] = None,
                on_timeout: Optional[Callable[[], None]] = None) -> int:
        """Send a request expecting a reply; returns the rpc id.

        The reply (whatever mailbox the responder chooses) is dispatched to
        this node's ordinary handlers, then ``on_reply``.  If no reply lands
        within ``policy.timeout`` the identical request is re-sent, up to
        ``policy.max_attempts`` total attempts; responders suppress the
        duplicates (re-serving the memoized reply), so at-least-once send
        composes into effectively-once handling.
        """
        policy = policy or self.config.rpc
        rpc_id = next(self._rpc_ids)
        parcel = Parcel(mailbox, payload, entries, rpc_id=rpc_id,
                        rpc_kind="request", reply_to=self.node_id)
        pending = _PendingRequest(parcel, destination, policy,
                                  on_reply=on_reply, on_timeout=on_timeout)
        self._pending[rpc_id] = pending
        self.metrics.increment("transport.rpc_requests")
        self.metrics.increment_keyed("transport.rpc_requests_to", destination)
        self.queue(destination, mailbox, payload, entries, _parcel=parcel)
        self._arm_timer(pending)
        return rpc_id

    def _arm_timer(self, pending: _PendingRequest) -> None:
        rpc_id = pending.parcel.rpc_id
        label = f"rpc-timeout@{self.node_id}#{rpc_id}"
        callback = lambda: self._on_rpc_timeout(rpc_id)  # noqa: E731
        if self.owner is not None:
            pending.timer = self.owner.set_timer(pending.policy.timeout,
                                                 callback, label=label)
        else:
            pending.timer = self.network.simulator.schedule(
                pending.policy.timeout, callback, label=label)

    def _on_rpc_timeout(self, rpc_id: int) -> None:
        pending = self._pending.get(rpc_id)
        if pending is None:
            return
        if pending.attempts >= pending.policy.max_attempts:
            del self._pending[rpc_id]
            self.metrics.increment("transport.rpc_timeouts")
            self.metrics.increment_keyed("transport.rpc_timeouts_to",
                                         pending.destination)
            if pending.on_timeout is not None:
                pending.on_timeout()
            return
        pending.attempts += 1
        self.metrics.increment("transport.rpc_retries")
        self.metrics.increment_keyed("transport.rpc_retries_to",
                                     pending.destination)
        self.queue(pending.destination, pending.parcel.mailbox,
                   pending.parcel.payload, pending.parcel.entries,
                   _parcel=pending.parcel)
        self._arm_timer(pending)

    # -- RPC: responder side ------------------------------------------------------

    def reply(self, request: Message, mailbox: str, payload: Any,
              entries: int = 0) -> None:
        """Answer ``request``.  RPC requests get a matched reply parcel
        routed to the original requester (even across forwards); plain
        messages get an ordinary parcel back to their immediate source.

        The reply may be deferred — a handler that stored the request and
        answers later (a timer, a downstream event) still routes as RPC,
        and the late reply refreshes the duplicate-suppression memo so a
        retried request re-serves it.
        """
        inbound: Optional[_InboundRequest] = getattr(request, "rpc_state", None)
        if inbound is not None and inbound.parcel.rpc_kind == "request":
            parcel = Parcel(mailbox, payload, entries,
                            rpc_id=inbound.parcel.rpc_id, rpc_kind="reply")
            inbound.reply = parcel
            memo_key = (inbound.parcel.reply_to, inbound.parcel.rpc_id)
            if memo_key in self._served:
                self._served[memo_key] = parcel
            self.queue(inbound.parcel.reply_to, mailbox, payload, entries,
                       _parcel=parcel)
        else:
            self.queue(request.source, mailbox, payload, entries)

    def forward(self, request: Message, destination: Hashable,
                entries: int = 0) -> None:
        """Relay ``request`` onward, preserving its reply routing.

        The eventual responder answers straight to the original requester;
        the forwarder memoizes nothing, so a retried request is re-forwarded
        rather than suppressed.  For a plain (non-RPC) message the relay leg
        is billed by ``entries`` — declare the payload's cost, exactly as
        the original sender did.
        """
        inbound: Optional[_InboundRequest] = getattr(request, "rpc_state", None)
        if inbound is not None and inbound.parcel.rpc_kind == "request":
            inbound.forwarded = True
            self.queue(destination, inbound.parcel.mailbox,
                       inbound.parcel.payload, inbound.parcel.entries,
                       _parcel=inbound.parcel)
        else:
            # Plain message: impersonate the source so any reply still
            # reaches the originator (the pre-transport relay idiom — a
            # queued parcel cannot spoof its sender, so this leg ships raw
            # but is still accounted like any other logical message).
            self._send(request.source, destination, request.mailbox,
                       request.payload, entries)

    # -- receiving ----------------------------------------------------------------

    def deliver(self, message: Message) -> None:
        """Unpack an envelope and dispatch each parcel (called by the node).

        The owner's liveness is re-checked between parcels: if an earlier
        parcel's handler crashed the node, the remaining parcels are stashed
        as undelivered — exactly what unbatched delivery would have done to
        the equivalent stand-alone messages.
        """
        parcels = message.payload.parcels
        for index, parcel in enumerate(parcels):
            if self.owner is not None and not self.owner.alive:
                undelivered = getattr(self.owner, "_undelivered", None)
                if undelivered is not None:
                    undelivered.extend(self._logical_message(message, rest)
                                       for rest in parcels[index:])
                return
            if parcel.rpc_kind == "reply":
                self._deliver_reply(message, parcel)
            elif parcel.rpc_kind == "request":
                self._deliver_request(message, parcel)
            else:
                self._dispatch(self._logical_message(message, parcel))

    def _logical_message(self, physical: Message, parcel: Parcel) -> Message:
        return Message(source=physical.source, destination=self.node_id,
                       mailbox=parcel.mailbox, payload=parcel.payload,
                       sent_at=physical.sent_at,
                       message_id=next(self._logical_ids))

    def _dispatch(self, message: Message) -> None:
        if self.owner is not None:
            self.owner.dispatch(message)

    def _deliver_reply(self, physical: Message, parcel: Parcel) -> None:
        pending = self._pending.pop(parcel.rpc_id, None)
        if pending is None:
            # Duplicate or late reply: the request was already answered
            # (or abandoned); suppress instead of re-running handlers.
            self.metrics.increment("transport.rpc_duplicate_replies")
            return
        if pending.timer is not None:
            pending.timer.cancel()
        self._dispatch(self._logical_message(physical, parcel))
        if pending.on_reply is not None:
            pending.on_reply(parcel.payload)

    def _deliver_request(self, physical: Message, parcel: Parcel) -> None:
        memo_key = (parcel.reply_to, parcel.rpc_id)
        if memo_key in self._served:
            # Duplicate request (a retry): do not re-run the handler; if a
            # reply was served, re-send it — its first copy may have been
            # the thing that got lost.
            self.metrics.increment("transport.rpc_duplicate_requests")
            served = self._served[memo_key]
            if served is not None:
                self.queue(parcel.reply_to, served.mailbox, served.payload,
                           served.entries, _parcel=served)
            return
        logical = self._logical_message(physical, parcel)
        inbound = _InboundRequest(parcel)
        # Message is frozen; the responder state rides along out-of-band so
        # deferred replies (handler answers after dispatch returns) work.
        object.__setattr__(logical, "rpc_state", inbound)
        self._dispatch(logical)
        if not inbound.forwarded:
            # Memoize even when the reply is still None: the handler ran,
            # so a duplicate must not re-run it; a deferred reply refreshes
            # this entry when it is eventually sent (see reply()).
            self._served[memo_key] = inbound.reply
            while len(self._served) > self.config.dedup_window:
                self._served.popitem(last=False)

    # -- failure hooks ------------------------------------------------------------

    def on_crash(self) -> None:
        """Fail-stop: queued parcels, pending requests and the dedup memo
        die with the process (timers are cancelled by the node)."""
        self._queues.clear()
        self._queue_digests.clear()
        for pending in self._pending.values():
            if pending.timer is not None:
                pending.timer.cancel()
        self._pending.clear()
        self._served.clear()

    # -- introspection ------------------------------------------------------------

    @property
    def pending_requests(self) -> int:
        return len(self._pending)

    def queued_parcels(self, destination: Optional[Hashable] = None) -> int:
        if destination is not None:
            return len(self._queues.get(destination, ()))
        return sum(len(parcels) for parcels in self._queues.values())
