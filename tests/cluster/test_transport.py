"""The unified transport layer: typed sizing, batching, RPC, determinism.

Three contract families:

* **Typed envelopes** — wire cost always derives from declared entry
  counts; ``Network.send`` has no size default, and nodes and transports
  take no raw ``size_bytes`` at all.
* **Batching** — same-instant parcels to one destination share an envelope
  (one header), flush order is deterministic, crashed senders ship nothing,
  and batched delivery is observation-equivalent to unbatched delivery for
  a whole KVS/Paxos scenario.
* **RPC** — request/reply with timeouts, capped retries, responder-side
  duplicate suppression (memoized replies) and requester-side duplicate
  reply suppression; forwards preserve reply routing.
"""

import pytest

from repro.cluster import (
    AckedChannel,
    Network,
    NetworkConfig,
    Node,
    RpcPolicy,
    Simulator,
    Transport,
    TransportConfig,
    WIRE_ENTRY_BYTES,
    WIRE_HEADER_BYTES,
    wire_size,
)


def build_pair(batching=True, config=None, seed=1):
    sim = Simulator(seed=seed)
    net = Network(sim, config or NetworkConfig(base_delay=1.0, jitter=0.0),
                  transport=TransportConfig(batching=batching))
    a = Node("a", sim, net)
    b = Node("b", sim, net)
    return sim, net, a, b


class TestTypedSizing:
    def test_network_send_requires_explicit_size(self):
        sim, net, a, b = build_pair()
        with pytest.raises(TypeError):
            net.send("a", "b", "inbox", "payload")

    def test_send_prices_by_entry_count(self):
        sim, net, a, b = build_pair()
        before = net.bytes_sent
        a.send("b", "inbox", "x", entries=7)
        assert net.bytes_sent - before == wire_size(7)

    def test_zero_entry_message_costs_one_header(self):
        sim, net, a, b = build_pair()
        before = net.bytes_sent
        a.send("b", "inbox", "ack", entries=0)
        assert net.bytes_sent - before == WIRE_HEADER_BYTES


class TestBatching:
    def test_same_instant_parcels_share_one_envelope(self):
        sim, net, a, b = build_pair()
        got = []
        b.on("inbox", lambda msg: got.append(msg.payload))
        for i in range(10):
            a.queue("b", "inbox", i, entries=1)
        sim.run_until_idle()
        assert got == list(range(10))
        assert net.messages_sent == 1  # one envelope on the wire
        assert net.bytes_sent == WIRE_HEADER_BYTES + 10 * WIRE_ENTRY_BYTES
        assert net.metrics.counter("transport.envelopes_sent") == 1
        assert net.metrics.counter("transport.logical_messages_sent") == 10
        assert net.metrics.counter("transport.header_bytes_saved") == \
            9 * WIRE_HEADER_BYTES

    def test_batching_disabled_ships_one_envelope_per_parcel(self):
        sim, net, a, b = build_pair(batching=False)
        got = []
        b.on("inbox", lambda msg: got.append(msg.payload))
        for i in range(10):
            a.queue("b", "inbox", i, entries=1)
        sim.run_until_idle()
        assert got == list(range(10))
        assert net.messages_sent == 10
        assert net.metrics.counter("transport.header_bytes_saved") == 0

    def test_flush_order_is_sorted_by_destination(self):
        sim, net, a, b = build_pair()
        c = Node("c", sim, net)
        order = []
        b.on("inbox", lambda msg: order.append("b"))
        c.on("inbox", lambda msg: order.append("c"))
        a.queue("c", "inbox", 1)
        a.queue("b", "inbox", 1)
        sim.run_until_idle()
        assert order == ["b", "c"]  # sorted destinations, same delay config

    def test_crashed_sender_ships_nothing(self):
        sim, net, a, b = build_pair()
        got = []
        b.on("inbox", got.append)
        a.queue("b", "inbox", "doomed")
        a.crash()
        sim.run_until_idle()
        assert got == []
        assert a.transport.queued_parcels() == 0

    def test_metrics_registry_aggregates_across_nodes(self):
        sim, net, a, b = build_pair()
        a.queue("b", "inbox", 1, entries=1)
        b.queue("a", "inbox", 2, entries=1)
        sim.run_until_idle()
        assert net.metrics.counter("transport.envelopes_sent") == 2
        assert net.metrics.counter("transport.logical_messages_sent") == 2
        assert net.metrics.counter("transport.bytes_sent") == 2 * wire_size(1)


class TestRpc:
    def echo_responder(self, node):
        def handler(msg):
            node.reply(msg, "echo_reply", {"echo": msg.payload})
        node.on("echo", handler)

    def test_request_reply_round_trip(self):
        sim, net, a, b = build_pair()
        self.echo_responder(b)
        replies = []
        a.request("b", "echo", "hello", on_reply=replies.append)
        sim.run_until_idle()
        assert replies == [{"echo": "hello"}]
        assert a.transport.pending_requests == 0

    def test_reply_dispatches_to_ordinary_mailbox_handler_too(self):
        sim, net, a, b = build_pair()
        self.echo_responder(b)
        seen = []
        a.on("echo_reply", lambda msg: seen.append(msg.payload))
        a.request("b", "echo", "hi")
        sim.run_until_idle()
        assert seen == [{"echo": "hi"}]

    def test_lost_request_is_retried_and_succeeds(self):
        sim, net, a, b = build_pair()
        self.echo_responder(b)
        replies = []
        part = net.partition({"a"}, {"b"})
        a.request("b", "echo", "retry-me",
                  policy=RpcPolicy(timeout=10.0, max_attempts=2),
                  on_reply=replies.append)
        sim.run(until=5.0)
        net.heal(part)  # heal before the retry fires at t=10
        sim.run_until_idle()
        assert replies == [{"echo": "retry-me"}]
        assert net.metrics.counter("transport.rpc_retries") == 1

    def test_capped_retries_then_timeout_callback(self):
        sim, net, a, b = build_pair()
        timeouts = []
        net.partition({"a"}, {"b"})
        a.request("b", "echo", "void",
                  policy=RpcPolicy(timeout=5.0, max_attempts=3),
                  on_timeout=lambda: timeouts.append(sim.now))
        sim.run_until_idle()
        assert timeouts == [15.0]  # 3 attempts x 5.0
        assert net.metrics.counter("transport.rpc_retries") == 2
        assert a.transport.pending_requests == 0

    def test_duplicate_request_not_rehandled_reply_reserved(self):
        """A retried request whose *reply* was lost: the responder must not
        re-run the handler, but must re-send the memoized reply."""
        sim, net, a, b = build_pair()
        handled = []

        def handler(msg):
            handled.append(msg.payload)
            b.reply(msg, "echo_reply", {"echo": msg.payload})
        b.on("echo", handler)
        replies = []
        # Lose only the reply: open a total-loss window after the request is
        # sent (t=0) covering the reply send (t=1), closed before the retry.
        sim.schedule(0.5, lambda: setattr(net.config, "drop_rate", 1.0))
        sim.schedule(8.0, lambda: setattr(net.config, "drop_rate", 0.0))
        a.request("b", "echo", "once",
                  policy=RpcPolicy(timeout=10.0, max_attempts=2),
                  on_reply=replies.append)
        sim.run(until=9.0)
        assert handled == ["once"] and replies == []
        sim.run_until_idle()
        assert handled == ["once"]  # handler ran exactly once
        assert replies == [{"echo": "once"}]  # re-served memoized reply
        assert net.metrics.counter("transport.rpc_duplicate_requests") == 1

    def test_duplicate_reply_suppressed(self):
        sim, net, a, b = build_pair(
            config=NetworkConfig(base_delay=1.0, jitter=0.0, duplicate_rate=1.0))
        self.echo_responder(b)
        replies = []
        a.request("b", "echo", "dup", on_reply=replies.append)
        sim.run_until_idle()
        assert replies == [{"echo": "dup"}]
        assert net.metrics.counter("transport.rpc_duplicate_replies") >= 1

    def test_forward_preserves_reply_routing(self):
        sim, net, a, b = build_pair()
        c = Node("c", sim, net)
        b.on("work", lambda msg: b.forward(msg, "c"))
        c.on("work", lambda msg: c.reply(msg, "done", f"c-did-{msg.payload}"))
        replies = []
        a.request("b", "work", "task", on_reply=replies.append)
        sim.run_until_idle()
        assert replies == ["c-did-task"]

    def test_responder_crash_drops_dedup_memo_but_merge_idempotence_saves_us(self):
        sim, net, a, b = build_pair()
        handled = []
        b.on("echo", lambda msg: handled.append(msg.payload))
        net.partition({"a"}, {"b"})  # request lost entirely
        a.request("b", "echo", "x",
                  policy=RpcPolicy(timeout=5.0, max_attempts=2))
        sim.run(until=2.0)
        b.crash()
        b.recover()
        net.heal_all()
        sim.run_until_idle()
        assert handled == ["x"]  # the retry landed post-recovery

    def test_deferred_reply_still_routes_as_rpc(self):
        """A handler that answers after dispatch returns (from a timer)
        must still complete the RPC — and a retry must re-serve the
        deferred reply instead of re-running the handler."""
        sim, net, a, b = build_pair()
        handled = []

        def handler(msg):
            handled.append(msg.payload)
            b.set_timer(3.0, lambda: b.reply(msg, "echo_reply", "late"))
        b.on("echo", handler)
        replies = []
        a.request("b", "echo", "defer", on_reply=replies.append)
        sim.run_until_idle()
        assert handled == ["defer"]
        assert replies == ["late"]
        assert a.transport.pending_requests == 0

    def test_retry_reserves_deferred_reply(self):
        sim, net, a, b = build_pair()
        handled = []

        def handler(msg):
            handled.append(msg.payload)
            b.set_timer(3.0, lambda: b.reply(msg, "echo_reply", "late"))
        b.on("echo", handler)
        replies = []
        # Lose the deferred reply (sent at t=4): the retry at t=10 must hit
        # the dedup memo — handler not re-run, memoized late reply re-served.
        sim.schedule(3.5, lambda: setattr(net.config, "drop_rate", 1.0))
        sim.schedule(8.0, lambda: setattr(net.config, "drop_rate", 0.0))
        a.request("b", "echo", "defer",
                  policy=RpcPolicy(timeout=10.0, max_attempts=2),
                  on_reply=replies.append)
        sim.run_until_idle()
        assert handled == ["defer"]
        assert replies == ["late"]
        assert net.metrics.counter("transport.rpc_duplicate_requests") == 1

    def test_crash_mid_envelope_stops_delivery_of_later_parcels(self):
        """Fail-stop parity with unbatched delivery: if an earlier parcel's
        handler crashes the node, the rest of the envelope is stashed as
        undelivered, not processed by a dead node."""
        sim, net, a, b = build_pair()
        got = []

        def poison(msg):
            got.append(msg.payload)
            if msg.payload == "boom":
                b.crash()
        b.on("inbox", poison)
        for payload in ("ok", "boom", "after-1", "after-2"):
            a.queue("b", "inbox", payload, entries=1)
        sim.run_until_idle()
        assert got == ["ok", "boom"]
        assert [m.payload for m in b._undelivered] == ["after-1", "after-2"]

    def test_forward_of_plain_message_bills_declared_entries(self):
        sim, net, a, b = build_pair()
        c = Node("c", sim, net)
        got = []
        c.on("bulk", lambda msg: got.append(msg.payload))
        b.on("bulk", lambda msg: b.forward(msg, "c", entries=3))
        a.send("b", "bulk", "payload", entries=3)
        before = net.bytes_sent
        sim.run(until=1.5)  # b has relayed by now
        assert net.bytes_sent - before == wire_size(3)
        sim.run_until_idle()
        assert got == ["payload"]

    def test_standalone_transport_without_owner(self):
        sim = Simulator(seed=3)
        net = Network(sim, NetworkConfig(base_delay=1.0, jitter=0.0))
        received = []
        net.register("peer", received.append)
        transport = Transport(net, "solo")
        transport.queue("peer", "inbox", "raw", entries=1)
        transport.flush()
        sim.run_until_idle()
        assert len(received) == 1  # the envelope arrived


class TestAckedChannel:
    def test_stale_rounds_respect_grace(self):
        channel = AckedChannel(grace=2, cap=4)
        channel.begin_tick()
        channel.track(1, frozenset({"k"}))
        assert channel.stale_rounds() == []
        channel.begin_tick()
        assert channel.stale_rounds() == []
        channel.begin_tick()
        assert channel.stale_rounds() == [(1, frozenset({"k"}))]

    def test_ack_and_saturation(self):
        channel = AckedChannel(grace=1, cap=3)
        for round_no in range(1, 4):
            channel.begin_tick()
            channel.track(round_no, frozenset({round_no}))
        assert channel.saturated
        channel.ack(1)
        assert not channel.saturated
        channel.clear()
        assert channel.pending == {}

    def test_retransmission_restamps_round(self):
        channel = AckedChannel(grace=1, cap=8)
        channel.begin_tick()
        channel.track(1, frozenset({"k"}))
        channel.begin_tick()
        (round_no, keys), = channel.stale_rounds()
        channel.track(round_no, keys)  # re-stamp at current tick
        assert channel.stale_rounds() == []


class TestObservationEquivalence:
    """Batched delivery must be an optimization only: for the same seed the
    final KVS and Paxos state is identical with batching on and off.

    The network is jittery but lossless: under loss the two modes draw the
    shared RNG a different number of times (fewer envelopes, fewer
    lotteries), so *which* message dies diverges by construction and only
    the lossless fixpoint is comparable.  Loss-path behaviour (retries,
    dedup, retransmission) is covered by the RPC tests above and the delta
    gossip suite.
    """

    def kvs_fixpoint(self, batching, seed=13):
        from repro.lattices import GCounter, SetUnion
        from repro.storage import KVSClient, LatticeKVS

        sim = Simulator(seed=seed)
        net = Network(sim, NetworkConfig(base_delay=1.0, jitter=0.5),
                      transport=TransportConfig(batching=batching))
        kvs = LatticeKVS(sim, net, shard_count=2, replication_factor=2,
                         gossip_interval=20.0)
        client = KVSClient("client", sim, net, kvs)
        for i in range(60):
            client.put(f"k-{i % 10}", SetUnion({f"v-{i}"}))
            client.put(f"c-{i % 5}", GCounter().increment(f"w-{i % 3}", 1))
        kvs.settle(2000.0)
        from repro.chaos import canonicalize
        return {
            key: canonicalize(kvs.get_merged(key))
            for i in range(10)
            for key in (f"k-{i}", f"c-{i % 5}")
        }

    def paxos_log(self, batching, seed=17):
        from repro.consistency import ConsensusLog

        sim = Simulator(seed=seed)
        net = Network(sim, NetworkConfig(base_delay=1.0, jitter=0.5),
                      transport=TransportConfig(batching=batching))
        log = ConsensusLog(sim, net, [f"r{i}" for i in range(5)])
        for j in range(20):
            log.append(f"v{j}")
        sim.run_until_idle()
        return {rid: log.chosen_values(rid) for rid in log.replicas}

    def test_kvs_final_state_identical(self):
        assert self.kvs_fixpoint(True) == self.kvs_fixpoint(False)

    def test_paxos_chosen_values_identical_and_complete(self):
        batched = self.paxos_log(True)
        unbatched = self.paxos_log(False)
        assert batched == unbatched
        assert batched["r0"] == [f"v{j}" for j in range(20)]


class TestSerializationTicks:
    """With the bandwidth model on, the transport ledgers transmission time."""

    def bandwidth_pair(self, bandwidth=100.0):
        return build_pair(config=NetworkConfig(base_delay=1.0, jitter=0.0,
                                               bandwidth=bandwidth))

    def test_send_now_ledgers_serialization(self):
        sim, net, a, b = self.bandwidth_pair()
        a.send("b", "inbox", "x", entries=4)
        assert net.metrics.counter("transport.serialization_ticks") == \
            pytest.approx(wire_size(4) / 100.0)

    def test_batched_envelope_serializes_once(self):
        """Ten parcels in one envelope pay one header's serialization; ten
        unbatched sends pay ten — batching amortizes *time*, not just
        header bytes."""
        sim_b, net_b, a_b, _ = self.bandwidth_pair()
        for i in range(10):
            a_b.queue("b", "inbox", i, entries=1)
        sim_b.run_until_idle()
        batched = net_b.metrics.counter("transport.serialization_ticks")

        sim_u, net_u, a_u, _ = self.bandwidth_pair()
        for i in range(10):
            a_u.send("b", "inbox", i, entries=1)
        sim_u.run_until_idle()
        unbatched = net_u.metrics.counter("transport.serialization_ticks")

        assert batched == pytest.approx(
            (WIRE_HEADER_BYTES + 10 * WIRE_ENTRY_BYTES) / 100.0)
        assert unbatched == pytest.approx(10 * wire_size(1) / 100.0)
        assert unbatched - batched == pytest.approx(
            9 * WIRE_HEADER_BYTES / 100.0)

    def test_queue_wait_ledgered_separately(self):
        sim, net, a, b = self.bandwidth_pair()
        a.send("b", "inbox", "first", entries=5)
        a.send("b", "inbox", "second", entries=5)  # waits behind first
        assert net.metrics.counter("transport.queue_wait_ticks") == \
            pytest.approx(wire_size(5) / 100.0)

    def test_model_off_ledgers_nothing(self):
        sim, net, a, b = build_pair()
        a.send("b", "inbox", "x", entries=50)
        for i in range(5):
            a.queue("b", "inbox", i, entries=2)
        sim.run_until_idle()
        assert net.metrics.counter("transport.serialization_ticks") == 0.0
        assert net.metrics.counter("transport.queue_wait_ticks") == 0.0
