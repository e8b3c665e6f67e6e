"""E14 — Unified transport: per-destination batching for gossip + Paxos.

Measures what the envelope coalescing of :mod:`repro.cluster.transport`
buys over the unbatched wire (one envelope per logical message) for the two
chattiest protocols in the tree, and emits the numbers machine-readably to
``.bench_results/BENCH_transport.json`` so the perf trajectory is tracked
across PRs:

* **Gossip/replication burst**: a put burst against one fully-replicated
  shard.  Every replica fans its replicate traffic out to every peer, so
  the active (sender, peer) pair count grows quadratically with fan-out —
  and with it the header bytes batching saves: superlinear in fan-out.
* **Paxos proposal burst**: a leader appending a block of commands in one
  instant.  Accepts, acks and decides per peer each collapse into one
  envelope, cutting the envelope count by roughly the burst size.

The bench asserts the floor the acceptance criteria pin: >= 2x envelope
reduction for both workloads at fan-out 5, and — for the all-to-all gossip
workload, whose active pair count is quadratic in fan-out — header-byte
savings growing superlinearly between fan-out 2 and fan-out 5.  (The
leader-centric Paxos pattern is inherently linear in fan-out; its growth is
reported for the trajectory but not asserted superlinear.)
"""


from conftest import print_rows, write_bench
from repro.cluster import (
    Network,
    NetworkConfig,
    Simulator,
    TransportConfig,
)
from repro.consistency import ConsensusLog
from repro.lattices import SetUnion
from repro.storage import LatticeKVS


#: Fan-outs measured (peers per node).  5 is the acceptance floor.
FAN_OUTS = (2, 5)
#: Puts per replica in the gossip burst (scales with cluster size, the way
#: real load scales with capacity).
PUTS_PER_REPLICA = 40
#: Proposals in the Paxos burst.
PROPOSALS = 50

RESULTS: dict = {"gossip": [], "paxos": []}


def _measure(net):
    metrics = net.metrics
    return {
        "envelopes": net.messages_sent,
        "logical_messages": int(metrics.counter("transport.logical_messages_sent")),
        "bytes": net.bytes_sent,
        "header_bytes_saved": int(metrics.counter("transport.header_bytes_saved")),
    }


def run_gossip(fan_out: int, batching: bool) -> dict:
    """A put burst against one shard replicated across ``fan_out + 1`` nodes."""
    sim = Simulator(seed=5)
    net = Network(sim, NetworkConfig(base_delay=1.0, jitter=0.0),
                  transport=TransportConfig(batching=batching))
    kvs = LatticeKVS(sim, net, shard_count=1, replication_factor=fan_out + 1,
                     gossip_interval=20.0)
    for index in range(PUTS_PER_REPLICA * (fan_out + 1)):
        kvs.put(f"k-{index}", SetUnion({index}))
    kvs.settle(100.0)
    return _measure(net)


def run_paxos(fan_out: int, batching: bool) -> dict:
    """A block of proposals appended in one instant at ``fan_out`` peers."""
    sim = Simulator(seed=7)
    net = Network(sim, NetworkConfig(base_delay=1.0, jitter=0.0),
                  transport=TransportConfig(batching=batching))
    log = ConsensusLog(sim, net, [f"r{i}" for i in range(fan_out + 1)])
    for index in range(PROPOSALS):
        log.append(f"cmd-{index}")
    sim.run_until_idle()
    chosen = log.chosen_values("r0")
    assert chosen == [f"cmd-{i}" for i in range(PROPOSALS)]
    return _measure(net)


def test_transport_batching_cuts_envelopes_and_headers():
    reductions = {}
    savings = {"gossip": {}, "paxos": {}}
    for workload, runner in (("gossip", run_gossip), ("paxos", run_paxos)):
        for fan_out in FAN_OUTS:
            unbatched = runner(fan_out, batching=False)
            batched = runner(fan_out, batching=True)
            reduction = unbatched["envelopes"] / batched["envelopes"]
            # Batching must not change what was said, only how it shipped.
            assert batched["logical_messages"] == unbatched["logical_messages"]
            RESULTS[workload].append({
                "fan_out": fan_out,
                "unbatched_envelopes": unbatched["envelopes"],
                "batched_envelopes": batched["envelopes"],
                "envelope_reduction": round(reduction, 2),
                "unbatched_bytes": unbatched["bytes"],
                "batched_bytes": batched["bytes"],
                "header_bytes_saved": batched["header_bytes_saved"],
                "logical_messages": batched["logical_messages"],
            })
            reductions[(workload, fan_out)] = reduction
            savings[workload][fan_out] = batched["header_bytes_saved"]

    # Acceptance floor: >= 2x fewer envelopes at fan-out 5, both workloads.
    assert reductions[("gossip", 5)] >= 2.0, reductions
    assert reductions[("paxos", 5)] >= 2.0, reductions

    # Superlinearity: scaling fan-out 2 -> 5 (2.5x) must grow the header
    # bytes batching saves by strictly more than 2.5x — the pair count a
    # burst activates grows quadratically with fan-out.
    linear = FAN_OUTS[1] / FAN_OUTS[0]
    gossip_growth = savings["gossip"][5] / savings["gossip"][2]
    assert gossip_growth > linear, (
        f"gossip header savings grew {gossip_growth:.2f}x for a {linear}x "
        f"fan-out increase — not superlinear")
    RESULTS["envelope_reduction_at_fanout5"] = {
        "gossip": round(reductions[("gossip", 5)], 2),
        "paxos": round(reductions[("paxos", 5)], 2),
    }
    RESULTS["header_savings_growth_fanout2_to_5"] = {
        "gossip": round(gossip_growth, 2),
        "paxos": round(savings["paxos"][5] / savings["paxos"][2], 2),
        "linear_reference": linear,
    }

    print_rows(
        "E14: transport batching (gossip burst + Paxos block)",
        ["workload", "fan-out", "envelopes before", "envelopes after",
         "reduction", "header B saved"],
        [[workload, row["fan_out"], row["unbatched_envelopes"],
          row["batched_envelopes"], f"{row['envelope_reduction']:.1f}x",
          row["header_bytes_saved"]]
         for workload in ("gossip", "paxos") for row in RESULTS[workload]],
    )
    write_bench("BENCH_transport.json", RESULTS)
