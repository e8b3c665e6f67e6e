"""The nemesis: a deterministic fault scheduler over the simulated cluster.

A *fault* is a frozen dataclass describing one adversity (a partition storm,
a crash, a latency spike, a live reshard) anchored at a simulated time; a
*schedule* is a plain list of faults.  The :class:`Nemesis` arms a schedule
against a :class:`ChaosEnv`, firing each fault through the public cluster
APIs (``Network.partition``/``heal``, ``FailureInjector``,
``LatticeKVS.reshard``) so protocols are stressed exactly the way a real
outage would stress them.

Design rules that make sweep/shrink work:

* Faults are **RNG-free** — their effect depends only on their fields and
  the deterministic cluster state, never on random draws.  Removing one
  fault from a schedule therefore cannot change what the remaining faults
  do, which is what makes greedy shrinking sound.
* Faults are **frozen dataclasses** — their ``repr`` is a copy-pasteable
  Python expression, and :func:`schedule_to_dicts` /
  :func:`schedule_from_dicts` round-trip a schedule through JSON for CI
  artifacts.
* Node groups are derived from **sorted ids**, never from set iteration
  order, so the event trace is identical under every ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Hashable, Optional, Sequence

from repro.cluster import (
    FailureDomain,
    FailureInjector,
    Network,
    NetworkConfig,
    Simulator,
    Topology,
)
from repro.cluster.network import (
    CLOCK,
    DROP,
    FABRIC_DELAY,
    NODE_DELAY,
    SQUEEZE,
    Degradation,
)
from repro.cluster.node import Node
from repro.storage import LatticeKVS


class ChaosEnv:
    """Everything a fault can touch: simulator, network, KVS, injector.

    Also the scenario's black box recorder: fault activations
    (:attr:`fault_log`), state-losing recoveries
    (:attr:`lose_state_events`) and the worst link delay induced
    (:attr:`max_link_delay`) are logged so checkers can reason about what
    the nemesis did — e.g. exempting an acked write from the durability
    check when the acking replica later lost its state.
    """

    def __init__(self, seed: int, network_config: NetworkConfig,
                 kvs: Optional[LatticeKVS] = None, *,
                 simulator: Optional[Simulator] = None,
                 network: Optional[Network] = None) -> None:
        self.seed = seed
        self.simulator = simulator or Simulator(seed=seed)
        self.network = network or Network(self.simulator, network_config)
        self.kvs = kvs
        self.topology = Topology()
        self.injector = FailureInjector(self.simulator, {}, self.topology)
        self.fault_log: list[tuple[float, str]] = []
        self.lose_state_events: list[tuple[float, Hashable]] = []
        #: Ground-truth nemesis footprint, appended by each degrading fault
        #: *at fire time* (after index→target resolution), so it names the
        #: concrete subject a diagnosis must rediscover.  Subjects are
        #: ``("fabric",)`` for whole-network degradations (partitions,
        #: latency/drop/congestion spikes), ``("node", id)`` for node-local
        #: ones (crashes, slow nodes), ``("client", id)`` for client
        #: crashes.  Clock skews and reshards record nothing: neither is a
        #: path degradation an end-to-end observer could be asked to see.
        self.ground_truth: list[dict] = []
        #: Worst link delay (base + jitter, times the worst pair of
        #: slow-node factors) seen at any point of the run — latency spikes
        #: and slow-node faults raise it.  The CALM checker's latency bound
        #: must scale with it, not with the configured delays.  A
        #: :class:`~repro.cluster.DelayMatrix` may pin per-domain delays
        #: above ``base_delay`` (cross-region links), so the worst matrix
        #: entry joins the baseline.
        self.max_link_delay = 0.0
        self._raise_link_delay_bound()
        #: High-water mark of any node's timer drift — skewed local clocks
        #: stretch cadences and RPC retry timers, so latency bounds scale
        #: with it.
        self.max_timer_drift = 1.0
        self._extra_crashable: dict[Hashable, Node] = {}
        #: Workload client nodes, kept *out* of the injector: clients are
        #: only ever targeted by :class:`CrashClient`, never by
        #: :class:`CrashReplica` (whose ``pool="all"`` index arithmetic
        #: must not shift when a workload registers its clients).
        self.clients: dict[Hashable, Node] = {}
        if kvs is not None:
            self.refresh_injector()

    # -- node registry -----------------------------------------------------------

    def register_crashable(self, nodes: Sequence[Node]) -> None:
        """Expose workload-owned nodes (Paxos, causal) to crash faults."""
        for node in nodes:
            self._extra_crashable[node.node_id] = node
        self.refresh_injector()

    def register_clients(self, clients: Sequence[Node]) -> None:
        """Expose workload client nodes to :class:`CrashClient` faults."""
        for client in clients:
            self.clients[client.node_id] = client

    def refresh_injector(self) -> None:
        """Rebuild the injector's node map and topology from live state.

        Called after a reshard: new replica generations must become
        crashable and removed ones must stop being recover targets.
        """
        self.injector.nodes.clear()
        if self.kvs is not None:
            for node in self.kvs.all_nodes():
                self.injector.nodes[node.node_id] = node
                self.topology.place(node.node_id, az=node.domain)
        for node_id, node in self._extra_crashable.items():
            self.injector.nodes[node_id] = node

    def crashable_ids(self) -> list[Hashable]:
        """Crash-fault targets, sorted for seed- and hashseed-stable picks."""
        return sorted(self.injector.nodes, key=str)

    def partitionable_ids(self) -> list[Hashable]:
        """Every registered node (replicas, clients, protocol nodes), sorted."""
        return sorted(self.network.registered_nodes(), key=str)

    def client_ids(self) -> list[Hashable]:
        """Client-crash targets, sorted for seed- and hashseed-stable picks."""
        return sorted(self.clients, key=str)

    # -- bookkeeping used by faults ----------------------------------------------

    def log_fault(self, text: str) -> None:
        self.fault_log.append((self.simulator.now, text))

    def record_ground_truth(self, kind: str, subject: tuple,
                            start: float, end: float) -> None:
        """Append one resolved fault footprint for diagnosis scoring."""
        self.ground_truth.append({
            "kind": kind, "subject": subject, "start": start, "end": end})

    # -- degradations: handles in the Network's ledger ---------------------------

    def push_latency_factor(self, factor: float) -> Degradation:
        """Stretch every link's delay (base, jitter, matrix) by ``factor``."""
        return self._degrade(FABRIC_DELAY, factor)

    def push_drop_rate(self, drop_rate: float) -> Degradation:
        """Raise the fabric's drop probability to at least ``drop_rate``."""
        return self._degrade(DROP, drop_rate)

    def push_node_slowdown(self, node_id: Hashable, factor: float) -> Degradation:
        """Degrade every link touching ``node_id`` (the slow-node fault)."""
        return self._degrade(NODE_DELAY, factor, node=node_id)

    def push_bandwidth_squeeze(self, factor: float) -> Degradation:
        """Squeeze every link's and NIC's bandwidth (the congestion fault).

        A config without a bandwidth model is unaffected — bytes only take
        time when the model prices them.
        """
        return self._degrade(SQUEEZE, factor)

    def apply_clock_skew(self, node: Node, offset: float,
                         drift: float) -> Degradation:
        """Skew ``node``'s local clock: shift its reading, stretch its timers."""
        handle = self._degrade(CLOCK, drift, node=node.node_id, offset=offset)
        self._sync_clock(node)
        self.max_timer_drift = max(self.max_timer_drift, node.timer_drift)
        return handle

    def retire(self, handle: Degradation) -> None:
        """Retire one degradation by handle identity (idempotent).

        A stale restore — a window ``heal_everything`` already cleared —
        is a no-op, so it can never retire a later fault with equal fields.
        """
        self.network.retire(handle)
        if handle.kind == CLOCK:
            node = self.injector.nodes.get(handle.node)
            if node is not None:  # a reshard may have retired the node
                self._sync_clock(node)

    # Per-fault names for the restores (perfbench/trace.py wraps them).
    pop_latency_factor = pop_drop_rate = pop_node_slowdown = retire
    pop_bandwidth_squeeze = remove_clock_skew = retire

    def _degrade(self, kind: str, value: float, **target) -> Degradation:
        handle = self.network.degrade(kind, value, **target)
        self._raise_link_delay_bound()
        return handle

    def _sync_clock(self, node: Node) -> None:
        node.clock_offset, node.timer_drift = self.network.clock_skew(
            node.node_id)

    def _raise_link_delay_bound(self) -> None:
        network = self.network
        config = network.config
        factor = network.fabric_delay_factor
        worst = config.base_delay * factor
        if config.delay_matrix is not None:
            worst = max(worst, config.delay_matrix.max_delay() * factor)
        # A link's delay is multiplied by the factor product of *both*
        # endpoints; the worst pair is the two largest per-node products.
        worst_pair = 1.0
        for node_factor in sorted(network.slowed_nodes().values(),
                                  reverse=True)[:2]:
            worst_pair *= node_factor
        self.max_link_delay = max(
            self.max_link_delay,
            (worst + config.jitter * factor) * worst_pair)

    def rpc_retry_allowance(self) -> float:
        """Worst extra latency transport RPC retries can add to an op.

        Scaled by the worst timer drift a clock-skew fault induced: a node
        with a slow local clock re-arms its retry timers late.
        """
        return (self.network.transport_config.rpc.retry_allowance
                * self.max_timer_drift)

    # -- global heal (the Jepsen "final reads" phase) ------------------------------

    def heal_everything(self) -> None:
        """Heal all partitions, restore link behaviour, recover every node.

        Recoveries keep state (``lose_state=False``): the point of the final
        phase is to let anti-entropy converge what survived, not to inject
        more loss.
        """
        self.network.heal_all()
        skewed = [handle for handle in self.network.degradations()
                  if handle.kind == CLOCK]
        self.network.clear_degradations()
        self.refresh_injector()
        for handle in skewed:
            self.retire(handle)
        for node_id in self.crashable_ids():
            node = self.injector.nodes[node_id]
            if not node.alive:
                self.injector.recover_now(node_id, lose_state=False)
        for client_id in self.client_ids():
            client = self.clients[client_id]
            if not client.alive:
                # A returning client is always a *new* session: its volatile
                # session caches die with the old incarnation, whatever the
                # heal phase's keep-state policy for replicas.
                client.recover(lose_state=True)
        self.log_fault("heal_everything")


@dataclass(frozen=True)
class Fault:
    """Base class: one adversity anchored at simulated time ``at``."""

    at: float

    def inject(self, env: ChaosEnv) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def window(self) -> tuple[float, float]:
        """The (start, end) interval during which this fault is active."""
        return (self.at, self.at)

    def to_dict(self) -> dict:
        payload = dataclasses.asdict(self)
        payload["kind"] = type(self).__name__
        return payload


#: Partition storm flavors: a symmetric striped cut, a one-directional cut
#: (A→B severed, B→A flowing), and a striped cut with one straddling node.
STORM_FLAVORS = ("striped", "asymmetric", "bridge")


@dataclass(frozen=True)
class PartitionStorm(Fault):
    """Repeated install/heal waves of a striped two-way partition.

    Each wave splits the sorted registered node ids into two interleaved
    groups (stripe offset rotates with ``wave + pivot`` so successive waves
    cut along different lines), holds the cut for ``duration``, then heals.
    Striping guarantees replicas of the same shard usually land on opposite
    sides, which is the interesting cut for convergence protocols.

    ``flavor`` selects the cut's shape:

    * ``"striped"`` — the symmetric two-way cut above;
    * ``"asymmetric"`` — the same stripes, but only A→B traffic is severed
      (``Partition(oneway=True)``): acks flow while the data they
      acknowledge cannot, the classic half-open-link failure;
    * ``"bridge"`` — one node (rotating with ``wave + pivot``) is listed in
      *both* groups, so it keeps connectivity to everyone while the pure
      sides stay cut — Jepsen's bridge nemesis, the cut a naive
      majority-reachability check never notices.
    """

    duration: float = 40.0
    waves: int = 1
    gap: float = 10.0
    pivot: int = 0
    flavor: str = "striped"

    def __post_init__(self) -> None:
        if self.flavor not in STORM_FLAVORS:
            raise ValueError(
                f"flavor must be one of {STORM_FLAVORS}, got {self.flavor!r}")

    def inject(self, env: ChaosEnv) -> None:
        for wave in range(self.waves):
            start = self.at + wave * (self.duration + self.gap)
            env.simulator.schedule_at(
                start, lambda wave=wave: self._start_wave(env, wave),
                label=f"nemesis partition-wave-{wave}")

    def _start_wave(self, env: ChaosEnv, wave: int) -> None:
        ids = env.partitionable_ids()
        offset = (wave + self.pivot) % 2
        group_a = [node_id for i, node_id in enumerate(ids) if i % 2 == offset]
        group_b = [node_id for i, node_id in enumerate(ids) if i % 2 != offset]
        if not group_a or not group_b:
            return
        bridge = None
        if self.flavor == "bridge" and len(ids) >= 3:
            # Rotates deterministically over the sorted ids, so successive
            # waves straddle the cut at different nodes.
            bridge = ids[(wave + self.pivot) % len(ids)]
            if bridge not in group_a:
                group_a.append(bridge)
            if bridge not in group_b:
                group_b.append(bridge)
        partition = env.network.partition(
            group_a, group_b, oneway=self.flavor == "asymmetric")
        detail = f" bridge={bridge}" if bridge is not None else ""
        env.log_fault(f"partition wave {wave} ({self.flavor}): "
                      f"{len(group_a)}|{len(group_b)} nodes{detail}")
        env.record_ground_truth("PartitionStorm", ("fabric",),
                                env.simulator.now,
                                env.simulator.now + self.duration)

        def heal() -> None:
            env.network.heal(partition)
            env.log_fault(f"heal wave {wave}")

        env.simulator.schedule(self.duration, heal,
                               label=f"nemesis heal-wave-{wave}")

    def window(self) -> tuple[float, float]:
        # The last wave heals after its duration; no trailing gap follows.
        return (self.at, self.at + self.waves * self.duration
                + (self.waves - 1) * self.gap)


@dataclass(frozen=True)
class CrashReplica(Fault):
    """Crash one node for ``downtime``, optionally losing volatile state.

    The target is picked by ``index`` into the sorted crashable ids at fire
    time — stable for a given cluster, and still meaningful after a reshard
    changed the node population.  ``pool`` widens the target set from KVS
    replicas to every crashable node (Paxos acceptors, causal peers);
    ``lose_state`` is only honoured for KVS replicas, because acceptor
    promises model durable state that fail-recover must not erase.
    """

    index: int = 0
    downtime: float = 60.0
    lose_state: bool = False
    pool: str = "kvs"

    def inject(self, env: ChaosEnv) -> None:
        env.simulator.schedule_at(self.at, lambda: self._crash(env),
                                  label=f"nemesis crash-{self.index}")

    def _targets(self, env: ChaosEnv) -> list[Hashable]:
        if self.pool == "kvs" and env.kvs is not None:
            return sorted((n.node_id for n in env.kvs.all_nodes()), key=str)
        return env.crashable_ids()

    def _crash(self, env: ChaosEnv) -> None:
        env.refresh_injector()
        targets = self._targets(env)
        if not targets:
            return
        node_id = targets[self.index % len(targets)]
        lose_state = self.lose_state and self.pool == "kvs"
        env.injector.crash_now(node_id)
        env.log_fault(f"crash {node_id} (lose_state={lose_state})")
        env.record_ground_truth("CrashReplica", ("node", node_id),
                                env.simulator.now,
                                env.simulator.now + self.downtime)
        env.simulator.schedule(
            self.downtime, lambda: self._recover(env, node_id, lose_state),
            label=f"nemesis recover-{node_id}")

    def _recover(self, env: ChaosEnv, node_id: Hashable, lose_state: bool) -> None:
        if node_id not in env.injector.nodes:
            return  # the node was retired by a reshard while down
        env.injector.recover_now(node_id, lose_state=lose_state)
        if lose_state:
            env.lose_state_events.append((env.simulator.now, node_id))
        env.log_fault(f"recover {node_id} (lose_state={lose_state})")

    def window(self) -> tuple[float, float]:
        return (self.at, self.at + self.downtime)


@dataclass(frozen=True)
class CrashClient(Fault):
    """Crash one workload client mid-operation, then bring back a stranger.

    The target is picked by ``index`` into the sorted registered client ids
    at fire time.  Crashing a :class:`~repro.chaos.workloads.RecordingKVSClient`
    freezes its in-flight ops as ``PENDING`` in the history (the request may
    be on the wire; the outcome is permanently indeterminate — Jepsen
    ``:info``), and recovery is always ``lose_state=True``: the replacement
    identity reuses the node id but starts a *fresh session*, inheriting
    neither the read-your-writes nor the monotonic-reads cache (pinned by
    ``KVSClient.reset_state``).  Ops the plan fires during the downtime are
    simply not issued — a dead client is silent, not failing.
    """

    index: int = 0
    downtime: float = 40.0

    def inject(self, env: ChaosEnv) -> None:
        env.simulator.schedule_at(self.at, lambda: self._crash(env),
                                  label=f"nemesis crash-client-{self.index}")

    def _crash(self, env: ChaosEnv) -> None:
        targets = env.client_ids()
        if not targets:
            return
        node_id = targets[self.index % len(targets)]
        client = env.clients[node_id]
        if not client.alive:
            return  # already down (overlapping client crashes)
        client.crash()
        env.log_fault(f"crash-client {node_id}")
        env.record_ground_truth("CrashClient", ("client", node_id),
                                env.simulator.now,
                                env.simulator.now + self.downtime)
        env.simulator.schedule(
            self.downtime, lambda: self._recover(env, node_id),
            label=f"nemesis recover-client-{node_id}")

    def _recover(self, env: ChaosEnv, node_id: Hashable) -> None:
        client = env.clients.get(node_id)
        if client is None or client.alive:
            return
        client.recover(lose_state=True)
        env.lose_state_events.append((env.simulator.now, node_id))
        env.log_fault(f"recover-client {node_id} (new session)")

    def window(self) -> tuple[float, float]:
        return (self.at, self.at + self.downtime)


@dataclass(frozen=True)
class DomainOutage(Fault):
    """Crash every node of one failure-domain instance, then recover it.

    Recovery goes through the same retirement guard as
    :class:`CrashReplica`: a node a reshard retired while the domain was
    down stays down, instead of being resurrected into a ghost replica
    gossiping at its likewise-retired peers forever.
    """

    domain: str = "az-1"
    downtime: float = 60.0

    def inject(self, env: ChaosEnv) -> None:
        env.simulator.schedule_at(self.at, lambda: self._outage(env),
                                  label=f"nemesis outage-{self.domain}")

    def _outage(self, env: ChaosEnv) -> None:
        env.refresh_injector()
        plans = env.injector.crash_domain(
            FailureDomain.AVAILABILITY_ZONE, self.domain, at=env.simulator.now)
        env.log_fault(f"outage {self.domain}: {len(plans)} nodes")
        for plan in plans:
            env.record_ground_truth("DomainOutage", ("node", plan.node_id),
                                    env.simulator.now,
                                    env.simulator.now + self.downtime)
        for plan in plans:
            env.simulator.schedule(
                self.downtime,
                lambda node_id=plan.node_id: self._recover(env, node_id),
                label=f"nemesis outage-recover-{plan.node_id}")

    def _recover(self, env: ChaosEnv, node_id: Hashable) -> None:
        if node_id not in env.injector.nodes:
            return  # retired by a reshard while the domain was down
        env.injector.recover_now(node_id, lose_state=False)
        env.log_fault(f"recover {node_id} (outage {self.domain})")

    def window(self) -> tuple[float, float]:
        return (self.at, self.at + self.downtime)


@dataclass(frozen=True)
class LatencySpike(Fault):
    """Multiply link delay by ``factor`` for ``duration``, then restore.

    Overlapping spikes compose multiplicatively and restore independently:
    each holds its own handle in the network's degradation ledger, and the
    effective delay is recomputed from the *currently live* handles, never
    from saved-at-start values (which would let one spike's restore
    re-impose another's degradation).

    Delays pinned by a :class:`~repro.cluster.DelayMatrix` stretch by the
    same factor: a spike models
    fabric-wide RTT inflation — bufferbloat, routing flaps — which hits
    long-haul paths too.  Degrading every link by one factor is also what
    keeps the spike *fabric*-shaped for the tomography rules; bandwidth
    squeezes (:class:`Congestion`) remain the mechanism that loads the
    thin inter-region pipes specifically.
    """

    duration: float = 40.0
    factor: float = 6.0

    def inject(self, env: ChaosEnv) -> None:
        env.simulator.schedule_at(self.at, lambda: self._start(env),
                                  label="nemesis latency-spike")

    def _start(self, env: ChaosEnv) -> None:
        handle = env.push_latency_factor(self.factor)
        env.log_fault(f"latency x{self.factor}")
        env.record_ground_truth("LatencySpike", ("fabric",),
                                env.simulator.now,
                                env.simulator.now + self.duration)
        env.simulator.schedule(self.duration,
                               lambda: self._restore(env, handle),
                               label="nemesis latency-restore")

    def _restore(self, env: ChaosEnv, handle: Degradation) -> None:
        env.pop_latency_factor(handle)
        env.log_fault("latency restored")

    def window(self) -> tuple[float, float]:
        return (self.at, self.at + self.duration)


@dataclass(frozen=True)
class DropSpike(Fault):
    """Raise the message drop probability for ``duration``, then restore.

    Overlapping spikes compose as the max of the live rates (see
    :class:`LatencySpike` for why restore recomputes from the live set).
    """

    duration: float = 40.0
    drop_rate: float = 0.4

    def inject(self, env: ChaosEnv) -> None:
        env.simulator.schedule_at(self.at, lambda: self._start(env),
                                  label="nemesis drop-spike")

    def _start(self, env: ChaosEnv) -> None:
        handle = env.push_drop_rate(self.drop_rate)
        env.log_fault(f"drop_rate -> {env.network.drop_rate}")
        env.record_ground_truth("DropSpike", ("fabric",),
                                env.simulator.now,
                                env.simulator.now + self.duration)
        env.simulator.schedule(self.duration,
                               lambda: self._restore(env, handle),
                               label="nemesis drop-restore")

    def _restore(self, env: ChaosEnv, handle: Degradation) -> None:
        env.pop_drop_rate(handle)
        env.log_fault("drop_rate restored")

    def window(self) -> tuple[float, float]:
        return (self.at, self.at + self.duration)


@dataclass(frozen=True)
class Congestion(Fault):
    """Squeeze every link's bandwidth by ``factor`` for ``duration``.

    The transmission-model sibling of :class:`LatencySpike`: instead of
    stretching propagation delay, it divides the configured link bandwidth,
    so large envelopes (full-store gossip syncs, fan-out bursts) serialize
    slowly and queue behind each other while small control traffic barely
    notices — exactly the failure mode that distinguishes delta gossip from
    snapshot gossip.  RNG-free and recompute-from-live like the other
    spikes: overlapping congestions compose multiplicatively and restore
    independently, and :class:`SlowNode` factors compose multiplicatively
    on top (a slow node's links serialize slower still).  On a config with
    the bandwidth model off it is a logged no-op.
    """

    duration: float = 40.0
    factor: float = 8.0

    def inject(self, env: ChaosEnv) -> None:
        env.simulator.schedule_at(self.at, lambda: self._start(env),
                                  label="nemesis congestion")

    def _start(self, env: ChaosEnv) -> None:
        handle = env.push_bandwidth_squeeze(self.factor)
        env.log_fault(f"congestion /{self.factor}")
        env.record_ground_truth("Congestion", ("fabric",),
                                env.simulator.now,
                                env.simulator.now + self.duration)
        env.simulator.schedule(self.duration,
                               lambda: self._restore(env, handle),
                               label="nemesis congestion-restore")

    def _restore(self, env: ChaosEnv, handle: Degradation) -> None:
        env.pop_bandwidth_squeeze(handle)
        env.log_fault("congestion restored")

    def window(self) -> tuple[float, float]:
        return (self.at, self.at + self.duration)


@dataclass(frozen=True)
class SlowNode(Fault):
    """Degrade every link touching one node by ``factor``, then restore.

    The gray-failure sibling of :class:`LatencySpike`: instead of slowing
    the whole fabric, one straggler (picked by ``index`` into the sorted
    registered ids at fire time) pays ``factor``× delay on all its inbound
    and outbound links — the classic slow-disk/overloaded-VM replica that
    stays technically alive.  Overlapping slow-node faults compose
    multiplicatively per node (two faults on one node stack; faults on both
    endpoints of a link multiply), and the CALM latency bound scales with
    the worst active pair.
    """

    index: int = 0
    duration: float = 40.0
    factor: float = 4.0

    def inject(self, env: ChaosEnv) -> None:
        env.simulator.schedule_at(self.at, lambda: self._start(env),
                                  label=f"nemesis slow-node-{self.index}")

    def _start(self, env: ChaosEnv) -> None:
        targets = env.partitionable_ids()
        if not targets:
            return
        node_id = targets[self.index % len(targets)]
        handle = env.push_node_slowdown(node_id, self.factor)
        env.log_fault(f"slow-node {node_id} x{self.factor}")
        env.record_ground_truth("SlowNode", ("node", node_id),
                                env.simulator.now,
                                env.simulator.now + self.duration)
        env.simulator.schedule(self.duration,
                               lambda: self._restore(env, handle),
                               label=f"nemesis slow-node-restore-{self.index}")

    def _restore(self, env: ChaosEnv, handle: Degradation) -> None:
        env.pop_node_slowdown(handle)
        env.log_fault(f"slow-node {handle.node} restored")

    def window(self) -> tuple[float, float]:
        return (self.at, self.at + self.duration)


@dataclass(frozen=True)
class ClockSkew(Fault):
    """Skew one node's local clock for ``duration``, then restore.

    ``offset`` shifts what the node's ``clock()`` reads; ``drift`` stretches
    every timer the node arms while skewed (> 1 is a slow local clock firing
    cadences late — gossip rounds, RPC retries, 2PC vote timeouts).  The
    target is picked by ``index`` into the sorted crashable ids at fire
    time.  Each skew is one handle in the network's degradation ledger,
    so overlapping skews on one node compose (offsets add, drifts
    multiply) and restore independently.
    """

    index: int = 0
    duration: float = 60.0
    offset: float = 15.0
    drift: float = 1.25

    def inject(self, env: ChaosEnv) -> None:
        env.simulator.schedule_at(self.at, lambda: self._start(env),
                                  label=f"nemesis clock-skew-{self.index}")

    def _start(self, env: ChaosEnv) -> None:
        env.refresh_injector()
        targets = env.crashable_ids()
        if not targets:
            return
        node_id = targets[self.index % len(targets)]
        handle = env.apply_clock_skew(env.injector.nodes[node_id],
                                      self.offset, self.drift)
        env.log_fault(f"clock-skew {node_id} offset={self.offset} drift={self.drift}")
        env.simulator.schedule(self.duration,
                               lambda: self._restore(env, handle),
                               label=f"nemesis clock-skew-restore-{self.index}")

    def _restore(self, env: ChaosEnv, handle: Degradation) -> None:
        env.refresh_injector()
        env.remove_clock_skew(handle)
        env.log_fault(f"clock-skew {handle.node} restored")

    def window(self) -> tuple[float, float]:
        return (self.at, self.at + self.duration)


@dataclass(frozen=True)
class ReshardUnderFire(Fault):
    """Fire ``LatticeKVS.reshard`` while other faults are live."""

    new_shard_count: int = 4

    def inject(self, env: ChaosEnv) -> None:
        env.simulator.schedule_at(self.at, lambda: self._reshard(env),
                                  label=f"nemesis reshard-{self.new_shard_count}")

    def _reshard(self, env: ChaosEnv) -> None:
        if env.kvs is None:
            return
        report = env.kvs.reshard(self.new_shard_count)
        env.refresh_injector()
        env.log_fault(f"reshard {report!r}")


#: Fault kinds recognised by :func:`schedule_from_dicts`.
FAULT_KINDS = {
    cls.__name__: cls
    for cls in (PartitionStorm, CrashReplica, CrashClient, DomainOutage,
                LatencySpike, DropSpike, Congestion, SlowNode, ClockSkew,
                ReshardUnderFire)
}


def schedule_to_dicts(schedule: Sequence[Fault]) -> list[dict]:
    return [fault.to_dict() for fault in schedule]


def schedule_from_dicts(payloads: Sequence[dict]) -> list[Fault]:
    schedule = []
    for payload in payloads:
        payload = dict(payload)
        kind = payload.pop("kind")
        schedule.append(FAULT_KINDS[kind](**payload))
    return schedule


class Nemesis:
    """Arms a fault schedule against an environment."""

    def __init__(self, env: ChaosEnv, schedule: Sequence[Fault]) -> None:
        self.env = env
        self.schedule = list(schedule)

    def start(self) -> None:
        for fault in self.schedule:
            fault.inject(self.env)

    def end_time(self) -> float:
        """When the last fault's window closes (0.0 for an empty schedule)."""
        return max((fault.window()[1] for fault in self.schedule), default=0.0)
