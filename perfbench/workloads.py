"""The benchmark's four workloads, driven only through the public APIs.

Each workload is a function ``run_<name>(seed, units, probe)`` that builds
its system, times the build (``setup_s``), drives a fixed amount of work and
returns a :class:`Run`: raw host-time samples, simulated-time samples,
deterministic counts and the correctness verdict.  ``units`` sizes the work
(client operations for the KVS and PACT workloads, seeded scenarios for the
chaos sweep); the same ``(seed, units)`` always gives the same inputs and,
because the simulator is deterministic, the same simulated results.

Simulated load is open-loop in simulated time: operations fall due at a
fixed rate, whether or not earlier ones have completed, and the seed picks
each one's client, key and kind before the run starts.  Latency is
measured from the due tick.  The timed window advances the simulator in
fixed simulated-time slices; the host time of each slice is one
``unit_s`` sample.  ``probe`` lets the traced run mark the timed window.

Host time is CPU time, timed with a calibration chunk around every block
so that it can be scaled to a reference speed (see ``hostclock``).  The
timed window's wall-clock length (``window_s``) is kept for the traced run,
whose spans are wall-clock.
"""

from __future__ import annotations

import bisect
import contextlib
import random
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.apps.covid import build_covid_program
from repro.chaos import canonicalize, geo_config, standard_schedule, sweep
from repro.chaos.scenario import build_env
from repro.cluster import Network, NetworkConfig, Simulator, Topology
from repro.compiler import Hydrolysis
from repro.lattices import SetUnion
from repro.placement import HandlerLoadModel
from repro.placement.geo import GEO_AZS, locality_aware_domain
from repro.storage import KVSClient, LatticeKVS

from perfbench.hostclock import HostTimer, cpu_clock


class Probe:
    """Hooks for the traced run (see ``trace.Tracer``); these are no-ops."""

    def window(self):
        """Context around the timed window."""
        return contextlib.nullcontext()

    def unit(self, ident: int) -> None:
        """A new work unit (scenario seed) begins."""


@dataclass
class Run:
    """Everything one workload run measured, before aggregation."""

    #: CPU seconds of each set-up repetition.
    setup_s: list[float] = field(default_factory=list)
    #: CPU seconds of the calibration chunks around the set-up repetitions.
    setup_cal_s: list[float] = field(default_factory=list)
    #: CPU seconds of each work unit (a slice or a seeded scenario).
    unit_s: list[float] = field(default_factory=list)
    #: CPU seconds of the calibration chunks around the work units.
    unit_cal_s: list[float] = field(default_factory=list)
    #: A calibration chunk's time at reference speed (``HostTimer.reference_s``).
    reference_s: float = 0.0
    #: Wall-clock seconds of the timed window, calibration left out.
    window_s: float = 0.0
    #: Work units: client ops, requests, or scenario seeds.
    attempted: int = 0
    #: Units that finished (an op acked or answered, a scenario judged);
    #: the throughput counts these.
    completed: int = 0
    #: Units that failed: an op never answered, a request with no
    #: response, a scenario with a failing checker.
    failed: int = 0
    #: Simulated-time samples (ticks), by kind: put / get / req / delivery.
    ticks: dict[str, list[float]] = field(default_factory=dict)
    #: Wire bytes sent inside the timed window.
    wire_bytes: int = 0
    #: Deterministic per-layer counts (identical under any hash seed).
    counts: dict[str, float] = field(default_factory=dict)
    #: Correctness violations; empty means the outputs checked out.
    violations: list[str] = field(default_factory=list)
    #: Free-form facts for the report (failing seeds, sizes).
    notes: dict = field(default_factory=dict)


def zipf_sampler(rng: random.Random, size: int) -> Callable[[], int]:
    """Return a sampler of ranks ``0..size-1`` with P(rank r) ∝ 1/(r+1) (Zipf 1)."""
    cumulative = []
    total = 0.0
    for rank in range(size):
        total += 1.0 / (rank + 1)
        cumulative.append(total)
    return lambda: bisect.bisect_left(cumulative, rng.random() * total)


def _registry_counts(network: Network, start: dict[str, float]) -> dict[str, float]:
    """Registry counters accumulated since ``start`` (a ``counters()`` copy)."""
    now = network.metrics.counters()
    return {name: value - start.get(name, 0.0) for name, value in now.items()}


def _network_counts(network: Network,
                    before: tuple[int, int, int, int] = (0, 0, 0, 0)) -> dict[str, float]:
    sent, delivered, dropped, sent_bytes = before
    return {"network.envelopes": network.messages_sent - sent,
            "network.delivered": network.messages_delivered - delivered,
            "network.dropped": network.messages_dropped - dropped,
            "network.bytes": network.bytes_sent - sent_bytes}


def _latency_samples(registry) -> int:
    """Latency samples the registry retains (its recorders never shed any)."""
    return sum(value for name, value in registry.snapshot().items()
               if name.startswith("latency.") and name.endswith(".count"))


def _converged_ratio(counters: dict[str, float]) -> float:
    """Share of digest reconciliations that found the replicas identical.

    Taken over whole runs, not the timed window: a reconciliation counts
    when it starts and converges when its reply lands, so a window edge
    can split the two.
    """
    rounds = counters.get("kvs.antientropy.rounds", 0.0)
    return counters.get("kvs.antientropy.converged_rounds", 0.0) / rounds if rounds else 0.0


def _network_mark(network: Network) -> tuple[int, int, int, int]:
    return (network.messages_sent, network.messages_delivered,
            network.messages_dropped, network.bytes_sent)


def _drive_slices(simulator: Simulator, start: float,
                  schedule: list[tuple[float, Callable[[], None]]],
                  slice_ticks: float, run: Run, probe: Probe, timer: HostTimer) -> None:
    """Run the open-loop ``schedule`` (``(offset, fire)`` sorted by offset)
    from simulated time ``start`` in slices of ``slice_ticks``, timing each."""
    end = start + (schedule[-1][0] if schedule else 0.0)
    index = 0
    slice_end = start
    events_before = simulator.events_processed
    with probe.window():
        while slice_end <= end:
            slice_end += slice_ticks
            with timer.measure(run.unit_s, run.unit_cal_s):
                began = time.perf_counter()
                while index < len(schedule) and start + schedule[index][0] < slice_end:
                    offset, fire = schedule[index]
                    simulator.schedule_at(start + offset, fire, label="bench-op")
                    index += 1
                simulator.run(until=slice_end)
                run.window_s += time.perf_counter() - began
    run.counts["simulator.events"] = simulator.events_processed - events_before


# -- KVS ------------------------------------------------------------------------------

KVS_SHARDS = 6
KVS_REPLICAS = 2
KVS_CLIENTS = 6
#: Open-loop client load, operations per simulated tick (all clients).
KVS_RATE = 20.0
#: Timed slice: a quarter of a gossip interval.
KVS_SLICE_TICKS = 5.0
#: Ticks the final settle runs before the correctness check: several
#: anti-entropy cycles (``full_sync_every`` × ``gossip_interval``).
KVS_FINAL_SETTLE = 600.0
KVS_WRITE_KEYS = 100_000
KVS_READ_KEYS = 20_000


def _build_kvs(seed: int, preload: int) -> tuple[Simulator, Network, LatticeKVS, list[KVSClient]]:
    """The geo cluster: 6 shards × 2 replicas, locality-aware placement,
    delta gossip with digest-tree anti-entropy, shared NICs, and one client
    per AZ.  ``preload`` keys get one element each and are settled."""
    config = geo_config()
    simulator = Simulator(seed=seed)
    network = Network(simulator, config.network_config())
    kvs = LatticeKVS(simulator, network, shard_count=KVS_SHARDS,
                     replication_factor=KVS_REPLICAS,
                     gossip_interval=config.gossip_interval,
                     full_sync_every=config.full_sync_every,
                     placement=locality_aware_domain)
    clients = [KVSClient(f"client-{index}", simulator, network, kvs,
                         domain=GEO_AZS[index % len(GEO_AZS)])
               for index in range(KVS_CLIENTS)]
    for rank in range(preload):
        kvs.put(f"k{rank}", SetUnion({("pre", rank)}))
    # Settle the preload's replication backlog (and start every gossip
    # cadence) so the timed window does not pay for set-up traffic.
    kvs.settle(config.gossip_interval * config.full_sync_every * 2)
    return simulator, network, kvs, clients


def run_kvs(seed: int, units: int, probe: Probe, *, put_share: float,
            key_space: int, preload: int, setup_repeats: int) -> Run:
    run = Run()
    timer = HostTimer()
    run.reference_s = timer.reference_s
    built = None
    for _ in range(setup_repeats):
        with timer.measure(run.setup_s, run.setup_cal_s):
            built = _build_kvs(seed, preload)
    simulator, network, kvs, clients = built

    rng = random.Random(seed)
    next_key = zipf_sampler(rng, key_space)
    #: (client, request id) -> (due tick, (key, element)) of unacked puts.
    due: dict[tuple[int, int], tuple[float, tuple[str, int]]] = {}
    put_ticks: list[float] = []
    get_ticks: list[float] = []
    acked: list[tuple[str, int]] = []
    replies: dict[int, object] = {}
    get_keys: dict[int, str] = {}
    start = simulator.now

    def on_put_ack(client_index: int, original):
        def handler(message) -> None:
            original(message)
            key = (client_index, message.payload["request_id"])
            issued = due.pop(key, None)
            if issued is not None:
                put_ticks.append(simulator.now - issued[0])
                acked.append(issued[1])
        return handler

    for index, client in enumerate(clients):
        client.on("put_ack", on_put_ack(index, client.handler_for("put_ack")))

    def make_put(op: int, client_index: int, key: str, at: float):
        def fire() -> None:
            rid = clients[client_index].put(key, SetUnion({op}))
            due[(client_index, rid)] = (at, (key, op))
        return fire

    def make_get(op: int, client_index: int, key: str, at: float):
        def done(value) -> None:
            get_ticks.append(simulator.now - at)
            replies[op] = value

        def fire() -> None:
            clients[client_index].get(key, callback=done)
        return fire

    schedule = []
    for op in range(units):
        offset = (op + 1) / KVS_RATE
        client_index = rng.randrange(KVS_CLIENTS)
        key = f"k{next_key()}"
        at = start + offset
        if rng.random() < put_share:
            schedule.append((offset, make_put(op, client_index, key, at)))
        else:
            get_keys[op] = key
            schedule.append((offset, make_get(op, client_index, key, at)))

    registry_before = network.metrics.counters()
    network_before = _network_mark(network)
    delivery = network.metrics.latency("net.delivery").samples
    delivery_from = len(delivery)
    _drive_slices(simulator, start, schedule, KVS_SLICE_TICKS, run, probe, timer)
    run.ticks["delivery"] = delivery[delivery_from:]
    run.wire_bytes = network.bytes_sent - network_before[3]
    run.counts.update(_network_counts(network, network_before))
    run.counts.update(_registry_counts(network, registry_before))
    run.counts["metrics.latency_samples"] = _latency_samples(network.metrics)
    run.counts["antientropy.converged_ratio"] = _converged_ratio(network.metrics.counters())

    kvs.settle(KVS_FINAL_SETTLE)
    run.attempted = units
    run.failed = len(due) + (len(get_keys) - len(replies))
    run.completed = units - run.failed
    run.ticks["put"] = put_ticks
    run.ticks["get"] = get_ticks
    run.ticks["req"] = put_ticks + get_ticks
    run.notes.update(puts=units - len(get_keys), gets=len(get_keys),
                     sim_ticks=round(simulator.now - start, 3))
    run.violations = _check_kvs(kvs, acked, replies, get_keys, preload)
    return run


def _check_kvs(kvs: LatticeKVS, acked, replies, get_keys, preload) -> list[str]:
    violations = []
    for shard_index, shard in enumerate(kvs.shards):
        stores = {canonicalize_store(replica.store) for replica in shard}
        if len(stores) != 1:
            violations.append(f"shard {shard_index}: replicas disagree after settle")
    elements_by_key: dict[str, set[int]] = {}
    for key, element in acked:
        elements_by_key.setdefault(key, set()).add(element)
    lost = {}
    for key, elements in sorted(elements_by_key.items()):
        value = kvs.get_merged(key)
        missing = elements - (value.elements if value is not None else frozenset())
        if missing:
            lost[key] = sorted(missing)
    if lost:
        violations.append(f"{sum(map(len, lost.values()))} acked puts to {len(lost)} keys "
                          f"are missing, e.g. {dict(list(lost.items())[:3])}")
    for op, value in replies.items():
        rank = int(get_keys[op][1:])
        if rank < preload and (value is None or ("pre", rank) not in value.elements):
            violations.append(f"get {op} of preloaded {get_keys[op]} missed its element")
            break
    return violations


def canonicalize_store(store: dict) -> str:
    return repr(sorted((repr(key), canonicalize(value)) for key, value in store.items()))


def run_kvs_write(seed: int, units: int, probe: Probe) -> Run:
    return run_kvs(seed, units, probe, put_share=0.9, key_space=KVS_WRITE_KEYS,
                   preload=0, setup_repeats=20)


def run_kvs_read(seed: int, units: int, probe: Probe) -> Run:
    return run_kvs(seed, units, probe, put_share=0.05, key_space=KVS_READ_KEYS,
                   preload=KVS_READ_KEYS, setup_repeats=1)


# -- chaos ----------------------------------------------------------------------------

#: Benchmark seed ``n`` sweeps the consecutive scenario seeds from
#: ``n * CHAOS_SEED_STRIDE`` on, so runs with different seeds never share
#: a scenario.  No seed is skipped: a failing checker counts as failed.
CHAOS_SEED_STRIDE = 10_000
CHAOS_CHECKERS = 11
#: ``build_env`` takes about a millisecond, so set-up is timed many times.
CHAOS_SETUP_REPEATS = 20


def run_chaos_geo(seed: int, units: int, probe: Probe) -> Run:
    run = Run()
    config = geo_config()
    schedule = standard_schedule()
    timer = HostTimer()
    run.reference_s = timer.reference_s
    for _ in range(CHAOS_SETUP_REPEATS):
        with timer.measure(run.setup_s, run.setup_cal_s):
            build_env(seed, config)

    first = seed * CHAOS_SEED_STRIDE
    failing = []
    ops = {"put": [], "get": [], "req": []}
    delivery: list[float] = []
    counts: dict[str, float] = {}
    for scenario_seed in range(first, first + units):
        probe.unit(scenario_seed)
        with timer.measure(run.unit_s, run.unit_cal_s), probe.window():
            began = time.perf_counter()
            report = sweep([scenario_seed], schedule, config=config,
                           shrink_failures=False, jobs=1)
            run.window_s += time.perf_counter() - began
        outcome, result = report.outcomes[0], report.results[0]
        if not outcome.passed:
            failing.append(scenario_seed)
        if len(result.checks) != CHAOS_CHECKERS:
            run.violations.append(
                f"seed {scenario_seed}: {len(result.checks)} checker verdicts, "
                f"expected {CHAOS_CHECKERS}")
        env = result.env
        run.wire_bytes += env.network.bytes_sent
        delivery.extend(env.network.metrics.latency("net.delivery").samples)
        for op in result.history.ops:
            if op.ok and op.completed_at is not None:
                ops["req"].append(op.latency)
                if op.action in ("put", "get"):
                    ops[op.action].append(op.latency)
        for name, value in _network_counts(env.network).items():
            counts[name] = counts.get(name, 0.0) + value
        for name, value in env.network.metrics.counters().items():
            counts[name] = counts.get(name, 0.0) + value
        counts["simulator.events"] = (counts.get("simulator.events", 0)
                                      + env.simulator.events_processed)
        counts["nemesis.faults_applied"] = (counts.get("nemesis.faults_applied", 0)
                                            + len(env.fault_log))
        counts["chaos.history_ops"] = counts.get("chaos.history_ops", 0) + len(result.history)
        counts["metrics.latency_samples"] = (counts.get("metrics.latency_samples", 0)
                                             + _latency_samples(env.network.metrics))
    counts["antientropy.converged_ratio"] = _converged_ratio(counts)
    run.counts = counts
    run.attempted = run.completed = units
    run.failed = len(failing)
    run.ticks = dict(ops, delivery=delivery)
    run.notes.update(first_seed=first, failing_seeds=failing)
    return run


# -- PACT ------------------------------------------------------------------------------

PACT_POPULATION = 40
#: Open-loop request rate, requests per simulated tick.
PACT_RATE = 0.5
#: Timed slice: one replica gossip interval, so every slice holds one
#: gossip round and slice times are not bimodal.
PACT_GOSSIP_TICKS = 10.0
PACT_FINAL_SETTLE = 100.0
#: The first set-up in a process pays one-off warm-up costs; the median
#: over a run's workers hides them.
PACT_SETUP_REPEATS = 3
#: Program-table deep copies per calibration chunk: about half the chunk,
#: as ``ProgramState.snapshot`` is about half of this workload's time.
PACT_TABLE_COPIES = 3
#: Request mix (handler, requests per block of ten); ``vaccinate`` is
#: ordered through Paxos.  The seed shuffles each block, so every block of
#: ten consecutive requests holds exactly this mix and slice times vary
#: with the state and the arguments, not with how the draw of kinds fell.
PACT_MIX = (("add_contact", 5), ("likelihood", 3), ("diagnosed", 1), ("vaccinate", 1))
PACT_WRITES = frozenset({"add_contact", "diagnosed", "vaccinate"})
PACT_LOADS = {
    "add_person": HandlerLoadModel("add_person", 150.0, 4.0),
    "add_contact": HandlerLoadModel("add_contact", 300.0, 6.0),
    "trace": HandlerLoadModel("trace", 40.0, 20.0),
    "diagnosed": HandlerLoadModel("diagnosed", 15.0, 25.0),
    "likelihood": HandlerLoadModel("likelihood", 25.0, 60.0, requires_processor="gpu"),
    "vaccinate": HandlerLoadModel("vaccinate", 10.0, 10.0),
}


class _TimedResponses(dict):
    """The deployment's response table, stamping each response's arrival."""

    def __init__(self, simulator: Simulator) -> None:
        super().__init__()
        self.simulator = simulator
        self.arrived: dict = {}

    def __setitem__(self, token, response) -> None:
        self.arrived.setdefault(token, self.simulator.now)
        super().__setitem__(token, response)


def _covid_topology() -> tuple[Topology, list[str]]:
    """3 AZs × 2 nodes, as in ``examples/covid_cloud_deployment.py``."""
    topology = Topology()
    nodes = []
    for az in range(3):
        for index in range(2):
            node_id = f"node-{az}-{index}"
            topology.place(node_id, az=f"az-{az}", vm=f"vm-{az}-{index}")
            nodes.append(node_id)
    return topology, nodes


def _build_pact(seed: int, units: int, timings: dict):
    program = build_covid_program(vaccine_count=units + 1)
    topology, nodes = _covid_topology()
    compiler = Hydrolysis()
    began = cpu_clock()
    plan = compiler.compile(program, topology, nodes, PACT_LOADS)
    timings["compile_s"] = cpu_clock() - began
    simulator = Simulator(seed=seed)
    # The link model is on: bytes cost transmission time.
    network = Network(simulator, NetworkConfig(base_delay=1.0, jitter=0.5,
                                               bandwidth=4096.0))
    began = cpu_clock()
    deployment = compiler.deploy(program, plan, simulator, network,
                                 gossip_interval=PACT_GOSSIP_TICKS)
    timings["deploy_s"] = cpu_clock() - began
    for pid in range(PACT_POPULATION):
        deployment.invoke("add_person", pid=pid, country="US")
    deployment.settle(100.0)
    return simulator, network, deployment


def run_pact_covid(seed: int, units: int, probe: Probe) -> Run:
    run = Run()
    timer = HostTimer(table_copies=PACT_TABLE_COPIES)
    run.reference_s = timer.reference_s
    timings: dict = {}
    built = None
    for _ in range(PACT_SETUP_REPEATS):
        with timer.measure(run.setup_s, run.setup_cal_s):
            built = _build_pact(seed, units, timings)
    simulator, network, deployment = built
    responses = _TimedResponses(simulator)
    deployment.responses = responses

    rng = random.Random(seed)
    block = [name for name, count in PACT_MIX for _ in range(count)]
    handlers: list[str] = []
    while len(handlers) < units:
        rng.shuffle(block)
        handlers.extend(block)
    issued: dict = {}
    start = simulator.now

    def make_request(handler: str, args: dict, at: float):
        def fire() -> None:
            issued[deployment.invoke(handler, **args)] = (handler, at)
        return fire

    schedule = []
    for request, handler in enumerate(handlers[:units]):
        offset = (request + 1) / PACT_RATE
        pid = rng.randrange(PACT_POPULATION)
        if handler == "add_contact":
            args = {"id1": pid, "id2": rng.randrange(PACT_POPULATION)}
        else:
            args = {"pid": pid}
        schedule.append((offset, make_request(handler, args, start + offset)))

    registry_before = network.metrics.counters()
    network_before = _network_mark(network)
    delivery = network.metrics.latency("net.delivery").samples
    delivery_from = len(delivery)
    _drive_slices(simulator, start, schedule, PACT_GOSSIP_TICKS, run, probe, timer)
    run.ticks["delivery"] = delivery[delivery_from:]
    run.wire_bytes = network.bytes_sent - network_before[3]
    run.counts.update(_network_counts(network, network_before))
    run.counts.update(_registry_counts(network, registry_before))
    run.counts["metrics.latency_samples"] = (_latency_samples(network.metrics)
                                             + _latency_samples(deployment.metrics))
    run.counts["availability.proxy_retries"] = deployment.metrics.counter("proxy.retries")
    run.counts["pact.coordinated_requests"] = deployment.metrics.counter("requests.coordinated")

    deployment.settle(PACT_FINAL_SETTLE)
    writes, reads, every = [], [], []
    bad = 0
    for token, (handler, at) in issued.items():
        arrived = responses.arrived.get(token)
        if arrived is None:
            continue
        latency = arrived - at
        every.append(latency)
        (writes if handler in PACT_WRITES else reads).append(latency)
        if responses[token].get("status") != "ok":
            bad += 1
    run.attempted = units
    run.completed = len(every)
    run.failed = units - len(every)
    run.ticks.update(put=writes, get=reads, req=every)
    run.notes.update(compile_s=timings["compile_s"], deploy_s=timings["deploy_s"],
                     coordinated=int(run.counts["pact.coordinated_requests"]),
                     sim_ticks=round(simulator.now - start, 3))
    if len(issued) != units:
        run.violations.append(f"{units - len(issued)} requests were never issued")
    if run.failed:
        run.violations.append(f"{run.failed} requests got no response")
    if bad:
        run.violations.append(f"{bad} responses were not ok")
    states = {canonicalize_program_state(replica.interpreter.state)
              for replica in deployment.replicas.values()}
    if len(states) != 1:
        run.violations.append("program replicas disagree after settle")
    return run


def canonicalize_program_state(state) -> str:
    tables = sorted(
        (name, sorted((repr(key), sorted((column, canonicalize(value))
                                         for column, value in row.items()))
                      for key, row in table.rows.items()))
        for name, table in state.tables.items())
    return repr((tables, sorted((name, repr(value)) for name, value in state.vars.items())))


WORKLOADS = {
    "kvs-write": run_kvs_write,
    "kvs-read": run_kvs_read,
    "chaos-geo": run_chaos_geo,
    "pact-covid": run_pact_covid,
}
