"""Layer-attributed tracing, installed from benchmark code only.

:func:`install` wraps the public entry points of every layer the
workloads touch — class methods, and the checker and diagnosis functions
the chaos scenario calls by module-global name — with span recorders.
Nothing under ``src/`` knows about it, and it is only ever installed in
the traced process, so the untraced runs that give the end-to-end metrics
execute the program exactly as shipped.

A span records its name, start, end, parent span and trace identifier:
the simulator event it ran under, or for the chaos sweep the scenario
seed.  Spans are kept in memory as packed columns and written out once,
when the run ends.  A span's *self time* is its duration minus the time
its child spans cover; each layer metric sums the self time of that
layer's spans.  Recording is confined to the timed window (see
:class:`Tracer.window`), so set-up and the final correctness settle are
not attributed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
from array import array
from pathlib import Path
from time import perf_counter

import repro.lattices as lattices
from repro.availability.replication import ReplicaNode
from repro.chaos import nemesis
from repro.cluster import Network, Node, Simulator, Transport
from repro.cluster.failure import FailureInjector
from repro.cluster.metrics import LinkObservatory, MetricsRegistry
from repro.consistency.paxos import PaxosReplica
from repro.core.interpreter import SingleNodeInterpreter
from repro.core.state import ProgramState
from repro.storage import HashRing, KVSClient, LatticeKVS
from repro.storage.antientropy import DigestTree

# ``repro.chaos`` re-exports a function named ``sweep``, which shadows the
# submodule as a package attribute, so both modules are fetched by name.
chaos_scenario = importlib.import_module("repro.chaos.scenario")
chaos_sweep = importlib.import_module("repro.chaos.sweep")


class Tracer:
    """Span recorder with packed in-memory storage and online self time."""

    def __init__(self, per_event_ids: bool) -> None:
        #: Events get fresh trace ids (KVS, PACT); the chaos sweep instead
        #: sets one id per scenario seed through :meth:`unit`.
        self.per_event_ids = per_event_ids
        self.active = False
        self.trace_id = 0
        self.peak_pending = 0
        self._event_ids = itertools.count(1)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.calls: list[int] = []
        self._stack: list[list] = []
        self.span_name = array("I")
        self.span_parent = array("q")
        self.span_trace = array("q")
        self.span_start = array("d")
        self.span_end = array("d")

    def intern(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            self.calls.append(0)
        return name_id

    def call(self, name_id: int, fn, args, kwargs):
        """Run ``fn`` inside a span named ``names[name_id]``."""
        if not self.active:
            return fn(*args, **kwargs)
        stack = self._stack
        index = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_trace.append(self.trace_id)
        self.span_end.append(0.0)
        frame = [index, 0.0]
        stack.append(frame)
        start = perf_counter()
        self.span_start.append(start)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.span_end[index] = end
            duration = end - start
            self.self_s[name_id] += duration - frame[1]
            self.total_s[name_id] += duration
            self.calls[name_id] += 1
            if stack:
                stack[-1][1] += duration

    # -- the probe interface the workloads call ---------------------------------------

    @contextlib.contextmanager
    def window(self):
        self.active = True
        try:
            yield
        finally:
            self.active = False

    def unit(self, ident: int) -> None:
        if not self.per_event_ids:
            self.trace_id = ident

    # -- reporting -----------------------------------------------------------------------

    def self_of(self, name: str) -> float:
        name_id = self._name_ids.get(name)
        return 0.0 if name_id is None else self.self_s[name_id]

    def total_of(self, name: str) -> float:
        name_id = self._name_ids.get(name)
        return 0.0 if name_id is None else self.total_s[name_id]

    def calls_of(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        return 0 if name_id is None else self.calls[name_id]

    def self_by_prefix(self, prefix: str) -> dict[str, float]:
        return {name: self.self_s[name_id] for name, name_id in self._name_ids.items()
                if name.startswith(prefix)}

    @property
    def span_count(self) -> int:
        return len(self.span_name)

    def write(self, path: Path) -> None:
        """Write the spans as packed columns plus a JSON index beside them."""
        columns = [("name", self.span_name), ("parent", self.span_parent),
                   ("trace", self.span_trace), ("start", self.span_start),
                   ("end", self.span_end)]
        with open(path.with_suffix(".bin"), "wb") as handle:
            for _, column in columns:
                column.tofile(handle)
        index = {"spans": self.span_count, "names": self.names,
                 "columns": [{"name": name, "typecode": column.typecode,
                              "itemsize": column.itemsize} for name, column in columns],
                 "clock": "time.perf_counter seconds",
                 "parent": "span index, -1 for a root span"}
        path.with_suffix(".json").write_text(json.dumps(index))


def _wrap(tracer: Tracer, owner, attribute: str, name: str) -> None:
    original = getattr(owner, attribute)
    name_id = tracer.intern(name)
    call = tracer.call

    @functools.wraps(original)
    def traced(*args, **kwargs):
        return call(name_id, original, args, kwargs)

    setattr(owner, attribute, traced)


def _wrap_simulator(tracer: Tracer) -> None:
    """Every scheduled callback runs inside a ``simulator`` span (the
    event), under a ``simulator`` span per ``run`` call (the loop)."""
    schedule = Simulator.schedule
    event_id = tracer.intern("simulator")
    call = tracer.call
    next_event = tracer._event_ids

    def traced_schedule(simulator, delay, callback, label=""):
        def event():
            if tracer.per_event_ids and tracer.active:
                tracer.trace_id = next(next_event)
            return call(event_id, callback, (), {})

        scheduled = schedule(simulator, delay, event, label)
        if tracer.active and simulator.pending_events > tracer.peak_pending:
            tracer.peak_pending = simulator.pending_events
        return scheduled

    Simulator.schedule = functools.wraps(schedule)(traced_schedule)
    _wrap(tracer, Simulator, "run", "simulator")


def _wrap_dispatch(tracer: Tracer) -> None:
    """``Node.dispatch`` spans are named by mailbox: ``dispatch.<mailbox>``."""
    dispatch = Node.dispatch
    call = tracer.call
    intern = tracer.intern

    def traced_dispatch(node, message):
        return call(intern("dispatch." + message.mailbox), dispatch, (node, message), {})

    Node.dispatch = functools.wraps(dispatch)(traced_dispatch)


#: (owner, attributes, span name) for plain method wrappers.
_METHODS = [
    (Network, ("send",), "network.send"),
    (Transport, ("send_now", "queue", "flush", "request", "reply", "forward",
                 "deliver"), "transport"),
    (MetricsRegistry, ("increment", "increment_keyed", "record_latency"), "metrics"),
    (LinkObservatory, ("on_sent", "on_dropped", "on_delivered"), "metrics"),
    (LinkObservatory, ("window",), "diagnosis.window"),
    (DigestTree, ("update",), "antientropy.update"),
    (HashRing, ("node_for",), "ring.node_for"),
    (LatticeKVS, ("shard_for",), "ring.shard_for"),
    (KVSClient, ("put", "get"), "client"),
    (SingleNodeInterpreter, ("run_tick",), "core.run_tick"),
    (ProgramState, ("snapshot",), "core.snapshot"),
    (ReplicaNode, ("push_gossip",), "availability.push_gossip"),
    (PaxosReplica, ("propose",), "paxos.propose"),
    (FailureInjector, ("crash_now", "recover_now"), "nemesis"),
    (nemesis.ChaosEnv, ("push_latency_factor", "pop_latency_factor", "push_drop_rate",
                        "pop_drop_rate", "push_node_slowdown", "pop_node_slowdown",
                        "push_bandwidth_squeeze", "pop_bandwidth_squeeze",
                        "apply_clock_skew", "remove_clock_skew", "heal_everything",
                        "refresh_injector"), "nemesis"),
]


def install(per_event_ids: bool) -> Tracer:
    """Wrap every layer's public entry points; returns the live tracer."""
    tracer = Tracer(per_event_ids)
    _wrap_simulator(tracer)
    _wrap_dispatch(tracer)
    for owner, attributes, name in _METHODS:
        for attribute in attributes:
            _wrap(tracer, owner, attribute, name)
    # Each nemesis fault arms itself through ``inject``.
    for fault in vars(nemesis).values():
        if (inspect.isclass(fault) and issubclass(fault, nemesis.Fault)
                and "inject" in vars(fault)):
            _wrap(tracer, fault, "inject", "nemesis")
    # Lattice joins and orders of every value type, where a class defines them.
    for value_type in vars(lattices).values():
        if inspect.isclass(value_type) and issubclass(value_type, lattices.Lattice):
            for attribute in ("merge", "merge_into", "leq"):
                if attribute in vars(value_type) and value_type is not lattices.Lattice:
                    _wrap(tracer, value_type, attribute,
                          "lattices.leq" if attribute == "leq" else "lattices.merge")
    # The chaos scenario calls checkers and diagnosis by module-global name.
    for attribute in [name for name in vars(chaos_scenario) if name.startswith("check_")]:
        _wrap(tracer, chaos_scenario, attribute, "checkers." + attribute[len("check_"):])
    _wrap(tracer, chaos_scenario, "diagnose", "diagnosis")
    _wrap(tracer, chaos_sweep, "score_against_ground_truth", "diagnosis")
    return tracer
