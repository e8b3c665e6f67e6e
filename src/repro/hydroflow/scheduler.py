"""The tick scheduler: stratified fixpoint execution of a flow graph.

Each tick proceeds stratum by stratum.  Within a stratum the scheduler runs
an indexed worklist — ports are enqueued on their stratum's ready queue the
moment an emission lands in their buffer, and each dispatch drains a port's
whole buffer in one batched ``process`` call — until the queue is empty
(the fixpoint).  Blocking operators (folds, the negative side of a
difference) are assigned to later strata than their producers, reproducing
stratified-negation/aggregation semantics.

Blocking operators release their results via ``flush`` once their stratum
quiesces.  A flush can feed other operators in the *same* stratum (e.g. a
difference whose output cycles back through a map), so the scheduler
alternates run-to-fixpoint and flush passes until a full pass moves nothing
and flushes nothing — a true flush fixpoint, not a single post-flush re-run.
After the last stratum, every operator's ``end_of_tick`` runs, which is
where non-persistent state is cleared and deferred effects become visible —
the transducer model of the paper's §3.1.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.hydroflow.graph import FlowGraph, Port
from repro.hydroflow.operators import (
    DifferenceOperator,
    FoldOperator,
    Operator,
    SinkOperator,
    SourceOperator,
)


@dataclass
class TickResult:
    """Summary of one tick's execution."""

    tick: int
    rounds: int
    items_moved: int
    strata: int
    quiesced: bool = True

    def __repr__(self) -> str:
        return (
            f"TickResult(tick={self.tick}, rounds={self.rounds}, "
            f"items={self.items_moved}, strata={self.strata})"
        )


def blocking_ports(operator: Operator) -> set[str]:
    """Ports whose upstream must be complete before the operator's output is valid."""
    if isinstance(operator, FoldOperator):
        return {"in"}
    if isinstance(operator, DifferenceOperator):
        return {"neg"}
    return set()


class TickScheduler:
    """Executes a :class:`FlowGraph` one tick at a time.

    The graph is indexed at construction time (strata, downstream fan-out,
    per-stratum membership); mutating the graph afterwards is unsupported.
    """

    def __init__(self, graph: FlowGraph, max_rounds: int = 100_000) -> None:
        self.graph = graph
        self.max_rounds = max_rounds
        self.tick_count = 0
        #: Callbacks run after every operator's ``end_of_tick`` — the seam
        #: where a hosting node's transport is flushed so the parcels a tick
        #: queued ship as batched envelopes (lint rule RL008 accepts it as
        #: a cadence flush).
        self.end_of_tick_hooks: list[Callable[[], None]] = []
        self._strata = self._assign_strata()
        self._max_stratum = max(self._strata.values(), default=0)
        # Indexes for the ready-queue dispatch loop.  Everything the hot
        # loops need — downstream ports, the operator behind each port, the
        # flush membership of each stratum — is resolved once here, so a
        # dispatch is two dict hits and a call, never a name lookup through
        # the graph.
        self._downstream = {
            name: graph.downstream_ports(name) for name in graph.operator_names()
        }
        self._port_stratum = {
            port: self._strata[port.operator]
            for ports in self._downstream.values()
            for port in ports
        }
        self._port_operator: dict[Port, Operator] = {
            port: graph.operator(port.operator) for port in self._port_stratum
        }
        # Per-port ingress buffers, pre-created so _emit never probes.
        self._buffers: dict[Port, list[Any]] = {
            port: [] for port in self._port_stratum
        }
        self._members: list[list[str]] = [
            [] for _ in range(self._max_stratum + 1)
        ]
        for name in sorted(self._strata):
            self._members[self._strata[name]].append(name)
        self._member_operators: list[list[tuple[str, Operator]]] = [
            [(name, graph.operator(name)) for name in names]
            for names in self._members
        ]
        self._operators: list[Operator] = list(graph.operators())
        self._feeders: list[Operator] = [
            operator for operator in self._operators
            if isinstance(operator, SourceOperator)
        ]
        self._ready: list[deque[Port]] = [
            deque() for _ in range(self._max_stratum + 1)
        ]
        self._queued: set[Port] = set()

    # -- stratification ---------------------------------------------------------

    def _assign_strata(self) -> dict[str, int]:
        """Assign each operator a stratum number.

        stratum(op) >= stratum(upstream) always, and strictly greater when
        the edge enters a blocking port.  A cycle through a blocking edge is
        non-stratifiable and rejected, mirroring stratified negation.
        """
        strata = {name: 0 for name in self.graph.operator_names()}
        operators = {name: self.graph.operator(name) for name in strata}
        # Bellman-Ford style relaxation; |V| iterations suffice for acyclic
        # constraint graphs, more indicates a blocking cycle.
        for iteration in range(len(strata) + 1):
            changed = False
            for edge in self.graph.edges():
                target_op = operators[edge.target.operator]
                bump = 1 if edge.target.name in blocking_ports(target_op) else 0
                required = strata[edge.source] + bump
                if strata[edge.target.operator] < required:
                    strata[edge.target.operator] = required
                    changed = True
            if not changed:
                return strata
        raise ValueError(
            f"flow graph {self.graph.name!r} is not stratifiable: "
            "a cycle passes through a blocking (aggregation/negation) port"
        )

    @property
    def strata(self) -> dict[str, int]:
        return dict(self._strata)

    # -- tick execution ---------------------------------------------------------

    def run_tick(self) -> TickResult:
        """Run one tick: drain sources, run strata to flush fixpoint."""
        self.tick_count += 1
        total_items = 0
        total_rounds = 0

        # Seed buffers from the sources.
        for operator in self._feeders:
            if operator.has_pending:
                self._emit(operator.name, operator.drain())

        for stratum in range(self._max_stratum + 1):
            flush_passes = 0
            while True:
                rounds, items = self._run_stratum(stratum)
                total_rounds += rounds
                total_items += items
                # Blocking operators release results once the stratum
                # quiesces; a flush may re-feed this same stratum, so keep
                # alternating until a pass flushes and moves nothing.
                flushed_any = False
                for name, operator in self._member_operators[stratum]:
                    flushed = operator.flush()
                    if flushed:
                        self._emit(name, flushed)
                        flushed_any = True
                if not flushed_any and not self._ready[stratum]:
                    break
                flush_passes += 1
                if flush_passes > self.max_rounds:
                    raise RuntimeError(
                        f"stratum {stratum} did not reach flush fixpoint within "
                        f"{self.max_rounds} passes; likely a diverging blocking cycle"
                    )

        for operator in self._operators:
            operator.end_of_tick()
        for hook in self.end_of_tick_hooks:
            hook()

        return TickResult(
            tick=self.tick_count,
            rounds=total_rounds,
            items_moved=total_items,
            strata=self._max_stratum + 1,
        )

    # -- internals --------------------------------------------------------------

    def _emit(self, operator_name: str, items: list[Any]) -> None:
        if not items:
            return
        queued = self._queued
        for port in self._downstream[operator_name]:
            self._buffers[port].extend(items)
            if port not in queued:
                queued.add(port)
                self._ready[self._port_stratum[port]].append(port)

    def _run_stratum(self, stratum: int) -> tuple[int, int]:
        """Drain the stratum's ready queue to fixpoint; returns (rounds, items)."""
        queue = self._ready[stratum]
        rounds = 0
        items_moved = 0
        while queue:
            rounds += 1
            if rounds > self.max_rounds:
                raise RuntimeError(
                    f"tick did not reach fixpoint within {self.max_rounds} rounds; "
                    "likely a non-monotone cycle in the flow"
                )
            # One round dispatches the ports ready at the round's start;
            # emissions during the round queue up for the next round.
            buffers = self._buffers
            port_operator = self._port_operator
            for _ in range(len(queue)):
                port = queue.popleft()
                self._queued.discard(port)
                batch = buffers[port]
                if not batch:
                    continue
                buffers[port] = []
                items_moved += len(batch)
                output = port_operator[port].process(port.name, batch)
                self._emit(port.operator, output)
        return rounds, items_moved

    # -- conveniences -----------------------------------------------------------

    def push(self, source_name: str, items: list[Any]) -> None:
        """Push items into a named source operator for the next tick."""
        operator = self.graph.operator(source_name)
        if not isinstance(operator, SourceOperator):
            raise TypeError(f"{source_name!r} is not a SourceOperator")
        operator.push(items)

    def collected(self, sink_name: str) -> list[Any]:
        """Return the items currently collected at a named sink."""
        operator = self.graph.operator(sink_name)
        if not isinstance(operator, SinkOperator):
            raise TypeError(f"{sink_name!r} is not a SinkOperator")
        return list(operator.collected)
