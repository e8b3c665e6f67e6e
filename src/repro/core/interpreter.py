"""The single-node reference interpreter: HydroLogic's transducer semantics.

This is the "single-node metaphor" of §3.1: a global view of state and one
event loop.  Each tick

1. snapshots the current state (handlers read the snapshot, never each
   other's in-flight effects),
2. runs every pending request's handler body, collecting deferred effects,
3. at end of tick applies state effects atomically, enforcing any
   application invariants (requests whose effects would violate an
   invariant are rejected wholesale), and
4. moves ``send`` payloads into their destination mailboxes so they become
   visible at a *later* tick (local sends) or into the outbox (remote
   mailboxes), modelling asynchronous delivery.

The distributed runtimes (replicated deployment, FaaS baseline) reuse this
interpreter per node, so single-node and distributed executions share one
semantics — which is what makes differential testing of the compiler
possible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Mapping, Optional

from repro.core.errors import InvariantViolation, UnknownHandlerError
from repro.core.handlers import HandlerContext, StateView
from repro.core.program import HydroProgram
from repro.core.state import (
    Effect,
    ProgramState,
    ResponseEffect,
    SendEffect,
)


@dataclass
class Request:
    """One pending handler invocation."""

    request_id: Hashable
    handler: str
    args: dict[str, Any]


@dataclass
class TickOutcome:
    """What one tick produced."""

    tick: int
    responses: dict[Hashable, Any] = field(default_factory=dict)
    rejected: dict[Hashable, str] = field(default_factory=dict)
    outbox: list[SendEffect] = field(default_factory=list)
    handlers_run: int = 0
    effects_applied: int = 0


class SingleNodeInterpreter:
    """Reference executor for a :class:`HydroProgram` on one logical node."""

    def __init__(self, program: HydroProgram, node_id: Hashable = "local",
                 enforce_effects: bool = True) -> None:
        program.validate()
        self.program = program
        self.node_id = node_id
        self.state = ProgramState(program.datamodel)
        self.enforce_effects = enforce_effects
        self.tick_number = 0
        self._request_counter = itertools.count()
        self._mailboxes: dict[str, list[Request]] = {}
        self._pending_local_sends: list[SendEffect] = []
        self.outbox: list[SendEffect] = []

    # -- client API -------------------------------------------------------------

    def call(self, handler: str, **args: Any) -> Hashable:
        """Queue a handler invocation; returns the request id."""
        if handler not in self.program.handlers:
            raise UnknownHandlerError(f"program {self.program.name!r} has no handler {handler!r}")
        request_id = (self.node_id, next(self._request_counter))
        self._mailboxes.setdefault(handler, []).append(Request(request_id, handler, args))
        return request_id

    def call_and_run(self, handler: str, **args: Any) -> Any:
        """Convenience: queue a call, run one tick, return its response."""
        request_id = self.call(handler, **args)
        outcome = self.run_tick()
        if request_id in outcome.rejected:
            raise InvariantViolation(outcome.rejected[request_id])
        return outcome.responses.get(request_id)

    # -- reads ---------------------------------------------------------------------

    def view(self) -> StateView:
        """A read-only view over the *current* state (between ticks)."""
        return StateView(self.state, self.program.queries)

    def query(self, name: str, *args: Any, **kwargs: Any) -> Any:
        return self.view().query(name, *args, **kwargs)

    # -- tick execution ---------------------------------------------------------------

    def run_tick(self) -> TickOutcome:
        """Run one tick of the transducer loop."""
        self.tick_number += 1
        outcome = TickOutcome(tick=self.tick_number)

        # Local sends from the previous tick become this tick's inbound messages.
        for send in self._pending_local_sends:
            request_id = (self.node_id, next(self._request_counter))
            args = send.payload if isinstance(send.payload, dict) else {"payload": send.payload}
            self._mailboxes.setdefault(send.mailbox, []).append(
                Request(request_id, send.mailbox, args)
            )
        self._pending_local_sends = []

        pending: list[Request] = []
        for mailbox in sorted(self._mailboxes):
            pending.extend(self._mailboxes[mailbox])
        self._mailboxes = {}
        if not pending:
            return outcome

        snapshot_view = StateView(self.state.snapshot(), self.program.queries)
        udf_memo: dict = {}

        executed: list[tuple[Request, HandlerContext]] = []
        for request in pending:
            handler = self.program.handlers[request.handler]
            context = HandlerContext(
                handler=handler,
                view=snapshot_view,
                request_id=request.request_id,
                udfs=self.program.udfs,
                udf_memo=udf_memo,
                enforce_effects=self.enforce_effects,
            )
            handler.body(context, **request.args)
            executed.append((request, context))
            outcome.handlers_run += 1

        # End of tick: apply state effects atomically (request by request so
        # invariants can reject an individual request's effects).
        for request, context in executed:
            state_effects = [
                effect
                for effect in context.effects
                if not isinstance(effect, (SendEffect, ResponseEffect))
            ]
            sends = [effect for effect in context.effects if isinstance(effect, SendEffect)]
            spec = self.program.consistency_for(request.handler)

            if spec.invariants:
                trial = self.state.snapshot()
                trial.apply_all(state_effects)
                trial_view = StateView(trial, self.program.queries)
                violated = [inv for inv in spec.invariants if not inv.holds(trial_view)]
                if violated:
                    names = ", ".join(inv.name for inv in violated)
                    outcome.rejected[request.request_id] = (
                        f"handler {request.handler!r} rejected: invariant(s) {names} violated"
                    )
                    continue

            self.state.apply_all(state_effects)
            outcome.effects_applied += len(state_effects)
            outcome.responses[request.request_id] = context.response
            for send in sends:
                if send.destination is None and send.mailbox in self.program.handlers:
                    self._pending_local_sends.append(send)
                else:
                    self.outbox.append(send)
                    outcome.outbox.append(send)

        return outcome
