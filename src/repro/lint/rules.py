"""The rule suite: this repo's determinism & contract hazards, as AST checks.

Each rule encodes one contract from ROADMAP/README that used to live only
in prose.  The checks are deliberately *syntactic* — no type inference —
tuned so the shipped tree is a zero-findings baseline while every known
past bug shape is caught at its exact line (fixture pairs in
``tests/lint/`` pin both directions).  Rules err toward precision over
recall: a rule that cries wolf gets suppressed into uselessness, while a
miss is still backstopped by the runtime sanitizers and the chaos sweep.

| code  | contract |
|-------|----------|
| RL001 | never route/order by builtin ``hash()`` (salted per process)    |
| RL002 | never call ``Network.send`` directly outside ``cluster/``       |
| RL003 | never pass a literal ``size_bytes=`` outside ``cluster/``       |
| RL004 | never iterate an unsorted set into sends/schedules/trace labels |
| RL005 | always rebind the result of ``merge_into``                      |
| RL006 | no wall-clock/RNG module imports inside ``repro.chaos``         |
| RL007 | no mutable default arguments (lattice/operator aliasing hazard) |
| RL008 | cadence operators that ``queue()`` must bind a flush (heuristic)|
| RL009 | nemesis faults retire each degradation they apply, by its handle|
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.lint.engine import ModuleContext, Rule, register
from repro.lint.findings import Finding


def _terminal_name(expr: ast.AST) -> str:
    """The last identifier of a dotted expression (``a.b.net`` -> ``net``)."""
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return ""


def _call_name(call: ast.Call) -> str:
    return _terminal_name(call.func)


def _in_cluster_layer(ctx: ModuleContext) -> bool:
    """True for the transport/network layer itself and its direct tests —
    the one place raw ``Network.send`` / byte literals are legitimate."""
    return "cluster" in ctx.path_parts


@register
class BuiltinHashRouting(Rule):
    """RL001: builtin ``hash()`` feeding a routing or ordering decision.

    Python salts ``hash()`` per process (``PYTHONHASHSEED``), so any shard
    index, ring token or sort key derived from it silently partitions the
    cluster differently on every run — the exact bug PR 1 replaced with
    blake2 digests.  Flagged wherever a ``hash(...)`` result reaches a
    ``%`` reduction, a subscript index, or a ``sorted``/``min``/``max``
    key; computing your own ``__hash__`` from it is fine (that feeds
    Python dicts, not the wire).  Route via
    ``repro.storage.ring.stable_digest`` instead.
    """

    code = "RL001"
    name = "builtin-hash-routing"
    summary = ("builtin hash() is PYTHONHASHSEED-salted; never derive "
               "routing/ordering from it — use storage.ring.stable_digest")

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "hash"):
                continue
            function = ctx.enclosing_function(node)
            if function is not None and function.name == "__hash__":
                continue
            if self._feeds_routing(ctx, node):
                yield self.finding(
                    ctx, node,
                    "builtin hash() result feeds a routing/ordering decision; "
                    "it is salted per process — use "
                    "repro.storage.ring.stable_digest")

    def _feeds_routing(self, ctx: ModuleContext, call: ast.Call) -> bool:
        previous: ast.AST = call
        for ancestor in ctx.ancestors(call):
            if isinstance(ancestor, ast.BinOp) and isinstance(ancestor.op, ast.Mod):
                return True
            if isinstance(ancestor, ast.Subscript) and ancestor.slice is previous:
                return True
            if isinstance(ancestor, ast.keyword) and ancestor.arg == "key":
                return True
            if (isinstance(ancestor, ast.Call)
                    and _call_name(ancestor) in {"sorted", "min", "max"}
                    and previous in ancestor.args):
                return True
            if isinstance(ancestor, ast.stmt):
                return False
            previous = ancestor
        return False


@register
class DirectNetworkSend(Rule):
    """RL002: ``Network.send`` called from protocol code.

    All protocol traffic must flow through a node's transport
    (``send``/``queue``/``request``/``reply``/``forward``) so batching,
    RPC dedup and the byte ledger stay honest.  Flagged on ``.send(...)``
    where the receiver is syntactically a network (``net``, ``network``,
    ``self.network``, ``env.network``, ...) outside the ``cluster/`` layer.
    """

    code = "RL002"
    name = "direct-network-send"
    summary = ("protocol code must not call Network.send directly — go "
               "through the node's Transport (cluster/ is exempt)")

    _RECEIVERS = {"net", "network"}

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        if _in_cluster_layer(ctx):
            return
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "send"):
                continue
            receiver = _terminal_name(node.func.value)
            if receiver in self._RECEIVERS or receiver.endswith("_network"):
                yield self.finding(
                    ctx, node,
                    "direct Network.send bypasses the transport layer "
                    "(batching, RPC dedup, typed sizing); send via the "
                    "owning node's transport instead")


@register
class LiteralSizeBytes(Rule):
    """RL003: a literal ``size_bytes=`` declares a byte cost by hand.

    Payload sizes must be derived from entry counts via ``wire_size`` —
    with the bandwidth model on, an undersized payload under-pays *time*,
    not just the byte ledger.  Any ``size_bytes=`` whose value is a
    numeric literal (or pure-literal arithmetic) is flagged outside the
    ``cluster/`` layer; ``size_bytes=wire_size(n)`` or a computed variable
    passes.
    """

    code = "RL003"
    name = "literal-size-bytes"
    summary = ("never pass a literal size_bytes= — declare an entry count "
               "and let wire_size() price the payload (cluster/ is exempt)")

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        if _in_cluster_layer(ctx):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            for keyword in node.keywords:
                if keyword.arg == "size_bytes" and _is_literal_number(keyword.value):
                    yield self.finding(
                        ctx, keyword.value,
                        "literal size_bytes hardcodes a wire cost that will "
                        "not scale with the payload; declare entries= and "
                        "let wire_size() price it")


def _is_literal_number(expr: ast.AST) -> bool:
    if isinstance(expr, ast.Constant):
        return isinstance(expr.value, (int, float)) and not isinstance(expr.value, bool)
    if isinstance(expr, ast.UnaryOp):
        return _is_literal_number(expr.operand)
    if isinstance(expr, ast.BinOp):
        return _is_literal_number(expr.left) and _is_literal_number(expr.right)
    return False


@register
class UnsortedIterationIntoSchedule(Rule):
    """RL004: unsorted set/dict-keys iteration feeding the event schedule.

    Set iteration order is salted by ``PYTHONHASHSEED``; a loop over a set
    that sends, queues, schedules or formats trace labels forks the event
    trace across interpreter runs — the bug class that broke cross-seed
    replay twice before PR 3 sorted the gossip dicts.  Flagged on ``for``
    loops (and comprehensions passed straight into a send) whose iterable
    is syntactically set-like — a set literal/comprehension, ``set(...)``,
    ``frozenset(...)``, ``.keys()``, or a union/intersection of those —
    without a ``sorted(...)`` wrapper, when the body reaches a transport
    or scheduler call or builds an f-string trace label.
    """

    code = "RL004"
    name = "unsorted-iteration-into-schedule"
    summary = ("never iterate a set/dict.keys() into sends, schedules or "
               "trace labels — wrap it in sorted(...) (PYTHONHASHSEED forks "
               "the trace otherwise)")

    #: Calls that feed the event schedule or the wire.
    _SINKS = {"send", "send_now", "queue", "broadcast", "request", "reply",
              "forward", "schedule", "schedule_at", "set_timer"}
    #: Calls whose output is the trace itself.
    _TRACE_SINKS = {"log_fault", "trace", "record"}

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For) and _is_unsorted_setlike(node.iter):
                if self._feeds_schedule(node.body):
                    yield self._finding_for(ctx, node.iter)
            elif isinstance(node, ast.Call) and self._is_sink(node):
                for argument in list(node.args) + [
                        keyword.value for keyword in node.keywords]:
                    if _is_unsorted_setlike(argument):
                        # Covers set literals, set comprehensions and
                        # set()/frozenset() calls passed straight in.
                        yield self._finding_for(ctx, argument)
                    elif isinstance(argument, (ast.ListComp, ast.GeneratorExp)):
                        iters = [generator.iter
                                 for generator in argument.generators]
                        if any(_is_unsorted_setlike(it) for it in iters):
                            yield self._finding_for(ctx, argument)

    def _finding_for(self, ctx: ModuleContext, node: ast.AST) -> Finding:
        return self.finding(
            ctx, node,
            "unsorted set/dict-keys iteration feeds the event schedule or "
            "trace; salted order forks the trace across PYTHONHASHSEED — "
            "wrap the iterable in sorted(...)")

    def _is_sink(self, call: ast.Call) -> bool:
        return _call_name(call) in self._SINKS | self._TRACE_SINKS

    def _feeds_schedule(self, body: list) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    if self._is_sink(node):
                        return True
                    for keyword in node.keywords:
                        if (keyword.arg == "label"
                                and isinstance(keyword.value, ast.JoinedStr)):
                            return True
                    if (_call_name(node) in self._TRACE_SINKS
                            or any(isinstance(argument, ast.JoinedStr)
                                   and _call_name(node) in self._TRACE_SINKS
                                   for argument in node.args)):
                        return True
        return False


def _is_unsorted_setlike(expr: ast.AST) -> bool:
    """Syntactically set-typed and not wrapped in ``sorted(...)``."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call):
        name = _call_name(expr)
        if name in {"set", "frozenset"}:
            return True
        if name == "keys" and isinstance(expr.func, ast.Attribute):
            return True
        if name in {"union", "intersection", "difference",
                    "symmetric_difference"}:
            # Set-algebra methods only make the result set-like when the
            # receiver already is (a plain name gives no type signal).
            return _is_unsorted_setlike(expr.func.value)
        if name in {"list", "tuple"} and expr.args:
            # list(set(...)) launders the type but not the order.
            return _is_unsorted_setlike(expr.args[0])
    if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
        return _is_unsorted_setlike(expr.left) or _is_unsorted_setlike(expr.right)
    return False


@register
class MergeIntoResultDropped(Rule):
    """RL005: the result of ``merge_into`` discarded instead of rebound.

    ``merge_into`` is *opt-in* in-place: lattice types without a fast path
    fall back to returning a fresh merged object, so dropping the return
    value silently loses the merge on exactly those types.  The README
    ownership rule is "always rebind"; an expression statement whose value
    is a bare ``x.merge_into(...)`` call is therefore always wrong (or a
    test deliberately pinning in-place behaviour — suppress with a reason).
    """

    code = "RL005"
    name = "merge-into-result-dropped"
    summary = ("always rebind merge_into results — the in-place path is "
               "opt-in and the fallback returns a new object")

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Attribute)
                    and node.value.func.attr == "merge_into"):
                yield self.finding(
                    ctx, node,
                    "merge_into result discarded; types without an in-place "
                    "fast path return a new object, so this merge is lost — "
                    "rebind: x = x.merge_into(other)")


@register
class NondeterminismInChaos(Rule):
    """RL006: wall-clock/RNG modules imported inside ``repro.chaos``.

    Chaos scenarios must be a pure function of ``(seed, schedule,
    config)`` — replay and greedy shrinking are unsound otherwise.
    Importing ``random``/``time``/``datetime``/``uuid``/``secrets`` into a
    chaos module is how ambient nondeterminism sneaks in.  A *seeded*
    ``random.Random(seed)`` plan generator is legitimate; carry the import
    with a suppression stating exactly that.
    """

    code = "RL006"
    name = "nondeterminism-in-chaos"
    summary = ("repro.chaos must stay a pure function of (seed, schedule, "
               "config): no random/time/datetime/uuid/secrets imports "
               "without a seeded-only justification")

    _MODULES = {"random", "time", "datetime", "uuid", "secrets"}

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        if "chaos" not in ctx.path_parts:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                names = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module or "").split(".")[0]]
            else:
                continue
            for name in names:
                if name in self._MODULES:
                    yield self.finding(
                        ctx, node,
                        f"'{name}' imported in a chaos module; scenarios "
                        "must be a pure function of (seed, schedule, "
                        "config) — derive any randomness from the seed and "
                        "suppress with that justification")


@register
class MutableDefaultArgument(Rule):
    """RL007: a mutable default argument.

    One list/dict/set is created at ``def`` time and shared by every call
    — on lattice and operator classes that default means cross-instance
    state aliasing, the exact ownership bug the ``merge_into`` rules exist
    to prevent.  Use ``None`` plus an in-body default.
    """

    code = "RL007"
    name = "mutable-default-argument"
    summary = ("no mutable default arguments — one shared object leaks "
               "state across calls/instances; default to None")

    _FACTORIES = {"list", "dict", "set"}

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                default for default in node.args.kw_defaults
                if default is not None]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        ctx, default,
                        "mutable default argument is created once and shared "
                        "by every call; default to None and build it in the "
                        "body")

    def _is_mutable(self, expr: ast.AST) -> bool:
        if isinstance(expr, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        return (isinstance(expr, ast.Call)
                and isinstance(expr.func, ast.Name)
                and expr.func.id in self._FACTORIES)


@register
class UnflushedCadenceQueue(Rule):
    """RL008 (heuristic): a cadence operator queues parcels but nothing in
    its module binds a flush.

    ``Transport.queue`` auto-flushes at the same instant for event-driven
    code, but *cadence* operators (tick-driven: gossip rounds, flow
    operators) run inside a tick loop where the auto-flush races the tick
    boundary; the scheduler's ``end_of_tick_hooks`` seam closes that
    race.  Heuristic: a class with a tick-shaped method that calls
    ``.queue(...)``, in a module that never references
    ``end_of_tick_hooks`` and never calls ``.flush(...)``, is flagged at
    the queue site.
    """

    code = "RL008"
    name = "unflushed-cadence-queue"
    summary = ("cadence (tick-driven) operators that queue() must bind a "
               "flush: end_of_tick_hooks or an explicit flush() call in the "
               "module")

    _CADENCE_METHODS = {"tick", "on_tick", "end_of_tick", "run_tick",
                        "gossip_tick"}
    _FLUSH_MARKER = "end_of_tick_hooks"

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        if self._module_binds_flush(ctx.tree):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            method_names = {stmt.name for stmt in node.body
                            if isinstance(stmt, (ast.FunctionDef,
                                                 ast.AsyncFunctionDef))}
            if not method_names & self._CADENCE_METHODS:
                continue
            for descendant in ast.walk(node):
                if (isinstance(descendant, ast.Call)
                        and isinstance(descendant.func, ast.Attribute)
                        and descendant.func.attr == "queue"):
                    yield self.finding(
                        ctx, descendant,
                        "cadence operator queues parcels but this module "
                        "never binds a flush (end_of_tick_hooks / "
                        "explicit flush()); queued parcels can straddle the "
                        "tick boundary")

    def _module_binds_flush(self, tree: ast.Module) -> bool:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                if _terminal_name(node) == self._FLUSH_MARKER:
                    return True
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "flush"):
                return True
        return False


@register
class NemesisWithoutRetire(Rule):
    """RL009: a ``Fault`` subclass that applies a degradation but never
    retires it.

    Every nemesis fault must be a *window*: whatever ``inject`` schedules
    on (apply methods named ``_start*``/``_crash*``/``_outage*``) must be
    undone by a paired restore hook (``_restore*``/``_recover*``/
    ``_heal*``, or a nested ``heal``/``restore``/``recover`` closure the
    apply method schedules).  A fault without one leaks its degradation
    past its declared ``window()`` — the scenario's final-read phase then
    only passes because ``heal_everything`` papers over it, and shrinking
    (which reasons about fault windows) silently loses soundness.
    One-way *topology* changes (``_reshard*``) are exempt: a reshard is
    growth, not a degradation, and has nothing to retire.

    A restore hook must also retire *the handle its apply captured*: a
    ``_restore*`` that hands a fault field (``self.factor``,
    ``self.drop_rate``, ...) to a ``pop_*``/``remove_*`` retires by value,
    so a stale restore after a global heal retires a later fault that
    happens to carry equal fields.
    """

    code = "RL009"
    name = "nemesis-without-retire"
    summary = ("Fault subclasses that apply a degradation (_start/_crash/"
               "_outage) must also retire it (_restore/_recover/_heal or "
               "a nested heal closure), passing pop_*/remove_* the handle "
               "the apply returned, never a fault field; resharding is "
               "exempt")

    _APPLY_PREFIXES = ("_start", "_crash", "_outage")
    _RESTORE_PREFIXES = ("_restore", "_recover", "_heal")
    _NESTED_RESTORES = {"heal", "restore", "recover"}

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(_terminal_name(base) == "Fault"
                       for base in node.bases):
                continue
            methods = [stmt for stmt in node.body
                       if isinstance(stmt, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))]
            yield from self._retires_by_value(ctx, methods)
            names = {method.name for method in methods}
            applies = [method for method in methods
                       if method.name.startswith(self._APPLY_PREFIXES)]
            if not applies:
                continue
            if any(name.startswith("_reshard") for name in names):
                continue
            if any(name.startswith(self._RESTORE_PREFIXES)
                   for name in names):
                continue
            if self._has_nested_restore(node):
                continue
            yield self.finding(
                ctx, applies[0],
                f"fault {node.name!r} applies a degradation "
                f"({applies[0].name}) but defines no restore hook "
                "(_restore*/_recover*/_heal* or a nested heal/restore/"
                "recover closure); the degradation outlives the fault's "
                "window")

    def _retires_by_value(self, ctx: ModuleContext,
                          methods: list) -> Iterator[Finding]:
        for method in methods:
            if not method.name.startswith(self._RESTORE_PREFIXES):
                continue
            for call in ast.walk(method):
                if not (isinstance(call, ast.Call)
                        and _terminal_name(call.func).startswith(
                            ("pop_", "remove_"))):
                    continue
                arguments = call.args + [kw.value for kw in call.keywords]
                if any(isinstance(arg, ast.Attribute)
                       and isinstance(arg.value, ast.Name)
                       and arg.value.id == "self" for arg in arguments):
                    yield self.finding(
                        ctx, call,
                        f"{method.name} retires by value (a fault field "
                        f"passed to {_terminal_name(call.func)}); pass the "
                        "handle the apply returned, or a stale restore "
                        "after a global heal retires a later fault with "
                        "equal fields")

    def _has_nested_restore(self, classdef: ast.ClassDef) -> bool:
        for descendant in ast.walk(classdef):
            if (isinstance(descendant, (ast.FunctionDef,
                                        ast.AsyncFunctionDef))
                    and descendant.name in self._NESTED_RESTORES
                    and descendant not in classdef.body):
                return True
        return False


def rule_table() -> Iterator[tuple[str, str, str]]:
    """(code, name, summary) rows for ``--list-rules`` and the README."""
    from repro.lint.engine import all_rules

    for rule in all_rules():
        yield rule.code, rule.name, rule.summary
