"""Hydroflow: a single-node, tick-based dataflow runtime.

This is the Python counterpart of the paper's Rust Hydroflow runtime
(§2.3, §8): an algebra of flow operators that unifies

* classic streaming dataflow over collections (map / filter / join / fold),
* lattice flows (merge operators whose state grows monotonically and whose
  outputs pipeline like collections), and
* reactive scalars that propagate changes to individual values.

Execution follows the transducer model: each *tick* takes a snapshot of
inbound messages and persistent state, runs the operator graph to fixpoint
(supporting recursion through cycles and stratified negation), and then
atomically applies deferred effects (state mutations and outbound sends) at
end-of-tick.  Within a tick there are no race conditions; nondeterminism
only enters through explicitly asynchronous sends.
"""

from repro.hydroflow.graph import FlowGraph, Port
from repro.hydroflow.operators import (
    Operator,
    SourceOperator,
    MapOperator,
    FilterOperator,
    FlatMapOperator,
    UnionOperator,
    DistinctOperator,
    HashJoinOperator,
    FoldOperator,
    DifferenceOperator,
    InspectOperator,
    SinkOperator,
)
from repro.hydroflow.lattice_ops import (
    LatticeMergeOperator,
    LatticeThresholdOperator,
    LatticeMapOperator,
)
from repro.hydroflow.reactive import ReactiveCell, ReactiveGraph
from repro.hydroflow.scheduler import TickResult, TickScheduler

__all__ = [
    "FlowGraph",
    "Port",
    "Operator",
    "SourceOperator",
    "MapOperator",
    "FilterOperator",
    "FlatMapOperator",
    "UnionOperator",
    "DistinctOperator",
    "HashJoinOperator",
    "FoldOperator",
    "DifferenceOperator",
    "InspectOperator",
    "SinkOperator",
    "LatticeMergeOperator",
    "LatticeThresholdOperator",
    "LatticeMapOperator",
    "ReactiveCell",
    "ReactiveGraph",
    "TickScheduler",
    "TickResult",
]
