"""Merkle-style digest trees for O(divergence) anti-entropy.

The delta-gossip protocol's loss backstop used to be a periodic *full-store*
sync: every ``full_sync_every``-th gossip round to every peer shipped the
whole store, so steady-state repair traffic grew O(store x peers) even when
replicas were already identical.  This module replaces that with digest-tree
reconciliation: each :class:`~repro.storage.kvs.ShardNode` maintains a
:class:`DigestTree` over its store — a fixed-depth hash tree bucketed by the
same canonical ``stable_digest`` ranges the :class:`~repro.storage.ring.HashRing`
routes by — and an anti-entropy round exchanges the *root* digest (O(1) when
converged), recursing only into mismatching ranges and shipping only the
keys that actually differ.

Tree shape
----------

A key lands in the leaf bucket named by the top ``TREE_FANOUT_BITS x
LEAF_LEVEL`` bits of its 64-bit ``stable_digest``; every interior level
keeps one bucket per ``TREE_FANOUT_BITS``-bit prefix.  Bucket digests are
the XOR of their members' entry digests (an entry digest folds the key's
canonical bytes with a structural digest of its lattice value), which makes
every update O(tree depth): XOR the old entry digest out of, and the new one
into, each ancestor bucket.  XOR is commutative and content-pure, so a
bucket digest is a pure function of the store's contents — never of
insertion order, iteration order or ``PYTHONHASHSEED`` — which is the chaos
harness's determinism contract for anything that feeds network payloads.

Empty buckets are *absent* (digest 0): a bucket whose members cancel out of
the dict entirely, so "no keys in range" and "range never touched" are the
same observable state on both sides of an exchange.

Lazy maintenance
----------------

Writes outnumber tree reads by orders of magnitude (a replica reads its tree
only when an anti-entropy exchange probes it), and an entry digest hashes the
*whole* lattice value.  So a store write only marks its key pending
(:meth:`DigestTree.mark`); every read first folds the pending keys against
the live store through the value source the tree was built with.  A key
written many times between two reads is hashed once, and no reader can
observe a stale tree.  Fold order cannot change any digest, since bucket
digests are XORs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Optional

from repro.cluster.transport import payload_digest
from repro.storage.ring import stable_digest, stable_key_bytes

__all__ = [
    "AntiEntropySession",
    "DigestTree",
    "LEAF_LEVEL",
    "PROBE_ROUNDS",
    "TREE_FANOUT",
    "entry_digest",
]

#: Children per interior bucket (2**TREE_FANOUT_BITS).
TREE_FANOUT_BITS = 4
TREE_FANOUT = 1 << TREE_FANOUT_BITS

#: The leaf level of the tree (root is level 0), i.e. the tree's depth.
#: 16**4 = 65536 leaf buckets: ~1 key per leaf at the 50k-key stores the
#: roadmap targets and ~15 at 1M, so a leaf summary stays O(small).
LEAF_LEVEL = 4

#: Worst-case request/reply round trips one reconciliation needs: one probe
#: per level (root included) plus the final leaf pull.  The bounded-staleness
#: horizon is derived from this (see ``repro.chaos.checkers.staleness_bound``).
PROBE_ROUNDS = LEAF_LEVEL + 2

_KEY_DIGEST_BITS = 64


def entry_digest(key: Hashable, value: Any) -> int:
    """A 64-bit content digest of one store entry, stable across processes.

    Folds the key's canonical byte encoding with a structural digest of the
    lattice value (:func:`~repro.cluster.transport.payload_digest`, which
    walks containers in sorted order), so two replicas holding equal values
    under any ``PYTHONHASHSEED`` produce the same digest — and any lattice
    growth changes it.
    """
    payload = stable_key_bytes(key) + b"\x00" + payload_digest(value).encode("ascii")
    return int.from_bytes(
        hashlib.blake2b(payload, digest_size=8).digest(), "big")


class DigestTree:
    """A lazily-maintained hash tree over one replica's store.

    ``update``/``remove`` cost O(``LEAF_LEVEL``) dict operations per call;
    ``mark`` costs one set insertion and defers the update to the next read.
    The tree is always an exact function of the entries it was fed, so two
    trees built from equal stores — in any order, under any hash seed — are
    identical level by level.
    """

    __slots__ = ("_levels", "_entries", "_leaf_members", "_source", "_pending")

    def __init__(self, source: Optional[Callable[[Hashable], Any]] = None) -> None:
        # One sparse {bucket: digest} dict per level, root (level 0) first.
        # A bucket's digest is the XOR of its members' entry digests;
        # buckets that XOR to zero are removed, so absent == empty.
        self._levels: list[dict[int, int]] = [{} for _ in range(LEAF_LEVEL + 1)]
        #: key -> its current entry digest (needed to XOR an update's old
        #: contribution back out of every ancestor).
        self._entries: dict[Hashable, int] = {}
        #: leaf bucket -> the keys it holds (to enumerate a leaf's summary).
        self._leaf_members: dict[int, set[Hashable]] = {}
        #: key -> its live value, read when a marked key is folded; required
        #: only by trees that are ``mark``-ed.  A marked key stays in the
        #: source until it is folded, removed or cleared.
        self._source = source
        #: keys marked since the last fold.
        self._pending: set[Hashable] = set()

    # -- bucket arithmetic -------------------------------------------------------

    @staticmethod
    def bucket_of(key_digest: int, level: int) -> int:
        """The bucket holding ``key_digest`` at ``level`` (root: always 0)."""
        return key_digest >> (_KEY_DIGEST_BITS - TREE_FANOUT_BITS * level)

    @staticmethod
    def leaf_bucket(key: Hashable) -> int:
        return DigestTree.bucket_of(stable_digest(key), LEAF_LEVEL)

    # -- maintenance -------------------------------------------------------------

    def _apply(self, key_digest: int, delta: int) -> None:
        """XOR ``delta`` through every ancestor bucket of ``key_digest``."""
        for level in range(LEAF_LEVEL + 1):
            bucket = self.bucket_of(key_digest, level)
            buckets = self._levels[level]
            digest = buckets.get(bucket, 0) ^ delta
            if digest:
                buckets[bucket] = digest
            else:
                buckets.pop(bucket, None)

    def mark(self, key: Hashable) -> None:
        """Note that ``key``'s value changed; the next read folds it in."""
        self._pending.add(key)

    def _fold(self) -> None:
        """Bring every pending key up to date with the value source."""
        if not self._pending:
            return
        pending, self._pending = self._pending, set()
        source = self._source
        # Unordered on purpose: XOR buckets make every fold order equal.
        for key in pending:
            self.update(key, source(key))

    def update(self, key: Hashable, value: Any) -> None:
        """Record ``key``'s (new) value; O(depth) on top of one value digest."""
        new = entry_digest(key, value)
        old = self._entries.get(key)
        if old == new:
            return
        self._entries[key] = new
        key_digest = stable_digest(key)
        self._apply(key_digest, new if old is None else old ^ new)
        if old is None:
            leaf = self.bucket_of(key_digest, LEAF_LEVEL)
            self._leaf_members.setdefault(leaf, set()).add(key)

    def remove(self, key: Hashable) -> None:
        self._pending.discard(key)
        old = self._entries.pop(key, None)
        if old is None:
            return
        key_digest = stable_digest(key)
        self._apply(key_digest, old)
        leaf = self.bucket_of(key_digest, LEAF_LEVEL)
        members = self._leaf_members.get(leaf)
        if members is not None:
            members.discard(key)
            if not members:
                del self._leaf_members[leaf]

    def clear(self) -> None:
        for level in self._levels:
            level.clear()
        self._entries.clear()
        self._leaf_members.clear()
        self._pending.clear()

    # -- reads (all fold first and are pure; payload builders keep sorted order) --

    def root(self) -> int:
        self._fold()
        return self._levels[0].get(0, 0)

    def digest(self, level: int, bucket: int) -> int:
        self._fold()
        return self._levels[level].get(bucket, 0)

    def child_digests(self, level: int, bucket: int) -> dict[int, int]:
        """Non-empty children of ``bucket`` at ``level + 1``, in bucket order."""
        self._fold()
        child_level = self._levels[level + 1]
        base = bucket << TREE_FANOUT_BITS
        return {child: child_level[child]
                for child in range(base, base + TREE_FANOUT)
                if child in child_level}

    def leaf_summary(self, bucket: int) -> dict[Hashable, int]:
        """The leaf's {key: entry digest} map, built in sorted-key order."""
        self._fold()
        members = self._leaf_members.get(bucket)
        if not members:
            return {}
        entries = self._entries
        return {key: entries[key] for key in sorted(members, key=repr)}

    def __len__(self) -> int:
        self._fold()
        return len(self._entries)

    # -- verification ------------------------------------------------------------

    @classmethod
    def from_store(cls, store: dict[Hashable, Any]) -> "DigestTree":
        """A from-scratch tree over ``store`` — the purity oracle.

        A lazily-maintained tree must equal this rebuild at every read; the
        chaos byte-budget checker asserts it after every run.
        """
        tree = cls()
        for key in sorted(store, key=repr):
            tree.update(key, store[key])
        return tree

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DigestTree):
            return NotImplemented
        self._fold()
        other._fold()
        return self._levels == other._levels and self._entries == other._entries

    def __repr__(self) -> str:
        return f"DigestTree(entries={len(self)}, root={self.root():#018x})"


@dataclass(slots=True)
class AntiEntropySession:
    """One in-flight digest reconciliation with one peer (initiator side).

    A :class:`~repro.storage.kvs.ShardNode` keeps at most one session per
    peer; the cadence tick that would start a second one skips instead.  The
    session dies with its RPC (timeout aborts it) and with its node (crash
    clears pending RPCs; ``recover`` drops every session), so a dead
    exchange can never wedge the cadence — the next anti-entropy round
    simply starts over from the root.
    """

    peer: Hashable
    started_at: float
    level: int = 0
    #: Diagnostic trail: probes answered so far (root probe counts).
    probes: int = field(default=1)
