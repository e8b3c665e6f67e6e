"""Digest-tree anti-entropy: O(divergence) repair and its lifecycle edges.

The tree itself must be a pure function of store content (never of update
order or hash seed), and the reconciliation protocol built on it must keep
the old full-store sync's healing guarantees — state-losing recoveries
re-converge, reshards never corrupt the tree — at a fraction of the bytes:
an idle anti-entropy round costs O(1) regardless of store size, and a
repair round ships O(differing keys).
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import Network, NetworkConfig, Simulator, wire_size
from repro.lattices import GCounter, SetUnion
from repro.storage import LatticeKVS, antientropy
from repro.storage.antientropy import LEAF_LEVEL, DigestTree
from repro.storage.ring import stable_digest


def build_kvs(shards=1, replication=2, seed=7, full_sync_every=5,
              gossip_interval=20.0):
    sim = Simulator(seed=seed)
    net = Network(sim, NetworkConfig(base_delay=1.0, jitter=0.5))
    kvs = LatticeKVS(sim, net, shard_count=shards,
                     replication_factor=replication,
                     gossip_interval=gossip_interval, gossip_mode="delta",
                     full_sync_every=full_sync_every)
    return sim, net, kvs


def assert_replicas_converged(kvs):
    for shard in kvs.shards:
        for key in {k for replica in shard for k in replica.store}:
            values = [replica.store.get(key) for replica in shard]
            assert all(value == values[0] for value in values), (
                f"replicas diverge on {key!r}: {values}")


class TestDigestTree:
    def test_content_pure_across_update_orders(self):
        """Trees over the same entries are identical whatever the order —
        including orders that pass through intermediate values."""
        entries = {f"k-{i}": SetUnion({i, i + 1}) for i in range(200)}
        forward = DigestTree()
        for key in sorted(entries):
            forward.update(key, entries[key])
        shuffled = DigestTree()
        keys = list(entries)
        random.Random(42).shuffle(keys)
        for key in keys:
            # Grow through an intermediate value first: only the final
            # content may matter.
            shuffled.update(key, SetUnion({0}))
            shuffled.update(key, entries[key])
        assert forward == shuffled
        assert forward == DigestTree.from_store(entries)
        assert forward.root() == shuffled.root()

    def test_update_remove_roundtrip_restores_empty(self):
        tree = DigestTree()
        for i in range(50):
            tree.update(f"k-{i}", SetUnion({i}))
        for i in range(50):
            tree.remove(f"k-{i}")
        assert tree == DigestTree()
        assert tree.root() == 0
        assert len(tree) == 0

    def test_value_growth_changes_every_ancestor(self):
        tree = DigestTree()
        tree.update("k", SetUnion({1}))
        digest = stable_digest("k")
        before = [tree.digest(level, DigestTree.bucket_of(digest, level))
                  for level in range(LEAF_LEVEL + 1)]
        tree.update("k", SetUnion({1, 2}))
        after = [tree.digest(level, DigestTree.bucket_of(digest, level))
                 for level in range(LEAF_LEVEL + 1)]
        assert all(b != a for b, a in zip(before, after))
        # A no-op update (same content) changes nothing.
        tree.update("k", SetUnion({1, 2}))
        assert [tree.digest(level, DigestTree.bucket_of(digest, level))
                for level in range(LEAF_LEVEL + 1)] == after

    def test_parent_digest_is_xor_of_children(self):
        """The recursion's soundness: a parent mismatch implies some child
        mismatch, which holds exactly when parents are the XOR of their
        children at every interior level."""
        store = {f"k-{i}": GCounter().increment(f"w{i % 3}", i + 1)
                 for i in range(300)}
        tree = DigestTree.from_store(store)
        for level in range(LEAF_LEVEL):
            for bucket, digest in tree._levels[level].items():
                children = tree.child_digests(level, bucket)
                folded = 0
                for child_digest in children.values():
                    folded ^= child_digest
                assert folded == digest, (level, bucket)

    def test_leaf_summary_sorted_and_exact(self):
        tree = DigestTree()
        keys = [f"k-{i}" for i in range(100)]
        for key in keys:
            tree.update(key, SetUnion({key}))
        seen = []
        for bucket in list(tree._leaf_members):
            summary = tree.leaf_summary(bucket)
            assert list(summary) == sorted(summary, key=repr)
            seen.extend(summary)
        assert sorted(seen) == sorted(keys)


class TestLazyTree:
    def test_marked_writes_fold_on_read(self):
        store = {}
        tree = DigestTree(store.__getitem__)
        for i in range(30):
            store[f"k-{i}"] = SetUnion({i})
            tree.mark(f"k-{i}")
        assert tree.root() == DigestTree.from_store(store).root()
        store["k-0"] = SetUnion({0, 99})
        tree.mark("k-0")
        assert tree == DigestTree.from_store(store)
        assert len(tree) == 30

    def test_hot_key_folds_once_per_probe_not_once_per_write(self, monkeypatch):
        """The put path's regression gate, as a count rather than a clock:
        500 writes to one key between two anti-entropy probes cost no entry
        digest at write time and one fold per replica at probe time."""
        sim, net, kvs = build_kvs(full_sync_every=1, gossip_interval=None)
        replica_a, replica_b = kvs.shards[0]
        kvs.put("hot", SetUnion({-1}))
        kvs.settle(100.0)
        replica_a._start_anti_entropy(replica_b.node_id)
        sim.run(until=sim.now + 100.0)
        assert replica_a.store == replica_b.store

        digests = []
        updates = []
        real_digest = antientropy.entry_digest
        real_update = DigestTree.update

        def counting_digest(key, value):
            digests.append(key)
            return real_digest(key, value)

        def counting_update(tree, key, value):
            updates.append(id(tree))
            return real_update(tree, key, value)

        monkeypatch.setattr(antientropy, "entry_digest", counting_digest)
        monkeypatch.setattr(DigestTree, "update", counting_update)
        for i in range(500):
            replica_a.merge_local("hot", SetUnion({i}))
        assert digests == [] and updates == []
        replica_a._start_anti_entropy(replica_b.node_id)
        sim.run(until=sim.now + 100.0)
        assert replica_a.store == replica_b.store
        # A folds the hot key once; B folds it once after the repair lands.
        assert updates.count(id(replica_a._tree)) <= 1
        assert updates.count(id(replica_b._tree)) <= 1
        assert len(digests) <= 2
        for replica in (replica_a, replica_b):
            assert replica._tree == DigestTree.from_store(replica.store)


# Few keys and replicas, so reads often land on a key still pending.
_KEYS = [f"k-{i}" for i in range(4)]
_READS = ("root", "len", "digest", "children", "leaf", "eq")
_lazy_operation = st.one_of(
    st.tuples(st.just("merge"), st.integers(0, 3), st.sampled_from(_KEYS),
              st.integers(0, 5)),
    st.tuples(st.just("drop"), st.integers(0, 3),
              st.sets(st.sampled_from(_KEYS), max_size=3), st.none()),
    st.tuples(st.just("lose"), st.integers(0, 3), st.none(), st.none()),
    st.tuples(st.just("reshard"), st.integers(1, 3), st.none(), st.none()),
    st.tuples(st.just("run"), st.integers(1, 20), st.none(), st.none()),
    st.tuples(st.just("read"), st.integers(0, 3), st.sampled_from(_KEYS),
              st.sampled_from(_READS)),
)


def _assert_read_matches_oracle(replica, key, read):
    """One tree read on ``replica`` equals the same read on a from-scratch
    rebuild of its live store, and the whole tree matches afterwards."""
    tree = replica._tree
    oracle = DigestTree.from_store(replica.store)
    key_digest = stable_digest(key)
    level = key_digest % LEAF_LEVEL
    bucket = DigestTree.bucket_of(key_digest, level)
    if read == "root":
        assert tree.root() == oracle.root()
    elif read == "len":
        assert len(tree) == len(oracle)
    elif read == "digest":
        assert tree.digest(level, bucket) == oracle.digest(level, bucket)
    elif read == "children":
        assert (tree.child_digests(level, bucket)
                == oracle.child_digests(level, bucket))
    elif read == "leaf":
        leaf = DigestTree.leaf_bucket(key)
        assert tree.leaf_summary(leaf) == oracle.leaf_summary(leaf)
    assert tree == oracle


class TestLazyTreeProperty:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_lazy_operation, max_size=40))
    # Written, then dropped or lost before any read: no trace may remain.
    @example([("merge", 0, "k-0", 1), ("merge", 0, "k-1", 2),
              ("drop", 0, {"k-0"}, None), ("read", 0, "k-1", "leaf")])
    @example([("merge", 0, "k-0", 1), ("lose", 0, None, None),
              ("merge", 0, "k-1", 2), ("read", 0, "k-1", "len")])
    def test_every_read_equals_the_from_store_rebuild(self, ops):
        """Any interleaving of writes, drops, state loss, reshards and
        message delivery: every read sees exactly the live store."""
        sim, net, kvs = build_kvs(shards=2, replication=2,
                                  gossip_interval=None)
        for op, arg, target, extra in ops:
            replicas = kvs.all_nodes()
            if op == "merge":
                replicas[arg % len(replicas)].merge_local(
                    target, SetUnion({extra}))
            elif op == "drop":
                replicas[arg % len(replicas)].drop_keys(target)
            elif op == "lose":
                replicas[arg % len(replicas)].reset_state()
            elif op == "reshard":
                kvs.reshard(arg)
            elif op == "run":
                sim.run(until=sim.now + arg)
            else:
                _assert_read_matches_oracle(replicas[arg % len(replicas)],
                                            target, extra)
        for replica in kvs.all_nodes():
            assert replica._tree == DigestTree.from_store(replica.store)


class TestAntiEntropyLifecycle:
    @pytest.mark.parametrize("store_size", [200, 800])
    def test_idle_round_bytes_constant_in_store_size(self, store_size):
        """A converged store's anti-entropy round is one root probe and one
        empty reply — O(1) bytes however many keys sit underneath it.  The
        old protocol shipped the whole store here."""
        # No gossip timers: ticks are driven manually so the measurement
        # window holds exactly one round.
        sim, net, kvs = build_kvs(full_sync_every=1, gossip_interval=None)
        replica_a, replica_b = kvs.shards[0]
        for index in range(store_size):
            kvs.put(f"k-{index}", SetUnion({index}))
        kvs.settle(100.0)  # eager replication converges the stores
        # Drain the dirty sets and in-flight acks with a few manual rounds.
        for _ in range(4):
            replica_a._gossip_tick()
            replica_b._gossip_tick()
            sim.run(until=sim.now + 30.0)
        assert_replicas_converged(kvs)
        before = net.bytes_sent
        replica_a._gossip_tick()
        sim.run(until=sim.now + 50.0)
        idle = net.bytes_sent - before
        # One probe (one digest priced as one entry) + one empty reply:
        # two envelopes, nowhere near even a two-entry payload.
        assert 0 < idle <= 2 * wire_size(1), idle
        assert idle < wire_size(store_size) / 20

    def test_repair_ships_only_divergence(self):
        """After one replica diverges by d keys, the next anti-entropy
        round repairs exactly those d keys — never the whole store."""
        sim, net, kvs = build_kvs(full_sync_every=1)
        replica_a, replica_b = kvs.shards[0]
        for index in range(400):
            kvs.put(f"k-{index}", SetUnion({index}))
        kvs.settle(600.0)
        assert_replicas_converged(kvs)
        # Diverge A silently: merge locally, then unmark the dirtiness so
        # the delta machinery cannot repair it — only digests can.
        for index in range(12):
            replica_a.merge_local(f"k-{index}", SetUnion({f"fresh-{index}"}))
        for dirty in replica_a._dirty.values():
            dirty.clear()
        before = net.metrics.counter("kvs.antientropy.repair_entries")
        kvs.settle(200.0)
        repaired = net.metrics.counter("kvs.antientropy.repair_entries") - before
        assert_replicas_converged(kvs)
        # Each diverged key is pushed by A and pulled back by B's own
        # session at worst — strictly O(divergence), not O(store).
        assert 12 <= repaired <= 24, repaired
        assert net.metrics.counter("kvs.gossip.full_rounds") == 0

    def test_lose_state_recovery_reconverges_via_digests(self):
        """A state-losing recovery is healed entirely by digest recursion:
        zero full-store rounds, repair entries O(lost keys), and the store
        converges within the anti-entropy cadence horizon."""
        sim, net, kvs = build_kvs(full_sync_every=5)
        replica_a, replica_b = kvs.shards[0]
        for index in range(60):
            kvs.put(f"k-{index}", SetUnion({index}))
        kvs.settle(400.0)
        replica_b.crash()
        replica_b.recover(lose_state=True)
        assert replica_b.store == {}
        assert len(replica_b._tree) == 0
        # full_sync_every * gossip_interval covers the worst-case wait for
        # the next anti-entropy round; the rest covers the recursion legs.
        kvs.settle(5 * 20.0 + 200.0)
        assert len(replica_b.store) == 60
        assert_replicas_converged(kvs)
        assert net.metrics.counter("kvs.gossip.full_rounds") == 0
        repaired = net.metrics.counter("kvs.antientropy.repair_entries")
        lost = net.metrics.counter("kvs.antientropy.lost_entries")
        assert lost == 60
        assert repaired <= 2 * kvs.replication_factor * lost

    def test_reshard_rebuilds_only_moved_ranges(self):
        """Growing the ring drops moved keys from the source shard's trees
        incrementally: leaf buckets holding only unmoved keys keep their
        digests bit-for-bit, and every tree still matches its store."""
        sim, net, kvs = build_kvs(shards=2, replication=1,
                                  gossip_interval=None)
        for index in range(300):
            kvs.put(f"k-{index}", SetUnion({index}))
        kvs.settle(200.0)
        survivor = kvs.shards[0][0]
        old_store = set(survivor.store)
        # Read through the tree's own reads, which fold pending writes.
        old_leaves = {bucket: survivor._tree.digest(LEAF_LEVEL, bucket)
                      for bucket in map(DigestTree.leaf_bucket, old_store)}
        kvs.reshard(4)
        kvs.settle(200.0)
        moved = old_store - set(survivor.store)
        assert moved, "reshard moved nothing; the test needs more keys"
        moved_buckets = {DigestTree.leaf_bucket(key) for key in moved}
        for bucket, digest in old_leaves.items():
            if bucket not in moved_buckets:
                assert survivor._tree.digest(LEAF_LEVEL, bucket) == digest, bucket
        # And the incrementally-updated trees all match their stores.
        for replica in kvs.all_nodes():
            assert replica._tree == DigestTree.from_store(replica.store)

    def test_trees_stay_pure_through_gossip_and_reshard(self):
        """The purity oracle holds after a full workload: concurrent
        conflicting writes, replication, gossip repair and a live reshard."""
        sim, net, kvs = build_kvs(shards=2, replication=2, full_sync_every=5)
        for index in range(90):
            key = f"cart-{index % 30}"
            replicas = kvs.replicas_for(key)
            replicas[index % len(replicas)].merge_local(
                key, SetUnion({f"item-{index}"}))
        kvs.reshard(3)
        for index in range(90, 120):
            kvs.put(f"cart-{index}", SetUnion({index}))
        kvs.settle(800.0)
        assert_replicas_converged(kvs)
        for replica in kvs.all_nodes():
            assert replica._tree == DigestTree.from_store(replica.store)

    def test_dead_peer_aborts_sessions_without_wedging(self):
        """Probes to a crashed peer time out and abort the session; the
        cadence keeps starting fresh exchanges instead of wedging behind a
        ghost, and the eventual recovery converges."""
        sim, net, kvs = build_kvs(full_sync_every=2)
        replica_a, replica_b = kvs.shards[0]
        for index in range(20):
            kvs.put(f"k-{index}", SetUnion({index}))
        kvs.settle(300.0)
        replica_b.crash()
        kvs.settle(500.0)
        assert net.metrics.counter("kvs.antientropy.aborted") > 0
        assert len(replica_a._ae_sessions) <= 1
        replica_b.recover(lose_state=True)
        kvs.settle(500.0)
        assert_replicas_converged(kvs)
        assert len(replica_b.store) == 20

    def test_converged_rounds_cost_one_probe(self):
        """The converged-round counter proves idle rounds stop at the root:
        rounds accumulate while repair entries stay zero."""
        sim, net, kvs = build_kvs(full_sync_every=1)
        for index in range(50):
            kvs.put(f"k-{index}", SetUnion({index}))
        kvs.settle(600.0)
        assert_replicas_converged(kvs)
        rounds_before = net.metrics.counter("kvs.antientropy.rounds")
        converged_before = net.metrics.counter("kvs.antientropy.converged_rounds")
        repairs_before = net.metrics.counter("kvs.antientropy.repair_entries")
        kvs.settle(200.0)
        assert net.metrics.counter("kvs.antientropy.rounds") > rounds_before
        assert (net.metrics.counter("kvs.antientropy.converged_rounds")
                > converged_before)
        assert net.metrics.counter("kvs.antientropy.repair_entries") == repairs_before
