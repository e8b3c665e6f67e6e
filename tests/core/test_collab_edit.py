"""The collaborative editor app: dense positions and convergent replicas.

Each insert carries a position strictly between its neighbours', and a
delete tombstones exactly one position, so two replicas that merge each
other's state — in either order — render the same text.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.collab_edit import build_collab_program, position_between
from repro.core import SingleNodeInterpreter

DOC = 1


def replica(node_id):
    return SingleNodeInterpreter(build_collab_program(), node_id=node_id)


def insert(node, position, char):
    assert node.call_and_run("insert", doc_id=DOC, position=position,
                             author=node.node_id, char=char) == "OK"


def render(node):
    return node.call_and_run("read_document", doc_id=DOC)


def merged_text(*replicas):
    """Render a fresh replica that merged ``replicas``' states in order."""
    merged = replica("merged")
    for node in replicas:
        merged.state.merge_from(node.state)
    return render(merged)


class TestPositionBetween:
    def test_right_extending_left_by_one_gets_a_fresh_position(self):
        for left, right in [((1,), (1, 1)), ((), (1,))]:
            position = position_between(left, right)
            assert left < position < right

    def test_out_of_order_neighbours_rejected(self):
        with pytest.raises(ValueError):
            position_between((2,), (1,))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=0), max_size=40))
    def test_positions_sort_strictly_between_neighbours(self, slots):
        """Insert at arbitrary slots of a document built only from positions
        the generator produced; every new position lands strictly between
        its neighbours (the sentinels ``()`` at either end)."""
        positions = []
        for slot in slots:
            index = slot % (len(positions) + 1)
            left = positions[index - 1] if index else ()
            right = positions[index] if index < len(positions) else ()
            position = position_between(left, right)
            assert left < position
            assert not right or position < right
            positions.insert(index, position)


class TestReplicas:
    def test_concurrent_edits_converge_in_either_merge_order(self):
        a, b = replica("a"), replica("b")
        first = position_between((), ())
        last = position_between(first, ())
        insert(a, first, "a")
        insert(a, last, "c")
        b.state.merge_from(a.state)
        assert render(b) == "ac"

        # Concurrent edits: a inserts between its two characters, b inserts
        # before the first one and deletes the last.
        insert(a, position_between(first, last), "b")
        insert(b, position_between((), first), "X")
        assert b.call_and_run("delete", doc_id=DOC, position=last) == "OK"
        assert render(a) == "abc"
        assert render(b) == "Xa"

        assert merged_text(a, b) == merged_text(b, a) == "Xab"
        a.state.merge_from(b.state)
        b.state.merge_from(a.state)
        assert render(a) == render(b) == "Xab"

    def test_unknown_document_renders_empty(self):
        assert render(replica("a")) == ""
