"""Planar-tree enumeration, contraction order, and serialization."""

import time
from functools import lru_cache
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from clustercx import trees
from clustercx.errors import (
    CapError,
    EdgeError,
    OrderError,
    RangeError,
    ShapeError,
    StabilityError,
)
from clustercx.trees import LEAF, PlanarTree, vertex


def catalan(n):
    return comb(2 * n, n) // (n + 1)


# Oracle for the LIST reading of the tree grammar: the enumeration
# recursions keyed by the edge budget e, which the library's (l, k)-keyed
# grammar replaced.


@lru_cache(maxsize=None)
def _reference_plain_vertices(l, k, e):
    """All stable uncolored vertices with subtree totals (l, k, e)."""
    out = []
    for i in range(k + 1):
        for slots in _reference_plain_slot_seqs(l, k - i, e):
            v = vertex(i, False, slots)
            if trees._stable_vertex(v):
                out.append(v)
    return tuple(out)


@lru_cache(maxsize=None)
def _reference_plain_slot_seqs(l, k, e):
    """Ordered slot sequences consuming l leaves, k marks, e edges."""
    if l == 0 and k == 0 and e == 0:
        return ((),)
    seqs = []
    if l >= 1:
        for rest in _reference_plain_slot_seqs(l - 1, k, e):
            seqs.append((LEAF,) + rest)
    for lc in range(l + 1):
        for kc in range(k + 1):
            for ec in range(e):
                for child in _reference_plain_vertices(lc, kc, ec):
                    for rest in _reference_plain_slot_seqs(
                        l - lc, k - kc, e - 1 - ec
                    ):
                        seqs.append((child,) + rest)
    return tuple(seqs)


@lru_cache(maxsize=None)
def _reference_colored_below(l, k, e):
    """Subtrees below the colors: every leaf path still meets exactly one
    colored vertex inside the subtree.  Requires l >= 1."""
    out = []
    for i in range(k + 1):
        for slots in _reference_plain_slot_seqs(l, k - i, e):
            v = vertex(i, True, slots)
            if trees._stable_vertex(v):
                out.append(v)
    for i in range(k + 1):
        for slots in _reference_below_slot_seqs(l, k - i, e):
            v = vertex(i, False, slots)
            if trees._stable_vertex(v):
                out.append(v)
    return tuple(out)


@lru_cache(maxsize=None)
def _reference_below_slot_seqs(l, k, e):
    if l == 0 and k == 0 and e == 0:
        return ((),)
    seqs = []
    for lc in range(l + 1):
        for kc in range(k + 1):
            for ec in range(e):
                if lc >= 1:
                    children = _reference_colored_below(lc, kc, ec)
                else:
                    children = _reference_plain_vertices(0, kc, ec)
                for child in children:
                    for rest in _reference_below_slot_seqs(
                        l - lc, k - kc, e - 1 - ec
                    ):
                        seqs.append((child,) + rest)
    return tuple(seqs)


def _class_size(table, l, k):
    return sum(table(trees.COUNT, l, k)[1].values())


# Every stable (l, k) within the caps whose class has at most 60,000
# trees: plain up to (7, 1), (5, 2) and (2, 4), colored up to (7, 0),
# (5, 1) and (2, 3).
LISTED_CLASSES = [
    ("plain", l, k)
    for l in range(trees.MAX_LEAVES + 1)
    for k in range(trees.MAX_MARKS + 1)
    if trees.params_stable(l, k) and _class_size(trees.plain, l, k) <= 60_000
] + [
    ("colored", l, k)
    for l in range(1, trees.MAX_LEAVES + 1)
    for k in range(trees.MAX_MARKS + 1)
    if _class_size(trees.colored, l, k) <= 60_000
]


class TestEnumeration:
    def test_frozen_counts_l4(self):
        assert len(trees.enumerate_types(4, 0, 0)) == 1
        assert len(trees.enumerate_types(4, 0, 1)) == 5
        assert len(trees.enumerate_types(4, 0, 2)) == 5

    def test_maximal_catalan(self):
        for l in range(2, 9):
            assert len(trees.maximal_types(l, 0)) == catalan(l - 1)

    def test_special_corolla(self):
        assert len(trees.enumerate_types(1, 0, 0)) == 1
        with pytest.raises(StabilityError):
            trees.enumerate_types(1, 0, 1)

    def test_caps(self):
        with pytest.raises(CapError):
            trees.enumerate_types(11, 0, 0)
        with pytest.raises(CapError):
            trees.enumerate_types(2, 5, 0)

    def test_unique_and_consistent(self):
        for l, k in [(3, 0), (4, 0), (2, 1), (3, 1), (2, 2)]:
            seen = set()
            for e in range(0, 2 * (l - 2 + 2 * k) + 2):
                for t in trees.enumerate_types(l, k, e):
                    assert t not in seen
                    seen.add(t)
                    assert t.num_leaves == l
                    assert t.num_marks == k
                    assert t.n_edges == e
                    assert t.is_stable()

    def test_colored_axiom_on_enumeration(self):
        for n_edges in range(0, 4):
            for t in trees.enumerate_colored_types(3, 0, n_edges):
                assert t.check_colored_axiom()
                assert t.is_stable()
                assert t.n_colored >= 1


    @pytest.mark.parametrize("kind, l, k", LISTED_CLASSES)
    def test_listing_matches_reference(self, kind, l, k):
        if kind == "plain":
            listed, reference = trees.enumerate_types, _reference_plain_vertices
        else:
            listed, reference = (
                trees.enumerate_colored_types,
                _reference_colored_below,
            )
        # no tree has 2l + 2k edges or more, on either side
        total = 0
        for e in range(2 * l + 2 * k):
            got = [t.root for t in listed(l, k, e)]
            assert got == list(reference(l, k, e)), e
            total += len(got)
        assert total == _class_size(getattr(trees, kind), l, k)

    def test_listing_refused_above_cap(self):
        # K (10, 4) has about 3.1e11 trees and Q (10, 4) about 4.9e13
        for listed in (trees.enumerate_types, trees.enumerate_colored_types):
            started = time.monotonic()
            with pytest.raises(CapError, match="above the cap"):
                listed(10, 4, 0)
            assert time.monotonic() - started < 1.0


class TestContraction:
    def test_contract_merges(self):
        t = PlanarTree(
            vertex(0, False, (LEAF, vertex(0, False, (LEAF, LEAF))))
        )
        c, edge_map = trees.contract_set(t, {(1,)})
        assert c.root == vertex(0, False, (LEAF, LEAF, LEAF))
        assert edge_map == {}

    def test_edge_map_in_new_preorder(self):
        # contracting (1,) splices its child (1, 0) and leaf into the root
        inner = vertex(0, False, (LEAF, LEAF))
        mid = vertex(1, False, (inner, LEAF))
        t = PlanarTree(vertex(0, True, (LEAF, mid, vertex(0, False, (inner, LEAF)))))
        c, edge_map = trees.contract_set(t, {(1,)})
        assert c.root == vertex(
            1, True, (LEAF, inner, LEAF, vertex(0, False, (inner, LEAF)))
        )
        assert list(edge_map.items()) == [
            ((1, 0), (1,)),
            ((2,), (3,)),
            ((2, 0), (3, 0)),
        ]
        with pytest.raises(EdgeError):
            trees.contract_set(t, {(0,)})

    def test_vertex_at_refuses_bad_slots(self):
        disk = vertex(2, False, (LEAF, LEAF))
        t = PlanarTree(vertex(0, False, (LEAF, disk)))
        assert t.vertex_at((1,)) == disk
        for path in ((-1,), (-2,), (2,), (0,), (1, 0)):
            with pytest.raises(EdgeError):
                t.vertex_at(path)

    def test_leq_and_witness(self):
        top = trees.enumerate_types(4, 0, 0)[0]
        for t in trees.enumerate_types(4, 0, 2):
            assert trees.leq(top, t)
            w = trees.contraction_witness(t, t)
            assert w == frozenset()

    def test_witness_refuses_a_colored_merge_on_a_path(self):
        # contracting (0,) merges a colored vertex into the uncolored root,
        # which then sits below the other colored vertex: the contraction
        # exists as a tree but breaks the colored axiom
        c = vertex(0, True, (LEAF,))
        t2 = PlanarTree(vertex(0, False, (c, c)))
        t1 = trees.contract(t2, (0,))
        assert t1 == PlanarTree(vertex(0, True, (LEAF, c)))
        assert not t1.check_colored_axiom()
        assert trees.contraction_witness(t1, t2) is None
        assert not trees.leq(t1, t2)

    @given(st.integers(3, 5), st.integers(0, 2))
    @settings(max_examples=20, deadline=None)
    def test_contraction_preserves_params(self, l, e):
        ts = trees.enumerate_types(l, 0, e)
        for t in ts[:5]:
            for edge in t.edges():
                c = trees.contract(t, edge)
                assert c.num_leaves == l
                assert c.n_edges == e - 1


class TestSerialization:
    def test_round_trip(self):
        for t in trees.enumerate_types(4, 1, 2)[:10]:
            assert trees.from_obj(trees.to_obj(t)) == t

    def test_order_error(self):
        with pytest.raises(OrderError):
            trees.from_obj({"b": 3, "i": 0, "col": False, "children": ["x", "x"]})

    def test_missing_fields_default(self):
        root = trees.from_obj({"children": ["x", {"children": ["x", "x"]}]}).root
        assert root == vertex(0, False, (LEAF, vertex(0, False, (LEAF, LEAF))))

    @pytest.mark.parametrize(
        "node, error",
        [
            (["x", "x"], ShapeError),
            ({"children": "xx"}, ShapeError),
            ({"children": ["x", "y"]}, ShapeError),
            ({"children": ["x", 5]}, ShapeError),
            ({"children": ["x", "x"], "col": "false"}, ShapeError),
            ({"children": ["x", "x"], "col": 0}, ShapeError),
            ({"children": ["x", "x"], "i": "1"}, ShapeError),
            ({"children": ["x", "x"], "i": True}, ShapeError),
            ({"children": ["x", "x"], "i": -1}, RangeError),
        ],
    )
    def test_malformed_node(self, node, error):
        # refused at the root and one level down alike
        for obj in (node, {"children": ["x", node]}):
            with pytest.raises(error):
                trees.from_obj(obj)
