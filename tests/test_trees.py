"""Planar-tree enumeration, contraction order, and serialization."""

import copy
import pickle
import time
from functools import lru_cache
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from clustercx import strata, trees
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
            if trees.vertex_dim(v) >= 0:
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
            if trees.vertex_dim(v) >= 0:
                out.append(v)
    for i in range(k + 1):
        for slots in _reference_below_slot_seqs(l, k - i, e):
            v = vertex(i, False, slots)
            if trees.vertex_dim(v) >= 0:
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


def _reference_dim(v):
    """The moduli dimension of the subtree at v, summed over its vertices:
    slots - 2 + 2 * marks at each, plus 1 at each colored one."""
    i, col, slots = v
    d = len(slots) - 2 + 2 * i + col
    return d + sum(_reference_dim(s) for s in slots if s != LEAF)


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

    def test_corolla_dim_is_vertex_dim(self):
        """The count form of the vertex rule agrees with the rule, and a
        corolla is stable iff its dimension is >= 0."""
        for l in range(trees.MAX_LEAVES + 1):
            for k in range(trees.MAX_MARKS + 1):
                for col in (False, True):
                    v = vertex(k, col, (LEAF,) * l)
                    assert trees.corolla_dim(l, k, col) == trees.vertex_dim(v)
                assert trees.params_stable(l, k) == (trees.corolla_dim(l, k) >= 0)
                assert PlanarTree(vertex(k, False, (LEAF,) * l)).is_stable() == (
                    trees.params_stable(l, k) or (l, k) == (1, 0)
                )

    def test_special_corolla(self):
        assert len(trees.enumerate_types(1, 0, 0)) == 1
        with pytest.raises(StabilityError):
            trees.enumerate_types(1, 0, 1)

    def test_caps(self):
        with pytest.raises(CapError):
            trees.enumerate_types(11, 0, 0)
        with pytest.raises(CapError):
            trees.enumerate_types(2, 5, 0)

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: trees.enumerate_types(3, 0, -1), ShapeError,
             "codim must be nonnegative"),
            (lambda: trees.enumerate_types(0, 0, 0), StabilityError,
             "no stable type with l=0, k=0"),
            (lambda: trees.enumerate_colored_types(0, 1, 0), StabilityError,
             "colored trees need at least one leaf"),
            (lambda: trees.contraction_witness(
                trees.enumerate_types(3, 0, 0)[0], trees.enumerate_types(4, 0, 0)[0]),
             ShapeError, "trees have different (l, k)"),
        ],
        ids=["negative-codim", "unstable", "colored-leafless", "witness-lk"],
    )
    def test_refusals(self, call, error, message):
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message

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

    @pytest.mark.parametrize("kind, l, k", LISTED_CLASSES)
    def test_count_table_matches_listing(self, kind, l, k):
        # the COUNT subtree table, entry by entry, against the listed trees
        listed = (
            trees.enumerate_types
            if kind == "plain"
            else trees.enumerate_colored_types
        )
        tally = {}
        for e in range(2 * l + 2 * k):
            for t in listed(l, k, e):
                key = (e, t.n_colored, _reference_dim(t.root))
                tally[key] = tally.get(key, 0) + 1
        assert getattr(trees, kind)(trees.COUNT, l, k)[1] == tally

    def test_listing_refused_above_cap(self):
        # K (10, 4) has about 3.1e11 trees and Q (10, 4) about 4.9e13
        for listed in (trees.enumerate_types, trees.enumerate_colored_types):
            started = time.monotonic()
            with pytest.raises(CapError, match="above the cap"):
                listed(10, 4, 0)
            assert time.monotonic() - started < 1.0


def _digit_total(p):
    """The sum of the digits of a packed COUNT value."""
    n = 0
    while p:
        n += p & trees._MASK
        p >>= trees._DIGIT
    return n


class TestEdgeMemo:
    """``edges()`` walks a tree once and keeps the paths in the tree's
    memo; the first call and every later one agree with the vertex walk,
    and so do ``n_edges`` and ``codim``, read off the memo once it is
    filled."""

    @pytest.mark.parametrize("kind, l, k", LISTED_CLASSES)
    def test_edges_before_and_after_the_memo_fills(self, kind, l, k):
        if kind == "plain":
            listed, family = trees.enumerate_types, "K"
        else:
            listed, family = trees.enumerate_colored_types, "Q"
        for e in range(2 * l + 2 * k):
            for t in listed(l, k, e):
                want = [p for p, _ in t.vertices() if p]
                s = strata.Stratum(family, t)
                assert t._edges is None
                before = (t.n_edges, s.codim)
                first = t.edges()
                assert t._edges is not None
                assert first == want and before[0] == len(want) == e
                first.append((99,))
                second = t.edges()
                assert second == want and second is not first
                second.clear()
                assert t.edges() == want
                assert (t.n_edges, s.codim) == before

    def test_filled_memo_keeps_equality_hash_and_immutability(self):
        t = trees.enumerate_colored_types(3, 1, 2)[0]
        fresh = PlanarTree(t.root)
        t.edges()
        assert t == fresh and fresh == t and hash(t) == hash(fresh)
        assert {fresh: 1}[t] == 1
        for name in ("root", "_edges", "other"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(t, name, None)
        assert t.root == fresh.root and t.edges() == fresh.edges()

    @pytest.mark.parametrize(
        "clone",
        [lambda t: pickle.loads(pickle.dumps(t)), copy.deepcopy, copy.copy],
        ids=["pickle", "deepcopy", "copy"],
    )
    def test_copies_are_equal_fresh_trees(self, clone):
        t = trees.enumerate_colored_types(3, 1, 2)[0]
        want = t.edges()
        c = clone(t)
        assert type(c) is PlanarTree and c == t and hash(c) == hash(t)
        # the memo is not copied: the copy walks its own tree
        assert c._edges is None and c.edges() == want
        with pytest.raises(AttributeError):
            c.root = None

    def test_equal_paths_are_one_tuple(self):
        # every edge path is interned, so the trees of a listing, and a
        # copy that walks its own tree, hold each distinct path once
        listed = trees.enumerate_types(5, 1, 3)
        first = {}
        for t in listed + [pickle.loads(pickle.dumps(listed[0]))]:
            for p in t.edges():
                assert first.setdefault(p, p) is p
        assert len(first) < sum(len(t.edges()) for t in listed)

    def test_memo_stays_out_of_the_pickle(self):
        t = trees.enumerate_types(5, 1, 3)[0]
        fresh = pickle.dumps(PlanarTree(t.root))
        t.edges()
        assert pickle.dumps(t) == fresh


class TestPackedCounts:
    def test_digits_stay_far_under_the_digit_width(self):
        # A digit of a packed sequence count, and any partial sum or
        # product that builds it, counts distinct trees of one table, so
        # it is at most the table's total.  The largest total within the
        # caps is that of the colored sequences at (10, 4).
        totals = []
        for table in (trees.plain, trees.colored):
            for l in range(trees.MAX_LEAVES + 1):
                for k in range(trees.MAX_MARKS + 1):
                    seqs, subtrees, _ = table(trees.COUNT, l, k)
                    totals.append(sum(map(_digit_total, seqs.values())))
                    totals.append(sum(subtrees.values()))
        largest = max(totals)
        assert largest == 94_762_481_768_580
        assert largest == sum(
            map(_digit_total, trees.colored(trees.COUNT, 10, 4)[0].values())
        )
        assert largest.bit_length() <= trees._DIGIT - 8

    def test_tables_refused_past_the_caps(self):
        for table in (trees.plain, trees.colored):
            for G in (trees.COUNT, trees.LIST, trees.MOVES):
                for l, k in [(trees.MAX_LEAVES + 1, 0), (0, trees.MAX_MARKS + 1)]:
                    with pytest.raises(CapError):
                        table(G, l, k)


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
