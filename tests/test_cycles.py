"""Library calls leave no reference cycles behind.

A nested function that calls itself, or a memo whose function closes over
the memo, is a reference cycle: everything it holds stays alive after the
call until the garbage collector runs, and those collections then land in
whatever call comes next.  Each case runs one call with the collector off
and counts what the collector finds unreachable afterwards.
"""

import gc
from fractions import Fraction

import pytest

from clustercx import barcx as B, labelings as L, strata, trees


def cycles_left(fn):
    """Objects the collector finds unreachable after ``fn()`` alone."""
    gc.collect()
    gc.disable()
    try:
        fn()
    finally:
        gc.enable()
    return gc.collect()


def _tree():
    return trees.enumerate_colored_types(3, 1, 2)[0]


def _balanced():
    t = next(t for t in trees.enumerate_colored_types(3, 1, 2) if not t.root[1])
    return L.EdgeLabeling(t, {e: Fraction(1) for e in t.edges()})


def _restrict():
    lab = _balanced()
    t = lab.tree
    for e in t.edges():
        c, _ = trees.contract_set(t, {e})
        if c.check_colored_axiom() and c.n_colored:
            return L.restrict_balanced(lab, c, t, {e})
    raise AssertionError("no colored contraction")


def _chart():
    t = trees.maximal_types(4, 0)[0]
    return L.chart_inverse(L.EdgeLabeling(t, {e: Fraction(1, 2) for e in t.edges()}))


def _symmetric_corners():
    """Ks strata of (2, 3) whose corners have tile orderings under the
    reversing permutation: every branch holds a leaf."""
    out = [
        strata.Stratum("Ks", s.tree, (2, 1))
        for s in strata.face_poset("Ks", 2, 3).strata
        if s.codim and not s.ghost_paths() and _branches_hold_leaves(s.tree.root)
    ]
    assert out
    return out


def _holds_leaf(v):
    return any(c == trees.LEAF or _holds_leaf(c) for c in v[2])


def _branches_hold_leaves(v):
    return all(
        c == trees.LEAF or (_holds_leaf(c) and _branches_hold_leaves(c)) for c in v[2]
    )


CASES = {
    "contract_set": lambda: trees.contract_set(_tree(), _tree().edges()[:1]),
    "replace_vertex": lambda: trees.replace_vertex(
        _tree(), _tree().edges()[0], trees.vertex(0, False, (trees.LEAF,))
    ),
    "to_obj/from_obj": lambda: trees.from_obj(trees.to_obj(_tree())),
    "corner_decomposition": lambda: [
        strata.corner_decomposition(s) for s in _symmetric_corners()
    ],
    "boundary_squares_to_zero": lambda: strata.boundary_squares_to_zero("K", 4, 0),
    "chi_quilted": lambda: L.chi_quilted(_balanced(), Fraction(1, 2)),
    "restrict_balanced": _restrict,
    "chart_inverse": _chart,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_tree_walks_leave_no_cycle(name):
    CASES[name]()  # fills the lru caches the call reads
    assert cycles_left(CASES[name]) == 0


def test_first_block_maps_leave_no_cycle():
    fam = B.example_library()["polynomial"]
    gens = list(fam.gens.values())
    h = B.OperationFamily(
        "h", gens, {1: {(s,): [(s, 0, 1)] for s in fam.gens}}, n=fam.n, NL=fam.NL
    )
    kzero = B.OperationFamily("k", gens, {}, n=fam.n, NL=fam.NL)
    window = B.TruncationWindow(qmax=3)
    assert cycles_left(lambda: B.check_chain_map(h, fam, fam, window)) == 0
    assert cycles_left(lambda: B.check_homotopy(h, h, kzero, fam, fam, window)) == 0
    assert cycles_left(lambda: B.morphism_H(h, ("a", "a2"))) == 0
