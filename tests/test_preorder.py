"""Tree facts read off the walks and folds, against the per-fact
recursions they replaced: edge order, the vertex, mark and colored
counts, stratum codim and dim, the colored axiom, the root-to-color paths
and the edge regions.  Rejected seam-split candidates, which break the
colored axiom in every way a split can, are covered as well as the listed
strata; the split generator yields exactly the candidates the axiom keeps."""

import pytest

from clustercx import labelings as L, strata, trees
from clustercx.trees import LEAF
from test_strata import _reference_splits


def _reference_edges(v, prefix=()):
    out = []
    for idx, s in enumerate(v[2]):
        if isinstance(s, tuple):
            path = prefix + (idx,)
            out.append(path)
            out.extend(_reference_edges(s, path))
    return out


def _reference_count_colored(v):
    own = 1 if v[1] else 0
    return own + sum(
        _reference_count_colored(s) for s in v[2] if isinstance(s, tuple)
    )


def _reference_colored_ok(v, seen):
    i, col, slots = v
    here = seen or col
    if col and seen:
        return False
    for s in slots:
        if s == LEAF:
            if not here:
                return False
        elif trees._count_leaves(s) > 0:
            if not _reference_colored_ok(s, here):
                return False
        else:
            # leafless side branch: no leaf paths to constrain
            if _reference_count_colored(s) > 0:
                return False
    return True


def _reference_colors_on_leaf_paths(v):
    # colored vertices with no leaves above them are rejected by
    # _reference_colored_ok through the leafless-branch clause; colored
    # leafless roots remain.
    if v[1] and trees._count_leaves(v) == 0:
        return False
    return True


def _reference_colored_paths(tree):
    out = []

    def rec(v, prefix, chain):
        if v[1]:
            out.append(chain)
            return
        for idx, item in enumerate(v[2]):
            if isinstance(item, tuple):
                path = prefix + (idx,)
                rec(item, path, chain + [path])

    rec(tree.root, (), [])
    return out


def _reference_edge_regions(tree):
    regions = {}

    def rec(v, prefix, seen_color):
        for idx, item in enumerate(v[2]):
            if not isinstance(item, tuple):
                continue
            e = prefix + (idx,)
            if seen_color:
                regions[e] = "above"
            elif item[1]:
                regions[e] = "touch"
            else:
                regions[e] = "below"
            rec(item, e, seen_color or item[1])

    rec(tree.root, (), tree.root[1])
    return regions


def assert_walk_facts(tree):
    """Every fact the walk gives agrees with its reference; returns the
    colored axiom's verdict."""
    root = tree.root
    edges = _reference_edges(root)
    assert tree.edges() == edges and tree.n_edges == len(edges)
    n_colored = _reference_count_colored(root)
    assert tree.n_colored == n_colored
    # the marks and the grading, summed over the (path, vertex) walk; a Ks
    # stratum reads the same tree facts as a K one, and dim is one fold.
    # The tree fits K or Q, not both, so both strata are built on the
    # trusted path, which does not check the fit.  A Q codim subtracts the
    # colored vertices past the first, none on a plain tree.
    verts = [v for _, v in tree.vertices()]
    assert tree.num_marks == sum(v[0] for v in verts)
    dim = sum(strata.vertex_dim(v) for v in verts)
    k, q = strata._wrapped("K", [tree]) + strata._wrapped("Q", [tree])
    assert (k.codim, k.dim) == (len(verts) - 1, dim)
    assert (q.codim, q.dim) == (len(verts) - max(n_colored, 1), dim)
    ok = _reference_colored_ok(root, False) and (
        _reference_colors_on_leaf_paths(root)
    )
    assert tree.check_colored_axiom() == ok
    # the one walk behind the edge regions and the root-to-color paths
    regions, paths = L._color_walk(tree)
    assert paths == _reference_colored_paths(tree)
    assert regions == _reference_edge_regions(tree)
    return ok


def _size(table, l, k):
    return sum(table(trees.COUNT, l, k)[1].values())


# (table, l, k) for the K/Q/Ks strata with l <= 5, k <= 2 that can be
# listed: K and Ks share the plain trees, Q has the colored ones, and Q at
# (5, 2) is above the listing cap
LISTED = [
    (table, l, k)
    for l in range(6)
    for k in range(3)
    for table in (trees.plain, trees.colored)
    if (trees.params_stable(l, k) if table is trees.plain else l >= 1)
    and _size(table, l, k) <= trees.MAX_STRATA
]


def _listed(table, l, k, e):
    if table is trees.plain:
        return trees.enumerate_types(l, k, e)
    return trees.enumerate_colored_types(l, k, e)


@pytest.mark.parametrize(
    "table, l, k", LISTED, ids=["%s-%d-%d" % (t.__name__, l, k) for t, l, k in LISTED]
)
def test_listed_strata(table, l, k):
    n = 0
    for e in range(2 * l + 2 * k + 1):
        for t in _listed(table, l, k, e):
            assert assert_walk_facts(t) or table is trees.plain
            n += 1
    assert n == _size(table, l, k)


def test_only_q52_is_beyond_the_listing_cap():
    # 16 stable plain classes and 14 colored ones with a leaf
    assert len(LISTED) == 30 and (trees.colored, 5, 2) not in LISTED
    assert _size(trees.colored, 5, 2) > trees.MAX_STRATA


# the splits the generator yields at each (l, k) of test_split_candidates
_GENERATED = {(2, 2): 2873, (1, 3): 2916, (3, 2): 33105}


@pytest.mark.parametrize(
    "l, k, candidates, rejected",
    [(2, 2, 2884, 11), (1, 3, 2958, 42), (3, 2, 33173, 68)],
)
def test_split_candidates(l, k, candidates, rejected):
    """Every stable seam or bubble split of every Q stratum, as the
    reference builds it before the colored axiom filters it, and the splits
    the generator yields: those the axiom keeps, in the same order."""
    seen = bad = made = 0
    for e in range(2 * l + 2 * k + 1):
        for t in trees.enumerate_colored_types(l, k, e):
            walk = []
            strata._face_walk(t.root, (), walk)
            for path, v, pre, _ in walk:
                kept = []
                for va, _ in _reference_splits(v):
                    cand = trees.replace_vertex(t, path, va)
                    seen += 1
                    if assert_walk_facts(cand):
                        kept.append(va)
                    else:
                        bad += 1
                new = [va for va, _ in strata._splits_of_vertex(v, pre, {})]
                assert new == kept, (t, path)
                made += len(new)
    assert (seen, bad, made) == (candidates, rejected, _GENERATED[l, k])


def _recolored(v, flags):
    """``v`` with its vertices, in preorder, colored by ``flags``."""
    col = next(flags)
    slots = tuple(s if s == LEAF else _recolored(s, flags) for s in v[2])
    return trees.vertex(v[0], col, slots)


def test_every_recoloring():
    """All 2^|V| colorings of the plain trees with l <= 4, k <= 1: nested
    colors, uncolored leaf paths and leafless colored branches alike."""
    seen = good = 0
    for l in range(5):
        for k in range(2):
            if not trees.params_stable(l, k):
                continue
            for e in range(l + 2 * k - 1):
                for t in trees.enumerate_types(l, k, e):
                    nv = e + 1
                    for mask in range(2 ** nv):
                        flags = iter(bool(mask >> j & 1) for j in range(nv))
                        cand = trees.PlanarTree(_recolored(t.root, flags))
                        seen += 1
                        good += assert_walk_facts(cand)
    assert (seen, good) == (6052, 525)
