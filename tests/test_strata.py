"""Face posets, boundary signs, corners, tiles, and collars."""

import copy
import hashlib
import json
import pickle
from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb

import pytest

from clustercx import signs, strata, trees
from clustercx.errors import (
    CapError,
    GhostCornerError,
    RangeError,
    ShapeError,
    StabilityError,
)
from clustercx.trees import LEAF, PlanarTree, vertex


def _contraction_order_coverings(poset):
    """Oracle for ``FacePoset.coverings``: test ``trees.leq`` on stratum
    pairs.  K and Ks pair adjacent codims; Q takes the full order and then
    its Hasse reduction, since one step of the contraction order can
    contract several edges when it merges away a colored layer."""
    ss = poset.strata
    n = len(ss)
    if poset.family in ("K", "Ks"):
        return [
            (a, b)
            for a in range(n)
            for b in range(n)
            if ss[b].codim == ss[a].codim + 1 and trees.leq(ss[a].tree, ss[b].tree)
        ]
    less = [
        [ss[a].codim < ss[b].codim and trees.leq(ss[a].tree, ss[b].tree) for b in range(n)]
        for a in range(n)
    ]
    return [
        (a, b)
        for a in range(n)
        for b in range(n)
        if less[a][b] and not any(less[a][c] and less[c][b] for c in range(n))
    ]


# Oracle for ``grading_profile``: the counting recursion keyed by
# (l, k, emax), where emax bounds the edges left to spend.  The bound ends
# the self-reference pss(l, k) -> pv(l, k) -> pss(l, k) and carries the
# exact slot count, which the library's (l, k) tables do without.


def _acc(out, key, n):
    out[key] = out.get(key, 0) + n


@lru_cache(maxsize=None)
def _ref_pv(l, k, emax):
    """{(e, dimsum): count} over stable uncolored subtrees."""
    out = {}
    for i in range(k + 1):
        for (e, s, d), n in _ref_pss(l, k - i, emax).items():
            if s + 1 + 2 * i >= 3:
                _acc(out, (e, d + s - 2 + 2 * i), n)
    return out


@lru_cache(maxsize=None)
def _ref_pss(l, k, emax):
    """{(e, slots, dimsum): count} over uncolored slot sequences."""
    out = {}
    if l == 0 and k == 0:
        out[(0, 0, 0)] = 1
    if l >= 1:
        for (e, s, d), n in _ref_pss(l - 1, k, emax).items():
            _acc(out, (e, s + 1, d), n)
    if emax < 1:
        return out
    for lc in range(l + 1):
        for kc in range(k + 1):
            for (ec, dc), nc in _ref_pv(lc, kc, emax - 1).items():
                rest = _ref_pss(l - lc, k - kc, emax - 1 - ec)
                for (e, s, d), n in rest.items():
                    _acc(out, (e + 1 + ec, s + 1, d + dc), n * nc)
    return out


@lru_cache(maxsize=None)
def _ref_cb(l, k, emax):
    """{(e, ncol, dimsum): count} over below-color colored subtrees."""
    out = {}
    for i in range(k + 1):
        for (e, s, d), n in _ref_pss(l, k - i, emax).items():
            if s + 1 + 2 * i >= 2:
                _acc(out, (e, 1, d + s - 1 + 2 * i), n)
        for (e, nc, s, d), n in _ref_bss(l, k - i, emax).items():
            if s + 1 + 2 * i >= 3:
                _acc(out, (e, nc, d + s - 2 + 2 * i), n)
    return out


@lru_cache(maxsize=None)
def _ref_bss(l, k, emax):
    """{(e, ncol, slots, dimsum): count} over below-color slot sequences."""
    out = {}
    if l == 0 and k == 0:
        out[(0, 0, 0, 0)] = 1
    if emax < 1:
        return out
    for lc in range(l + 1):
        for kc in range(k + 1):
            if lc >= 1:
                child = _ref_cb(lc, kc, emax - 1)
            else:
                child = {
                    (e, 0, d): n
                    for (e, d), n in _ref_pv(0, kc, emax - 1).items()
                }
            for (ec, ncc, dc), nc in child.items():
                rest = _ref_bss(l - lc, k - kc, emax - 1 - ec)
                for (e, ncr, s, d), n in rest.items():
                    _acc(out, (e + 1 + ec, ncc + ncr, s + 1, d + dc), n * nc)
    return out


def _reference_grading_profile(family, l, k):
    out = {}
    if family in ("K", "Ks"):
        top = strata.dimension("K", l, k)
        for (e, d), n in _ref_pv(l, k, top).items():
            _acc(out, (e, d), n)
        return out
    top = strata.dimension("Q", l, k)
    emax = top + max(l - 1, 0)
    for (e, ncol, d), n in _ref_cb(l, k, emax).items():
        codim = e - (ncol - 1)
        if 0 <= codim <= top:
            _acc(out, (codim, d), n)
    return out


class _MisGraded(trees._Count):
    """The COUNT reading with one grading error: a vertex with marks
    closes one dimension short."""

    def close(self, subtrees, seqs, i, col):
        closed = {}
        super().close(closed, seqs, i, col)
        for (e, nc, d), n in closed.items():
            key = (e, nc, d - 1 if i else d)
            subtrees[key] = subtrees.get(key, 0) + n


class TestGradings:
    def test_dimensions(self):
        assert strata.dimension("K", 4, 0) == 2
        assert strata.dimension("Q", 3, 0) == 2
        assert strata.dimension("K", 2, 1) == 2

    def test_dimension_is_the_corollas(self):
        """dimension reads the vertex rule on the family's corolla, quilted
        for Q, and refuses exactly the unstable corollas and the quilted
        family without leaves."""
        seen = 0
        for fam in strata.FAMILIES:
            for l in range(trees.MAX_LEAVES + 1):
                for k in range(trees.MAX_MARKS + 1):
                    d = trees.vertex_dim(vertex(k, fam == "Q", (LEAF,) * l))
                    if d < 0 or (fam == "Q" and not l):
                        with pytest.raises(StabilityError):
                            strata.dimension(fam, l, k)
                        continue
                    assert strata.dimension(fam, l, k) == d, (fam, l, k)
                    seen += 1
        assert seen == 3 * 11 * 5 - 2 * 2 - 5

    def test_f_vectors(self):
        assert strata.f_vector("K", 4, 0) == (5, 5, 1)
        assert strata.f_vector("K", 5, 0) == (14, 21, 9, 1)
        assert strata.f_vector("Q", 2, 0) == (2, 1)
        assert strata.f_vector("Q", 3, 0) == (6, 6, 1)

    def test_profile_matches_materialized(self):
        cases = [("K", 4, 0), ("K", 3, 1), ("K", 5, 1), ("Ks", 4, 1), ("Q", 3, 0), ("Q", 2, 1)]
        for fam, l, k in cases:
            prof = strata.grading_profile(fam, l, k)
            poset = strata.face_poset(fam, l, k)
            direct = {}
            by_dim = {}
            for s in poset.strata:
                key = (s.codim, s.dim)
                direct[key] = direct.get(key, 0) + 1
                by_dim[s.dim] = by_dim.get(s.dim, 0) + 1
            assert prof == direct
            assert strata.f_vector(fam, l, k) == tuple(by_dim[d] for d in sorted(by_dim))

    def test_dim_plus_codim(self):
        for fam, l, k in [("K", 5, 0), ("K", 2, 2), ("Q", 4, 0)]:
            ambient = strata.dimension(fam, l, k)
            for (codim, dim), n in strata.grading_profile(fam, l, k).items():
                assert dim + codim == ambient
                assert n > 0

    # the reference takes about 0.7 s for these; Q up to the caps (10, 4)
    # takes 6-10 s, so a CI step outside tier-1 compares it
    @pytest.mark.parametrize(
        "fam, lmax, kmax", [("K", 10, 4), ("Ks", 10, 4), ("Q", 7, 3)]
    )
    def test_profile_matches_reference(self, fam, lmax, kmax):
        unstable = set()
        for l in range(lmax + 1):
            for k in range(kmax + 1):
                try:
                    want = _reference_grading_profile(fam, l, k)
                except StabilityError:
                    unstable.add((l, k))
                    with pytest.raises(StabilityError):
                        strata.grading_profile(fam, l, k)
                    continue
                assert strata.grading_profile(fam, l, k) == want, (l, k)
        if fam == "Q":
            assert unstable == {(0, k) for k in range(kmax + 1)}
        else:
            assert unstable == {(0, 0), (1, 0)}

    def test_cyclohedron_f_vectors(self):
        # K with one interior mark is the cyclohedron W_{l+1}
        for l in range(1, 11):
            want = tuple(comb(l, j) * comb(2 * l - j, l) for j in range(l + 1))
            assert strata.f_vector("K", l, 1) == want, l

    def test_multiplihedron_vertices(self):
        got = [strata.f_vector("Q", l, 0)[0] for l in range(1, 7)]
        assert got == [1, 2, 6, 21, 80, 322]

    def test_euler_characteristic(self):
        # every closed cell is a ball
        for fam in ("K", "Q"):
            for l in range(trees.MAX_LEAVES + 1):
                for k in range(trees.MAX_MARKS + 1):
                    try:
                        fv = strata.f_vector(fam, l, k)
                    except StabilityError:
                        continue
                    assert sum((-1) ** d * n for d, n in enumerate(fv)) == 1

    def test_profile_is_a_fresh_dict(self):
        for fam, l, k in [("K", 5, 1), ("Ks", 4, 1), ("Q", 3, 1)]:
            prof = strata.grading_profile(fam, l, k)
            want, fv = dict(prof), strata.f_vector(fam, l, k)
            prof[next(iter(prof))] += 1
            prof[(99, 99)] = 1
            assert strata.grading_profile(fam, l, k) == want
            assert strata.f_vector(fam, l, k) == fv

    @pytest.mark.parametrize("fam, l, k", [("K", 4, 1), ("Ks", 3, 2), ("Q", 3, 1)])
    def test_one_wrong_dimension_shift_is_caught(self, monkeypatch, fam, l, k):
        want = _reference_grading_profile(fam, l, k)
        assert strata.grading_profile(fam, l, k) == want
        # the tables are cached on the reading, so a new one starts cold
        monkeypatch.setattr(trees, "COUNT", _MisGraded())
        got = strata.grading_profile(fam, l, k)
        assert sum(got.values()) == sum(want.values())
        assert got != want

    def test_negative_arguments(self):
        for fam, l, k in [("K", -1, 0), ("Ks", 3, -1), ("Q", -2, 1)]:
            with pytest.raises(RangeError, match="nonnegative"):
                strata.grading_profile(fam, l, k)
        with pytest.raises(RangeError):
            trees.enumerate_types(4, -1, 0)
        with pytest.raises(RangeError):
            trees.enumerate_colored_types(-1, 0, 0)
        with pytest.raises(CapError):
            strata.grading_profile("K", 11, 0)


class TestBoundary:
    def test_pentagon_row(self):
        poset = strata.face_poset("K", 4, 0)
        mat = strata.boundary_matrix(poset)
        top = poset.strata.index(
            [s for s in poset.strata if s.codim == 0][0]
        )
        row = [v for (r, c), v in mat.items() if r == top]
        assert sorted(abs(v) for v in row) == [1] * 5

    def test_squares_to_zero(self):
        assert strata.boundary_squares_to_zero("K", 4, 0)
        assert strata.boundary_squares_to_zero("K", 3, 1)
        assert strata.boundary_squares_to_zero("Q", 3, 0)
        for l, k in [(2, 1), (3, 1), (1, 2), (2, 2)]:
            assert strata.boundary_squares_to_zero("Q", l, k), (l, k)
        assert strata.boundary_squares_to_zero("K", 7, 0)
        assert strata.boundary_squares_to_zero("K", 3, 2)
        for l, k in [(5, 0), (1, 3), (4, 1)]:
            assert strata.boundary_squares_to_zero("Q", l, k), (l, k)


def _reference_dim(v):
    """The dimension of the subtree at v, summed over its vertices."""
    return sum(strata.vertex_dim(u) for _, u in PlanarTree(v).vertices())


def _reference_pre(slots):
    """pre[j]: the total dimension of the subtrees in slots[:j]."""
    pre = [0]
    for x in slots:
        pre.append(pre[-1] if x == LEAF else pre[-1] + _reference_dim(x))
    return pre


def _compositions(total, parts):
    """Every way to write total as an ordered sum of parts nonnegative
    terms, in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _reference_splits(v):
    """``strata._splits_of_vertex`` as it was first written: build every
    bubble and seam candidate with ``trees.vertex``, then drop those with
    an unstable vertex."""
    i, col, slots = v
    s = len(slots)
    pre = _reference_pre(slots)
    facet_sign = signs.sign_lower_quilt if col else signs.sign_concat
    for w in range(s + 1):
        for a in range(s - w + 1):
            for ib in range(i + 1):
                vb = vertex(ib, False, slots[a : a + w])
                va = vertex(i - ib, col, slots[:a] + (vb,) + slots[a + w :])
                if not (trees.vertex_dim(va) >= 0 and trees.vertex_dim(vb) >= 0):
                    continue
                sign = facet_sign(s - w + 1, a + 1, w)
                yield va, -sign if pre[a] * strata.vertex_dim(vb) % 2 else sign
    if not col:
        return
    for nb in range(1, s + 1):
        for cuts in combinations(range(1, s), nb - 1):
            bounds = (0,) + cuts + (s,)
            blocks = [slots[bounds[t] : bounds[t + 1]] for t in range(nb)]
            kept = [
                len(b) == 1 and isinstance(b[0], tuple) and not trees._count_leaves(b[0])
                for b in blocks
            ]
            upper = signs.sign_upper_quilt([len(b) for b in blocks])
            for marks in _compositions(i, kept.count(False) + 1):
                child_marks = iter(marks[1:])
                hub_slots = []
                corr = 0
                stable = True
                for b, keep, start in zip(blocks, kept, bounds):
                    if keep:
                        hub_slots.append(b[0])
                    else:
                        c = vertex(next(child_marks), True, b)
                        stable = stable and trees.vertex_dim(c) >= 0
                        corr += strata.vertex_dim(c) * pre[start]
                        hub_slots.append(c)
                va = vertex(marks[0], False, hub_slots)
                if stable and trees.vertex_dim(va) >= 0:
                    yield va, -upper if corr % 2 else upper


# slot kinds: a leaf, leafless children of even and odd dimension, and
# leafy children of even and odd dimension
_BARE = vertex(1, False, ())
_SLOT_KINDS = (
    LEAF,
    _BARE,
    vertex(1, False, (_BARE,)),
    vertex(0, False, (LEAF, LEAF)),
    vertex(0, False, (LEAF, LEAF, LEAF)),
)


def _slot_fills(s):
    """Every sequence of s slot kinds for s <= 4; above that, the fills
    that step through the kinds with each stride, from each start, so
    every kind still meets every position."""
    n = len(_SLOT_KINDS)
    if s <= 4:
        return list(product(_SLOT_KINDS, repeat=s))
    fills = {
        tuple(_SLOT_KINDS[(q + p * j) % n] for j in range(s))
        for p in range(n)
        for q in range(n)
    }
    return sorted(fills, key=repr)


def _reference_faces(v):
    """The ``_reference_splits`` of v that keep the colored axiom: a seam
    candidate, the uncolored hub that replaces a colored v, must pass
    ``check_colored_axiom`` as a tree of its own."""
    for va, sign in _reference_splits(v):
        if not v[1] or va[1] or PlanarTree(va).check_colored_axiom():
            yield va, sign


def _oracle_vertices(s, max_marks=3):
    """Every vertex with s slots, at most ``max_marks`` marks and either
    color, save colored ones with no leaf: no Q tree has one."""
    for slots in _slot_fills(s):
        for i in range(max_marks + 1):
            for col in (False, True):
                v = vertex(i, col, slots)
                if not col or trees._count_leaves(v):
                    yield v


class TestSplitOracle:
    @pytest.mark.parametrize("s", range(7))
    def test_same_splits_in_the_same_order(self, s):
        for v in _oracle_vertices(s):
            new = strata._splits_of_vertex(v, _reference_pre(v[2]), {})
            assert list(new) == list(_reference_faces(v)), v

    @pytest.mark.parametrize("family, l, k", [("K", 5, 0), ("Q", 3, 1)])
    def test_walk_matches_the_preorder(self, family, l, k):
        """The one walk behind boundary_faces: the preorder's (path,
        vertex) pairs, each with the prefix sums of its slots' subtree
        dimensions."""
        for st in strata.face_poset(family, l, k).strata:
            walk = []
            assert strata._face_walk(st.tree.root, (), walk) == st.dim
            assert [(p, v) for p, v, _, _ in walk] == st.tree.vertices()
            for _, v, pre, d in walk:
                assert pre == _reference_pre(v[2])
                assert d == strata.vertex_dim(v)

    def test_zero_dimensional_vertices_have_no_split(self):
        """The oracle's vertices of dimension 0: the 25 two-slot plain
        vertices without marks, the bare one-mark vertex and the 3 leafy
        one-slot colored vertices without marks."""
        seen = 0
        for s in range(7):
            for v in _oracle_vertices(s):
                if strata.vertex_dim(v) == 0:
                    seen += 1
                    pre = _reference_pre(v[2])
                    assert not list(strata._splits_of_vertex(v, pre, {})), v
                    assert not list(_reference_faces(v)), v
        assert seen == 29

    @pytest.mark.parametrize("family, l, k", [("K", 5, 0), ("Q", 3, 1), ("Ks", 3, 1)])
    def test_zero_dimensional_vertices_are_not_split(self, monkeypatch, family, l, k):
        """The face generator asks for the split templates of
        positive-dimensional vertex shapes only, though the walks hold
        vertices of dimension 0."""
        poset = strata.face_poset(family, l, k)
        zero = 0
        for st in poset.strata:
            walk = []
            strata._face_walk(st.tree.root, (), walk)
            zero += sum(strata.vertex_dim(v) == 0 for _, v, _, _ in walk)
        assert zero
        template = strata._split_template
        asked = []

        def counted(shape):
            i, col, s = shape[:3]
            asked.append(trees.corolla_dim(s, i, col))
            return template(shape)

        monkeypatch.setattr(strata, "_split_template", counted)
        assert any(poset.rows)
        assert asked and min(asked) > 0

    def test_one_template_per_shape_per_build(self, monkeypatch):
        """A rows build or a boundary_faces call builds each shape's
        template once, and keeps none for the next one."""
        template = strata._split_template
        asked = []

        def counted(shape):
            asked.append(shape)
            return template(shape)

        monkeypatch.setattr(strata, "_split_template", counted)
        for family, l, k in [("K", 5, 0), ("Q", 3, 1)]:
            assert any(strata.face_poset(family, l, k).rows)
            first = Counter(asked)
            assert set(first.values()) == {1}
            del asked[:]
            assert any(strata.face_poset(family, l, k).rows)
            assert Counter(asked) == first
            del asked[:]
        top = strata.face_poset("Q", 3, 1).strata[0]
        strata.boundary_faces(top)
        strata.boundary_faces(top)
        assert len(asked) == 2 and asked[0] == asked[1]


def _bubble_of_first_two(shape, bubble, seam):
    """An uncolored three-slot vertex whose first two slots bubble off."""
    _, col, s = shape[:3]
    return not col and s == 3 and bubble is not None and bubble[:2] == (0, 2)


def _seam_in_two(shape, bubble, seam):
    """A colored two-slot vertex cut into two blocks under a hub."""
    _, col, s = shape[:3]
    return col and s == 2 and seam is not None and len(seam[1]) == 2


class TestBoundaryNegativeControl:
    """With the sign of one split shape negated, the boundary no longer
    squares to zero."""

    @pytest.mark.parametrize(
        "shape, family, l, k",
        [
            (_bubble_of_first_two, "K", 5, 0),
            (_bubble_of_first_two, "Q", 3, 1),
            (_seam_in_two, "Q", 3, 1),
        ],
    )
    def test_one_flipped_sign_breaks_d_squared(self, monkeypatch, shape, family, l, k):
        template = strata._split_template
        flipped = []

        def flip(entry):
            flipped.append(entry)
            return entry[:-1] + (-entry[-1],)

        def wrong(vshape):
            bubbles, seams = template(vshape)
            bubbles = [flip(b) if shape(vshape, b, None) else b for b in bubbles]
            seams = [flip(t) if shape(vshape, None, t) else t for t in seams]
            return bubbles, seams

        assert strata.boundary_squares_to_zero(family, l, k)
        monkeypatch.setattr(strata, "_split_template", wrong)
        assert not strata.boundary_squares_to_zero(family, l, k)
        assert flipped


def _reference_rows(poset):
    """``FacePoset.rows`` from ``_reference_faces``, without the split
    templates: each face of a vertex split, with the parity of the vertex
    dimensions before it in preorder, found by its tree."""
    index = {s.tree: b for b, s in enumerate(poset.strata)}
    rows = []
    for s in poset.strata:
        row, prefix = {}, 0
        for path, v in s.tree.vertices():
            for va, sign in _reference_faces(v):
                b = index[trees.replace_vertex(s.tree, path, va)]
                row[b] = row.get(b, 0) + (-sign if prefix % 2 else sign)
            prefix += trees.vertex_dim(v)
        rows.append(row)
    return rows


# (boundary_faces, boundary_matrix) digests pinned from the implementation
# that built the coverings and the signed matrix in two separate loops
# over boundary_faces; see _boundary_digests
_BOUNDARY_DIGESTS = {
    ("K", 5, 0): ("5f9daf0cf739af08d71e8556", "df5fc9db4661f61e03125ab3"),
    ("K", 2, 2): ("c3a2785938a6bc7c5dfa7b89", "49a764be599e80f5510b51d8"),
    ("Q", 3, 1): ("90d027436cd6d3dea90c4c64", "a4b625af4ba05a3b2033bc31"),
    ("Q", 2, 2): ("8d559c0c5b9f7bf61c210e8b", "fb04ee33746451ad0454ef97"),
    ("Ks", 3, 1): ("a09864622338478985804ed4", "132e5768e28402b26f436714"),
    # the two sizes of the benchmark's d-squared ops, pinned from the
    # enumeration that split every vertex on its own
    ("K", 7, 0): ("aeb02809d8a2c73708265d5e", "621b5a44c9b72eca467b51de"),
    ("Q", 5, 0): ("5c69436fcc7f22359b33a867", "7e6ad1afbc2dd8ec2618346b"),
}


def _digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def _boundary_digests(poset):
    """Digests of every stratum's boundary_faces list (face trees,
    permutations and signs, in order) and of the sorted boundary_matrix."""
    faces = [
        [[trees.to_obj(f.tree), f.perm, sign] for f, sign in strata.boundary_faces(s)]
        for s in poset.strata
    ]
    matrix = sorted([a, b, c] for (a, b), c in strata.boundary_matrix(poset).items())
    return _digest(faces), _digest(matrix)


class TestSignedIncidence:
    @pytest.mark.parametrize("family, l, k", sorted(_BOUNDARY_DIGESTS))
    def test_faces_and_matrix_pinned(self, family, l, k):
        poset = strata.face_poset(family, l, k)
        assert _boundary_digests(poset) == _BOUNDARY_DIGESTS[family, l, k]

    def test_boundary_faces_once_per_stratum(self, monkeypatch):
        # rows reads the shared face generator once per stratum root
        calls = Counter()
        faces = strata._faces

        def counted(root, templates):
            calls[root] += 1
            return faces(root, templates)

        def roots(poset):
            return Counter(s.tree.root for s in poset.strata)

        monkeypatch.setattr(strata, "_faces", counted)
        poset = strata.face_poset("K", 3, 1)
        coverings = poset.coverings
        matrix = strata.boundary_matrix(poset)
        assert poset.coverings == coverings and set(matrix) <= set(coverings)
        assert calls == roots(poset)
        calls.clear()
        assert strata.boundary_squares_to_zero("Q", 2, 1)
        assert calls == roots(strata.face_poset("Q", 2, 1))
        calls.clear()
        strata.collar_cells(4, 0)
        assert calls == roots(strata.face_poset("K", 4, 0))

    @pytest.mark.parametrize(
        "family, l, k",
        [("K", 5, 0), ("K", 2, 2), ("Q", 3, 1), ("Q", 2, 2), ("Ks", 3, 1)],
    )
    def test_rows_match_reference_faces(self, monkeypatch, family, l, k):
        """rows equals the rows rebuilt from _reference_faces and the
        preorder prefix parity, and builds no Stratum or PlanarTree."""
        poset = strata.face_poset(family, l, k)
        want = _reference_rows(poset)

        def refused(*args):
            raise AssertionError("rows built a face object")

        monkeypatch.setattr(strata, "Stratum", refused)
        monkeypatch.setattr(strata, "PlanarTree", refused)
        assert poset.rows == want

    def test_covering_with_coefficient_zero(self):
        # the root with two one-mark bubbles is a face of the one-bubble
        # stratum twice, once per planar position of the second bubble,
        # with opposite signs
        poset = strata.face_poset("K", 0, 2)
        bubble = vertex(1, False, ())
        assert [s.tree.root for s in poset.strata] == [
            vertex(2, False, ()),
            vertex(1, False, (bubble,)),
            vertex(0, False, (bubble, bubble)),
        ]
        assert poset.rows[1] == {2: 0}
        assert (1, 2) in poset.coverings
        assert (1, 2) not in strata.boundary_matrix(poset)


class TestCoverings:
    @pytest.mark.parametrize(
        "family, l, k",
        [("K", l, 0) for l in range(2, 7)]
        + [("K", 3, 1), ("Ks", 4, 0)]
        + [("Q", l, 0) for l in range(1, 5)]
        + [("Q", 2, 1), ("Q", 1, 2)],
    )
    def test_match_contraction_order(self, family, l, k):
        poset = strata.face_poset(family, l, k)
        assert poset.coverings == _contraction_order_coverings(poset)


def _reference_tile_pairs(l, k):
    """Oracle for the tile complex: loop every (stratum, ghost swap,
    permutation) and collect the identified tile pairs.  Maps each pair
    frozenset({(p, s_i), (q, t_i)}) to its move kind."""
    poset = strata.face_poset("Ks", l, k)
    sidx = {s.tree: n for n, s in enumerate(poset.strata)}
    perms = list(permutations(range(1, l + 1)))
    pairs = {}
    for s_i, s in enumerate(poset.strata):
        tree = s.tree
        for path, (i, col, slots) in tree.vertices():
            if i != 0 or len(slots) != 2 or not path:
                continue
            lo = tree.leaf_numbers_under(path)
            if not lo:
                continue
            a, b = slots
            tag = "I" if a == b == LEAF else "II" if LEAF in slots else "III"
            t_i = sidx[trees.replace_vertex(tree, path, vertex(0, col, (b, a)))]
            na = 1 if a == LEAF else trees._count_leaves(a)
            nb = len(lo) - na
            nu = {x: x for x in range(1, l + 1)}
            for off in range(na):
                nu[lo[0] + off] = lo[0] + nb + off
            for off in range(nb):
                nu[lo[0] + na + off] = lo[0] + off
            for p in perms:
                # marking labels follow the leaves: q(nu(x)) = p(x)
                q = [0] * l
                for x in range(1, l + 1):
                    q[nu[x] - 1] = p[x - 1]
                pairs.setdefault(frozenset(((p, s_i), (tuple(q), t_i))), tag)
    return pairs


def _expand_generators(tc):
    """The tile pairs of a TileComplex: the S_l orbit of each generator."""
    pairs = {}
    for tag, s_i, t_i, nu in tc.identifications:
        for p in permutations(range(1, tc.l + 1)):
            q = [0] * tc.l
            for a, image in enumerate(nu):
                q[image - 1] = p[a]
            key = frozenset(((p, s_i), (tuple(q), t_i)))
            assert pairs.setdefault(key, tag) == tag
    return pairs


# (5, 2) also agrees (5,648,040 pairs) but is too slow for the suite.
TILE_SIZES = [
    (l, k)
    for l in range(6)
    for k in range(3)
    if trees.params_stable(l, k) and (l, k) != (5, 2)
]


def _reference_transposition_moves(tree):
    """Oracle for ``strata._transposition_moves``: per ghost, leaf numbers
    from ``leaf_numbers_under`` and slot counts from ``_count_leaves``."""
    for path, (i, col, slots) in tree.vertices():
        if i != 0 or len(slots) != 2 or not path:
            continue
        lo = tree.leaf_numbers_under(path)
        if not lo:
            continue
        a, b = slots
        if a == LEAF and b == LEAF:
            tag = "I"
        elif a == LEAF or b == LEAF:
            tag = "II"
        else:
            tag = "III"
        new_tree = trees.replace_vertex(tree, path, vertex(0, col, (b, a)))
        nb = 1 if b == LEAF else trees._count_leaves(b)
        nu = list(range(1, tree.num_leaves + 1))
        nu[lo[0] - 1 : lo[-1]] = lo[nb:] + lo[:nb]
        yield tag, new_tree, tuple(nu)


# Every stable size with l <= 7, k <= 3 whose Ks poset has at most 50,000
# strata: up to (3, 3), (5, 2) and (7, 1).
ORDERED_MOVE_SIZES = [
    (l, k)
    for l in range(8)
    for k in range(4)
    if trees.params_stable(l, k)
    and sum(strata.grading_profile("Ks", l, k).values()) <= 50_000
]


# Every TILE_SIZES size, and each ORDERED_MOVE_SIZES size whose tile
# complex builds in under a second: at most 15,000 strata, which leaves
# out (5, 2) and (7, 1) (1.1 s and 1.8 s, Python 3.11 on a 2-vCPU host).
COUNTED_MOVE_SIZES = sorted(
    set(TILE_SIZES)
    | {
        (l, k)
        for l, k in ORDERED_MOVE_SIZES
        if sum(strata.grading_profile("Ks", l, k).values()) <= 15_000
    }
)


def _tile_complex_counts(tc):
    """Oracle for ``strata.tile_counts``: the stratum count and the move
    generators per (kind, parity of nu) of a built tile complex."""
    moves = Counter(
        (tag, signs.perm_parity(nu)) for tag, _, _, nu in tc.identifications
    )
    return len(tc.poset.strata), dict(moves)


def _reference_slot_leaf_keys(tree, path, perm):
    """Oracle: per-slot key of one vertex, the tile-ordering value of a
    leaf slot or the minimum value over the subtree of a child slot."""
    v = tree.vertex_at(path)
    nums = iter(tree.leaf_numbers_under(path))
    keys = []
    for idx, item in enumerate(v[2]):
        if item == LEAF:
            keys.append(perm[next(nums) - 1])
        else:
            sub = tree.leaf_numbers_under(path + (idx,))
            keys.append(min(perm[a - 1] for a in sub))
            for _ in sub:
                next(nums)
    return keys


def _reference_induced_ordering(tree, path, perm):
    """Oracle: rank-normalized ordering of one component's slots."""
    keys = _reference_slot_leaf_keys(tree, path, perm)
    ranked = sorted(range(len(keys)), key=lambda t: keys[t])
    order = [0] * len(keys)
    for rank, t in enumerate(ranked, start=1):
        order[t] = rank
    return tuple(order)


def _reference_grafted_ordering(tree, perm):
    """Oracle: the global ordering composed down the tree from the
    per-component orderings."""

    def rec(path):
        v = tree.vertex_at(path)
        slot_rank = _reference_induced_ordering(tree, path, perm)
        groups = []
        nums = iter(tree.leaf_numbers_under(path))
        for idx, item in enumerate(v[2]):
            if item == LEAF:
                groups.append([next(nums)])
            else:
                sub = rec(path + (idx,))
                groups.append(sub)
                for _ in sub:
                    next(nums)
        ordered = [None] * len(groups)
        for t, rank in enumerate(slot_rank):
            ordered[rank - 1] = groups[t]
        return [a for g in ordered for a in g]

    order = [0] * tree.num_leaves
    for rank, leaf in enumerate(rec(()), start=1):
        order[leaf - 1] = rank
    return tuple(order)


def _reference_corner_shuffle(tree, perm):
    """Oracle: the leaf shuffle comparing the tile ordering with the
    grafted one."""
    l = tree.num_leaves
    grafted = _reference_grafted_ordering(tree, perm)
    inv = [0] * l
    for a in range(1, l + 1):
        inv[grafted[a - 1] - 1] = a
    return tuple(perm[inv[a - 1] - 1] for a in range(1, l + 1))


def _symmetric_corner_cases():
    """Every non-ghost Ks stratum of positive codim with 1 <= l <= 4 and
    k <= 3, under every tile permutation."""
    for l in range(1, 5):
        for k in range(4):
            if not trees.params_stable(l, k):
                continue
            for s in strata.face_poset("Ks", l, k).strata:
                if s.codim and not s.ghost_paths():
                    for perm in permutations(range(1, l + 1)):
                        yield strata.Stratum("Ks", s.tree, perm)


class TestCorners:
    def test_facet_kinds(self):
        poset = strata.face_poset("Q", 2, 0)
        kinds = set()
        for s in poset.strata:
            if s.codim == 1:
                kinds.add(strata.facet_kind(s))
        assert kinds == {"lower", "upper"}

    def test_quilted_facet_decompositions(self):
        codim_1 = [s for s in strata.face_poset("Q", 3, 0).strata if s.codim == 1]
        got = [
            (cp.kind, cp.factors, cp.grafts)
            for cp in map(strata.corner_decomposition, codim_1)
        ]
        assert got == [
            ("lower", [("Q", 2, 0), ("K", 2, 0)], [(0, 2, 1)]),
            ("lower", [("Q", 2, 0), ("K", 2, 0)], [(0, 1, 1)]),
            ("lower", [("Q", 1, 0), ("K", 3, 0)], [(0, 1, 1)]),
            ("upper", [("K", 2, 0), ("Q", 1, 0), ("Q", 2, 0)], [(0, 1, 1), (0, 2, 2)]),
            ("upper", [("K", 2, 0), ("Q", 2, 0), ("Q", 1, 0)], [(0, 1, 1), (0, 2, 2)]),
            (
                "upper",
                [("K", 3, 0), ("Q", 1, 0), ("Q", 1, 0), ("Q", 1, 0)],
                [(0, 1, 1), (0, 2, 2), (0, 3, 3)],
            ),
        ]

    def test_decomposition_factors(self):
        poset = strata.face_poset("K", 4, 0)
        for s in poset.strata:
            if s.codim == 0:
                continue
            cp = strata.corner_decomposition(s)
            assert len(cp.factors) == s.codim + 1

    def test_symmetric_poset_keeps_its_family(self):
        poset = strata.face_poset("Ks", 3, 0)
        assert {s.family for s in poset.strata} == {"Ks"}
        ghost = PlanarTree(
            vertex(0, False, (LEAF, vertex(0, False, (LEAF, LEAF))))
        )
        s = poset.strata[poset.index(strata.Stratum("Ks", ghost))]
        with pytest.raises(GhostCornerError):
            strata.corner_decomposition(s)
        # the K poset holds the same tree, under another family tag
        with pytest.raises(KeyError):
            strata.face_poset("K", 3, 0).index(strata.Stratum("Ks", ghost))

    def test_symmetric_orderings_match_reference(self):
        valid = leafless = 0
        for s in _symmetric_corner_cases():
            verts = s.tree.vertices()
            if any(p and not trees._count_leaves(v) for p, v in verts):
                with pytest.raises(ShapeError, match="has no leaves"):
                    strata.corner_decomposition(s)
                leafless += 1
                continue
            cp = strata.corner_decomposition(s)
            assert cp.orderings == [
                _reference_induced_ordering(s.tree, p, s.perm)
                for p, _ in verts
            ]
            assert cp.shuffle == _reference_corner_shuffle(s.tree, s.perm)
            valid += 1
        assert (valid, leafless) == (2182, 2973)

    def test_leafless_branch_has_no_ordering(self):
        t = PlanarTree(vertex(1, False, (LEAF, vertex(1, False, ()))))
        with pytest.raises(ShapeError) as info:
            strata.corner_decomposition(strata.Stratum("Ks", t, perm=(1,)))
        assert str(info.value) == (
            "branch at (1,) has no leaves, so the minimum rule gives it no "
            "ordering key"
        )

    @pytest.mark.parametrize("alias", ["K*", "Kx", "K.", "Kdot", "Kb"])
    def test_family_aliases_refused(self, alias):
        with pytest.raises(ShapeError):
            strata.face_poset(alias, 3, 0)

    def test_ghost_corner_error(self):
        t = PlanarTree(
            vertex(1, False, ((vertex(0, False, (LEAF, LEAF))), LEAF))
        )
        s = strata.Stratum("Ks", t, perm=(1, 2, 3))
        with pytest.raises(GhostCornerError):
            strata.corner_decomposition(s)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: strata.facet_kind(strata.Stratum("Q", _QUILTED)),
             "facet_kind applies to codim-1 Q strata"),
            (lambda: strata.corner_decomposition(
                strata.Stratum("K", PlanarTree(vertex(0, False, (LEAF,) * 3)))),
             "corner_decomposition needs codim >= 1"),
            # ghost-free, so the missing perm is what is refused
            (lambda: strata.corner_decomposition(strata.Stratum("Ks", _THREE_LEAVES)),
             "symmetric stratum needs a tile permutation"),
            (lambda: strata.export_poset(strata.face_poset("K", 3, 0), "xml"),
             "unknown export format 'xml'"),
        ],
        ids=["facet-kind", "corner-codim-0", "ks-no-perm", "export-format"],
    )
    def test_refusals(self, call, message):
        with pytest.raises(ShapeError) as info:
            call()
        assert str(info.value) == message


class TestTiles:
    def test_counts(self):
        assert strata.tile_complex(2, 1).n_tiles == 2
        assert strata.tile_complex(3, 1).n_tiles == 6

    def test_orientation(self):
        for l in (2, 3):
            assert strata.orientation_consistency(strata.tile_complex(l, 1))

    @pytest.mark.parametrize("l,k", TILE_SIZES)
    def test_generators_match_reference(self, l, k):
        tc = strata.tile_complex(l, k)
        ref = _reference_tile_pairs(l, k)
        assert _expand_generators(tc) == ref
        assert tc.pair_counts() == dict(Counter(ref.values()))
        # oracle: tile parities differ across every type-I pair
        assert strata.orientation_consistency(tc) == all(
            signs.perm_parity(p) != signs.perm_parity(q)
            for key, tag in ref.items()
            if tag == "I"
            for (p, _), (q, _) in [tuple(key)]
        )

    @pytest.mark.parametrize("l,k", ORDERED_MOVE_SIZES)
    def test_generators_match_ordered_reference(self, l, k):
        tc = strata.tile_complex(l, k)
        sidx = {s.tree: n for n, s in enumerate(tc.poset.strata)}
        assert tc.identifications == [
            (tag, s_i, sidx[new_tree], nu)
            for s_i, s in enumerate(tc.poset.strata)
            for tag, new_tree, nu in _reference_transposition_moves(s.tree)
        ]

    @pytest.mark.parametrize(
        "l,k,counts",
        [
            (3, 3, {"I": 9102, "II": 37044, "III": 16212}),
            (4, 1, {"I": 2268, "II": 3168, "III": 540}),
            (4, 0, {"I": 108, "II": 48}),
        ],
    )
    def test_pair_counts_pinned(self, l, k, counts):
        assert strata.tile_complex(l, k).pair_counts() == counts

    def test_type_one_nu_is_adjacent_transposition(self):
        # a type-I move swaps two single leaves, so nu is (i i+1) and odd:
        # orientation_consistency cannot fail on a tile_complex output
        type_one = 0
        for l, k in TILE_SIZES:
            for tag, _, _, nu in strata.tile_complex(l, k).identifications:
                if tag != "I":
                    continue
                i = next(n for n, image in enumerate(nu, 1) if image != n)
                assert nu == tuple(range(1, i)) + (i + 1, i) + tuple(
                    range(i + 2, len(nu) + 1)
                )
                type_one += 1
        assert type_one > 1000

    def test_even_type_one_move_is_inconsistent(self):
        tc = strata.tile_complex(3, 1)
        n = next(
            n for n, g in enumerate(tc.identifications) if g[0] == "I"
        )
        tag, s_i, t_i, _ = tc.identifications[n]
        moves = list(tc.identifications)
        moves[n] = (tag, s_i, t_i, (1, 2, 3))
        bad = strata.TileComplex(3, 1, tc.poset, moves)
        assert strata.orientation_consistency(tc)
        assert not strata.orientation_consistency(bad)

    @pytest.mark.parametrize("l,k", COUNTED_MOVE_SIZES)
    def test_counts_match_tile_complex(self, l, k):
        counts = strata.tile_counts(l, k)
        tc = strata.tile_complex(l, k)
        assert (counts.n_strata, counts.moves) == _tile_complex_counts(tc)
        assert counts.n_tiles == tc.n_tiles
        assert counts.pair_counts() == tc.pair_counts()
        assert counts.orientation_consistent() == (
            strata.orientation_consistency(tc)
        )

    def test_counted_sizes_reach_past_tile_sizes(self):
        assert (3, 3) in COUNTED_MOVE_SIZES and (6, 1) in COUNTED_MOVE_SIZES

    @pytest.mark.parametrize(
        "l,k,n_strata", [(0, 1, 1), (0, 2, 3), (0, 3, 13), (2, 0, 1)]
    )
    def test_no_moves(self, l, k, n_strata):
        # l = 0: every two-slot ghost is leafless, so none moves; (2, 0):
        # the one stratum is a two-slot ghost, but it is the root
        counts = strata.tile_counts(l, k)
        assert (counts.n_strata, counts.moves) == (n_strata, {})
        assert counts.pair_counts() == {}
        assert counts.orientation_consistent()

    def test_counts_every_stratum_up_to_the_caps(self):
        for l in range(trees.MAX_LEAVES + 1):
            for k in range(trees.MAX_MARKS + 1):
                if not trees.params_stable(l, k):
                    continue
                total = sum(strata.grading_profile("Ks", l, k).values())
                assert strata.tile_counts(l, k).n_strata == total

    def test_local_group_internal_ghost(self):
        chain = PlanarTree(
            vertex(1, False, (vertex(0, False, (vertex(1, False, ()),)),))
        )
        model = strata.local_group_model(strata.Stratum("Ks", chain))
        assert model.codim == 2
        assert len(model.generators) == 1
        (path, flips), = model.generators
        assert flips == frozenset({0, 1})
        assert model.order == 2


def _reference_export(poset):
    """The JSON export as the payload dict and json.dumps wrote it, before
    ``export_poset`` had its own writer; the writer must match its bytes."""
    payload = {
        "schema": "clustercx.face_poset/1",
        "family": poset.family,
        "l": poset.l,
        "k": poset.k,
        "strata": [
            {
                "id": i,
                "dim": s.dim,
                "codim": s.codim,
                "tree": trees.to_obj(s.tree),
            }
            for i, s in enumerate(poset.strata)
        ],
        "coverings": [list(c) for c in poset.coverings],
    }
    return json.dumps(payload, sort_keys=True, indent=2)


def _export_sweep():
    """(family, l, k) for l <= 6 and k <= 2 whose poset is stable and has
    at most 3,000 strata, counted without building it."""
    out = []
    for family in ("K", "Q", "Ks"):
        for l in range(7):
            for k in range(3):
                try:
                    n = sum(strata.f_vector(family, l, k))
                except (StabilityError, CapError):
                    continue
                if n <= 3000:
                    out.append((family, l, k))
    return out


class TestOneCheckPerCall:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: strata.face_poset("K", 6, 0),
            lambda: strata.face_poset("Q", 4, 0),
            lambda: strata.face_poset("Ks", 3, 1),
            lambda: strata.collar_cells(5, 0),
        ],
        ids=["face_poset-K", "face_poset-Q", "face_poset-Ks", "collar_cells"],
    )
    def test_entry_point_checks_its_input_once(self, monkeypatch, call):
        # with warm tables a call that lists its strata checks the caps and
        # the stability of its (l, k) once, and sums the COUNT reading once
        call()
        seen = Counter()
        for module, name in (
            (trees, "check_caps"),
            (strata, "dimension"),
            (trees, "params_stable"),
            (trees, "_listed"),
        ):
            real = getattr(module, name)

            def spied(*args, real=real, name=name):
                seen[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, spied)
        call()
        assert seen == Counter(check_caps=1, dimension=1, _listed=1)


class TestCollarAndExport:
    def test_strata_cap(self, monkeypatch):
        # K (4, 0) has 11 strata: a poset of exactly MAX_STRATA is built
        monkeypatch.setattr(trees, "MAX_STRATA", 11)
        assert len(strata.face_poset("K", 4, 0).strata) == 11
        monkeypatch.setattr(trees, "MAX_STRATA", 10)
        with pytest.raises(CapError):
            strata.face_poset("K", 4, 0)
        with pytest.raises(CapError):
            strata.tile_complex(4, 0)

    def test_collar_counts(self):
        cells, gluings = strata.collar_cells(3, 0)
        assert len(cells) == 3
        assert len(gluings) == 2

    def test_export_json_schema(self):
        poset = strata.face_poset("K", 4, 0)
        obj = json.loads(strata.export_poset(poset, "json"))
        assert obj["schema"] == "clustercx.face_poset/1"
        assert len(obj["strata"]) == 11
        dot = strata.export_poset(poset, "dot")
        assert dot.startswith("digraph")

    def test_export_json_matches_json_dumps(self):
        sweep = _export_sweep()
        assert ("K", 2, 0) in sweep and ("Q", 4, 1) in sweep
        empty_coverings = slotless = 0
        for family, l, k in sweep:
            poset = strata.face_poset(family, l, k)
            got = strata.export_poset(poset, "json")
            assert got == _reference_export(poset), (family, l, k)
            empty_coverings += '"coverings": []' in got
            slotless += '"children": []' in got
        # K (2, 0) has no coverings; a marked vertex may have no slots
        assert empty_coverings and slotless


_CLONES = {
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
    "deepcopy": copy.deepcopy,
}


# a 3-leaf K tree: two marked components, the second over two leaves
_THREE_LEAVES = PlanarTree(vertex(1, False, (LEAF, vertex(1, False, (LEAF, LEAF)))))
_QUILTED = PlanarTree(vertex(0, True, (LEAF, LEAF, LEAF)))
_TWO_COLORS = PlanarTree(vertex(0, True, (LEAF, vertex(0, True, (LEAF, LEAF)))))
# no leaf path, so the colored axiom holds vacuously; no Q stratum is leafless
_NO_LEAF = PlanarTree(vertex(1, False, ()))


class TestStratumFit:
    """The Stratum constructor refuses a tree that is no stratum of its
    family and a perm that is no permutation of the leaves; the strata the
    posets build skip that check."""

    @pytest.mark.parametrize(
        "family, tree",
        [
            ("K", _QUILTED),
            ("Ks", _QUILTED),
            ("Q", _THREE_LEAVES),
            ("Q", _TWO_COLORS),
            ("Q", _NO_LEAF),
        ],
    )
    def test_misfit_refused(self, family, tree):
        with pytest.raises(ShapeError):
            strata.Stratum(family, tree)

    @pytest.mark.parametrize(
        "family, tree", [("K", _THREE_LEAVES), ("Ks", _THREE_LEAVES), ("Q", _QUILTED)]
    )
    def test_fit_accepted(self, family, tree):
        assert strata.Stratum(family, tree).tree == tree

    @pytest.mark.parametrize(
        "perm", [(1,), (5, 9, 9), (1, 2, 2), (0, 1, 2), (1, 2, 3, 4)]
    )
    def test_bad_perm_refused(self, perm):
        with pytest.raises(ShapeError):
            strata.Stratum("Ks", _THREE_LEAVES, perm)

    def test_permutation_accepted(self):
        for perm in permutations((1, 2, 3)):
            assert strata.Stratum("Ks", _THREE_LEAVES, list(perm)).perm == perm

    @pytest.mark.parametrize("family, l, k", [("Q", 3, 1), ("K", 5, 0)])
    def test_posets_skip_the_check(self, monkeypatch, family, l, k):
        """The constructor, which holds the check, runs for no stratum or
        face of a poset, nor for a face of ``boundary_faces``, which keeps
        its stratum's perm."""
        calls = []
        init = strata.Stratum.__init__
        tile = strata.Stratum("Ks", _THREE_LEAVES, (2, 3, 1))

        def counted(self, fam, tree, perm=None):
            calls.append(fam)
            init(self, fam, tree, perm)

        monkeypatch.setattr(strata.Stratum, "__init__", counted)
        rows = strata.face_poset(family, l, k).rows
        faces = strata.boundary_faces(tile)
        assert any(rows) and len(faces) == 12 and not calls
        assert {(f.family, f.perm) for f, _ in faces} == {("Ks", (2, 3, 1))}
        assert strata.Stratum("K", _THREE_LEAVES).tree == _THREE_LEAVES
        assert calls == ["K"]


class TestCopies:
    """Strata, cluster types and posets hold trees, which pickle and copy
    as their root; a copy's trees start with an empty edge memo."""

    @pytest.mark.parametrize("how", sorted(_CLONES))
    def test_stratum_and_cluster_type(self, how):
        clone = _CLONES[how]
        s = strata.Stratum("Ks", trees.enumerate_types(3, 1, 2)[0], (2, 1, 3))
        states = dict(zip(s.tree.edges(), ("node", "broken")))
        ct = strata.ClusterType(s, states, n_complex_nodes=1)
        c = clone(s)
        assert c == s and hash(c) == hash(s) and c.codim == s.codim == 2
        cc = clone(ct)
        assert cc.stratum == s and cc.edge_states == states
        assert (cc.n_breakings, cc.n_real_nodes, cc.n_complex_nodes) == (1, 1, 1)
        assert cc.stratum.tree._edges is None

    @pytest.mark.parametrize("how", sorted(_CLONES))
    def test_face_poset(self, how):
        poset = strata.face_poset("Q", 3, 1)
        rows = poset.rows
        c = _CLONES[how](poset)
        assert (c.family, c.l, c.k) == ("Q", 3, 1)
        assert c.strata == poset.strata and c.rows == rows
        assert c.coverings == poset.coverings
        assert [c.index(s) for s in poset.strata] == list(range(len(rows)))
