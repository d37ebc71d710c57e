"""Face posets and corner structure of the disk moduli families.

Three families share one combinatorial backbone:

* ``K``  -- stable disks with ordered boundary markings; strata are planar
  trees, codim = number of interior edges.
* ``Q``  -- quilted disks; strata are colored trees, codim = interior edges
  minus (colored vertices - 1), the colored count being forced by the
  one-color-per-leaf-path axiom.
* ``Ks`` -- the symmetric family: one tile per permutation of the boundary
  markings, glued along transposition strata over ghost components.

A stratum's closed cell is the ordered product of one moduli factor per
vertex, taken in depth-first preorder; all orientation bookkeeping below
is relative to that product orientation.
"""

import json
import math
from collections import Counter
from itertools import chain, combinations, combinations_with_replacement
from operator import attrgetter

from . import trees
from .errors import GhostCornerError, ShapeError, StabilityError
from .gcpause import paused
from .signs import sign_concat, sign_lower_quilt, sign_upper_quilt, perm_parity
from .trees import LEAF, PlanarTree, corolla_dim, vertex, vertex_dim

FAMILIES = ("K", "Q", "Ks")


def _norm_family(family):
    f = str(family)
    if f in FAMILIES:
        return f
    raise ShapeError("unknown family %r" % (family,))


def dimension(family, l, k):
    """Dimension of the smooth locus: that of the corolla, quilted for Q."""
    family = _norm_family(family)
    if family == "Q" and l < 1:
        raise StabilityError("quilted family needs l >= 1")
    d = trees.corolla_dim(l, k, family == "Q")
    if d < 0:
        raise StabilityError("no stable disk with l=%d, k=%d" % (l, k))
    return d


def _codim(edges, colored):
    """Codim of a stratum tree: edges less the colored vertices past the first."""
    return edges - colored + 1 if colored > 1 else edges


def _subtree_factor_dim(v):
    d = vertex_dim(v)
    for s in v[2]:
        if s != LEAF:
            d += _subtree_factor_dim(s)
    return d


class Stratum:
    """One combinatorial stratum: a family tag, a tree, and for the
    symmetric family a tile permutation.  ShapeError on a tree that does
    not fit the family (a colored K or Ks tree, a Q tree off the colored
    axiom or with no leaf) or a perm that is no permutation of
    1..num_leaves."""

    __slots__ = ("family", "tree", "perm")

    def __init__(self, family, tree, perm=None):
        family = _norm_family(family)
        if family == "Q":
            # a leafless tree has no leaf path, so it meets the axiom vacuously
            if not tree.num_leaves:
                raise ShapeError("a Q tree needs at least one leaf")
            if not tree.check_colored_axiom():
                raise ShapeError(
                    "a Q tree needs exactly one colored vertex per leaf path"
                )
        if family != "Q" and tree.is_colored:
            raise ShapeError("a %s stratum tree must be uncolored" % family)
        if perm is not None:
            perm, n = tuple(perm), tree.num_leaves
            if len(perm) != n or set(perm) != set(range(1, n + 1)):
                raise ShapeError("perm %r is not a permutation of 1..%d" % (perm, n))
        self.family = family
        self.tree = tree
        self.perm = perm

    def __eq__(self, other):
        return (
            isinstance(other, Stratum)
            and self.family == other.family
            and self.tree == other.tree
            and self.perm == other.perm
        )

    def __hash__(self):
        return hash((self.family, self.tree, self.perm))

    def __repr__(self):
        extra = ", perm=%r" % (self.perm,) if self.perm else ""
        return "Stratum(%r, %r%s)" % (self.family, self.tree, extra)

    @property
    def codim(self):
        if self.family == "Q":
            return _codim(self.tree.n_edges, self.tree.n_colored)
        return self.tree.n_edges

    @property
    def dim(self):
        return _subtree_factor_dim(self.tree.root)

    def ghost_paths(self):
        """Components without interior marks (identification loci in Ks)."""
        return [p for p, v in self.tree.vertices() if v[0] == 0]


class FacePoset:
    """All strata of one family at fixed (l, k), with their signed incidence.

    ``rows[a]`` maps the index b of every face that ``boundary_faces``
    generates for stratum a to the sum of its incidence signs.  A sum of 0
    is kept: at k >= 2 a face can be reached twice with opposite signs.
    ``rows`` is built on first use from the face roots of ``_faces``, one
    call per stratum and one template memo for the build, and
    ``coverings`` and ``boundary_matrix`` read it.

    ``coverings`` lists, sorted, the pairs (a, b) in the support of
    ``rows``: b lies in the closed cell of a with codim(b) = codim(a) + 1.
    The strata share one family tag and no permutation, so their root
    vertices alone key them: the root index behind ``rows`` and ``index``
    is built on first use.
    """

    def __init__(self, family, l, k, strata):
        self.family = family
        self.l = l
        self.k = k
        self.strata = strata
        self._rows = None
        self._index = None

    @property
    def rows(self):
        if self._rows is None:
            with paused():
                index = self._root_index()
                templates = {}
                rows = []
                for s in self.strata:
                    row = {}
                    for f, sign in _faces(s.tree.root, templates):
                        b = index[f]
                        row[b] = row.get(b, 0) + sign
                    rows.append(row)
            self._rows = rows
        return self._rows

    @property
    def coverings(self):
        rows = enumerate(self.rows)
        return [(a, b) for a, row in rows for b in sorted(row)]

    def _root_index(self):
        if self._index is None:
            self._index = {s.tree.root: i for i, s in enumerate(self.strata)}
        return self._index

    def index(self, stratum):
        n = self._root_index()[stratum.tree.root]
        s = self.strata[n]
        if s.family != stratum.family or s.perm != stratum.perm:
            raise KeyError(stratum)
        return n


def _strata(family, l, k):
    """The strata at (l, k) in id order: by codim, then by edge count, then
    in the canonical order of the trees."""
    top = dimension(family, l, k)
    if family != "Q":
        lists = (trees.enumerate_types(l, k, codim) for codim in range(top + 1))
        return _wrapped(family, chain.from_iterable(lists))
    # edges = codim + (colored - 1), and a tree has at most l colored vertices
    lists = (trees.enumerate_colored_types(l, k, e) for e in range(top + l))
    out = _wrapped(family, chain.from_iterable(lists))
    return sorted(out, key=attrgetter("codim"))


def _wrapped(family, ts, perm=None):
    """A stratum of ``family``, a name in FAMILIES, with ``perm`` for each
    tree of ``ts``.  This is the one trusted path, for trees that fit by
    construction (the enumerated strata of a poset and the faces of
    ``boundary_faces``): the fields are set directly, with no check."""
    new = Stratum.__new__
    out = []
    for t in ts:
        s = new(Stratum)
        s.family = family
        s.tree = t
        s.perm = perm
        out.append(s)
    return out


@paused()
def face_poset(family, l, k):
    """Poset of all strata at (l, k); signed incidence computed lazily.

    A poset of more than trees.MAX_STRATA strata raises CapError before
    anything is enumerated.
    """
    family = _norm_family(family)
    trees.check_caps(l, k)
    return FacePoset(family, l, k, _strata(family, l, k))


def grading_profile(family, l, k):
    """Stratum counts by (codim, dimension-sum-over-vertices).

    Read from the COUNT reading of the tree grammar, so it runs on families
    with millions of strata.  The dimension sum is tallied vertex by
    vertex, as C = dims + edges per group of slot sequences, and comes
    out as C - edges per stratum, so comparing it against
    dimension(family, l, k) checks the grading.  Returns a new dict on
    every call.
    """
    family = _norm_family(family)
    trees.check_caps(l, k)
    # dimension() raises StabilityError on parameters with no stratum
    dimension(family, l, k)
    table = trees.colored if family == "Q" else trees.plain
    out = {}
    for (e, ncol, d), n in table(trees.COUNT, l, k)[1].items():
        key = (_codim(e, ncol), d)
        out[key] = out.get(key, 0) + n
    return out


def f_vector(family, l, k):
    """Cell counts in ascending dimension, summed from the grading profile."""
    counts = {}
    for (_, d), n in grading_profile(family, l, k).items():
        counts[d] = counts.get(d, 0) + n
    return tuple(counts[d] for d in sorted(counts))


def facet_kind(stratum):
    """Classify a codim-1 quilted stratum: 'lower' if an unquilted component
    bubbled off a quilted one, 'upper' if the seam split into several."""
    if stratum.family != "Q" or stratum.codim != 1:
        raise ShapeError("facet_kind applies to codim-1 Q strata")
    return "lower" if stratum.tree.root[1] else "upper"


# -- boundary faces with orientation signs -------------------------------


def _face_walk(v, path, out):
    """Append (path, vertex, pre, dim) for each vertex of the subtree at
    ``v`` to ``out`` in preorder, where pre[j] is the total dimension of
    the subtree factors in the vertex's slots[:j] and dim is the vertex's
    vertex_dim; return the subtree's dimension."""
    pre = [0]
    dim = vertex_dim(v)
    out.append((path, v, pre, dim))
    for idx, x in enumerate(v[2]):
        d = _face_walk(x, path + (idx,), out) if type(x) is tuple else 0
        pre.append(pre[-1] + d)
    return pre[-1] + dim


def _shape(v, pre):
    """The shape of vertex v, all its splits depend on: its marks, color
    and slot count, for a colored v which slots are leafless children, and
    the parity of each pre[j] for j < len(slots)."""
    i, col, slots = v
    s = len(slots)
    leafless = None
    if col:
        leafless = tuple(
            type(x) is tuple and not trees._count_leaves(x) for x in slots
        )
    return i, col, s, leafless, tuple(p & 1 for p in pre[:s])


def _split_template(shape):
    """The splits of every vertex of one ``_shape``, as (bubbles, seams).

    A bubble (a, b, ib, rest, sign) moves the window slots[a:b] into an
    uncolored child with ib marks, and leaves ``rest`` marks on the
    vertex.  A seam (hub, blocks, sign) puts ``hub`` marks on a new
    uncolored hub over blocks (x, y, m): slots[x:y] becomes a colored
    child with m marks, or with m None the one leafless slot x stays on
    the hub.  See ``_splits_of_vertex`` for the signs.
    """
    i, col, s, leafless, parity = shape
    d = corolla_dim(s, i, col)
    # bubble: a window of w slots becomes an uncolored child with ib marks;
    # v keeps its color (a plain split, or the lower facet shape).  The
    # child's dimension w - 2 + 2*ib has the parity of w, and is >= 0 iff
    # ib >= lo; the rest's dimension d - w + 1 - 2*ib is >= 0 iff ib <= hi.
    facet_sign = sign_lower_quilt if col else sign_concat
    bubbles = []
    for w in range(s + 1):
        lo = 1 if w < 2 else 0
        hi = min(i, (d - w + 1) // 2)
        if lo > hi:
            continue
        for a in range(s - w + 1):
            sign = facet_sign(s - w + 1, a + 1, w)
            if w & 1 and parity[a]:
                sign = -sign
            for ib in range(lo, hi + 1):
                bubbles.append((a, a + w, ib, i - ib, sign))
    seams = []
    if not col:
        return bubbles, seams
    # seam split (upper facet shape): the slots cut into consecutive blocks
    # under a new uncolored hub.  A colored vertex needs a leaf above it, so
    # a cut with a block of two or more leafless children is skipped, and a
    # leafless child alone in its block stays on the hub.  Every other block
    # of w slots becomes a colored child with m marks, stable as w >= 1, of
    # dimension w - 1 + 2*m: even for w = 1, so the sign may sum over the
    # kept blocks too.  At least one block is colored.  The marks are dealt
    # out at cut points ``at``; the hub takes the first share and is kept
    # iff its dimension is >= 0: hub0 >= -1 without marks, 2 more per mark.
    for nb in range(1, s + 1):
        hub0 = corolla_dim(nb, 0)
        for cuts in combinations(range(1, s), nb - 1):
            bounds = (0,) + cuts + (s,)
            spans = list(zip(bounds, bounds[1:]))
            kept = [all(leafless[x:y]) for x, y in spans]
            if any(keep and y - x > 1 for (x, y), keep in zip(spans, kept)):
                continue
            upper = sign_upper_quilt([y - x for x, y in spans])
            if sum((y - x + 1) * parity[x] for x, y in spans) & 1:
                upper = -upper
            for at in combinations_with_replacement(range(i + 1), kept.count(False)):
                marks = [y - x for x, y in zip((0,) + at, at + (i,))]
                if hub0 < 0 and not marks[0]:
                    continue
                child_marks = iter(marks[1:])
                blocks = tuple(
                    (x, y, None if keep else next(child_marks))
                    for (x, y), keep in zip(spans, kept)
                )
                seams.append((marks[0], blocks, upper))
    return bubbles, seams


def _splits_of_vertex(v, pre, templates):
    """All stable one-step refinements of a single vertex.

    Yields (new_vertex, sign) where new_vertex replaces v and sign is the
    facet sign of the split times the sign of moving each new child factor
    past the subtree factors of the slots before it, into preorder.  pre[j]
    is the total dimension of the subtree factors in slots[:j], as
    ``_face_walk`` records it.

    The splits are read off the template of v's ``_shape``, taken from the
    memo ``templates`` (a dict) or built into it.
    """
    shape = _shape(v, pre)
    template = templates.get(shape)
    if template is None:
        template = templates[shape] = _split_template(shape)
    bubbles, seams = template
    _, col, slots = v
    for a, b, ib, rest, sign in bubbles:
        yield (rest, col, slots[:a] + ((ib, False, slots[a:b]),) + slots[b:]), sign
    for hub, blocks, sign in seams:
        yield (
            hub,
            False,
            tuple(slots[x] if m is None else (m, True, slots[x:y]) for x, y, m in blocks),
        ), sign


def _faces(root, templates):
    """(face root, sign) for each codim+1 face of the tree at ``root``.

    The sign is the vertex-local sign of the split (see
    ``_splits_of_vertex``, which reads its templates from the memo
    ``templates``) times the product-orientation prefix parity of the
    factors before the split vertex.  Every split is a face: the generator
    keeps stability and the colored axiom.

    Only vertices of positive dimension are split.  A split replaces v by
    new vertices (a bubble: the child and the rest; a seam: the hub and
    its colored blocks) whose dimensions add up to vertex_dim(v) - 1, as a
    facet of a vertex cell is a product of smaller cells, each of
    dimension >= 0: a vertex of dimension 0 has no split, and adds 0 to
    the prefix, so no sign changes.
    """
    walk = []
    _face_walk(root, (), walk)
    replaced = trees._replaced
    prefix = 0
    for path, v, pre, d in walk:
        if d > 0:
            for va, sign in _splits_of_vertex(v, pre, templates):
                yield replaced(root, path, 0, va), -sign if prefix & 1 else sign
        prefix += d


def boundary_faces(stratum):
    """Codim+1 faces of a stratum's closed cell with incidence signs.

    Returns a list of (Stratum, sign), the faces and signs of ``_faces``
    in its order; each face keeps the stratum's family and perm.
    """
    faces = list(_faces(stratum.tree.root, {}))
    # a split keeps stability and the colored axiom, so the faces fit
    strata = _wrapped(stratum.family, [PlanarTree(r) for r, _ in faces], stratum.perm)
    return [(face, sign) for face, (_, sign) in zip(strata, faces)]


def boundary_matrix(poset):
    """Signed incidence coefficients {(coarse_idx, fine_idx): int}: the
    nonzero entries of ``poset.rows``."""
    rows = enumerate(poset.rows)
    return {(a, b): c for a, row in rows for b, c in row.items() if c}


def boundary_squares_to_zero(family, l, k):
    """Exact check that the signed cellular boundary composes to zero."""
    rows = face_poset(family, l, k).rows
    for row in rows:
        acc = {}
        for b, c1 in row.items():
            for c, c2 in rows[b].items():
                acc[c] = acc.get(c, 0) + c1 * c2
        if any(acc.values()):
            return False
    return True


# -- corner products ------------------------------------------------------


class CornerProduct:
    """Factorization of a stratum into per-component moduli factors.

    ``factors`` lists (family, l, k) per vertex in preorder; ``grafts``
    lists (parent_factor, slot_j, child_factor) with 1-based slots.  Quilted
    codim-1 strata also carry ``kind`` ('lower'/'upper'); symmetric strata
    carry the induced tile orderings and the leaf shuffle.
    """

    def __init__(self, factors, grafts, kind=None, orderings=None, shuffle=None):
        self.factors = factors
        self.grafts = grafts
        self.kind = kind
        self.orderings = orderings
        self.shuffle = shuffle

    def __repr__(self):
        return "CornerProduct(factors=%r, grafts=%r, kind=%r)" % (
            self.factors,
            self.grafts,
            self.kind,
        )


def corner_decomposition(stratum):
    """Product decomposition of a positive-codimension stratum."""
    if stratum.codim < 1:
        raise ShapeError("corner_decomposition needs codim >= 1")
    tree = stratum.tree
    verts = tree.vertices()
    pmap = {path: idx for idx, (path, _) in enumerate(verts)}
    factors = []
    for _, v in verts:
        i, col, slots = v
        fam = "Q" if col else ("Ks" if stratum.family == "Ks" else "K")
        factors.append((fam, len(slots), i))
    grafts = []
    for path, v in verts:
        for idx, item in enumerate(v[2]):
            if isinstance(item, tuple):
                grafts.append((pmap[path], idx + 1, pmap[path + (idx,)]))
    kind = None
    if stratum.family == "Q" and stratum.codim == 1:
        kind = facet_kind(stratum)
    if stratum.family != "Ks":
        return CornerProduct(factors, grafts, kind=kind)
    # symmetric family: no product structure over ghost components
    ghosts = stratum.ghost_paths()
    if ghosts:
        raise GhostCornerError(
            "stratum has ghost components at %r" % (ghosts,)
        )
    if stratum.perm is None:
        raise ShapeError("symmetric stratum needs a tile permutation")
    orderings = []
    grafted = _corner_walk(tree.root, (), stratum.perm, orderings, 0)[1]
    # the tile values of the leaves in grafted order
    shuffle = tuple(stratum.perm[a - 1] for a in grafted)
    return CornerProduct(
        factors, grafts, orderings=orderings, shuffle=shuffle
    )


def _corner_walk(v, path, perm, orderings, leaves):
    """(key, grafted leaf numbers) of the subtree v at path, whose leaves
    are numbered from leaves + 1, from one post-order walk; the induced
    slot ordering of each of its vertices is appended to ``orderings`` in
    preorder.

    A leaf slot's key is its tile value perm[a - 1]; a child slot's key is
    the least key in its subtree (the minimum rule).  Each vertex ranks its
    slots by key, and grafting lists the slots' leaf numbers in rank order.
    A leafless branch has no key, so it raises ShapeError.
    """
    at = len(orderings)
    orderings.append(None)
    keys, groups = [], []
    for idx, item in enumerate(v[2]):
        if item == LEAF:
            leaves += 1
            key, group = perm[leaves - 1], [leaves]
        else:
            key, group = _corner_walk(item, path + (idx,), perm, orderings, leaves)
            if key is None:
                raise ShapeError(
                    "branch at %r has no leaves, so the minimum rule "
                    "gives it no ordering key" % (path + (idx,),)
                )
            leaves += len(group)
        keys.append(key)
        groups.append(group)
    ranked = sorted(range(len(keys)), key=keys.__getitem__)
    order = [0] * len(keys)
    grafted = []
    for rank, t in enumerate(ranked, start=1):
        order[t] = rank
        grafted += groups[t]
    orderings[at] = tuple(order)
    return (keys[ranked[0]] if keys else None), grafted


# -- symmetric tile complex ----------------------------------------------


class TileComplex:
    """The symmetric tile complex as an S_l action.

    Tile (p, s) is a permutation p of the markings on stratum s, and S_l
    permutes the markings.  Every identification is the orbit of one move,
    so ``identifications`` holds move generators, not pairs: one
    (tag, s_i, t_i, nu) per directed transposition move, where nu is the
    tuple of 1-based leaf images.  The generator glues tile (p, s_i) to
    (q, t_i) with q(nu(a)) = p(a), for every p.
    """

    def __init__(self, l, k, poset, identifications):
        self.l = l
        self.k = k
        self.poset = poset
        self.identifications = identifications

    @property
    def n_tiles(self):
        return math.factorial(self.l)

    def pair_counts(self):
        n = Counter(tag for tag, _, _, _ in self.identifications)
        return _pair_counts(self.l, n)


def _pair_counts(l, moves):
    """Identified tile pairs per move kind, in closed form, from the move
    count per kind.

    A move with t != s and its reverse share one orbit of l! pairs.  A
    move with t == s swaps identical subtrees, so nu is an involution and
    its orbit has l!/2 pairs.  Either way one generator stands for l!/2
    pairs.  Kinds with no move are left out.
    """
    return {tag: math.factorial(l) * c // 2 for tag, c in moves.items()}


def _ghost_walk(v, path, lo, out):
    """Leaf count of the subtree v, whose first leaf has number lo.

    Appends to out, in preorder, one (path, vertex, lo, n, nb) per non-root
    two-slot ghost: its first leaf number lo, its leaf count n and the leaf
    count nb of its second slot, all read off this one walk.
    """
    i, _, slots = v
    at = len(out) if path and not i and len(slots) == 2 else None
    if at is not None:
        out.append(None)
    n = c = 0
    for idx, s in enumerate(slots):
        c = _ghost_walk(s, path + (idx,), lo + n, out) if s != LEAF else 1
        n += c
    if at is not None:
        out[at] = (path, v, lo, n, c)
    return n


def _transposition_moves(tree):
    """Transposition strata: two-slot ghost components and the move data.

    Yields (type_tag, new_tree, nu) where nu, a tuple of 1-based images,
    sends old leaf numbers to their planar position after swapping the
    ghost's two slots.  Ghosts without leaves move nothing and are skipped.
    """
    ghosts = []
    total = _ghost_walk(tree.root, (), 1, ghosts)
    for path, (_, col, (a, b)), lo, n, nb in ghosts:
        if not n:
            continue
        if a == LEAF and b == LEAF:
            tag = "I"
        elif a == LEAF or b == LEAF:
            tag = "II"
        else:
            tag = "III"
        new_tree = trees.replace_vertex(tree, path, vertex(0, col, (b, a)))
        # the first slot's leaves move up by nb, the second's down to lo
        nu = (
            tuple(range(1, lo))
            + tuple(range(lo + nb, lo + n))
            + tuple(range(lo, lo + nb))
            + tuple(range(lo + n, total + 1))
        )
        yield tag, new_tree, nu


def tile_complex(l, k):
    """The symmetric tile complex: the move generators of every stratum."""
    poset = face_poset("Ks", l, k)
    root_index = poset._root_index()
    moves = [
        (tag, s_i, root_index[new_tree.root], nu)
        for s_i, s in enumerate(poset.strata)
        for tag, new_tree, nu in _transposition_moves(s.tree)
    ]
    return TileComplex(l, k, poset, moves)


def orientation_consistency(tc):
    """True iff the per-tile signs (-1)^sg(p) make every type-I
    identification orientation-reversing across the glued facet.

    parity(q) = parity(p) + parity(nu), so this holds iff nu is odd for
    every type-I generator.  A type-I move swaps two single leaves, so its
    nu is the adjacent transposition (lo lo+1), odd by construction: the
    check cannot fail on a complex that tile_complex builds, only on a
    move list changed by hand.  Type II and III moves are not checked.

    This is the oracle.  The ``tiles`` command reads the same bit from the
    move counts of ``tile_counts``: it holds iff no type-I move has even
    parity (``TileCounts.orientation_consistent``).
    """
    return all(
        perm_parity(nu) == 1
        for tag, _, _, nu in tc.identifications
        if tag == "I"
    )


class TileCounts:
    """The counts of the symmetric tile complex with l leaves, without its
    strata: ``n_strata`` Ks strata and ``moves`` {(kind, parity): count},
    the move generators per kind and parity of nu, zero counts left out."""

    def __init__(self, l, n_strata, moves):
        self.l = l
        self.n_strata = n_strata
        self.moves = moves

    @property
    def n_tiles(self):
        return math.factorial(self.l)

    def pair_counts(self):
        n = Counter()
        for (tag, _), c in self.moves.items():
            n[tag] += c
        return _pair_counts(self.l, n)

    def orientation_consistent(self):
        """No type-I move has an even nu (see orientation_consistency)."""
        return not self.moves.get(("I", 0))


def tile_counts(l, k):
    """The TileCounts at (l, k), read from the MOVES reading of the tree
    grammar: no tree is listed, so it answers at the caps."""
    trees.check_caps(l, k)
    dimension("Ks", l, k)
    total = [sum(c) for c in zip(*trees.plain(trees.MOVES, l, k)[1].values())]
    moves = {key: c for key, c in zip(trees.MOVES.KEYS, total[1:]) if c}
    return TileCounts(l, total[0], moves)


class LocalGroupModel:
    """Product of Z/2 factors acting on the normal coordinates of a
    symmetric stratum: one generator per ghost component, flipping the
    coordinates of its incident interior edges."""

    def __init__(self, codim, generators):
        self.codim = codim
        self.generators = generators

    @property
    def order(self):
        return 2 ** len(self.generators)


def local_group_model(stratum):
    tree = stratum.tree
    edges = tree.edges()
    eidx = {e: n for n, e in enumerate(edges)}
    gens = []
    for path, v in tree.vertices():
        if v[0] != 0:
            continue
        flips = set()
        if path:
            flips.add(eidx[path])
        for idx, item in enumerate(v[2]):
            if isinstance(item, tuple):
                flips.add(eidx[path + (idx,)])
        gens.append((path, frozenset(flips)))
    return LocalGroupModel(len(edges), gens)


# -- collars and cluster types --------------------------------------------


class ClusterType:
    """A stratum plus a state per interior edge: 'node', 'line' (with a
    label in (0,1)), or 'broken'.  Complex (interior) nodes are tracked as
    a count."""

    STATES = frozenset(("node", "line", "broken"))

    def __init__(self, stratum, edge_states, n_complex_nodes=0):
        if edge_states.keys() != set(stratum.tree.edges()):
            raise ShapeError("edge states must cover the interior edges")
        states = list(edge_states.values())
        if not self.STATES.issuperset(states):
            unknown = set(states) - self.STATES
            raise ShapeError(
                "unknown edge state %s: a state is 'node', 'line' or 'broken'"
                % ", ".join(sorted(map(repr, unknown)))
            )
        self.stratum = stratum
        self.edge_states = dict(edge_states)
        self.n_complex_nodes = n_complex_nodes
        self.n_breakings = states.count("broken")
        self.n_real_nodes = states.count("node")


def collar_cells(l, k):
    """The collar cells of K at (l, k) and their gluings.

    A cell is the closure of one stratum crossed with [0,1] labels on its
    interior edges, so the cells are returned as the poset's strata.  They
    glue along the coverings, where the finer cell's labeling extends the
    coarser one by 1-labels.  Returns (strata, coverings).
    """
    trees.check_caps(l, k)
    if dimension("K", l, k) < 1:
        raise StabilityError("collar needs positive dimension")
    poset = face_poset("K", l, k)
    return poset.strata, poset.coverings


# -- export ----------------------------------------------------------------


def export_poset(poset, fmt="json"):
    """The poset as text: JSON or Graphviz DOT.

    The JSON is written by a writer for this one schema, and its bytes are
    those of ``json.dumps(payload, sort_keys=True, indent=2)``, which falls
    back to the pure-Python encoder once an indent is given.  The writer
    relies on the sorted key order: ``coverings``, ``family``, ``k``,
    ``l``, ``schema``, ``strata`` at the top; ``codim``, ``dim``, ``id``,
    ``tree`` per stratum; and ``b``, ``children``, ``col``, ``i`` per tree
    vertex, the fields ``trees.to_obj`` writes.
    """
    if fmt == "json":
        coverings = ["[\n      %d,\n      %d\n    ]" % c for c in poset.coverings]
        strata = [
            '{\n      "codim": %d,\n      "dim": %d,\n      "id": %d,\n'
            '      "tree": %s\n    }'
            % (s.codim, s.dim, i, _vertex_json(s.tree.root, "      "))
            for i, s in enumerate(poset.strata)
        ]
        return (
            '{\n  "coverings": %s,\n  "family": %s,\n  "k": %d,\n  "l": %d,\n'
            '  "schema": "clustercx.face_poset/1",\n  "strata": %s\n}'
            % (
                _json_list(coverings, "  "),
                json.dumps(poset.family),
                poset.k,
                poset.l,
                _json_list(strata, "  "),
            )
        )
    if fmt == "dot":
        lines = ["digraph faces {"]
        for i, s in enumerate(poset.strata):
            lines.append(
                '  s%d [label="dim %d / codim %d"];' % (i, s.dim, s.codim)
            )
        for a, b in poset.coverings:
            lines.append("  s%d -> s%d;" % (a, b))
        lines.append("}")
        return "\n".join(lines)
    raise ShapeError("unknown export format %r" % (fmt,))


_LEAF_JSON = json.dumps(LEAF)


def _json_list(items, pad):
    """A JSON list of the written ``items`` whose closing bracket sits at
    indent ``pad``, as json.dumps with indent=2 writes it."""
    if not items:
        return "[]"
    inner = pad + "  "
    return "[\n%s%s\n%s]" % (inner, (",\n" + inner).join(items), pad)


def _vertex_json(v, pad):
    """``trees.to_obj`` of the subtree at vertex v as JSON text, with the
    vertex's closing brace at indent ``pad``."""
    i, col, slots = v
    inner = pad + "    "
    children = [_LEAF_JSON if s == LEAF else _vertex_json(s, inner) for s in slots]
    return '{\n%s  "b": %d,\n%s  "children": %s,\n%s  "col": %s,\n%s  "i": %d\n%s}' % (
        pad,
        slots.count(LEAF),
        pad,
        _json_list(children, pad + "  "),
        pad,
        "true" if col else "false",
        pad,
        i,
        pad,
    )
