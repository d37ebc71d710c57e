"""Rooted planar trees encoding boundary-degeneration strata of marked disks.

A tree vertex stands for one smooth disk component.  Its ordered ``slots``
record the boundary special points other than the root-ward one, in planar
(counterclockwise) order: the string ``"x"`` is a boundary marked point, a
nested vertex is an interior edge to a child component.  Each vertex also
carries a count ``i`` of interior marked points and a ``col`` flag marking
quilted (seamed) components.

Vertices are plain tuples ``(i, col, slots)`` so structural equality is
tree isomorphism; :class:`PlanarTree` wraps the root vertex.  Interior
edges are addressed by the path of slot indices from the root.
"""

from functools import lru_cache
from itertools import combinations

from .errors import (
    CapError,
    EdgeError,
    OrderError,
    RangeError,
    ShapeError,
    StabilityError,
)
from .fields import field, typed

LEAF = "x"

MAX_LEAVES = 10
MAX_MARKS = 4
# Most trees the LIST reading builds for one (l, k), all edge counts
# together.  A stratum with its coverings takes about 1.2 KB, so the cap
# keeps a face poset under about 600 MB.
MAX_STRATA = 500_000


def vertex(i, col, slots):
    return (int(i), bool(col), tuple(slots))


def vertex_dim(v):
    """Moduli dimension of one component: slots - 2 + 2i, plus 1 if quilted;
    the component is stable iff it is >= 0."""
    i, col, slots = v
    d = len(slots) - 2 + 2 * i
    return d + 1 if col else d


def corolla_dim(l, k, col=False):
    """``vertex_dim`` of a vertex with l slots and k marks, quilted when
    ``col``: the dimension of the corolla with l leaves and k marks."""
    return l - 2 + 2 * k + col


class PlanarTree:
    """Immutable rooted planar (optionally colored) tree.

    ``_edges`` memoizes the edge paths: None until the first ``edges()``
    call walks the tree, then their tuple.  It lives and dies with the
    tree and takes no part in equality, hashing or pickling."""

    __slots__ = ("root", "_edges")

    def __init__(self, root):
        _set_root(self, root)
        _set_edges(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("PlanarTree is immutable")

    def __reduce__(self):
        # the default restore would set the slots through __setattr__
        return (PlanarTree, (self.root,))

    def __eq__(self, other):
        return isinstance(other, PlanarTree) and self.root == other.root

    def __hash__(self):
        return hash(self.root)

    def __repr__(self):
        return "PlanarTree(%r)" % (self.root,)

    # -- basic counts ---------------------------------------------------

    @property
    def num_leaves(self):
        return _count_leaves(self.root)

    @property
    def num_marks(self):
        return _tally(self.root, 0)

    @property
    def n_edges(self):
        edges = self._edges
        if edges is None:
            return _count_vertices(self.root) - 1
        return len(edges)

    @property
    def n_colored(self):
        return _tally(self.root, 1)

    @property
    def is_colored(self):
        return self.n_colored > 0

    def edges(self):
        """Interior edges as root-paths of slot indices, depth-first order:
        each non-root vertex of the preorder walk names the edge below it.
        The first call walks the tree; every call returns a fresh list."""
        edges = self._edges
        if edges is None:
            out = []
            _edge_walk(self.root, (), out)
            _set_edges(self, tuple(out))
            return out
        return list(edges)

    def vertices(self):
        """(path, vertex) pairs in depth-first preorder; root path is ()."""
        out = []
        _preorder(self.root, (), out)
        return out

    def vertex_at(self, path):
        """The vertex a path of slot indices leads to from the root;
        EdgeError unless each index is a slot of the vertex before it."""
        v = self.root
        for idx in path:
            if not 0 <= idx < len(v[2]):
                raise EdgeError("path %r has no slot %d" % (path, idx))
            item = v[2][idx]
            if type(item) is not tuple:
                raise EdgeError("path %r runs into a leaf" % (path,))
            v = item
        return v

    def leaf_numbers_under(self, path):
        """Global numbers (1-based, planar order) of the leaves in the
        subtree hanging at ``path`` (the whole tree for ``path == ()``)."""
        lo = 1
        v = self.root
        for idx in path:
            for item in v[2][:idx]:
                lo += 1 if item == LEAF else _count_leaves(item)
            v = v[2][idx]
        return list(range(lo, lo + _count_leaves(v)))

    def is_stable(self):
        if self.root in _SPECIAL_COROLLAS:
            return True
        return all(vertex_dim(v) >= 0 for _, v in self.vertices())

    def check_colored_axiom(self):
        """True iff every root-to-leaf path meets exactly one colored vertex
        and colored vertices only occur on root-to-leaf paths."""
        return _colored_leaves(self.root, False) is not None


# the slot setters, which bypass the blocked __setattr__
_set_root = PlanarTree.root.__set__
_set_edges = PlanarTree._edges.__set__

_SPECIAL_COROLLAS = {vertex(0, False, (LEAF,))}


def _count_leaves(v):
    return sum(1 if s == LEAF else _count_leaves(s) for s in v[2])


# The counts are folds over the vertex tuples: no paths, no list.  The
# walks type-test with ``type(s) is tuple``, the quickest test, since every
# stratum and cluster type reads them.


def _count_vertices(v):
    n = 1
    for s in v[2]:
        if type(s) is tuple:
            n += _count_vertices(s)
    return n


def _tally(v, j):
    """The sum of v[j] over the vertices of the subtree at v: its interior
    marks for j = 0, its colored vertices for j = 1."""
    n = int(v[j])
    for s in v[2]:
        if type(s) is tuple:
            n += _tally(s, j)
    return n


# Every edge path, interned: trees of one poset share most of their paths,
# so each distinct path is one tuple however many trees hold it.  The table
# holds paths only: 376 after walking every tree of K (6, 1), Q (4, 1),
# K (8, 0) and K (4, 2).
_PATHS = {}


def _edge_walk(v, path, out):
    """Append the edge paths below ``v``, at ``path``, in preorder, each
    the one interned tuple of its value."""
    idx = 0
    for s in v[2]:
        if type(s) is tuple:
            p = path + (idx,)
            p = _PATHS.setdefault(p, p)
            out.append(p)
            _edge_walk(s, p, out)
        idx += 1


def _preorder(v, path, out):
    out.append((path, v))
    for idx, s in enumerate(v[2]):
        if type(s) is tuple:
            _preorder(s, path + (idx,), out)


def _colored_leaves(v, seen):
    """Leaf count of the subtree at ``v``, or None when it breaks the
    colored axiom: a second colored vertex on a path (``seen`` says one
    lies below ``v``), a leaf with no colored vertex below it, or a
    colored vertex with no leaf above it."""
    _, col, slots = v
    if col and seen:
        return None
    here = seen or col
    n = 0
    for s in slots:
        m = (1 if here else None) if s == LEAF else _colored_leaves(s, here)
        if m is None:
            return None
        n += m
    return None if col and not n else n


def replace_vertex(tree, path, new_v):
    """The tree with the vertex at ``path`` replaced by ``new_v``."""
    return PlanarTree(_replaced(tree.root, path, 0, new_v))


# Recursive walks are module functions here, not nested ones: a nested
# function that calls itself is a reference cycle, which only the garbage
# collector frees, on every call.


def _replaced(v, path, depth, new_v):
    if depth == len(path):
        return new_v
    i, col, slots = v
    idx = path[depth]
    new_v = _replaced(slots[idx], path, depth + 1, new_v)
    return (i, col, slots[:idx] + (new_v,) + slots[idx + 1 :])


# -- enumeration --------------------------------------------------------


def check_nonnegative(**counts):
    """Raise RangeError unless every named count is nonnegative."""
    if any(n < 0 for n in counts.values()):
        raise RangeError(
            "%s must be nonnegative (got %s)"
            % (
                " and ".join(counts),
                ", ".join("%s=%d" % kv for kv in counts.items()),
            )
        )


def check_caps(l, k):
    check_nonnegative(l=l, k=k)
    if l > MAX_LEAVES or k > MAX_MARKS:
        raise CapError(
            "enumeration capped at l <= %d, k <= %d (got l=%d, k=%d)"
            % (MAX_LEAVES, MAX_MARKS, l, k)
        )


def params_stable(l, k):
    """The smooth corolla with ``l`` leaves, ``k`` marks is stable."""
    return corolla_dim(l, k) >= 0


# -- the tree grammar -----------------------------------------------------
#
# One grammar describes the strata trees and three readings interpret it:
# COUNT tallies the trees, LIST builds them, and MOVES tallies them pointed
# at their transposition moves.  Each table builder takes a
# reading G, is cached on G and the totals (l, k) alone, and returns
# (sequences, subtrees, children): the slot sequences and the stable
# subtrees with l leaves and k marks, keyed and valued by G, and the
# subtrees in the form G.graft reads, G.children(subtrees), made once.
#
# * A sequence has a leaf or a subtree of totals (lc, kc) in its first
#   slot, followed by a sequence with the rest.  (0, 0) has no stable
#   subtree.  A sequence whose only slot is a subtree with the same totals
#   (l, k) needs the subtree table at (l, k), which is built from the
#   sequences at (l, k).  The loop breaks because an uncolored vertex
#   without marks (i = 0) needs 2 slots, so it never reads that one-child
#   sequence; a vertex with i >= 1 marks reads the sequences at (l, k - i),
#   and a colored root reads the uncolored tables.  So the sequences are
#   built without the one-child entry, then the subtrees from them, and
#   the one-child entry comes last.
# * Below the seam every leaf path must still meet exactly one colored
#   vertex.  A subtree there is a colored root over uncolored slots or an
#   uncolored hub over below-seam slots; with no leaves it is a plain
#   leafless side branch.
# * A close step reads the vertex rule once, as ``least``, the fewest slots
#   of a stable vertex with i marks and color col: over s slots it is
#   stable iff s >= least, and its own dimension is s - least.
#
# Built in this order, LIST gives the trees of each edge count in the
# canonical order that stratum ids follow.  COUNT packs the counts over
# the edge count of a group of sequences into one int (see _Count); its
# subtree table stays flat, {(edges, colored, dim): count}, the table
# grading_profile and the LIST cap read, and its children are the same
# counts packed and grouped.


# Bits per edge count in a packed COUNT value (see _Count).
_DIGIT = 64
_MASK = (1 << _DIGIT) - 1


class _Count:
    """Tree counts.  A sequence of e edges, with s slots and
    D = (sum of child subtree dims) + s, is keyed by (colored, s, C) with
    C = D + e; a subtree by (edges, colored, dim).  A vertex with i marks
    over a sequence has dim D + corolla_dim(0, i, col), as D counts its
    slots.  Only the stability threshold reads s, and it asks for at most
    2 slots, so s is kept as min(s, 2).  Uncolored keys carry colored = 0.

    The value of a sequence key is its counts over e packed into one int,
    a _DIGIT-bit digit per edge count (Kronecker substitution: von zur
    Gathen and Gerhard, *Modern Computer Algebra*, section 8.4), so a graft
    convolves the edge counts of a group of rests and a group of children
    with one integer product.  The re-keying is a bijection (D = C - e),
    so the dimension is still tallied vertex by vertex, and within the
    caps a table has at most 20 groups.  A digit never carries: it counts
    distinct sequences of one table, and check_caps keeps the largest
    table total, 9.5e13 (47 bits, colored sequences at (10, 4)), far under
    2**_DIGIT."""

    def unit(self):
        return {(0, 0, 0): 1}

    def leaf(self, seqs, rests):
        for (nc, s, C), p in rests.items():
            key = (nc, min(s + 1, 2), C + 1)
            seqs[key] = seqs.get(key, 0) + p

    def children(self, subtrees):
        # the subtrees packed over their edges, grouped by (colored, C)
        groups = {}
        for (ec, ncc, dc), m in subtrees.items():
            key = (ncc, dc + ec)
            groups[key] = groups.get(key, 0) + (m << _DIGIT * ec)
        return groups

    def graft(self, seqs, children, rests):
        for (nc, s, C), p in rests.items():
            # the rest moves one slot right, behind the new first slot,
            # whose edge adds 1 to e and to D
            s = min(s + 1, 2)
            p <<= _DIGIT
            for (ncc, cc), q in children.items():
                key = (nc + ncc, s, C + cc + 2)
                seqs[key] = seqs.get(key, 0) + p * q

    def close(self, subtrees, seqs, i, col):
        least = -corolla_dim(0, i, col)
        for (nc, s, C), p in seqs.items():
            if s >= least:
                dim = C - least
                e = 0
                while p:
                    n = p & _MASK
                    if n:
                        key = (e, nc + col, dim - e)
                        subtrees[key] = subtrees.get(key, 0) + n
                    p >>= _DIGIT
                    e += 1


COUNT = _Count()


class _List:
    """The trees themselves, keyed by edge count: lists of slot tuples for
    sequences and of vertices for subtrees."""

    def unit(self):
        return {0: [()]}

    def children(self, subtrees):
        return subtrees

    def leaf(self, seqs, rests):
        for e, rs in rests.items():
            seqs.setdefault(e, []).extend((LEAF,) + r for r in rs)

    def graft(self, seqs, children, rests):
        for ec in sorted(children):
            for child in children[ec]:
                for e, rs in rests.items():
                    seqs.setdefault(ec + 1 + e, []).extend(
                        (child,) + r for r in rs
                    )

    def close(self, subtrees, seqs, i, col):
        least = -corolla_dim(0, i, col)
        for e, ss in seqs.items():
            keep = [(i, col, s) for s in ss if len(s) >= least]
            subtrees.setdefault(e, []).extend(keep)


LIST = _List()


class _Moves:
    """Tree counts pointed at the transposition moves of the symmetric
    tile complex (the pointing operator of Flajolet and Sedgewick,
    *Analytic Combinatorics*, 2009).

    A move is a non-root, uncolored vertex with no marks and two slots and
    at least one leaf below it.  Its kind is I, II or III as both, one or
    neither of its slots are leaves; swapping the slots moves a block of
    n - nb leaves past one of nb, with n its leaf count and nb that of its
    second slot, so the parity of the leaf permutation is nb (n - nb) mod 2.

    A value is (N, M_0, ..., M_5): the tree count N and the move count
    M_j per (kind, parity) KEYS[j], summed over the trees.  A sequence is
    keyed by (n, leaves, nb): its leaf total n and, for at most two slots,
    which slots are leaves and the leaf count nb of the last one (leaves is
    None for three or more slots).  A subtree is keyed by (n, j), with j
    the index of its own move or None.  Its move is counted only when it is
    grafted as a child, so a root never counts."""

    KEYS = tuple((kind, p) for kind in ("I", "II", "III") for p in (0, 1))

    def unit(self):
        return {(0, (), 0): (1,) + (0,) * 6}

    def children(self, subtrees):
        return subtrees

    def leaf(self, seqs, rests):
        for key, val in rests.items():
            _add(seqs, _prepend(key, 1, True), val)

    def graft(self, seqs, children, rests):
        for (nc, j), (N, *M) in children.items():
            for key, (Nr, *Mr) in rests.items():
                val = [N * Nr] + [m * Nr + N * mr for m, mr in zip(M, Mr)]
                if j is not None:
                    val[1 + j] += N * Nr
                _add(seqs, _prepend(key, nc, False), val)

    def close(self, subtrees, seqs, i, col):
        least = -corolla_dim(0, i, col)
        for (n, leaves, nb), val in seqs.items():
            s = 3 if leaves is None else len(leaves)
            if s < least:
                continue
            j = None
            if s == 2 and not i and not col and n:
                j = 2 * (2 - sum(leaves)) + nb * (n - nb) % 2
            _add(subtrees, (n, j), val)


def _prepend(key, c, is_leaf):
    """The key of a sequence with a first slot of c leaves (a leaf when
    is_leaf) in front of the sequence keyed by ``key``."""
    n, leaves, nb = key
    if leaves is None or len(leaves) == 2:
        return (n + c, None, 0)
    return (n + c, (is_leaf,) + leaves, nb if leaves else c)


def _add(table, key, val):
    old = table.get(key)
    table[key] = tuple(val) if old is None else tuple(map(sum, zip(old, val)))


MOVES = _Moves()


def _first_slots(l, k):
    """Totals of a subtree in a sequence's first slot, in canonical order,
    without (0, 0) and the one-child entry (l, k)."""
    return [
        (lc, kc)
        for lc in range(l + 1)
        for kc in range(k + 1)
        if (lc, kc) not in ((0, 0), (l, k))
    ]


@lru_cache(maxsize=None)
def plain(G, l, k):
    """Uncolored (sequences, subtrees, children) with totals (l, k), read
    by G; CapError past the caps, where COUNT's packed digits could carry."""
    check_caps(l, k)
    seqs = G.unit() if l == k == 0 else {}
    if l >= 1:
        G.leaf(seqs, plain(G, l - 1, k)[0])
    for lc, kc in _first_slots(l, k):
        G.graft(seqs, plain(G, lc, kc)[2], plain(G, l - lc, k - kc)[0])
    subtrees = {}
    for i in range(k + 1):
        src = seqs if i == 0 else plain(G, l, k - i)[0]
        G.close(subtrees, src, i, False)
    children = G.children(subtrees)
    G.graft(seqs, children, G.unit())
    return seqs, subtrees, children


@lru_cache(maxsize=None)
def colored(G, l, k):
    """Below-seam (sequences, subtrees, children) with totals (l, k), read
    by G; CapError past the caps, where COUNT's packed digits could carry."""
    check_caps(l, k)
    seqs = G.unit() if l == k == 0 else {}
    for lc, kc in _first_slots(l, k):
        G.graft(seqs, colored(G, lc, kc)[2], colored(G, l - lc, k - kc)[0])
    if l == 0:
        _, subtrees, children = plain(G, 0, k)
    else:
        # all colored roots, then all uncolored hubs: the canonical order
        subtrees = {}
        for i in range(k + 1):
            G.close(subtrees, plain(G, l, k - i)[0], i, True)
        for i in range(k + 1):
            src = seqs if i == 0 else colored(G, l, k - i)[0]
            G.close(subtrees, src, i, False)
        children = G.children(subtrees)
    G.graft(seqs, children, G.unit())
    return seqs, subtrees, children


def _listed(table, l, k, e):
    """The LIST reading of ``table`` at (l, k) and ``e`` edges, refused
    when the COUNT reading finds more than MAX_STRATA trees at (l, k)."""
    total = sum(table(COUNT, l, k)[1].values())
    if total > MAX_STRATA:
        raise CapError(
            "%d %s trees at l=%d, k=%d, above the cap of %d"
            % (total, table.__name__, l, k, MAX_STRATA)
        )
    return [PlanarTree(v) for v in table(LIST, l, k)[1].get(e, ())]


def enumerate_types(l, k, codim):
    """All stable planar trees with ``l`` leaves, ``k`` interior marks and
    exactly ``codim`` interior edges, in canonical depth-first order."""
    check_caps(l, k)
    if codim < 0:
        raise ShapeError("codim must be nonnegative")
    if not params_stable(l, k):
        if (l, k) != (1, 0):
            raise StabilityError("no stable type with l=%d, k=%d" % (l, k))
        if codim:
            raise StabilityError("unstable (l,k)=(1,0) admits no refined strata")
        return [PlanarTree(vertex(0, False, (LEAF,)))]
    return _listed(plain, l, k, codim)


def enumerate_colored_types(l, k, n_edges):
    """All stable colored trees (quilted strata) with the given totals and
    exactly ``n_edges`` interior edges."""
    check_caps(l, k)
    if l < 1:
        raise StabilityError("colored trees need at least one leaf")
    return _listed(colored, l, k, n_edges)


def maximal_types(l, k):
    """Trees admitting no stable refinement (deepest corners)."""
    codim = max(0, corolla_dim(l, k))
    return enumerate_types(l, k, codim)


# -- contraction order ---------------------------------------------------


def contract_set(tree, edge_set):
    """Contract a set of interior edges.

    Returns ``(new_tree, edge_map)`` where ``edge_map`` sends each
    surviving old edge path to its path in the new tree.
    """
    edge_set = frozenset(tuple(e) for e in edge_set)
    known = set(tree.edges())
    for e in edge_set:
        if e not in known:
            raise EdgeError("%r is not an interior edge" % (e,))

    emap = {}
    root = []
    i, col = _splice(tree.root, (), (), root, edge_set, emap)
    return PlanarTree(vertex(i, col, root)), emap


def _splice(v, old, new, slots, edge_set, emap):
    """Append the slots of v, the vertex at old path ``old``, to ``slots``,
    the slot list of the new vertex at ``new``: children in edge_set are
    spliced in too, the others become new vertices, their paths recorded
    in ``emap``.  Returns v's marks and color merged with the spliced
    children's."""
    i, col = v[0], v[1]
    for idx, item in enumerate(v[2]):
        path = old + (idx,)
        if item == LEAF:
            slots.append(LEAF)
        elif path in edge_set:
            ci, ccol = _splice(item, path, new, slots, edge_set, emap)
            i, col = i + ci, col or ccol
        else:
            emap[path] = new_path = new + (len(slots),)
            sub = []
            ci, ccol = _splice(item, path, new_path, sub, edge_set, emap)
            slots.append(vertex(ci, ccol, sub))
    return i, col


def contract(tree, edge):
    """Contract a single interior edge."""
    return contract_set(tree, [edge])[0]


def contraction_witness(t1, t2):
    """An edge set S of ``t2`` with ``contract_set(t2, S) == t1``, or None.

    For colored trees the contraction must yield a valid colored tree
    (merged vertices inherit the color of either endpoint).
    """
    if (t1.num_leaves, t1.num_marks) != (t2.num_leaves, t2.num_marks):
        raise ShapeError("trees have different (l, k)")
    d = t2.n_edges - t1.n_edges
    if d < 0:
        return None
    for subset in combinations(t2.edges(), d):
        if contract_set(t2, subset)[0] == t1:
            if t2.is_colored and not t1.check_colored_axiom():
                return None
            return frozenset(subset)
    return None


def leq(t1, t2):
    """Contraction partial order: t1 <= t2 iff t1 is a contraction of t2."""
    return contraction_witness(t1, t2) is not None


# -- serialization -------------------------------------------------------


def to_obj(tree):
    return _enc(tree.root)


def _enc(v):
    i, col, slots = v
    return {
        "b": sum(1 for s in slots if s == LEAF),
        "i": i,
        "col": col,
        "children": [LEAF if s == LEAF else _enc(s) for s in slots],
    }


def from_obj(obj):
    """The tree that ``obj``, in the form ``to_obj`` writes, describes; a
    missing ``i`` is 0 and a missing ``col`` false.  ShapeError unless each
    node is an object with a list of children ("x" or nodes), an integer
    ``i`` and a boolean ``col``; RangeError on a negative ``i``."""
    return PlanarTree(_dec(obj))


def _dec(o):
    typed(o, dict, "a tree node")
    i = field(o, "i", int, "a tree node's i", 0)
    col = field(o, "col", bool, "a tree node's col", False)
    children = field(o, "children", list, "a tree node's children", [])
    if i < 0:
        raise RangeError("i must be nonnegative (got i=%d)" % i)
    slots = [LEAF if c == LEAF else _dec(c) for c in children]
    b = slots.count(LEAF)
    given = field(o, "b", int, "a tree node's b", b)
    if given != b:
        raise OrderError("leaf count b=%r disagrees with children" % given)
    return vertex(i, col, slots)
