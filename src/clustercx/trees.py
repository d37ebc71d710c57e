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

from .errors import (
    CapError,
    EdgeError,
    OrderError,
    RangeError,
    ShapeError,
    StabilityError,
)

LEAF = "x"

MAX_LEAVES = 10
MAX_MARKS = 4


def vertex(i, col, slots):
    return (int(i), bool(col), tuple(slots))


def _is_vertex(item):
    return isinstance(item, tuple)


def _stable_vertex(v, at_root=False):
    i, col, slots = v
    need = 2 if col else 3
    # one boundary special point for the root marking / parent node
    return len(slots) + 1 + 2 * i >= need


class PlanarTree:
    """Immutable rooted planar (optionally colored) tree."""

    __slots__ = ("root",)

    def __init__(self, root):
        object.__setattr__(self, "root", root)

    def __setattr__(self, name, value):
        raise AttributeError("PlanarTree is immutable")

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
        return _count_marks(self.root)

    @property
    def n_edges(self):
        return _count_edges(self.root)

    @property
    def codim(self):
        """Codimension in the unquilted family: one per interior edge."""
        return self.n_edges

    @property
    def n_colored(self):
        return _count_colored(self.root)

    @property
    def is_colored(self):
        return self.n_colored > 0

    def edges(self):
        """Interior edges as root-paths of slot indices, depth-first order."""
        out = []
        _collect_edges(self.root, (), out)
        return out

    def vertices(self):
        """(path, vertex) pairs in depth-first preorder; root path is ()."""
        out = []
        _collect_vertices(self.root, (), out)
        return out

    def vertex_at(self, path):
        v = self.root
        for idx in path:
            item = v[2][idx]
            if not _is_vertex(item):
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
        allow_special = self.root in _SPECIAL_COROLLAS
        return allow_special or all(
            _stable_vertex(v) for _, v in self.vertices()
        )

    def check_colored_axiom(self):
        """True iff every root-to-leaf path meets exactly one colored vertex
        and colored vertices only occur on root-to-leaf paths."""
        return _colored_ok(self.root, seen=False) and _colors_on_leaf_paths(self.root)


_SPECIAL_COROLLAS = {vertex(0, False, (LEAF,))}


def _count_leaves(v):
    return sum(1 if s == LEAF else _count_leaves(s) for s in v[2])


def _count_marks(v):
    return v[0] + sum(_count_marks(s) for s in v[2] if _is_vertex(s))


def _count_edges(v):
    return sum(1 + _count_edges(s) for s in v[2] if _is_vertex(s))


def _count_colored(v):
    own = 1 if v[1] else 0
    return own + sum(_count_colored(s) for s in v[2] if _is_vertex(s))


def _collect_edges(v, prefix, out):
    for idx, s in enumerate(v[2]):
        if _is_vertex(s):
            path = prefix + (idx,)
            out.append(path)
            _collect_edges(s, path, out)


def _collect_vertices(v, prefix, out):
    out.append((prefix, v))
    for idx, s in enumerate(v[2]):
        if _is_vertex(s):
            _collect_vertices(s, prefix + (idx,), out)


def _colored_ok(v, seen):
    i, col, slots = v
    here = seen or col
    if col and seen:
        return False
    for s in slots:
        if s == LEAF:
            if not here:
                return False
        elif _count_leaves(s) > 0:
            if not _colored_ok(s, here):
                return False
        else:
            # leafless side branch: no leaf paths to constrain
            if _count_colored(s) > 0:
                return False
    return True


def _colors_on_leaf_paths(v):
    # colored vertices with no leaves above them are rejected by _colored_ok
    # through the leafless-branch clause; colored leafless roots remain.
    if v[1] and _count_leaves(v) == 0:
        return False
    return True


def replace_vertex(tree, path, new_v):
    """The tree with the vertex at ``path`` replaced by ``new_v``."""

    def rec(v, depth):
        if depth == len(path):
            return new_v
        i, col, slots = v
        idx = path[depth]
        slots = (
            slots[:idx] + (rec(slots[idx], depth + 1),) + slots[idx + 1 :]
        )
        return vertex(i, col, slots)

    return PlanarTree(rec(tree.root, 0))


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
    return l + 1 + 2 * k >= 3


@lru_cache(maxsize=None)
def _plain_vertices(l, k, e):
    """All stable uncolored vertices with subtree totals (l, k, e)."""
    out = []
    for i in range(k + 1):
        for slots in _plain_slot_seqs(l, k - i, e):
            v = vertex(i, False, slots)
            if _stable_vertex(v):
                out.append(v)
    return tuple(out)


@lru_cache(maxsize=None)
def _plain_slot_seqs(l, k, e):
    """Ordered slot sequences consuming l leaves, k marks, e edges."""
    if l == 0 and k == 0 and e == 0:
        return ((),)
    seqs = []
    if l >= 1:
        for rest in _plain_slot_seqs(l - 1, k, e):
            seqs.append((LEAF,) + rest)
    for lc in range(l + 1):
        for kc in range(k + 1):
            for ec in range(e):
                for child in _plain_vertices(lc, kc, ec):
                    for rest in _plain_slot_seqs(l - lc, k - kc, e - 1 - ec):
                        seqs.append((child,) + rest)
    return tuple(seqs)


def enumerate_types(l, k, codim):
    """All stable planar trees with ``l`` leaves, ``k`` interior marks and
    exactly ``codim`` interior edges, in canonical depth-first order."""
    check_caps(l, k)
    if codim < 0:
        raise ShapeError("codim must be nonnegative")
    if not params_stable(l, k):
        if (l, k) == (1, 0) or (l, k) == (0, 1):
            if codim == 0:
                slots = (LEAF,) if l == 1 else ()
                return [PlanarTree(vertex(k, False, slots))]
            raise StabilityError(
                "unstable (l,k)=(%d,%d) admits no refined strata" % (l, k)
            )
        raise StabilityError("no stable type with l=%d, k=%d" % (l, k))
    return [PlanarTree(v) for v in _plain_vertices(l, k, codim)]


@lru_cache(maxsize=None)
def _colored_below(l, k, e):
    """Subtrees sitting below the colors: every leaf path must still meet
    exactly one colored vertex inside the subtree.  Requires l >= 1."""
    out = []
    # the subtree root itself is colored; everything above is colorless
    for i in range(k + 1):
        for slots in _plain_slot_seqs(l, k - i, e):
            v = vertex(i, True, slots)
            if _stable_vertex(v):
                out.append(v)
    # uncolored hub: no leaf slots; leaf-bearing children are below-color
    # subtrees, leafless children are plain side branches
    for i in range(k + 1):
        for slots in _below_slot_seqs(l, k - i, e):
            v = vertex(i, False, slots)
            if _stable_vertex(v):
                out.append(v)
    return tuple(out)


@lru_cache(maxsize=None)
def _below_slot_seqs(l, k, e):
    if l == 0 and k == 0 and e == 0:
        return ((),)
    seqs = []
    for lc in range(l + 1):
        for kc in range(k + 1):
            for ec in range(e):
                if lc >= 1:
                    children = _colored_below(lc, kc, ec)
                else:
                    children = _plain_vertices(0, kc, ec)
                for child in children:
                    for rest in _below_slot_seqs(l - lc, k - kc, e - 1 - ec):
                        seqs.append((child,) + rest)
    return tuple(seqs)


def enumerate_colored_types(l, k, n_edges):
    """All stable colored trees (quilted strata) with the given totals and
    exactly ``n_edges`` interior edges."""
    check_caps(l, k)
    if l < 1:
        raise StabilityError("colored trees need at least one leaf")
    return [PlanarTree(v) for v in _colored_below(l, k, n_edges)]


def maximal_types(l, k):
    """Trees admitting no stable refinement (deepest corners)."""
    check_caps(l, k)
    codim = max(0, l - 2 + 2 * k)
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

    def rebuild(v, prefix):
        i, col, slots = v
        acc_i, acc_col, items = i, col, []
        for idx, item in enumerate(slots):
            if item == LEAF:
                items.append(LEAF)
                continue
            path = prefix + (idx,)
            ci, ccol, citems = rebuild(item, path)
            if path in edge_set:
                acc_i += ci
                acc_col = acc_col or ccol
                items.extend(citems)
            else:
                items.append((path, (ci, ccol, citems)))
        return acc_i, acc_col, items

    emap = {}

    def finalize(tagged, new_prefix):
        i, col, items = tagged
        slots = []
        for item in items:
            if item == LEAF:
                slots.append(LEAF)
            else:
                old_path, sub = item
                new_path = new_prefix + (len(slots),)
                emap[old_path] = new_path
                slots.append(finalize(sub, new_path))
        return vertex(i, col, slots)

    new_root = finalize(rebuild(tree.root, ()), ())
    return PlanarTree(new_root), emap


def contract(tree, edge):
    """Contract a single interior edge."""
    return contract_set(tree, [edge])[0]


def _same_params(t1, t2):
    return (
        t1.num_leaves == t2.num_leaves and t1.num_marks == t2.num_marks
    )


def contraction_witness(t1, t2):
    """An edge set S of ``t2`` with ``contract_set(t2, S) == t1``, or None.

    For colored trees the contraction must yield a valid colored tree
    (merged vertices inherit the color of either endpoint).
    """
    if not _same_params(t1, t2):
        raise ShapeError("trees have different (l, k)")
    d = t2.n_edges - t1.n_edges
    if d < 0:
        return None
    edges = t2.edges()
    from itertools import combinations

    for subset in combinations(edges, d):
        cand, _ = contract_set(t2, subset)
        if cand == t1:
            if t2.is_colored and not cand.check_colored_axiom():
                continue
            return frozenset(subset)
    return None


def leq(t1, t2):
    """Contraction partial order: t1 <= t2 iff t1 is a contraction of t2."""
    return contraction_witness(t1, t2) is not None


# -- serialization -------------------------------------------------------


def to_obj(tree):
    def enc(v):
        i, col, slots = v
        return {
            "b": sum(1 for s in slots if s == LEAF),
            "i": i,
            "col": col,
            "children": [LEAF if s == LEAF else enc(s) for s in slots],
        }

    return enc(tree.root)


def from_obj(obj):
    def dec(o):
        slots = []
        for c in o.get("children", []):
            if c == LEAF:
                slots.append(LEAF)
            else:
                slots.append(dec(c))
        b = sum(1 for s in slots if s == LEAF)
        if "b" in o and o["b"] != b:
            raise OrderError("leaf count b=%r disagrees with children" % o["b"])
        return vertex(o.get("i", 0), o.get("col", False), slots)

    return PlanarTree(dec(obj))
