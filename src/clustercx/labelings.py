"""Edge labelings, balanced labelings, ratio charts, and collar maps.

Labels are exact nonnegative rationals on the interior edges of a tree.
On colored trees the balanced condition pins the products of labels along
every root-to-color path to a common value.  The collar maps chi push a
labeling away from the deepest corner; on the quilted side their values
involve the symbols eps^(M_l) with fractional M_l, so the computations run
in an exact field of rational functions in a formal power of eps.
"""

from fractions import Fraction
from functools import lru_cache

from . import fields, trees
from .errors import (
    BalanceError,
    DegenerateError,
    OrderError,
    RangeError,
    ShapeError,
)
from .trees import LEAF, PlanarTree

# -- exact arithmetic in formal powers of eps -------------------------------

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2
            c = out.get(e, 0) + c1 * c2
            if c:
                out[e] = c
            elif e in out:
                del out[e]
    return out


def _poly_add(p, q):
    out = dict(p)
    for e, c in q.items():
        c2 = out.get(e, 0) + c
        if c2:
            out[e] = c2
        elif e in out:
            del out[e]
    return out


class EpsFrac:
    """Exact rational function in a formal symbol eps with rational
    exponents, stored as a numerator/denominator pair of finite sums
    {exponent: coefficient}.  Equality is decided by cross-multiplication,
    so no normal form is needed.

    The public constructor wraps every exponent and coefficient in
    ``Fraction`` and drops zero coefficients.  ``_of`` is the trusted
    internal constructor: it stores dicts that are already in that form,
    as the arithmetic below and ``chi_quilted`` produce them."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = {Fraction(e): Fraction(c) for e, c in num.items() if c}
        self.den = {Fraction(e): Fraction(c) for e, c in den.items() if c}
        if not self.den:
            raise ZeroDivisionError("zero denominator")

    @classmethod
    def _of(cls, num, den):
        self = object.__new__(cls)
        self.num = num
        self.den = den
        return self

    @classmethod
    def rational(cls, q):
        q = Fraction(q)
        return cls._of({_ZERO: q} if q else {}, {_ZERO: _ONE})

    @classmethod
    def eps_power(cls, m):
        return cls._of({Fraction(m): _ONE}, {_ZERO: _ONE})

    def __mul__(self, other):
        other = _coerce(other)
        return EpsFrac._of(_poly_mul(self.num, other.num),
                           _poly_mul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if not other.num:
            raise ZeroDivisionError("division by zero labeling value")
        return EpsFrac._of(_poly_mul(self.num, other.den),
                           _poly_mul(self.den, other.num))

    def __add__(self, other):
        other = _coerce(other)
        return EpsFrac._of(
            _poly_add(
                _poly_mul(self.num, other.den),
                _poly_mul(other.num, self.den),
            ),
            _poly_mul(self.den, other.den),
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return self + (-1) * other

    def __eq__(self, other):
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        return _poly_mul(self.num, other.den) == _poly_mul(other.num, self.den)

    def __hash__(self):
        raise TypeError("EpsFrac is not hashable (no normal form)")

    def __repr__(self):
        def side(p):
            if not p:
                return "0"
            return " + ".join(
                "%s*eps^%s" % (c, e) if e else str(c)
                for e, c in sorted(p.items())
            )

        if self.den == {Fraction(0): Fraction(1)}:
            return side(self.num)
        return "(%s)/(%s)" % (side(self.num), side(self.den))


def _coerce(x):
    if isinstance(x, EpsFrac):
        return x
    if isinstance(x, (int, Fraction)):
        return EpsFrac.rational(x)
    raise TypeError("cannot coerce %r" % (x,))


# -- labelings ---------------------------------------------------------------


class EdgeLabeling:
    """Map from the interior edges of a tree to exact values."""

    def __init__(self, tree, labels):
        edges = set(tree.edges())
        labels = {tuple(e): v for e, v in labels.items()}
        if set(labels) != edges:
            raise ShapeError("labels must cover the interior edges exactly")
        self.tree = tree
        self.labels = labels

    @classmethod
    def _of(cls, tree, labels):
        """The trusted internal constructor: ``labels`` already keys the
        interior edges of ``tree`` by their paths, as ``chi_quilted``
        builds it from the tree's own walk."""
        self = object.__new__(cls)
        self.tree = tree
        self.labels = labels
        return self

    def __getitem__(self, edge):
        return self.labels[tuple(edge)]

    def __eq__(self, other):
        return (
            isinstance(other, EdgeLabeling)
            and self.tree == other.tree
            and all(self.labels[e] == other.labels[e] for e in self.labels)
            and set(self.labels) == set(other.labels)
        )

    def __repr__(self):
        return "EdgeLabeling(%r, %r)" % (self.tree, self.labels)


def _color_walk(tree):
    """(regions, paths) of a tree from one preorder walk, both in preorder.

    ``regions`` classifies each edge: 'above' (a colored vertex lies
    strictly below it or at its bottom endpoint), 'touch' (its top endpoint
    is colored), or 'below'.  ``paths`` lists, for each colored vertex with
    no colored vertex below it, the edges from the root up to it, bottom-up,
    as edge identifiers."""
    regions = {}
    paths = []
    _walk_colors(tree.root, (), False, regions, paths)
    return regions, paths


# Recursive walks are module functions here, not nested ones: a nested
# function that calls itself is a reference cycle, which only the garbage
# collector frees, on every call.


def _walk_colors(v, path, seen, regions, paths):
    # seen: a colored vertex lies strictly below v
    if v[1] and not seen:
        paths.append([path[:j] for j in range(1, len(path) + 1)])
    here = seen or v[1]
    for idx, s in enumerate(v[2]):
        if type(s) is tuple:
            e = path + (idx,)
            regions[e] = "above" if here else "touch" if s[1] else "below"
            _walk_colors(s, e, here, regions, paths)


def color_products(lab):
    """Product of labels along each root-to-color path."""
    return _products(lab, _color_walk(lab.tree)[1])


def _products(lab, paths):
    return [_prod(lab[e] for e in chain) for chain in paths]


def _prod(values):
    out = Fraction(1)
    for v in values:
        out = v * out
    return out


def _common_product(prods):
    """The common value Y of a labeling's root-to-color products, or None
    when they differ."""
    if not prods:
        raise BalanceError("tree has no colored vertex")
    y = prods[0]
    return y if all(p == y for p in prods[1:]) else None


def is_balanced(lab):
    return _common_product(color_products(lab)) is not None


def restrict_plain(lab, t1, t2, witness=None):
    """Restrict a labeling on t2 to a contraction t1 <= t2: surviving
    labels are unchanged.  ShapeError unless ``lab`` is on t2."""
    if lab.tree != t2:
        raise ShapeError("the labeling is not on t2")
    _, emap = _check_witness(t1, t2, witness)
    return EdgeLabeling(t1, {emap[e]: lab[e] for e in emap})


def _check_witness(t1, t2, witness):
    """(witness, edge_map) of the contraction of t2 onto t1; the witness
    is searched for when not given."""
    if witness is None:
        witness = trees.contraction_witness(t1, t2)
        if witness is None:
            raise OrderError("t1 is not a contraction of t2")
    else:
        witness = frozenset(tuple(e) for e in witness)
    cand, emap = trees.contract_set(t2, witness)
    if cand != t1:
        raise OrderError("witness does not contract t2 to t1")
    return witness, emap


def _contraction_fold(t1, t2, witness):
    """The contraction of t2 onto t1, edge by edge: one (new_e, down, ups)
    per surviving edge e of t2, where ``down`` is e followed by the
    contracted edges straight below it and ``ups`` lists the chains of
    contracted edges from e up to a colored vertex (none when e's top
    vertex is itself colored)."""
    witness, emap = _check_witness(t1, t2, witness)
    fold = []
    for e, new_e in emap.items():
        down = [e]
        below = e[:-1]
        while below in witness:
            down.append(below)
            below = below[:-1]
        top = t2.vertex_at(e)
        fold.append((new_e, down, [] if top[1] else _ups_from(top, e, witness)))
    return fold


def _ups_from(v, path, witness):
    """The chains of witness edges from the vertex v at path up to a
    colored vertex."""
    out = []
    for idx, item in enumerate(v[2]):
        if item == LEAF:
            continue
        e = path + (idx,)
        if e in witness:
            if item[1]:
                out.append([e])
            else:
                out.extend([e] + c for c in _ups_from(item, e, witness))
    return out


def restrict_balanced(lab, t1, t2, witness=None):
    """Balanced restriction: each surviving label is multiplied by the
    contracted labels below it and by the contracted labels leading up to
    a colored vertex, keeping the color products intact.  BalanceError
    unless ``lab`` is balanced, then ShapeError unless it is on t2."""
    if not is_balanced(lab):
        raise BalanceError("input labeling is not balanced")
    if lab.tree != t2:
        raise ShapeError("the labeling is not on t2")
    out = {}
    for new_e, down, ups in _contraction_fold(t1, t2, witness):
        value = lab[down[0]]
        for x in down[1:]:
            value = value * lab[x]
        if ups:
            prods = [_prod(lab[x] for x in chain) for chain in ups]
            assert all(p == prods[0] for p in prods[1:]), (
                "balanced input must give equal upward products"
            )
            value = value * prods[0]
        out[new_e] = value
    result = EdgeLabeling(t1, out)
    assert is_balanced(result), "restriction must preserve balancedness"
    return result


# -- exponent calculus -------------------------------------------------------


@lru_cache(maxsize=None)
def _exponent(region, b):
    """M_l of an edge in ``region`` with b_l = b edges below it."""
    if region == "above":
        return _ONE
    return Fraction(1, 2 ** (b - 1 if region == "touch" else b))


class ExponentData:
    def __init__(self, m, n):
        self.m = m
        self.n = n


def exponents(tree, tmax=None, witness=None):
    """Per-edge exponent calculus on a colored tree.

    b_l counts the edges below l (inclusive); M_l is 1/2^b_l below the
    colors, 1/2^(b_l - 1) just below a colored vertex, and 1 above.  When
    ``tmax >= tree`` is given, N_l accumulates the M of the contracted
    edges entering the balanced restriction at l; otherwise N_l = M_l.
    """
    target = tmax if tmax is not None else tree
    m = {e: _exponent(region, len(e)) for e, region in _color_walk(target)[0].items()}
    if tmax is None:
        return ExponentData(m, dict(m))
    n = {}
    for new_e, down, ups in _contraction_fold(tree, tmax, witness):
        total = m[down[0]]
        for x in down[1:] + (ups[0] if ups else []):
            total += m[x]
        n[new_e] = total
    return ExponentData(m, n)


# -- collar maps chi ---------------------------------------------------------


def _check_eps(eps):
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise RangeError("eps must lie in (0, 1]")
    return eps


def chi_unquilted(lab, eps):
    """Shift every label by eps: pushes the labeling off all corners."""
    eps = _check_eps(eps)
    return EdgeLabeling(
        lab.tree, {e: v + eps for e, v in lab.labels.items()}
    )


def chi_quilted(lab, eps):
    """Collar map on balanced labelings.

    Above the colors the label just shifts by eps.  Below, writing
    F(l) = eps^(M_l) + X(l)^2, each edge gets F(l) corrected by the
    telescoping quotient eps^(M_l')/F(l') of the edge l' just below it,
    and an edge touching a colored vertex instead gets (1 + Y) eps^(M_l)
    times that quotient, Y being the common color product of the input.
    Root-to-color products then telescope to eps*(1 + Y), chi(0) is the
    labeling l -> eps^(M_l), and the input is recovered bottom-up.

    Each value is written directly as the EpsFrac that composing those
    sums, products and quotients gives, term for term.  With x = X(l),
    m = M_l and, for the edge l' just below l, x' = X(l') and m' = M_l'
    (zero coefficients dropped):

    - below the colors:     (eps^(m+m') + x^2 eps^m') / (eps^m' + x'^2);
    - touching a color:     (1 + Y) eps^(m+m') / (eps^m' + x'^2);
    - the root edge, which has no l': eps^m + x^2, or (1 + Y) eps^m,
      over 1;
    - above the colors:     x + eps, over 1.
    """
    _check_eps(eps)
    _check_rational(lab, "chi_quilted")
    tree = lab.tree
    regions, paths = _color_walk(tree)
    y = _common_product(_products(lab, paths))
    if y is None:
        raise BalanceError("chi_quilted needs a balanced labeling")
    touch = _frac(1 + y)
    out = {}
    for e, region in regions.items():
        if region == "above":
            x = _frac(lab[e])
            out[e] = EpsFrac._of(_terms((_ZERO, x), (_ONE, _ONE)), {_ZERO: _ONE})
            continue
        b = len(e)
        top = _exponent(region, b)
        if b > 1:
            # the edge below a 'touch' or 'below' edge lies below the colors
            below = e[:-1]
            shift = _exponent("below", b - 1)
            den = _terms((shift, _ONE), (_ZERO, _frac(lab[below]) ** 2))
        else:
            shift = _ZERO
            den = {_ZERO: _ONE}
        if region == "touch":
            num = _terms((top + shift, touch))
        else:
            num = _terms((top + shift, _ONE), (shift, _frac(lab[e]) ** 2))
        out[e] = EpsFrac._of(num, den)
    return EdgeLabeling._of(tree, out)


def _frac(q):
    return q if type(q) is Fraction else Fraction(q)


def _check_rational(lab, what):
    """ShapeError naming an edge whose label is an EpsFrac."""
    for e, v in lab.labels.items():
        if isinstance(v, EpsFrac):
            raise ShapeError(
                "%s label on edge %s must be a rational, not %r"
                % (what, edge_id(e), v)
            )


def _terms(*pairs):
    """The {exponent: coefficient} sum of (exponent, coefficient) pairs
    with distinct exponents, zero coefficients dropped."""
    return {e: c for e, c in pairs if c}


# -- simple-ratio charts -----------------------------------------------------


class MarkedDisk:
    """Normalized coordinates of a marked (optionally quilted) disk in the
    upper-half-plane model: boundary positions x_1 < ... < x_l on the real
    line (the root marking at infinity), interior marks as (re, im) pairs
    with im > 0 listed in the planar order of the tree, and an optional
    seam height."""

    def __init__(self, xs, zs=(), seam=None):
        self.xs = [Fraction(x) for x in xs]
        self.zs = [(Fraction(a), Fraction(b)) for a, b in zs]
        self.seam = Fraction(seam) if seam is not None else None
        if any(
            self.xs[i] >= self.xs[i + 1] for i in range(len(self.xs) - 1)
        ):
            raise OrderError("boundary positions must increase")
        if any(b <= 0 for _, b in self.zs):
            raise DegenerateError("interior marks need positive height")


def _marking_sequence(tree):
    """The planar sequence of markings, ('x', leaf#) and ('z', vertex
    path), and the meets: for each two-slot vertex path, the index j of the
    gap between markings j and j + 1 that separates its two branches."""
    seq = []
    meets = {}
    _mark(tree.root, (), seq, meets, 0)
    return seq, meets


def _mark(v, prefix, seq, meets, leaves):
    """Append the markings of the subtree v at ``prefix``, its leaves
    numbered from leaves + 1, and record its meets; the leaf count after
    it."""
    if v[0] == 1 and not v[2]:
        seq.append(("z", prefix))
        return leaves
    for idx, item in enumerate(v[2]):
        if idx == 1 and len(v[2]) == 2:
            meets[prefix] = len(seq) - 1
        if item == LEAF:
            leaves += 1
            seq.append(("x", leaves))
        else:
            leaves = _mark(item, prefix + (idx,), seq, meets, leaves)
    return leaves


def _is_chart_maximal(tree):
    """Every vertex has dimension 0: shapes (2, 0), (0, 1) or colored (1, 0)."""
    return all(trees.vertex_dim(v) == 0 for _, v in tree.vertices())


def simple_ratio_chart(disk, tree):
    """Edge labels X(l) = Delta(top)/Delta(bottom) of a maximal type.

    Delta of a two-slot vertex is the horizontal gap between the last
    marking of its first branch and the first marking of its second; Delta
    of a mark vertex is the height of its mark; Delta of a quilted vertex
    is the seam height.
    """
    if not _is_chart_maximal(tree):
        raise ShapeError("chart needs a maximal combinatorial type")
    seq, meets = _marking_sequence(tree)
    l = tree.num_leaves
    k = tree.num_marks
    if len(disk.xs) != l or len(disk.zs) != k:
        raise ShapeError("disk does not match the tree's marking counts")
    z_order = [p for kind, p in seq if kind == "z"]
    z_at = {p: disk.zs[h] for h, p in enumerate(z_order)}
    pos = [
        disk.xs[ref - 1] if kind == "x" else z_at[ref][0]
        for kind, ref in seq
    ]
    if any(pos[i] >= pos[i + 1] for i in range(len(pos) - 1)):
        raise OrderError("marking positions violate the planar order")
    delta = {}
    for path, (_, col, slots) in tree.vertices():
        if col:
            if disk.seam is None:
                raise ShapeError("quilted type needs a seam height")
            if disk.seam == 0:
                raise DegenerateError("zero seam height")
            delta[path] = disk.seam
        elif slots:
            j = meets[path]
            delta[path] = pos[j + 1] - pos[j]
        else:
            delta[path] = z_at[path][1]
    labels = {e: delta[e] / delta[e[:-1]] for e in tree.edges()}
    return EdgeLabeling(tree, labels)


def chart_inverse(lab):
    """Reconstruct normalized disk coordinates from chart labels: the root
    Delta is 1 and the first marking sits at 0.  A quilted type's labels
    must be balanced: every colored vertex lies at the seam height."""
    tree = lab.tree
    if not _is_chart_maximal(tree):
        raise ShapeError("chart needs a maximal combinatorial type")
    _check_rational(lab, "chart")
    delta = {(): Fraction(1)}
    for e in tree.edges():
        if lab[e] < 0:
            raise RangeError(
                "negative label %s on edge %s" % (lab[e], edge_id(e))
            )
        if lab[e] == 0:
            raise DegenerateError("zero label")
        delta[e] = lab[e] * delta[e[:-1]]
    seq, meets = _marking_sequence(tree)
    # the gap after marking j is Delta of the vertex whose branches meet there
    gaps = {j: delta[p] for p, j in meets.items()}
    pos = [Fraction(0)]
    for j in range(len(seq) - 1):
        pos.append(pos[-1] + gaps[j])
    xs = []
    zs = []
    seam = None
    for path, (_, col, _) in tree.vertices():
        if col:
            seam = delta[path]
    if seam is not None and not is_balanced(lab):
        raise BalanceError("chart labels of a quilted type must be balanced")
    for p, (kind, ref) in zip(pos, seq):
        if kind == "x":
            xs.append(p)
        else:
            zs.append((p, delta[ref]))
    return MarkedDisk(xs, zs, seam)


# -- serialization -----------------------------------------------------------


def edge_id(edge):
    return ".".join(str(i) for i in edge) if edge else ""


def labeling_to_obj(lab, eps=None):
    out = {}
    for e, v in lab.labels.items():
        key = edge_id(e)
        if isinstance(v, EpsFrac):
            mono = _as_monomial(v)
            if mono is not None and eps is not None:
                out[key] = {"base": str(eps), "exp": str(mono)}
            else:
                out[key] = {
                    "num": [[str(x), str(c)] for x, c in sorted(v.num.items())],
                    "den": [[str(x), str(c)] for x, c in sorted(v.den.items())],
                }
        else:
            out[key] = str(Fraction(v))
    return out


def _as_monomial(v):
    if len(v.num) == 1 and len(v.den) == 1:
        (en, cn), = v.num.items()
        (ed, cd), = v.den.items()
        if cn == cd:
            return en - ed
    return None


def _sum_terms(v, side, at):
    """The {exponent: coefficient} sum that the [[exponent, coefficient],
    ...] list ``v[side]`` of a label object writes."""
    at = "%s.%s" % (at, side)
    terms = fields.pairs(v.get(side), at, "exponent, coefficient")
    return {fields.rational(x, at): fields.rational(c, at) for x, c in terms}


def _label_object(v, at):
    """The EpsFrac that a label object, {"base", "exp"} or {"num", "den"},
    writes; ``base``, the eps it was written at, must be a rational."""
    if "base" in v:
        fields.rational(v.get("base"), at + ".base")
        return EpsFrac.eps_power(fields.rational(v.get("exp"), at + ".exp"))
    num = _sum_terms(v, "num", at)
    den = _sum_terms(v, "den", at)
    if not any(den.values()):
        raise ShapeError("%s has a zero denominator" % (at,))
    return EpsFrac(num, den)


def labeling_from_obj(tree, obj):
    """The labeling of ``tree`` that ``obj``, in the form
    ``labeling_to_obj`` writes, describes; ShapeError unless ``obj`` is a
    JSON object, keyed by edge ids, of "p/q" strings and label objects of
    them, with no zero denominator."""
    labels = {}
    for key, v in fields.typed(obj, dict, "labels").items():
        e = fields.edge(key, "a label key")
        at = "label %r" % (key,)
        labels[e] = _label_object(v, at) if type(v) is dict else fields.rational(v, at)
    return EdgeLabeling(tree, labels)


# -- random balanced labelings (test/CLI support) ---------------------------


def random_balanced(tree, rng):
    """A random balanced labeling: free labels p/q with 1 <= p, q <= 8
    except on each color-touching edge, solved for the common product."""
    paths = _color_walk(tree)[1]
    if not paths:
        raise BalanceError("tree has no colored vertex")

    def rnd():
        return Fraction(rng.randint(1, 8), rng.randint(1, 8))

    target = rnd()
    labels = {}
    for e in tree.edges():
        labels[e] = rnd()
    for chain in paths:
        if chain:
            partial = _prod(labels[e] for e in chain[:-1])
            labels[chain[-1]] = target / partial
    return EdgeLabeling(tree, labels)
