"""Edge labelings, balance, collar smoothing maps, and charts."""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from clustercx import labelings as L, trees
from clustercx.errors import (
    BalanceError,
    DegenerateError,
    OrderError,
    RangeError,
    ShapeError,
)
from clustercx.trees import LEAF, PlanarTree, vertex
from test_strata import _oracle_vertices


def colored_pool():
    out = []
    for e in range(0, 7):
        out += trees.enumerate_colored_types(3, 0, e)
        out += trees.enumerate_colored_types(4, 0, e)
    return [t for t in out if t.n_edges >= 1]


class TestBalance:
    def test_random_balanced_is_balanced(self):
        rng = random.Random(0)
        for t in colored_pool()[:30]:
            assert L.is_balanced(L.random_balanced(t, rng))

    def test_random_balanced_draws_pinned(self):
        # one seeded draw on every pool tree, pinned by the digest of the
        # written labelings: each free label is p/q with 1 <= p, q <= 8
        rng = random.Random(3)
        pool = colored_pool()
        objs = [L.labeling_to_obj(L.random_balanced(t, rng)) for t in pool]
        assert len(pool) == 78 and sum(map(len, objs)) == 253
        assert objs[0] == {"1": "3/4"}
        digest = hashlib.sha256(json.dumps(objs).encode()).hexdigest()
        assert digest == (
            "cf9f92952f6857913923d83fbb5d41ff03390441a68e525e56852f137a7f8d02"
        )

    def test_restriction_preserves_balance(self):
        rng = random.Random(1)
        checked = 0
        for t in colored_pool()[:40]:
            lab = L.random_balanced(t, rng)
            edges = t.edges()
            for r in range(1, len(edges)):
                for S in itertools.combinations(edges, r):
                    c, _ = trees.contract_set(t, S)
                    if not c.check_colored_axiom() or c.n_colored == 0:
                        continue
                    res = L.restrict_balanced(lab, c, t, S)
                    assert L.is_balanced(res)
                    checked += 1
        assert checked > 30

    def test_restriction_through_upward_chains(self):
        # u, uncolored, takes in both colored children above it; the label
        # of (0,) below u then carries the product of one upward chain
        c = vertex(0, True, (LEAF,))
        t2 = PlanarTree(vertex(0, False, (vertex(0, False, (c, c)), c)))
        S = [(0, 0), (0, 1)]
        t1, _ = trees.contract_set(t2, S)
        assert t1 == PlanarTree(vertex(0, False, (vertex(0, True, (LEAF, LEAF)), c)))
        half3 = Fraction(3, 2)
        lab = L.EdgeLabeling(
            t2, {(0,): Fraction(2), (0, 0): half3, (0, 1): half3, (1,): Fraction(3)}
        )
        want = {(0,): Fraction(3), (1,): Fraction(3)}
        for witness in (S, None):
            assert L.restrict_balanced(lab, t1, t2, witness).labels == want
            n = L.exponents(t1, tmax=t2, witness=witness).n
            assert n == {(0,): Fraction(1), (1,): Fraction(1)}

    def test_restrict_plain_keeps_values(self):
        t = colored_pool()[4]
        lab = L.EdgeLabeling(t, {e: Fraction(1, 2) for e in t.edges()})
        e0 = t.edges()[0]
        c, emap = trees.contract_set(t, {e0})
        res = L.restrict_plain(lab, c, t, {e0})
        for old, new in emap.items():
            assert res[new] == lab[old]


class TestChi:
    def test_unquilted_zero_labeling(self):
        t = trees.enumerate_types(3, 0, 1)[0]
        lab = L.EdgeLabeling(t, {e: Fraction(0) for e in t.edges()})
        out = L.chi_unquilted(lab, Fraction(1, 2))
        assert all(out[e] == Fraction(1, 2) for e in t.edges())
        with pytest.raises(RangeError):
            L.chi_unquilted(lab, Fraction(2))

    def test_quilted_fixed_point(self):
        for t in colored_pool()[:25]:
            lab0 = L.EdgeLabeling(t, {e: Fraction(0) for e in t.edges()})
            exp = L.exponents(t)
            chi0 = L.chi_quilted(lab0, Fraction(1, 2))
            for e in t.edges():
                assert chi0[e] == L.EpsFrac.eps_power(exp.m[e])

    def test_quilted_output_balanced(self):
        rng = random.Random(2)
        for t in colored_pool()[:25]:
            if t.root[1]:
                continue
            lab = L.random_balanced(t, rng)
            chi = L.chi_quilted(lab, Fraction(1, 2))
            y = L.color_products(lab)[0]
            want = L.EpsFrac.rational(1 + y) * L.EpsFrac.eps_power(1)
            assert all(p == want for p in L.color_products(chi))

    def test_quilted_rejects_unbalanced(self):
        pool = [t for t in colored_pool() if not t.root[1] and t.n_edges >= 2]
        t = pool[0]
        labels = {e: Fraction(i + 2) for i, e in enumerate(t.edges())}
        lab = L.EdgeLabeling(t, labels)
        if not L.is_balanced(lab):
            with pytest.raises(BalanceError):
                L.chi_quilted(lab, Fraction(1, 2))

    def test_injectivity_sample(self):
        rng = random.Random(3)
        t = colored_pool()[5]
        seen = []
        for _ in range(25):
            lab = L.random_balanced(t, rng)
            chi = L.chi_quilted(lab, Fraction(1, 2))
            for prev_lab, prev_chi in seen:
                same_in = prev_lab == lab
                same_out = all(prev_chi[e] == chi[e] for e in t.edges())
                assert same_in == same_out
            seen.append((lab, chi))


def _reference_chi_quilted(lab):
    """chi_quilted composed from public EpsFrac operations, as the closed
    forms were derived: F(l) = eps^M_l + X(l)^2, the quotient
    eps^M_l'/F(l') of the edge just below, and (1 + Y) eps^M_l."""
    E = L.EpsFrac
    tree = lab.tree
    regions = L._color_walk(tree)[0]
    m = L.exponents(tree).m
    y = L.color_products(lab)[0]
    out = {}
    for e in tree.edges():
        x = lab[e]
        if regions[e] == "above":
            out[e] = E.rational(x) + E.eps_power(1)
            continue
        quotient = E.rational(1)
        if len(e) > 1:
            xb = lab[e[:-1]]
            mb = m[e[:-1]]
            quotient = E.eps_power(mb) / (E.eps_power(mb) + E.rational(xb * xb))
        if regions[e] == "touch":
            out[e] = E.rational(1 + y) * E.eps_power(m[e]) * quotient
        else:
            out[e] = (E.eps_power(m[e]) + E.rational(x * x)) * quotient
    # the public constructor re-wraps, so the reference is normalized
    # whatever the arithmetic returns
    return {e: E(v.num, v.den) for e, v in out.items()}


def _assert_normalized(v):
    """Fraction exponents and coefficients, no zero coefficient, and a
    non-empty denominator: the form the public constructor writes."""
    assert v.den
    for side in (v.num, v.den):
        for x, c in side.items():
            assert type(x) is Fraction and type(c) is Fraction and c != 0


def _chi_pool():
    """Every tree of the colored pools above and of criterion 10 in
    test_acceptance."""
    pool = list(colored_pool())
    for l in (2, 3, 4):
        for e in range(1, 9):
            pool += [t for t in trees.enumerate_colored_types(l, 0, e)
                     if t.n_edges <= 8]
    return list(dict.fromkeys(pool))


def _zero_labeled(t, rng):
    """A balanced labeling with zero labels: random values from a set
    holding 0 (and plain ints), and, when that is unbalanced, 0 on every
    edge that touches a color, so that every color product is 0."""
    labels = {e: rng.choice([0, 0, Fraction(1, 3), 2, Fraction(5, 4)])
              for e in t.edges()}
    lab = L.EdgeLabeling(t, labels)
    if not L.is_balanced(lab):
        for chain in L._color_walk(t)[1]:
            labels[chain[-1]] = 0
        lab = L.EdgeLabeling(t, labels)
    return lab


class TestChiClosedForm:
    def test_same_representation_as_the_composition(self):
        rng = random.Random(18)
        pool = _chi_pool()
        assert len(pool) == 80
        cases = zeros = 0
        for t in pool:
            labs = [L.random_balanced(t, rng) for _ in range(3)]
            labs += [_zero_labeled(t, rng) for _ in range(3)]
            labs.append(L.EdgeLabeling(t, {e: Fraction(0) for e in t.edges()}))
            for lab in labs:
                want = _reference_chi_quilted(lab)
                got = L.chi_quilted(lab, Fraction(1, 3))
                for e in t.edges():
                    _assert_normalized(got[e])
                    assert got[e].num == want[e].num
                    assert got[e].den == want[e].den
                cases += 1
                zeros += any(lab[e] == 0 for e in t.edges())
        assert cases == 7 * 80 and zeros > 80

    def test_no_arithmetic_and_no_public_constructor(self, monkeypatch):
        rng = random.Random(5)
        labs = [L.random_balanced(t, rng) for t in _chi_pool()]

        def refuse(*args, **kwargs):
            raise AssertionError("chi_quilted must not reach EpsFrac arithmetic")

        for op in ("__init__", "__add__", "__radd__", "__mul__", "__rmul__",
                   "__truediv__", "__sub__"):
            monkeypatch.setattr(L.EpsFrac, op, refuse)
        for lab in labs:
            L.chi_quilted(lab, Fraction(1, 2))

    def test_public_constructor_refuses_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            L.EpsFrac({0: 1}, {})
        with pytest.raises(ZeroDivisionError):
            L.EpsFrac({0: 1}, {Fraction(1, 2): 0})

    def test_arithmetic_returns_no_zero_coefficient(self):
        E = L.EpsFrac
        rng = random.Random(7)
        coefs = [Fraction(-2), Fraction(-1, 2), Fraction(1, 2), Fraction(1), 3]
        exps = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)]

        def rand():
            side = lambda: {rng.choice(exps): rng.choice(coefs) for _ in range(2)}
            return E(side(), side())

        results = 0
        for _ in range(300):
            a, b = rand(), rand()
            outs = [a + b, a - b, a - a, a * b, a * 0, 2 * a, a + 1]
            if b.num:
                outs.append(a / b)
            for v in outs:
                _assert_normalized(v)
                results += 1
        assert (a - a).num == {} and (a * 0).num == {}
        assert results > 2000


def _random_disk(rng, t, seam=None):
    seq, _ = L._marking_sequence(t)
    posn = sorted(rng.sample(range(-60, 60), len(seq)))
    xs, zs = [], []
    for idx, (kind, ref) in enumerate(seq):
        if kind == "x":
            xs.append(Fraction(posn[idx]))
        else:
            zs.append((Fraction(posn[idx]), Fraction(rng.randint(1, 20))))
    return L.MarkedDisk(xs, zs, seam=seam)


class TestCharts:
    def test_round_trip_plain(self):
        rng = random.Random(4)
        for t in trees.maximal_types(4, 0) + trees.maximal_types(3, 1):
            for _ in range(3):
                d = _random_disk(rng, t)
                lab = L.simple_ratio_chart(d, t)
                lab2 = L.simple_ratio_chart(L.chart_inverse(lab), t)
                assert lab == lab2

    def test_round_trip_quilted(self):
        rng = random.Random(5)
        qt = []
        for e in range(1, 6):
            qt += [
                t
                for t in trees.enumerate_colored_types(2, 0, e)
                if L._is_chart_maximal(t)
            ]
        assert len(qt) == 2
        for t in qt:
            d = _random_disk(rng, t, seam=Fraction(3, 2))
            lab = L.simple_ratio_chart(d, t)
            lab2 = L.simple_ratio_chart(L.chart_inverse(lab), t)
            assert lab == lab2


def _reference_chart_maximal(tree):
    """``_is_chart_maximal`` as it was first written: a list of shapes."""
    for _, (i, col, slots) in tree.vertices():
        if col:
            if (len(slots), i) != (1, 0):
                return False
        elif (len(slots), i) not in ((2, 0), (0, 1)):
            return False
    return True


def test_chart_maximal_is_every_vertex_of_dimension_zero():
    maximal = 0
    for s in range(7):
        for v in _oracle_vertices(s, max_marks=4):
            for t in (PlanarTree(v), PlanarTree(vertex(0, False, (LEAF, v)))):
                assert L._is_chart_maximal(t) == _reference_chart_maximal(t), t
                maximal += L._is_chart_maximal(t)
    assert maximal


# maximal types: plain (3, 0), quilted (2, 0) under one seam, (1, 1) and
# (2, 1)
PLAIN3 = PlanarTree(vertex(0, False, (vertex(0, False, (LEAF, LEAF)), LEAF)))
QUILTED2 = PlanarTree(vertex(0, True, (vertex(0, False, (LEAF, LEAF)),)))
MARKED11 = PlanarTree(vertex(0, False, (LEAF, vertex(1, False, ()))))
MARKED21 = PlanarTree(
    vertex(0, False, (vertex(0, False, (LEAF, vertex(1, False, ()))), LEAF))
)


class TestChartErrors:
    @pytest.mark.parametrize(
        "tree, disk, error, message",
        [
            (QUILTED2, ([0, 1],), ShapeError,
             "quilted type needs a seam height"),
            (QUILTED2, ([0, 1], (), 0), DegenerateError, "zero seam height"),
            (MARKED11, ([5], [(0, 1)]), OrderError,
             "marking positions violate the planar order"),
            (PLAIN3, ([0, 1],), ShapeError,
             "disk does not match the tree's marking counts"),
            (MARKED11, ([0, 1],), ShapeError,
             "disk does not match the tree's marking counts"),
            (PlanarTree(vertex(0, False, (LEAF, LEAF, LEAF))), ([0, 1, 2],),
             ShapeError, "chart needs a maximal combinatorial type"),
        ],
    )
    def test_chart(self, tree, disk, error, message):
        with pytest.raises(error) as info:
            L.simple_ratio_chart(L.MarkedDisk(*disk), tree)
        assert str(info.value) == message

    @pytest.mark.parametrize("height", [0, -1, Fraction(-1, 3)])
    def test_disk_refuses_mark_height(self, height):
        # the chart divides by mark heights; the disk is where a zero or
        # negative one is refused
        with pytest.raises(DegenerateError) as info:
            L.MarkedDisk([5], [(0, height)])
        assert str(info.value) == "interior marks need positive height"

    def test_inverse_eps_label(self):
        lab = L.EdgeLabeling(PLAIN3, {(0,): L.EpsFrac.eps_power(1)})
        with pytest.raises(ShapeError) as info:
            L.chart_inverse(lab)
        assert str(info.value).startswith("chart label on edge 0 must be a rational")

    def test_inverse_non_maximal(self):
        t = trees.enumerate_types(4, 0, 1)[0]
        lab = L.EdgeLabeling(t, {e: Fraction(1) for e in t.edges()})
        with pytest.raises(ShapeError) as info:
            L.chart_inverse(lab)
        assert str(info.value) == "chart needs a maximal combinatorial type"

    def test_inverse_zero_label(self):
        lab = L.EdgeLabeling(PLAIN3, {(0,): Fraction(0)})
        with pytest.raises(DegenerateError) as info:
            L.chart_inverse(lab)
        assert str(info.value) == "zero label"

    def test_inverse_negative_label(self):
        # the labels would give xs [0, 1/2] and a mark at -1/2, out of the
        # planar order x1 < z < x2
        lab = L.EdgeLabeling(
            MARKED21, {(0,): Fraction(-1, 2), (0, 1): Fraction(-3)}
        )
        with pytest.raises(RangeError) as info:
            L.chart_inverse(lab)
        assert str(info.value) == "negative label -1/2 on edge 0"
        lab = L.EdgeLabeling(MARKED21, {(0,): Fraction(1), (0, 1): Fraction(-3)})
        with pytest.raises(RangeError):
            L.chart_inverse(lab)


class TestSerialization:
    def test_round_trip(self):
        rng = random.Random(6)
        t = colored_pool()[5]
        lab = L.random_balanced(t, rng)
        chi = L.chi_quilted(lab, Fraction(1, 2))
        back = L.labeling_from_obj(t, L.labeling_to_obj(chi, eps=Fraction(1, 2)))
        assert all(back[e] == chi[e] for e in t.edges())
        back2 = L.labeling_from_obj(t, L.labeling_to_obj(lab))
        assert back2 == lab

    @pytest.mark.parametrize(
        "label, detail",
        [
            ("1/0", "label '0' must be a string p/q with q != 0, not '1/0'"),
            ("half", "label '0' must be a string p/q with q != 0, not 'half'"),
            ({"base": "1/2", "exp": [1]},
             "label '0'.exp must be a string p/q with q != 0, not [1]"),
            ({"base": "1/2"},
             "label '0'.exp must be a string p/q with q != 0, not None"),
            ({"num": 1, "den": [["0", "1"]]},
             "label '0'.num must be a list of [exponent, coefficient] pairs, not 1"),
            ({"num": [["0", "1"]], "den": [["0"]]},
             "label '0'.den must be a list of [exponent, coefficient] pairs, "
             "not [['0']]"),
            ({"num": [["0", "1"]], "den": [["0", 1]]},
             "label '0'.den must be a string p/q with q != 0, not 1"),
            ({"num": [["0", "1"]], "den": [["1/0", "1"]]},
             "label '0'.den must be a string p/q with q != 0, not '1/0'"),
            ({"num": [["0", "1"]], "den": []}, "label '0' has a zero denominator"),
            ({"num": [["0", "1"]], "den": [["0", "0"]]},
             "label '0' has a zero denominator"),
            ({"base": "garbage", "exp": "1"},
             "label '0'.base must be a string p/q with q != 0, not 'garbage'"),
            ({"base": 0.5, "exp": "1"},
             "label '0'.base must be a string p/q with q != 0, not 0.5"),
        ],
    )
    def test_malformed_label(self, label, detail):
        with pytest.raises(ShapeError) as info:
            L.labeling_from_obj(PLAIN3, {"0": label})
        assert str(info.value) == detail

    def test_decimal_and_integer_strings(self):
        lab = L.labeling_from_obj(PLAIN3, {"0": "0.25"})
        assert lab == L.EdgeLabeling(PLAIN3, {(0,): Fraction(1, 4)})
        lab = L.labeling_from_obj(PLAIN3, {"0": {"base": "1/2", "exp": "3"}})
        assert lab[(0,)] == L.EpsFrac.eps_power(3)


class TestExponents:
    def test_m_sums_to_one_per_color_chain(self):
        for t in colored_pool()[:30]:
            if t.root[1]:
                continue
            exp = L.exponents(t)
            paths = L._color_walk(t)[1]
            for chain in paths:
                if chain:
                    assert sum(exp.m[e] for e in chain) == 1

    def test_n_sums_to_one_per_color_chain_after_contraction(self):
        chains = 0
        for l, k in [(2, 0), (3, 0), (4, 0), (2, 1), (3, 1)]:
            for e in range(1, 2 * l + 2 * k + 2):
                for t2 in trees.enumerate_colored_types(l, k, e):
                    edges = t2.edges()
                    for r in range(1, len(edges) + 1):
                        for S in itertools.combinations(edges, r):
                            t1, _ = trees.contract_set(t2, S)
                            if t1.root[1] or not t1.check_colored_axiom():
                                continue
                            n = L.exponents(t1, tmax=t2, witness=S).n
                            for chain in L._color_walk(t1)[1]:
                                assert sum(n[x] for x in chain) == 1
                                chains += 1
        assert chains == 3368

    def test_n_pinned_on_a_multi_edge_contraction(self):
        # uncolored root -> B -> A -> F along edges (0,), (0, 0), (0, 0, 0),
        # each with colored one-leaf children c (F has two); B is contracted
        # into the root and both children of F into F
        c = vertex(0, True, (LEAF,))
        f = vertex(0, False, (c, c))
        t2 = PlanarTree(
            vertex(0, False, (vertex(0, False, (vertex(0, False, (f, c)), c)), c))
        )
        S = [(0,), (0, 0, 0, 0), (0, 0, 0, 1)]
        t1, _ = trees.contract_set(t2, S)
        cf = vertex(0, True, (LEAF, LEAF))
        assert t1 == PlanarTree(vertex(0, False, (vertex(0, False, (cf, c)), c, c)))
        want = {
            (0,): Fraction(3, 4),  # A's own 1/4 plus the contracted B below
            (0, 0): Fraction(1, 4),  # F's 1/8 plus the contracted 1/8 above
            (0, 1): Fraction(1, 4),
            (1,): Fraction(1),
            (2,): Fraction(1),
        }
        assert L.exponents(t1, tmax=t2, witness=S).n == want
        assert L.exponents(t1, tmax=t2).n == want


_C = vertex(0, True, (LEAF,))
TWO_COLORS = PlanarTree(vertex(0, False, (_C, _C)))
RIGHT3 = PlanarTree(vertex(0, False, (LEAF, vertex(0, False, (LEAF, LEAF)))))


def _ones(t):
    return L.EdgeLabeling(t, {e: Fraction(1) for e in t.edges()})


class TestRefusals:
    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: L.EpsFrac.rational(1) / 0, ZeroDivisionError,
             "division by zero labeling value"),
            (lambda: hash(L.EpsFrac.rational(1)), TypeError,
             "EpsFrac is not hashable (no normal form)"),
            (lambda: L.EpsFrac.rational(1) * 0.5, TypeError, "cannot coerce 0.5"),
            (lambda: L.is_balanced(_ones(PLAIN3)), BalanceError,
             "tree has no colored vertex"),
            (lambda: L.random_balanced(PLAIN3, random.Random(0)), BalanceError,
             "tree has no colored vertex"),
            (lambda: L.restrict_plain(_ones(PLAIN3), RIGHT3, PLAIN3), OrderError,
             "t1 is not a contraction of t2"),
            (lambda: L.restrict_plain(_ones(PLAIN3), RIGHT3, PLAIN3, witness=[]),
             OrderError, "witness does not contract t2 to t1"),
            (lambda: L.restrict_balanced(
                L.EdgeLabeling(TWO_COLORS, {(0,): 1, (1,): 2}), TWO_COLORS,
                TWO_COLORS, witness=[]),
             BalanceError, "input labeling is not balanced"),
            (lambda: L.MarkedDisk([0, 2, 2]), OrderError,
             "boundary positions must increase"),
            # a labeling of another tree was read by edge path
            (lambda: L.restrict_plain(_ones(RIGHT3), PLAIN3, PLAIN3), ShapeError,
             "the labeling is not on t2"),
            (lambda: L.restrict_balanced(
                _ones(TWO_COLORS), QUILTED2, PlanarTree(vertex(0, False, (_C, _C, _C)))),
             ShapeError, "the labeling is not on t2"),
        ],
        ids=["zero-divisor", "hash", "float", "unbalanced-plain",
             "random-plain", "not-a-contraction", "wrong-witness",
             "restrict-unbalanced", "disk-order", "restrict-plain-other-tree",
             "restrict-balanced-other-tree"],
    )
    def test_refusals(self, call, error, message):
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message

    def test_equality_with_another_type(self):
        # __eq__ answers NotImplemented, so Python falls back to identity
        assert L.EpsFrac.rational(1) != "1"
        assert not L.EpsFrac.rational(1) == "1"
