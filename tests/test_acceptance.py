"""Acceptance checks: one test per criterion, exact values, pinned budgets.

Each test asserts both the mathematical claim (exact integer/rational
arithmetic, no tolerances) and its wall-clock budget.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from clustercx import barcx as B
from clustercx import indexcalc as I
from clustercx import labelings as L
from clustercx import strata, trees


class _Clock:
    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0
        return False


def _stable_params(family):
    out = []
    for l in range(0, 7):
        for k in range(0, 3):
            if l + 1 + 2 * k < 3:
                continue
            if family == "Q" and l < 1:
                continue
            if strata.dimension(family, l, k) < 0:
                continue
            out.append((l, k))
    return out


def test_criterion_01_dimension_formulas_match_gradings():
    with _Clock() as c:
        for family in ("K", "Q"):
            for l, k in _stable_params(family):
                ambient = strata.dimension(family, l, k)
                if family == "K":
                    assert ambient == l - 2 + 2 * k
                else:
                    assert ambient == l - 1 + 2 * k
                prof = strata.grading_profile(family, l, k)
                codims = set()
                for (codim, dim), n in prof.items():
                    assert n > 0
                    assert dim + codim == ambient
                    codims.add(codim)
                assert codims == set(range(ambient + 1))
        # cross-validate the counting profile against materialized posets
        for family, l, k in [("K", 4, 0), ("K", 3, 1), ("Q", 3, 0), ("Q", 2, 1)]:
            direct = {}
            for s in strata.face_poset(family, l, k).strata:
                key = (s.codim, s.dim)
                direct[key] = direct.get(key, 0) + 1
            assert strata.grading_profile(family, l, k) == direct
    assert c.elapsed < 10.0


def _polygon_f_vector(l):
    """Independent oracle: faces of the l-leaf disk moduli correspond to
    sets of pairwise non-crossing diagonals of a convex (l+1)-gon; a set
    of size c has dimension l - 2 - c."""
    m = l + 1
    diagonals = [
        (i, j)
        for i in range(m)
        for j in range(i + 2, m)
        if not (i == 0 and j == m - 1)
    ]

    def crosses(d1, d2):
        (a, b), (x, y) = d1, d2
        return (a < x < b < y) or (x < a < y < b)

    counts = {}
    for r in range(len(diagonals) + 1):
        for sub in itertools.combinations(diagonals, r):
            if any(crosses(p, q) for p, q in itertools.combinations(sub, 2)):
                continue
            counts[r] = counts.get(r, 0) + 1
    top = l - 2
    return tuple(counts.get(top - d, 0) for d in range(0, top + 1))


def _kirkman_cayley(m, j):
    """Dissections of a convex m-gon by j pairwise non-crossing diagonals."""
    return math.comb(m - 3, j) * math.comb(m + j - 1, j) // (j + 1)


def test_criterion_02_associahedron_f_vectors():
    with _Clock() as c:
        assert strata.f_vector("K", 4, 0) == (5, 5, 1)
        assert strata.f_vector("K", 5, 0) == (14, 21, 9, 1)
        assert _polygon_f_vector(4) == (5, 5, 1)
        assert _polygon_f_vector(5) == (14, 21, 9, 1)
        # closed form up to the leaf cap: a d-face is a dissection of the
        # (l+1)-gon by l - 2 - d diagonals
        for l in range(2, 11):
            want = tuple(
                _kirkman_cayley(l + 1, l - 2 - d) for d in range(l - 1)
            )
            assert strata.f_vector("K", l, 0) == want, l
    assert c.elapsed < 5.0


def test_criterion_03_cellular_boundary_squares_to_zero():
    with _Clock() as c:
        for l in range(2, 7):
            assert strata.boundary_squares_to_zero("K", l, 0)
        for l in range(1, 5):
            assert strata.boundary_squares_to_zero("Q", l, 0)
    assert c.elapsed < 60.0


def test_criterion_04_delta_squared_with_negative_control():
    with _Clock() as c:
        window = B.TruncationWindow(qmax=6)
        lib = B.example_library()
        for name in ("polynomial", "exterior", "circle"):
            assert B.check_a_infinity(lib[name], window).passed
        obj = B.family_to_obj(lib["polynomial"])
        for rule in obj["ops"]["m"]["2"]:
            if rule["in"] == ["a", "a"]:
                rule["out"] = [{"sym": "a2", "d": 0, "coef": 2}]
        report = B.check_a_infinity(B.family_from_obj(obj), window)
        assert not report.passed
        word, residue = report.failures[0]
        assert word and residue
    assert c.elapsed < 30.0


def test_criterion_05_suspension_support_equality():
    with _Clock() as c:
        rng = random.Random(2026)
        window = B.TruncationWindow(qmax=4)
        nontrivial = 0
        for _ in range(50):
            fam = B.random_family(rng)
            bfam = B.suspend(fam)
            assert bfam.suspended
            for gens in B.basis_words(fam, window):
                signed = B.delta_comb(fam, B.delta(fam, gens))
                bare = B.delta_comb(bfam, B.delta(bfam, gens))
                assert {k for k, v in signed.items() if v} == {
                    k for k, v in bare.items() if v
                }
                nontrivial += bool(signed)
        assert nontrivial > 500  # the comparison is not vacuous
    assert c.elapsed < 60.0


def test_criterion_06_unit_and_contracting_homotopy():
    with _Clock() as c:
        circle = B.example_library()["circle"]
        report = B.check_unit(circle, "M", B.TruncationWindow(qmax=5))
        assert report.passed
    assert c.elapsed < 10.0


def test_criterion_07_chain_map_and_homotopy_relations():
    from test_barcx import _conjugated_pair, _identity_h

    with _Clock() as c:
        window = B.TruncationWindow(qmax=4)
        poly = B.example_library()["polynomial"]
        assert B.check_chain_map(_identity_h(poly), poly, poly, window).passed
        m0, m1, h = _conjugated_pair()
        assert B.check_chain_map(h, m0, m1, window).passed
        h_id = _identity_h(poly)
        kzero = B.OperationFamily("k", list(poly.gens.values()), {}, n=poly.n)
        assert B.check_homotopy(h_id, h_id, kzero, poly, poly, window).passed
    assert c.elapsed < 30.0


def test_criterion_08_index_bookkeeping():
    with _Clock() as c:
        rng = random.Random(8)
        for _ in range(10_000):
            n = rng.randint(1, 4)
            l1, l2 = rng.randint(1, 5), rng.randint(1, 5)
            mus1 = [rng.randint(0, n) for _ in range(l1 + 1)]
            mus2 = [rng.randint(0, n) for _ in range(l2 + 1)]
            f1, f2 = rng.randint(0, 8), rng.randint(0, 8)
            j = rng.randint(1, l1)
            mus2[0] = mus1[j]
            i1 = mus1[0] - sum(mus1[1:]) + f1
            i2 = mus2[0] - sum(mus2[1:]) + f2
            glued = mus1[1:j] + mus2[1:] + mus1[j + 1 :]
            assert mus1[0] - sum(glued) + f1 + f2 == i1 + i2
        # coker_dim = ambient - codim over every enumerated cluster type
        for l in range(2, 6):
            for k in range(0, 3):
                if strata.dimension("K", l, k) < 0:
                    continue
                ambient = strata.dimension("K", l, k)
                for s in strata.face_poset("K", l, k).strata:
                    edges = list(s.tree.edges())
                    states = {
                        e: ("broken" if i % 2 else "node")
                        for i, e in enumerate(edges)
                    }
                    ct = strata.ClusterType(s, states)
                    assert I.coker_dim(ct, l, k) == ambient - s.codim
        # audit bounds, both branches
        from clustercx.trees import LEAF, PlanarTree, vertex

        t = PlanarTree(vertex(4, False, (LEAF, LEAF)))
        rec = I.reduce(t, {"type": "I", "disk": (), "d": 2})
        rep = I.reduction_index_audit(rec, 1, n=3)
        assert rep["index_drop"] >= 2
        assert rep["final_bound"] == 2 * rec.after.num_marks - 1
        rec = I.reduce(
            t, {"type": "gen-II", "interior_incidences": 1, "removed_marks": 2}
        )
        rep = I.reduction_index_audit(rec, 1, n=2)
        assert rep["final_bound"] == 2 * 2 - 1 - (2 - 1) * 1
    assert c.elapsed < 30.0


def test_criterion_09_symmetric_tiles():
    import math

    from clustercx.trees import PlanarTree, vertex

    with _Clock() as c:
        for l in range(2, 6):
            tc = strata.tile_complex(l, 1)
            assert tc.n_tiles == math.factorial(l)
            assert strata.orientation_consistency(tc)
        chain = PlanarTree(
            vertex(1, False, (vertex(0, False, (vertex(1, False, ()),)),))
        )
        model = strata.local_group_model(strata.Stratum("Ks", chain))
        assert model.codim == 2
        assert len(model.generators) == 1
        assert model.order == 2
        (_, flips), = model.generators
        assert flips == frozenset({0, 1})
    assert c.elapsed < 30.0


def test_criterion_10_collar_smoothing_maps():
    with _Clock() as c:
        rng = random.Random(10)
        pool = []
        for l in (2, 3, 4):
            for e in range(1, 9):
                pool += trees.enumerate_colored_types(l, 0, e)
        pool = [t for t in pool if t.n_edges >= 1 and t.n_edges <= 8]
        # fixed point chi(X^0) = eps^{M_l} and sum M_l = 1 per color chain
        for t in pool:
            exp = L.exponents(t)
            lab0 = L.EdgeLabeling(t, {e: Fraction(0) for e in t.edges()})
            chi0 = L.chi_quilted(lab0, Fraction(1, 2))
            for e in t.edges():
                assert chi0[e] == L.EpsFrac.eps_power(exp.m[e])
            for chain in L._color_walk(t)[1]:
                if chain:
                    assert sum(exp.m[e] for e in chain) == 1
        # balancedness preservation + injectivity on 10^3 seeded samples
        targets = [t for t in pool if not t.root[1] and t.n_edges >= 2][:5]
        per = 1000 // len(targets)
        for t in targets:
            seen = {}
            for _ in range(per):
                lab = L.random_balanced(t, rng)
                chi = L.chi_quilted(lab, Fraction(1, 2))
                assert all(
                    p == L.color_products(chi)[0]
                    for p in L.color_products(chi)
                )
                key_in = json.dumps(L.labeling_to_obj(lab), sort_keys=True)
                key_out = json.dumps(
                    L.labeling_to_obj(chi, eps=Fraction(1, 2)), sort_keys=True
                )
                if key_out in seen:
                    assert seen[key_out] == key_in
                seen[key_out] = key_in
        # unquilted map stays in range and is injective on samples
        t = trees.enumerate_types(3, 0, 1)[0]
        vals = set()
        for i in range(50):
            lab = L.EdgeLabeling(t, {e: Fraction(i, 97) for e in t.edges()})
            out = L.chi_unquilted(lab, Fraction(1, 2))
            v = tuple(out[e] for e in t.edges())
            assert v not in vals
            vals.add(v)
    assert c.elapsed < 30.0
