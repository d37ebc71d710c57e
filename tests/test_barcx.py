"""Word differential, relation checkers, suspension, and the dual DGA."""

import hashlib
import json
import random
import sys
from itertools import product

import pytest

from clustercx import barcx as B
from clustercx.errors import BlockError, CapError, RangeError, ShapeError
from clustercx.signs import koszul_apply

WINDOW = B.TruncationWindow(qmax=5, emax=8)


@pytest.fixture(scope="module")
def lib():
    return B.example_library()


def _count_delta_images(monkeypatch):
    """The (family, word) pairs whose delta image is built from here on,
    in order: the calls of the per-word image function of every delta
    word map."""
    calls = []
    real = B._delta_image

    def counted(dmap, gens, tail):
        calls.append((dmap.fam, gens))
        return real(dmap, gens, tail)

    monkeypatch.setattr(B, "_delta_image", counted)
    return calls


def _kept_maps(monkeypatch, make):
    """The word maps that B.<make> builds from here on, in order."""
    maps = []
    real = getattr(B, make)

    def kept(fam):
        maps.append(real(fam))
        return maps[-1]

    monkeypatch.setattr(B, make, kept)
    return maps


class TestAInfinity:
    @pytest.mark.parametrize("name", ["polynomial", "exterior", "circle"])
    def test_delta_squared_zero(self, lib, name):
        assert B.check_a_infinity(lib[name], WINDOW).passed

    @pytest.mark.parametrize("name", ["polynomial", "exterior", "circle"])
    def test_gj_relations(self, lib, name):
        assert B.check_gj_relations(lib[name], WINDOW).passed

    @pytest.mark.parametrize("name", ["polynomial", "exterior", "circle"])
    @pytest.mark.parametrize("suspended", [False, True])
    def test_each_delta_computed_once(self, lib, monkeypatch, name, suspended):
        # the outer and the inner delta of delta o delta read one map, so
        # a word's image is built once per distinct word: every basis word,
        # every word in their images and every suffix of those
        counted = _count_delta_images(monkeypatch)
        report = B.check_a_infinity(lib[name], WINDOW, via_suspension=suspended)
        assert report.passed
        calls = [gens for _, gens in counted]
        words = set(B.basis_words(lib[name], WINDOW))
        assert len(words) == report.n_words
        assert len(calls) == len(set(calls)) and words <= set(calls)

    @pytest.mark.parametrize("suspended", [False, True])
    def test_no_full_length_image_held(self, lib, monkeypatch, suspended):
        # the outer delta of a word of qmax factors is built but not held:
        # such a word is the suffix of no window word
        maps = _kept_maps(monkeypatch, "_delta_map")
        fam = lib["polynomial"]
        assert B.check_a_infinity(fam, WINDOW, via_suspension=suspended).passed
        assert len(maps) == 1 and max(map(len, maps[0])) == WINDOW.qmax - 1

    def test_negative_control(self, lib):
        obj = B.family_to_obj(lib["polynomial"])
        for rule in obj["ops"]["m"]["2"]:
            if rule["in"] == ["a", "a"]:
                rule["out"] = [{"sym": "a2", "d": 0, "coef": 2}]
        report = B.check_a_infinity(B.family_from_obj(obj), WINDOW)
        assert not report.passed
        word, residue = report.failures[0]
        assert residue  # located witness

    def test_template_raises_listing_missing(self, lib):
        with pytest.raises(ShapeError, match="unfilled"):
            lib["quantum_template"]()

    def test_degree_law_enforced(self):
        with pytest.raises(ShapeError, match="degree law"):
            B.OperationFamily(
                "m",
                [B.Generator("x", 0), B.Generator("y", 1)],
                {2: {("x", "x"): [("y", 0, 1)]}},
                n=2,
            )


class TestSuspension:
    def test_involution(self, lib):
        fam = lib["polynomial"]
        fam2 = B.suspend(B.suspend(fam))
        assert fam2.ops == fam.ops and fam2.suspended == fam.suspended

    def test_support_equality_seeded(self):
        rng = random.Random(7)
        window = B.TruncationWindow(qmax=4)
        nontrivial = 0
        for _ in range(20):
            fam = B.random_family(rng)
            bfam = B.suspend(fam)
            assert bfam.suspended
            for gens in B.basis_words(fam, window):
                r1 = B.delta_comb(fam, B.delta(fam, gens))
                r2 = B.delta_comb(bfam, B.delta(bfam, gens))
                s1 = {k for k, v in r1.items() if v}
                s2 = {k for k, v in r2.items() if v}
                assert s1 == s2
                nontrivial += bool(s1)
        assert nontrivial > 100


class TestUnit:
    def test_circle_unit(self, lib):
        assert B.check_unit(lib["circle"], "M", B.TruncationWindow(qmax=4)).passed

    def test_polynomial_unit(self, lib):
        assert B.check_unit(lib["polynomial"], "1", B.TruncationWindow(qmax=3)).passed

    def test_each_delta_computed_once(self, lib, monkeypatch):
        # delta(U(w)) and delta(w) read one map, and delta(w) is the tail
        # of delta(U(w)), so each word's image is built once
        fam, window = lib["circle"], B.TruncationWindow(qmax=4)
        counted = _count_delta_images(monkeypatch)
        assert B.check_unit(fam, "M", window).passed
        calls = [gens for _, gens in counted]
        words = set(B.basis_words(fam, window))
        assert len(calls) == len(set(calls))
        assert words | {("M",) + w for w in words} <= set(calls)

    def test_circle_matches_cup_oracle(self, lib):
        o = B.circle_cup_oracle()
        assert o["unit_left"] == o["gen"]
        assert o["unit_right"] == o["gen"]
        fam = lib["circle"]
        assert fam.apply(2, ("M", "m")) == {("m", 0): 1}
        assert fam.apply(2, ("m", "M")) == {("m", 0): 1}
        assert fam.apply(2, ("m", "m")) == {}
        assert fam.apply(1, ("m",)) == {}

    @staticmethod
    def _circle_with(lib, arity, rules):
        obj = B.family_to_obj(lib["circle"])
        obj["ops"]["m"][str(arity)] = [
            {"in": list(ins), "out": [{"sym": out, "d": 0, "coef": c}]}
            for ins, out, c in rules
        ]
        return B.family_from_obj(obj)

    def test_unit_rejects_nonzero_m1(self, lib):
        # m1(M) = m: the pointwise entry comes first, then every window word
        # fails the contracting homotopy by the new m1 term, in basis order
        fam = self._circle_with(lib, 1, [(("M",), "m", 1)])
        report = B.check_unit(fam, "M", B.TruncationWindow(qmax=2))
        assert report.n_words == 8
        assert report.failures == [
            ((("m1", "M"), 0), {("m", 0): 1}),
            ((("M",), 0), {(("m", "M"), 0): -1}),
            ((("m",), 0), {(("m", "m"), 0): -1}),
            ((("M", "M"), 0), {(("m", "M", "M"), 0): 1}),
            ((("M", "m"), 0), {(("m", "M", "m"), 0): 1}),
            ((("m", "M"), 0), {(("m", "m", "M"), 0): 1}),
            ((("m", "m"), 0), {(("m", "m", "m"), 0): 1}),
        ]

    def test_unit_rejects_higher_constant_on_the_unit(self, lib):
        # m3 constants whose first input is M: one pointwise entry each, in
        # the family's rule order, before the contracting-homotopy words
        fam = self._circle_with(
            lib, 3, [(("M", "m", "m"), "m", 1), (("M", "M", "m"), "M", 2)]
        )
        report = B.check_unit(fam, "M", B.TruncationWindow(qmax=2))
        assert report.n_words == 8
        assert report.failures == [
            ((("M", "m", "m"), 0), {("m", 0): 1}),
            ((("M", "M", "m"), 0), {("M", 0): 2}),
            ((("M", "m"), 0), {(("M",), 0): 2}),
            ((("m", "m"), 0), {(("m",), 0): 1}),
        ]


def _two_maps(make, f1, f0):
    """A stand-in for barcx._word_maps that never shares a map."""
    return make(f1), make(f0)


def _identity_h(fam, c=1):
    return B.OperationFamily(
        "h",
        list(fam.gens.values()),
        {1: {(s,): [(s, 0, c)] for s in fam.gens}},
        n=fam.n,
        NL=fam.NL,
        c=fam.c,
    )


def _conjugated_pair():
    names = ["1", "a", "a2", "a3", "a4"]
    idx = {s: i for i, s in enumerate(names)}

    def mul(x, y):
        i = idx[x] + idx[y]
        return names[i] if i < len(names) else None

    def phi(s):
        return {s: 1, "a2": 1} if s == "a" else {s: 1}

    def phi_inv(s):
        return {s: 1, "a2": -1} if s == "a" else {s: 1}

    rules1 = {
        (x, y): ([] if mul(x, y) is None else [(mul(x, y), 0, 1)])
        for x in names
        for y in names
    }
    m1 = B.OperationFamily(
        "m", [B.Generator(s, 0) for s in names], {2: rules1}, n=2
    )
    rules0 = {}
    for x in names:
        for y in names:
            acc = {}
            for sx, cx in phi_inv(x).items():
                for sy, cy in phi_inv(y).items():
                    p = mul(sx, sy)
                    if p is None:
                        continue
                    for sz, cz in phi(p).items():
                        acc[sz] = acc.get(sz, 0) + cx * cy * cz
            rules0[(x, y)] = [(s, 0, c) for s, c in acc.items() if c]
    m0 = B.OperationFamily(
        "m", [B.Generator(s, 0) for s in names], {2: rules0}, n=2
    )
    h = B.OperationFamily(
        "h",
        [B.Generator(s, 0) for s in names],
        {1: {(s,): [(t, 0, c) for t, c in phi(s).items()] for s in names}},
        n=2,
    )
    return m0, m1, h


class TestMorphismsAndHomotopies:
    def test_identity_chain_map(self, lib):
        fam = lib["polynomial"]
        report = B.check_chain_map(
            _identity_h(fam), fam, fam, B.TruncationWindow(qmax=4)
        )
        assert report.passed

    def test_conjugation_chain_map(self):
        m0, m1, h = _conjugated_pair()
        assert B.check_a_infinity(m0, B.TruncationWindow(qmax=4)).passed
        assert B.check_chain_map(h, m0, m1, B.TruncationWindow(qmax=4)).passed

    def test_zero_homotopy(self, lib):
        fam = lib["polynomial"]
        h = _identity_h(fam)
        kzero = B.OperationFamily(
            "k", list(fam.gens.values()), {}, n=fam.n, NL=fam.NL
        )
        report = B.check_homotopy(
            h, h, kzero, fam, fam, B.TruncationWindow(qmax=4)
        )
        assert report.passed

    def test_each_delta_computed_once(self, monkeypatch):
        # delta(1) of the source words and delta(0) of the images each read
        # one map per check, so each builds a word's image once; delta(1)
        # covers the basis.  K is zero here, so the homotopy check applies
        # delta(0) to no word
        m0, m1, h = _conjugated_pair()
        kzero = B.OperationFamily("k", list(m1.gens.values()), {}, n=2)
        window = B.TruncationWindow(qmax=3)
        words = set(B.basis_words(m1, window))
        calls = _count_delta_images(monkeypatch)
        for check, any_delta0 in (
            (lambda: B.check_chain_map(h, m0, m1, window), True),
            (lambda: B.check_homotopy(h, h, kzero, m0, m1, window), False),
        ):
            del calls[:]
            report = check()
            assert report.passed and report.n_words == len(words)
            delta1 = [gens for fam, gens in calls if fam is m1]
            delta0 = [gens for fam, gens in calls if fam is m0]
            assert len(delta1) + len(delta0) == len(calls)
            assert len(delta1) == len(set(delta1)) and words <= set(delta1)
            assert len(delta0) == len(set(delta0)) and bool(delta0) == any_delta0

    def test_no_full_length_source_image_held(self, monkeypatch):
        # delta(1) and H build the images of the words of qmax factors but
        # do not hold them; delta(0) is another map here, so it reads none
        # of delta(1)'s images
        m0, m1, h = _conjugated_pair()
        window = B.TruncationWindow(qmax=4)
        deltas = _kept_maps(monkeypatch, "_delta_map")
        hs = _kept_maps(monkeypatch, "_morphism_map")
        assert B.check_chain_map(h, m0, m1, window).passed
        assert [D.fam for D in deltas] == [m1, m0] and len(hs) == 1
        assert max(map(len, deltas[0])) == max(map(len, hs[0])) == 3

    def test_one_delta_map_for_one_family(self, lib, monkeypatch):
        # a source and target with equal tables, as one object or two, share
        # one delta map, so each word's image is built once: 780 basis words
        # and the empty word.  The reports, failing ones (H = 2 id) too,
        # match those of two maps; the conjugated pair keeps two maps
        fam = lib["polynomial"]
        twin = B.family_from_obj(B.family_to_obj(fam))
        window = B.TruncationWindow(qmax=4)
        kzero = B.OperationFamily("k", list(fam.gens.values()), {}, n=fam.n)
        cases = []
        for m0 in (fam, twin):
            for h in (_identity_h(fam), _identity_h(fam, 2)):
                cases.append(
                    (m0, fam, lambda h=h, m0=m0: B.check_chain_map(h, m0, fam, window))
                )
                cases.append(
                    (
                        m0,
                        fam,
                        lambda h=h, m0=m0: B.check_homotopy(
                            h, h, kzero, m0, fam, window
                        ),
                    )
                )
        c0, c1, ch = _conjugated_pair()
        cases.append((c0, c1, lambda: B.check_chain_map(ch, c0, c1, window)))

        calls = _count_delta_images(monkeypatch)
        verdicts = []
        for m0, m1, check in cases:
            del calls[:]
            report = check()
            verdicts.append(report.passed)
            assert len(calls) == len(set(calls))
            if m1 is c1:
                assert {f for f, _ in calls} == {m0, m1}
            else:
                assert {f for f, _ in calls} == {m1} and len(calls) == 781
            with monkeypatch.context() as mp:
                mp.setattr(B, "_word_maps", _two_maps)
                assert check().to_obj() == report.to_obj()
        assert True in verdicts and False in verdicts
        # equal (empty) tables of another role share no map: delta refuses it
        gens = list(fam.gens.values())
        empty_m = B.OperationFamily("m", gens, {})
        empty_h = B.OperationFamily("h", gens, {})
        with pytest.raises(ShapeError, match="differential family"):
            B.check_chain_map(_identity_h(fam), empty_h, empty_m, window)


class TestDual:
    @pytest.mark.parametrize("name", ["polynomial", "exterior", "circle"])
    def test_dual_squares_zero_and_leibniz(self, lib, name):
        fam = lib[name]
        window = B.TruncationWindow(qmax=4)
        for gens in B.basis_words(fam, window):
            dd = {}
            for (g2, d2), c in B.dga_differential(fam, gens).items():
                for (g3, d3), c3 in B.dga_differential(fam, g2, d2).items():
                    B._add_term(dd, g3, d3, c * c3)
            assert not dd
        assert B.check_leibniz(fam, window).passed

    def test_derivation_matches_reference(self, lib):
        # the library families and four seeded random ones, each in both
        # conventions, on every word up to 4 factors and at d = 0 and 1
        fams = [lib[name] for name in ("polynomial", "exterior", "circle")]
        rng = random.Random(33)
        fams += [B.random_family(rng) for _ in range(4)]
        window = B.TruncationWindow(qmax=4)
        nonzero = 0
        for fam in fams:
            for m in (fam, B.suspend(fam)):
                for gens in B.basis_words(m, window):
                    for d in (0, 1):
                        got = B.dga_differential(m, gens, d)
                        assert got == _reference_dga(m, gens, d), (gens, d)
                    nonzero += bool(got)
        assert nonzero > 1000

    def test_leibniz_builds_each_image_once(self, lib, monkeypatch):
        # one derivation map per check: the whole word and both parts of
        # every split read it, so each distinct word's image is built once;
        # a word of 6 factors is no part of another, so none is held
        calls, maps = [], []
        real, real_map = B._derivation_image, B._derivation_map

        def counted(dmap, gens, tail):
            calls.append(gens)
            return real(dmap, gens, tail)

        def kept(fam):
            maps.append(real_map(fam))
            return maps[-1]

        monkeypatch.setattr(B, "_derivation_image", counted)
        monkeypatch.setattr(B, "_derivation_map", kept)
        fam = lib["exterior"]
        window = B.TruncationWindow(qmax=6)
        assert B.check_leibniz(fam, window).passed
        assert len(calls) == len(set(calls))
        assert set(calls) == set(B.basis_words(fam, window))
        assert len(maps) == 1 and max(map(len, maps[0])) == 5

    def test_transpose_involution(self, lib):
        fam = lib["polynomial"]
        dual = B.opposite(fam)
        back = {}
        for sym, comb in dual.items():
            for (pat, d), c in comb.items():
                back.setdefault(len(pat), {}).setdefault(pat, {})[(sym, d)] = c
        orig = {}
        for l, rules in fam.ops.items():
            for pat, outs in rules.items():
                if outs:
                    orig.setdefault(l, {})[pat] = dict(outs)
        assert back == orig


class TestWordsAndIO:
    def test_block_constraint(self):
        gens = [
            B.Generator("x", 0),
            B.Generator("u", 1, (1, 2)),
            B.Generator("v", 1, (2, 3)),
        ]
        fam = B.OperationFamily("m", gens, {}, n=2, c=3)
        fam.validate_word(("x", "u", "x", "v"))
        with pytest.raises(BlockError):
            fam.validate_word(("v", "u"))

    def test_serialization_round_trip(self, lib):
        fam = lib["circle"]
        fam2 = B.family_from_obj(B.family_to_obj(fam))
        assert fam2.ops == fam.ops
        assert fam2.n == fam.n and fam2.NL == fam.NL


# -- oracle: the explicit-parity bodies the sign-calculus engine replaced ------


def _reference_delta(fam, gens, d=0, suspended=None):
    if suspended is None:
        suspended = fam.suspended
    fam.validate_word(gens)
    Q = len(gens)
    out = {}
    for l in fam.arities():
        if l > Q:
            continue
        q_out = Q - l + 1
        for j in range(1, Q - l + 2):
            rules = fam.apply(l, gens[j - 1 : j - 1 + l])
            if not rules:
                continue
            if suspended:
                parity = sum((fam.mu(s) - 1) for s in gens[: j - 1])
            else:
                prefix_mu = sum(fam.mu(s) for s in gens[: j - 1])
                parity = (q_out - j) * l + (j - 1) + l * prefix_mu
            sign = -1 if parity % 2 else 1
            for (sym, dd), coef in rules.items():
                new = gens[: j - 1] + (sym,) + gens[j - 1 + l :]
                fam.validate_word(new)
                B._add_term(out, new, d + dd, sign * coef)
    return out


def _reference_gj_relation(fam, gens):
    Q = len(gens)
    out = {}
    for l2 in fam.arities():
        if l2 > Q:
            continue
        l1 = Q - l2 + 1
        for j in range(1, Q - l2 + 2):
            inner = fam.apply(l2, gens[j - 1 : j - 1 + l2])
            if not inner:
                continue
            degs = [fam.mu(s) for s in gens]
            parity = (
                l2 * sum(degs[: j - 1])
                + (j - 1) * (l2 - 1)
                + (l1 - 1) * l2
            )
            sign = -1 if parity % 2 else 1
            for (sym, dd), icoef in inner.items():
                new = gens[: j - 1] + (sym,) + gens[j - 1 + l2 :]
                outer = fam.apply(l1, new)
                for (sym2, dd2), ocoef in outer.items():
                    B._add_term(out, (sym2,), dd + dd2, sign * icoef * ocoef)
    return out


def _reference_dga(fam, gens, d=0):
    """The dual derivation position by position, with no word map and no
    running prefix: the transposed, suspended operation at position j
    signed by koszul_apply(1, j, 1) on the shifted degrees of the word."""
    bfam = fam if fam.suspended else B.suspend(fam)
    bfam.validate_word(gens)
    dual = B.opposite(bfam)
    sdegs = [bfam.mu(s) - 1 for s in gens]
    out = {}
    for j in range(1, len(gens) + 1):
        sign = koszul_apply(1, j, 1, sdegs)
        for (rep, dd), coef in dual.get(gens[j - 1], {}).items():
            new = gens[: j - 1] + rep + gens[j:]
            bfam.validate_word(new)
            B._add_term(out, new, d + dd, sign * coef)
    return out


def _reference_compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _reference_compositions(total - first, parts - 1):
            yield (first,) + rest


def _reference_morphism_H(hfam, gens, d=0):
    hfam.validate_word(gens)
    Q = len(gens)
    out = {}
    for q in range(1, Q + 1):
        for comp in _reference_compositions(Q, q):
            prefactor = sum(
                (q - i) * (comp[i - 1] - 1) for i in range(1, q + 1)
            )
            pos = 0
            terms = [((), 0, 1)]
            parity = prefactor
            ok = True
            for i, l in enumerate(comp):
                block = gens[pos : pos + l]
                rules = hfam.apply(l, block)
                if not rules:
                    ok = False
                    break
                opdeg = (1 - l) % 2
                parity += opdeg * sum(hfam.mu(s) for s in gens[:pos])
                new_terms = []
                for tgens, td, tcoef in terms:
                    for (sym, dd), coef in rules.items():
                        new_terms.append(
                            (tgens + (sym,), td + dd, tcoef * coef)
                        )
                terms = new_terms
                pos += l
            if not ok:
                continue
            sign = -1 if parity % 2 else 1
            for tgens, td, tcoef in terms:
                B._add_term(out, tgens, d + td, sign * tcoef)
    return out


def _reference_homotopy_K(h0, h1, kfam, gens, d=0):
    Q = len(gens)
    out = {}
    for q in range(1, Q + 1):
        for comp in _reference_compositions(Q, q):
            base = q + sum(
                (q - i) * (comp[i - 1] - 1) for i in range(1, q + 1)
            )
            for p in range(1, q + 1):
                parity = base + sum(comp[i] - 1 for i in range(p - 1))
                pos = 0
                terms = [((), 0, 1)]
                ok = True
                for i, l in enumerate(comp):
                    block = gens[pos : pos + l]
                    if i == p - 1:
                        rules = kfam.apply(l, block)
                        opdeg = (-l) % 2
                    else:
                        fam = h1 if i < p - 1 else h0
                        rules = fam.apply(l, block)
                        opdeg = (1 - l) % 2
                    if not rules:
                        ok = False
                        break
                    parity += opdeg * sum(
                        kfam.mu(s) for s in gens[:pos]
                    )
                    new_terms = []
                    for tgens, td, tcoef in terms:
                        for (sym, dd), coef in rules.items():
                            new_terms.append(
                                (tgens + (sym,), td + dd, tcoef * coef)
                            )
                    terms = new_terms
                    pos += l
                if not ok:
                    continue
                sign = -1 if parity % 2 else 1
                for tgens, td, tcoef in terms:
                    B._add_term(out, tgens, d + td, sign * tcoef)
    return out


def _reference_comb(fn, comb):
    """The linear extension the checkers applied before word maps."""
    out = {}
    for (gens, d), coef in comb.items():
        for (g2, d2), c2 in fn(gens, d).items():
            B._add_term(out, g2, d2, coef * c2)
    return out


_SHIFT = {"m": 2, "h": 1, "k": 0}


def _random_ops(rng, role, coidx, arities=(1, 2, 3), density=0.6, NL=2):
    """A random family of the given role obeying the degree law."""
    names = sorted(coidx)
    ops = {}
    for l in arities:
        rules = {}
        for pattern in product(names, repeat=l):
            if rng.random() > density:
                continue
            mu_in = sum(coidx[s] for s in pattern)
            outs = []
            for d in range(3):
                want = mu_in + _SHIFT[role] - l - d * NL
                for sym in names:
                    if coidx[sym] == want and rng.random() < 0.6:
                        outs.append((sym, d, rng.choice([-2, -1, 1, 2, 3])))
            if outs:
                rules[pattern] = outs
        ops[l] = rules
    gens = [B.Generator(s, coidx[s]) for s in names]
    return B.OperationFamily(role, gens, ops, n=2, NL=NL)


def _random_setups(seed, count):
    """Seeded (m0, m1, h0, h1, k) families on one random generator set."""
    rng = random.Random(seed)
    for _ in range(count):
        coidx = {"g%d" % i: rng.randint(0, 2) for i in range(3)}
        yield tuple(_random_ops(rng, role, coidx) for role in "mmhhk")


def _labelled(fam, labels, c):
    """fam with interval labels on some generators and c intervals."""
    gens = [B.Generator(s, g.coidx, labels.get(s, "f")) for s, g in fam.gens.items()]
    ops = {
        l: {pat: [(s, d, k) for (s, d), k in outs.items()] for pat, outs in rules.items()}
        for l, rules in fam.ops.items()
    }
    return B.OperationFamily(fam.role, gens, ops, n=fam.n, NL=fam.NL, c=c)


# arities of (h0, h1, k): h of arity 1 only or {2, 3} only, an empty k, a k
# of arity 1 only, so that most first blocks have no constants; arity-0
# constants, which no block composition uses, must be ignored
_SPARSE_ARITIES = [
    ((1,), (1,), (1, 2, 3)),
    ((2, 3), (2, 3), (1, 2, 3)),
    ((1,), (2, 3), ()),
    ((2, 3), (1,), (1,)),
    ((1, 2, 3), (2, 3), (1,)),
    ((2, 3), (1, 2, 3), ()),
    ((1,), (1, 2, 3), (2, 3)),
    ((0, 1), (0, 2, 3), (0, 1)),
]


def _sparse_setups(seed):
    """Seeded (h0, h1, k) triples of the sparse arities above, each once
    plain and once with two interval-labelled generators (c = 2)."""
    rng = random.Random(seed)
    for arities in _SPARSE_ARITIES:
        coidx = {"g%d" % i: rng.randint(0, 2) for i in range(3)}
        fams = [
            _random_ops(rng, role, coidx, arities=a, density=0.8)
            for role, a in zip("hhk", arities)
        ]
        yield fams
        labels = {"g1": (0, 1), "g2": (1, 2)}
        yield [_labelled(f, labels, 2) for f in fams]


class TestReferenceOracle:
    def test_sparse_word_maps_match_reference(self):
        window = B.TruncationWindow(qmax=5)
        nonzero_H = nonzero_K = labelled_words = 0
        for h0, h1, k in _sparse_setups(21):
            words = B.basis_words(h0, window)
            labelled_words += len(words) < 363
            for gens in words:
                for d in (0, 2):
                    H = B.morphism_H(h1, gens, d)
                    assert H == _reference_morphism_H(h1, gens, d)
                    K = B.homotopy_K(h0, h1, k, gens, d)
                    assert K == _reference_homotopy_K(h0, h1, k, gens, d)
                assert B.morphism_H(h0, gens) == _reference_morphism_H(h0, gens)
                nonzero_H += bool(H)
                nonzero_K += bool(K)
        assert labelled_words == len(_SPARSE_ARITIES)
        assert nonzero_H > 800 and nonzero_K > 800

    def test_word_maps_match_reference(self):
        window = B.TruncationWindow(qmax=4)
        shorter_H = shorter_K = 0
        for m0, _, h0, h1, k in _random_setups(11, 6):
            # both sign conventions: the family's own and the suspended one
            both = (m0, B.suspend(m0))
            assert [m.suspended for m in both] == [False, True]
            for gens in B.basis_words(m0, window):
                for d in (0, 1):
                    for m in both:
                        assert B.delta(m, gens, d) == _reference_delta(m, gens, d)
                    H = B.morphism_H(h0, gens, d)
                    assert H == _reference_morphism_H(h0, gens, d)
                    K = B.homotopy_K(h0, h1, k, gens, d)
                    assert K == _reference_homotopy_K(h0, h1, k, gens, d)
                assert B.gj_relation(m0, gens) == _reference_gj_relation(m0, gens)
                # terms from a block of arity >= 2 shorten the word
                shorter_H += any(len(g) < len(gens) for g, _ in H)
                shorter_K += any(len(g) < len(gens) for g, _ in K)
        assert shorter_H > 200 and shorter_K > 100

    @pytest.mark.parametrize("name", ["exterior", "circle"])
    def test_long_words_match_reference(self, lib, name):
        # words of up to 8 factors, so delta's prefix degree sums run
        # longer than in the random setups above
        fam = lib[name]
        words = B.basis_words(fam, B.TruncationWindow(qmax=8))
        assert len(words) == 510
        nonzero = 0
        for m in (fam, B.suspend(fam)):
            for gens in words:
                for d in (0, 1):
                    got = B.delta(m, gens, d)
                    assert got == _reference_delta(m, gens, d)
                nonzero += bool(got)
        assert nonzero > 500

    def test_reports_match_reference_on_failing_families(self):
        window = B.TruncationWindow(qmax=3)
        failing = 0
        for m0, m1, h0, h1, k in _random_setups(12, 6):
            # unequal ends: both outer H images enter the homotopy residue
            assert h0.ops != h1.ops
            bm0 = B.suspend(m0)

            def dd(fam, g):
                return _reference_comb(
                    lambda g2, d2: _reference_delta(fam, g2, d2),
                    _reference_delta(fam, g),
                )

            def H(g, d=0):
                return _reference_morphism_H(h0, g, d)

            def K(g, d=0):
                return _reference_homotopy_K(h0, h1, k, g, d)

            def d0(g, d=0):
                return _reference_delta(m0, g, d)

            def chain_map(g):
                return B._sub(
                    _reference_comb(H, _reference_delta(m1, g)), _reference_comb(d0, H(g))
                )

            def homotopy(g):
                res = B._sub(_reference_morphism_H(h1, g), H(g))
                res = B._sub(res, _reference_comb(K, _reference_delta(m1, g)))
                return B._sub(res, _reference_comb(d0, K(g)))

            cases = [
                (B.check_a_infinity(m0, window), m0, lambda g: dd(m0, g)),
                (
                    B.check_a_infinity(m0, window, via_suspension=True),
                    m0,
                    lambda g: dd(bm0, g),
                ),
                (
                    B.check_gj_relations(m0, window),
                    m0,
                    lambda g: _reference_gj_relation(m0, g),
                ),
                (B.check_chain_map(h0, m0, m1, window), m1, chain_map),
                (B.check_homotopy(h0, h1, k, m0, m1, window), m1, homotopy),
            ]
            for got, fam, residue in cases:
                want = B._run_over_words(got.check, fam, window, residue)
                assert json.dumps(got.to_obj()) == json.dumps(want.to_obj())
                failing += not got.passed
        assert failing >= 25


def _delta_mismatches(fams, window):
    """Words of the window where delta and _reference_delta differ, over
    the families and each word at d = 0 and 1."""
    return sum(
        B.delta(fam, gens, d) != _reference_delta(fam, gens, d)
        for fam in fams
        for gens in B.basis_words(fam, window)
        for d in (0, 1)
    )


def _random_m_families(seed, arities):
    """Eight seeded random differential families, each plain and suspended."""
    rng = random.Random(seed)
    fams = [B.random_family(rng, arities=arities) for _ in range(8)]
    return fams + [B.suspend(f) for f in fams]


def _first_terminal(fam):
    """The trie node of fam's first pattern (in sorted order) of arity >= 1
    with constants."""
    l, pattern = min(
        (l, pat)
        for l, rules in fam.ops.items()
        if l
        for pat, outs in rules.items()
        if outs
    )
    node = fam.trie
    for sym in pattern:
        node = node[0][sym]
    return node


class TestPatternTrie:
    @pytest.mark.parametrize("arities", [(1, 2, 3), (0, 1, 2)], ids=["1-3", "0-2"])
    def test_delta_matches_reference(self, arities):
        # arity-0 constants are the trie's root terms, applied at every gap
        fams = _random_m_families(31, arities)
        assert _delta_mismatches(fams, B.TruncationWindow(qmax=5)) == 0
        nonzero = sum(
            bool(B.delta(f, g)) for f in fams for g in B.basis_words(f, WINDOW)
        )
        assert nonzero > 3000

    def test_trie_holds_every_constant(self, lib):
        library = [lib[name] for name in ("polynomial", "exterior", "circle")]
        labelled = _labelled(B.random_family(random.Random(34)), {"g1": (0, 1)}, 1)
        for fam in library + [labelled] + _random_m_families(32, (0, 1, 2, 3)):
            found = {}

            def walk(node, pattern):
                children, terms = node
                for sym, d, coef, labelled in terms:
                    found.setdefault(pattern, {})[(sym, d)] = coef
                    assert labelled == (fam.gens[sym].label != "f")
                for sym, child in children.items():
                    walk(child, pattern + (sym,))

            walk(fam.trie, ())
            want = {
                pat: outs for rules in fam.ops.values()
                for pat, outs in rules.items() if outs
            }
            assert found == want

    def test_negative_control_missing_terminal(self):
        # the reference comparison sees a trie that lost one pattern's terms
        fams = _random_m_families(31, (1, 2, 3))[:8]
        for fam in fams:
            _first_terminal(fam)[1] = ()
        assert _delta_mismatches(fams, B.TruncationWindow(qmax=3)) > 0

    def test_negative_control_unshifted_prefix(self):
        # suspended prefix degrees read without the shift mu - 1
        fams = _random_m_families(31, (1, 2, 3))[8:]
        assert all(f.suspended for f in fams)
        for fam in fams:
            fam.coidx = {s: c + 1 for s, c in fam.coidx.items()}
        assert _delta_mismatches(fams, B.TruncationWindow(qmax=3)) > 0

    def test_first_blocks_skip_arity_zero(self):
        # an h family whose only constant has arity 0: no first block
        # exists, so H vanishes on every word
        gens = [B.Generator("x", 0), B.Generator("y", 1)]
        h = B.OperationFamily("h", gens, {0: {(): [("y", 0, 1)]}})
        assert h.trie == [{}, (("y", 0, 1, False),)]
        for word in B.basis_words(h, B.TruncationWindow(qmax=3)):
            assert B.morphism_H(h, word) == {} == _reference_morphism_H(h, word)

    def test_labelled_words_raise_as_the_reference(self):
        # _reference_delta validates every rewrite, delta only those that
        # write a labelled symbol: both raise on the same words
        rng = random.Random(33)
        labels = {"g1": (0, 1), "g2": (1, 2)}
        raised = 0
        for _ in range(6):
            fam = _labelled(B.random_family(rng), labels, 2)
            for m in (fam, B.suspend(fam)):
                for gens in B.basis_words(m, B.TruncationWindow(qmax=4)):
                    try:
                        want = _reference_delta(m, gens)
                    except BlockError:
                        with pytest.raises(BlockError):
                            B.delta(m, gens)
                        raised += 1
                        continue
                    assert B.delta(m, gens) == want
        assert raised > 100

    def test_mid_word_rewrite_out_of_order(self):
        # m sends the middle x of (u, x, x) to v (0, 1), after u (1, 2)
        _, _, m = _interval_families()
        with pytest.raises(BlockError, match=r"out of order: 2 then \(0, 1\)"):
            B.delta(m, ("u", "x", "x"))
        with pytest.raises(BlockError, match=r"out of order: 2 then \(0, 1\)"):
            _reference_delta(m, ("u", "x", "x"))
        assert B.delta(m, ("x", "x", "u")) == _reference_delta(m, ("x", "x", "u"))

    @pytest.mark.parametrize("name", ["polynomial", "exterior", "circle"])
    @pytest.mark.parametrize("qmax", [1, 4, 7])
    def test_unlabelled_words_match_validating_path(self, lib, name, qmax):
        fam = lib[name]
        assert not fam.labelled
        syms = sorted(fam.gens)
        validated = []
        for q in range(1, qmax + 1):
            for gens in product(syms, repeat=q):
                fam.validate_word(gens)
                validated.append(gens)
        assert B.basis_words(fam, B.TruncationWindow(qmax=qmax)) == validated


class TestSuffixRecursion:
    @pytest.mark.parametrize("suspended", [False, True])
    def test_tail_flip_is_the_delta_parity_difference(self, suspended):
        # an arity-l term of delta(v), moved behind a symbol of co-index mu:
        # one more output factor, one position right, the symbol's degree
        # (mu, or mu - 1 suspended) added to the prefix
        checked = 0
        for q_out in range(1, 8):
            for j in range(1, q_out + 1):
                for l in range(q_out + 1):
                    for prefix in range(7):
                        for mu in range(3):
                            shifted = mu - 1 if suspended else mu
                            want = B.delta_parity(
                                q_out + 1, j + 1, l, prefix + shifted, suspended
                            ) ^ B.delta_parity(q_out, j, l, prefix, suspended)
                            assert B._tail_flips(mu, suspended)[l & 1] == want
                            checked += 1
        assert checked == 3 * 7 * sum(q * (q + 1) for q in range(1, 8))

    def test_unflipped_tails_mismatch_the_reference(self, monkeypatch):
        # negative control: tail terms copied with their signs in v
        monkeypatch.setattr(B, "_tail_flips", lambda mu, suspended: (0, 0))
        fams = _random_m_families(31, (1, 2, 3))
        assert _delta_mismatches(fams, B.TruncationWindow(qmax=3)) > 0

    def test_long_word_from_an_empty_map(self, lib):
        # one delta() call builds the images of all eleven proper suffixes
        fam = lib["exterior"]
        word = ("t", "1", "1", "t", "1", "t", "1", "1", "1", "1", "t", "1")
        for m in (fam, B.suspend(fam)):
            for d in (0, 1):
                got = B.delta(m, word, d)
                assert got == _reference_delta(m, word, d)
                assert got

    @pytest.mark.parametrize(
        "name, head", [("exterior", ("t", "t")), ("circle", ("m", "m"))]
    )
    def test_words_with_no_first_gap_terms(self, lib, name, head):
        # head multiplies to 0, so delta(x v) is the re-signed tail
        # x (x) delta(v) alone, built into an empty image
        fam = lib[name]
        for m in (fam, B.suspend(fam)):
            assert B.delta(m, head) == {}
            words = [
                gens
                for gens in B.basis_words(m, B.TruncationWindow(qmax=8))
                if gens[:2] == head
            ]
            images = [B.delta(m, gens) for gens in words]
            assert images == [_reference_delta(m, gens) for gens in words]
            assert (len(words), sum(map(bool, images))) == (127, 67)

    @pytest.mark.parametrize("which", ["delta", "morphism_H", "homotopy_K"])
    def test_word_longer_than_the_recursion_limit(self, lib, which):
        # the suffixes are built in a loop, not by recursion.  For H and K:
        # x of co-index 1 and y of co-index 0, h0 the identity, h1 the
        # identity on y alone and k sending x to y.  Every block is one
        # symbol, so the first-block signs give H0(w) = w, K(y v) =
        # -y (x) K(v) and K(x v) = (-1)^|v| y (x) H0(v) (h1 is 0 on x), and
        # K(y^a x^b) = (-1)^(a+b) y^(a+1) x^(b-1).  The reference confirms
        # both forms on short words; it lists every arity composition, too
        # many at the long word's length
        n = sys.getrecursionlimit()
        if which == "delta":
            word = ("m", "M") * n
            fam = lib["circle"]
            assert B.delta(fam, word) == _reference_delta(fam, word)
            return
        gens = [B.Generator("x", 1), B.Generator("y", 0)]
        h0 = B.OperationFamily("h", gens, {1: {(s,): [(s, 0, 1)] for s in "xy"}})
        h1 = B.OperationFamily("h", gens, {1: {("y",): [("y", 0, 1)]}})
        k = B.OperationFamily("k", gens, {1: {("x",): [("y", 0, 1)]}})

        def closed_form(a, b):
            word = ("y",) * a + ("x",) * b
            if which == "morphism_H":
                return word, {(word, 0): 1}
            return word, {(("y",) * (a + 1) + ("x",) * (b - 1), 0): (-1) ** (a + b)}

        def call(word):
            if which == "morphism_H":
                return B.morphism_H(h0, word)
            return B.homotopy_K(h0, h1, k, word)

        reference = {
            "morphism_H": lambda word: _reference_morphism_H(h0, word),
            "homotopy_K": lambda word: _reference_homotopy_K(h0, h1, k, word),
        }[which]
        for a, b in product(range(4), range(1, 4)):
            word, want = closed_form(a, b)
            assert reference(word) == want == call(word)
        word, want = closed_form(n, n)
        assert len(word) == 2 * sys.getrecursionlimit()
        assert call(word) == want

    def test_out_of_order_tail_behind_a_labelled_symbol(self):
        # m writes v (0, 1) in place of x.  Behind u (1, 2) that is out of
        # order at every gap j >= 1, while the suffix images are valid on
        # their own: the check is made where u is put in front of them
        _, _, m = _interval_families()
        message = r"^interval labels out of order: 2 then \(0, 1\)$"
        for word in (("u", "x"), ("u", "x", "x"), ("u", "x", "x", "x")):
            for call in (B.delta, _reference_delta):
                with pytest.raises(BlockError, match=message):
                    call(m, word)
            dmap = B._delta_map(m)
            assert dmap[word[1:]]  # held and valid
            with pytest.raises(BlockError, match=message):
                dmap.checked(word)


class TestResidueKernel:
    """What the residue kernel relies on: first-block parities read at r
    mod 2, one H map for one family, a kept-failures bound that counts
    every failing word, and validation of the words that enter from
    outside."""

    @pytest.mark.parametrize("parity", ["_h_parity", "_k_parity", "_h1_parity"])
    def test_parity_depends_on_r_mod_2(self, parity):
        fn = getattr(B, parity)
        checked = 0
        for l, head, r in product(range(1, 7), range(13), range(13)):
            for nv in range(r + 1):
                assert fn(l, head, r, nv) % 2 == fn(l, head, r % 2, nv) % 2
                checked += 1
        assert checked == 6 * 13 * sum(r + 1 for r in range(13))

    def test_one_H_map_for_one_family(self, monkeypatch):
        # h0 and h1 equal as two objects share one H map, and H(1) - H(0)
        # = 0 builds no outer image, so each held word is built once; the
        # reports, failing ones too, match those of two maps
        made, built = [], []
        make, image = B._morphism_map, B._morphism_image

        def counted_make(hfam):
            made.append(hfam)
            return make(hfam)

        def counted_image(H, gens, tail):
            built.append((id(H), gens))
            return image(H, gens, tail)

        window = B.TruncationWindow(qmax=3)
        verdicts = []
        for m0, m1, h0, _, k in _random_setups(14, 4):
            twin = B.family_from_obj(B.family_to_obj(h0))
            assert twin is not h0 and twin.ops == h0.ops
            with monkeypatch.context() as mp:
                mp.setattr(B, "_morphism_map", counted_make)
                mp.setattr(B, "_morphism_image", counted_image)
                report = B.check_homotopy(h0, twin, k, m0, m1, window)
            assert made == [twin] and len(built) == len(set(built))
            del made[:], built[:]
            with monkeypatch.context() as mp:
                mp.setattr(B, "_word_maps", _two_maps)
                assert B.check_homotopy(h0, twin, k, m0, m1, window).to_obj() == (
                    report.to_obj()
                )
            verdicts.append(report.passed)
        assert False in verdicts

    @pytest.mark.parametrize("keep", [0, 1, 3])
    def test_kept_failures_are_the_first_ones(self, keep):
        # a check given keep holds the first keep failures of the full
        # report and counts all of them; its verdict is the full one's
        window = B.TruncationWindow(qmax=3)
        for m0, m1, h0, h1, k in _random_setups(12, 3):
            for check in (
                lambda **kw: B.check_a_infinity(m0, window, **kw),
                lambda **kw: B.check_chain_map(h0, m0, m1, window, **kw),
                lambda **kw: B.check_homotopy(h0, h1, k, m0, m1, window, **kw),
            ):
                full, kept = check(), check(keep=keep)
                assert len(full.failures) > keep
                assert kept.failures == full.failures[:keep]
                assert kept.n_failing == full.n_failing == len(full.failures)
                assert kept.passed is full.passed is False

    def test_kept_report_counts_every_failing_word(self):
        # the JSON of a report made with keep tells how many words fail,
        # not only which ones it kept
        window = B.TruncationWindow(qmax=3)
        for m0, m1, h0, h1, k in _random_setups(12, 3):
            full = B.check_a_infinity(m0, window)
            obj = B.check_a_infinity(m0, window, keep=3).to_obj()
            assert len(full.failures) > 3 and len(obj["failures"]) == 3
            assert obj["failing_words"] == full.n_failing == len(full.failures)
            assert obj["failures"] == full.to_obj()["failures"][:3]

    def test_words_from_outside_are_validated(self, lib):
        fam = lib["polynomial"]
        h, kzero = _identity_h(fam), B.OperationFamily("k", list(fam.gens.values()), {})
        for call in (
            lambda w: B.delta(fam, w),
            lambda w: B.morphism_H(h, w),
            lambda w: B.homotopy_K(h, h, kzero, w),
        ):
            with pytest.raises(BlockError, match="unknown generator 'zz'"):
                call(("a", "zz"))


class TestWordCap:
    def test_window_just_under_the_cap(self, lib):
        # 5 + 25 + ... + 5^7 = 97,655 words are listed, 5^8 more are not
        fam = lib["polynomial"]
        assert len(B.basis_words(fam, B.TruncationWindow(qmax=7))) == 97655 <= B.MAX_WORDS
        with pytest.raises(CapError, match="above the cap"):
            B.basis_words(fam, B.TruncationWindow(qmax=8))

    def test_cap_is_inclusive(self, lib, monkeypatch):
        # 5 + 25 words: a check of exactly MAX_WORDS words runs
        fam = lib["polynomial"]
        monkeypatch.setattr(B, "MAX_WORDS", 30)
        assert B.check_a_infinity(fam, B.TruncationWindow(qmax=2)).n_words == 30
        monkeypatch.setattr(B, "MAX_WORDS", 29)
        with pytest.raises(CapError):
            B.check_a_infinity(fam, B.TruncationWindow(qmax=2))

    @pytest.mark.parametrize("n_gens", [0, 1, 2, 5])
    def test_huge_qmax_refused_at_once(self, n_gens):
        gens = [B.Generator("g%d" % i, 0) for i in range(n_gens)]
        fam = B.OperationFamily("m", gens, {})
        window = B.TruncationWindow(qmax=10**12)
        if n_gens == 0:
            assert B.basis_words(fam, window) == []
        else:
            with pytest.raises(CapError):
                B.basis_words(fam, window)


class TestNegativeControls:
    def test_chain_map_rejects_doubled_identity(self, lib):
        fam = lib["polynomial"]
        report = B.check_chain_map(
            _identity_h(fam, 2), fam, fam, B.TruncationWindow(qmax=3)
        )
        assert not report.passed
        assert len(report.failures) == 85 and report.n_words == 155

    def test_homotopy_rejects_unequal_ends(self, lib):
        fam = lib["polynomial"]
        kzero = B.OperationFamily("k", list(fam.gens.values()), {}, n=fam.n, NL=fam.NL)
        report = B.check_homotopy(
            _identity_h(fam, 2),
            _identity_h(fam, 1),
            kzero,
            fam,
            fam,
            B.TruncationWindow(qmax=3),
        )
        assert not report.passed
        assert len(report.failures) == report.n_words == 155

    def test_gj_rejects_deformed_product(self, lib):
        obj = B.family_to_obj(lib["polynomial"])
        for rule in obj["ops"]["m"]["2"]:
            if rule["in"] == ["a", "a"]:
                rule["out"] = [{"sym": "a2", "d": 0, "coef": 2}]
        report = B.check_gj_relations(B.family_from_obj(obj), B.TruncationWindow(qmax=3))
        assert not report.passed

    def test_unit_rejects_non_unit(self, lib):
        report = B.check_unit(lib["polynomial"], "a", B.TruncationWindow(qmax=2))
        assert not report.passed

    @pytest.mark.parametrize(
        "name, unit, qmax, digest",
        [
            ("polynomial", "a", 2,
             "ce6ad4dc583af119905d0565862a7377ea2c6f79a1749a4214e03d4e2bb9f4bd"),
            ("circle", "m", 3,
             "b0d95d1f8590f2a37672595bf99277b59b549a00ba59a1909cc6e2c99c896c83"),
        ],
    )
    def test_unit_failures_pinned(self, lib, name, unit, qmax, digest):
        # the pointwise failures come first, then the words in basis order;
        # digests taken before the word loop was shared with the checkers
        report = B.check_unit(lib[name], unit, B.TruncationWindow(qmax=qmax))
        # the digests predate failing_words, so they hash the object without it
        obj = report.to_obj()
        assert obj.pop("failing_words") == len(report.failures) > 0
        obj = json.dumps(obj, sort_keys=True)
        assert hashlib.sha256(obj.encode()).hexdigest() == digest

    @pytest.mark.parametrize("parity", [0, 1])
    @pytest.mark.parametrize("suspended", [False, True])
    def test_a_infinity_rejects_unsigned_delta(
        self, lib, monkeypatch, parity, suspended
    ):
        # delta takes every sign from signs.delta_parity: forced to one
        # value, delta o delta no longer vanishes
        fam = lib["polynomial"]
        fam = B.suspend(fam) if suspended else fam
        window = B.TruncationWindow(qmax=3)
        assert B.check_a_infinity(fam, window).passed
        monkeypatch.setattr(B, "delta_parity", lambda *args: parity)
        assert not B.check_a_infinity(fam, window).passed

    @pytest.mark.parametrize("name", ["polynomial", "exterior", "circle"])
    def test_leibniz_rejects_unsigned_derivation(self, lib, monkeypatch, name):
        # the rule holds for every family by construction, so the check is
        # shown to bite on a derivation whose signs.delta_parity is forced
        # to either parity: every term +1, or every term -1
        window = B.TruncationWindow(qmax=4)
        assert B.check_leibniz(lib[name], window).passed
        for parity in (0, 1):
            with monkeypatch.context() as mp:
                mp.setattr(B, "delta_parity", lambda *args: parity)
                assert not B.check_leibniz(lib[name], window).passed, parity

    @pytest.mark.parametrize("name", ["polynomial", "exterior", "circle"])
    def test_leibniz_rejects_unsigned_split(self, lib, monkeypatch, name):
        # the split sign (-1)^|x| is signs.koszul_sign, apart from the
        # derivation's own sign: forced to +1, the rule fails too
        monkeypatch.setattr(B, "koszul_sign", lambda *args: 1)
        report = B.check_leibniz(lib[name], B.TruncationWindow(qmax=4))
        assert not report.passed


def _interval_families():
    """h, k and m on x (unlabelled), u (label (1, 2)) and v (label (0, 1))
    with c = 2: h is the identity, k sends u to x and m sends x to v, so
    the word (u, x), valid on its own, has the out-of-order delta image
    (u, v)."""

    def fam(role, ops):
        gens = [B.Generator("x", 0), B.Generator("u", 1, (1, 2)), B.Generator("v", 1, (0, 1))]
        return B.OperationFamily(role, gens, ops, n=2, c=2)

    h = fam("h", {1: {(s,): [(s, 0, 1)] for s in "xuv"}})
    k = fam("k", {1: {("u",): [("x", 0, 1)]}})
    m = fam("m", {1: {("x",): [("v", 0, 1)]}})
    return h, k, m


class TestOneGeneratorTable:
    def test_homotopy_K_validates_its_word(self):
        h, k, _ = _interval_families()
        with pytest.raises(BlockError, match="out of order"):
            B.morphism_H(h, ("u", "v"))
        with pytest.raises(BlockError, match="out of order"):
            B.homotopy_K(h, h, k, ("u", "v"))
        got = B.homotopy_K(h, h, k, ("u", "x"))
        assert got == _reference_homotopy_K(h, h, k, ("u", "x")) == {(("x", "x"), 0): 1}

    def test_rewrite_into_out_of_order_labels(self):
        _, _, m = _interval_families()
        m.validate_word(("u", "x"))
        with pytest.raises(BlockError, match="out of order"):
            B.delta(m, ("u", "x"))
        with pytest.raises(BlockError, match="out of order"):
            B.check_a_infinity(m, B.TruncationWindow(qmax=2))
        # the same rewrite in front of u keeps the labels in order
        assert B.delta(m, ("x", "u")) == {(("v", "u"), 0): -1}

    @pytest.mark.parametrize(
        "change, sym",
        [
            (lambda gens: gens.pop("a3"), "a3"),
            (lambda gens: gens.update(a2=B.Generator("a2", 1)), "a2"),
            (lambda gens: gens.update(a=B.Generator("a", 0, (0, 1))), "a"),
            (lambda gens: gens.update(b=B.Generator("b", 0)), "b"),
        ],
        ids=["missing", "co-index", "label", "extra"],
    )
    def test_tables_must_agree(self, lib, change, sym):
        # one family of each check gets a generator table that lacks a
        # symbol, changes a co-index or a label, or adds a symbol
        fam = lib["polynomial"]
        gens = dict(fam.gens)
        change(gens)
        other = list(gens.values())
        h = _identity_h(fam)
        # c = 1 admits the label (0, 1); the generator message comes first
        h_other = B.OperationFamily(
            "h", other, {1: {(s,): [(s, 0, 1)] for s in gens}}, c=1
        )
        k_other = B.OperationFamily("k", other, {}, c=1)
        window = B.TruncationWindow(qmax=2)
        with pytest.raises(ShapeError, match="generator %r" % sym):
            B.check_chain_map(h_other, fam, fam, window)
        with pytest.raises(ShapeError, match="generator %r" % sym):
            B.check_homotopy(h, h, k_other, fam, fam, window)
        with pytest.raises(ShapeError, match="generator %r" % sym):
            B.homotopy_K(h, h, k_other, ("a",))

    @pytest.mark.parametrize(
        "what, h_value, target_value",
        [("n", 3, 3), ("NL", 3, 4)],
    )
    def test_one_grading(self, lib, what, h_value, target_value):
        # the polynomial family as the source, its copy at another n or NL
        # as the target and an identity h at a third: one generator table
        # graded two ways
        poly = lib["polynomial"]
        obj = B.family_to_obj(poly)
        obj[what] = target_value
        target = B.family_from_obj(obj)
        grading = dict(n=poly.n, NL=poly.NL)
        grading[what] = h_value
        h = B.OperationFamily(
            "h", list(poly.gens.values()), {1: {(s,): [(s, 0, 1)] for s in poly.gens}},
            **grading
        )
        with pytest.raises(ShapeError) as info:
            B.check_chain_map(h, target, poly, B.TruncationWindow(qmax=3))
        assert str(info.value) == "the families of one check differ in %s: %d, %d, %d" % (
            what, h_value, target_value, getattr(poly, what)
        )

    @pytest.mark.parametrize("label", [[2, 1], [1, 1], [0, 2]])
    def test_malformed_label_refused_when_built(self, label):
        # with c = 1 only (0, 1) is an interval; a malformed label on b
        # once dropped b from every word, so m2(a, b) = a was never read
        obj = {
            "c": 1,
            "generators": [
                {"sym": "a", "coidx": 0},
                {"sym": "b", "coidx": 0, "label": label},
            ],
            "ops": {"m": {"2": [{"in": ["a", "b"], "out": [{"sym": "a", "coef": 1}]}]}},
        }
        with pytest.raises(BlockError) as info:
            B.family_from_obj(obj)
        assert str(info.value) == "bad interval label %r on 'b'" % (tuple(label),)
        obj["generators"][1]["label"] = [0, 1]
        words = B.basis_words(B.family_from_obj(obj), B.TruncationWindow(qmax=2))
        assert ("a", "b") in words

    def test_gj_relation_validates_its_rewrites(self):
        # the arity-sum form refuses the rewrite (u, x) -> (u, v) as delta does
        _, _, m = _interval_families()
        with pytest.raises(BlockError, match="out of order"):
            B.gj_relation(m, ("u", "x"))
        with pytest.raises(BlockError, match="out of order"):
            B.check_gj_relations(m, B.TruncationWindow(qmax=2))
        assert B.gj_relation(m, ("x", "u")) == _reference_gj_relation(m, ("x", "u"))

    def test_dga_differential_validates_its_word(self):
        _, _, m = _interval_families()
        with pytest.raises(BlockError, match="out of order"):
            B.dga_differential(m, ("u", "v"))
        assert B.dga_differential(m, ("x", "v")) == {(("x", "x"), 0): -1}

    def test_derivation_validates_its_rewrites(self):
        # m sends u to x, so the transpose writes u in place of x and the
        # valid word (u, x) becomes (u, u), whose labels are out of order
        gens = [B.Generator("x", 2), B.Generator("u", 1, (1, 2))]
        m = B.OperationFamily("m", gens, {1: {("u",): [("x", 0, 1)]}}, n=2, c=2)
        m.validate_word(("u", "x"))
        with pytest.raises(BlockError, match="out of order"):
            B.dga_differential(m, ("u", "x"))
        with pytest.raises(BlockError, match="out of order"):
            B.check_leibniz(m, B.TruncationWindow(qmax=2))

    def test_derivation_keeps_in_order_rewrites(self):
        # the transpose writes v (0, 1) or v w in place of u (0, 2), inside
        # u's interval, so every rewrite stays valid; the digest of the
        # report and of every image was taken before rewrites were validated
        gens = [
            B.Generator("x", 0),
            B.Generator("u", 2, (0, 2)),
            B.Generator("v", 1, (0, 1)),
            B.Generator("w", 1, (1, 2)),
        ]
        ops = {
            1: {("v",): [("u", 0, 1)]},
            2: {("v", "w"): [("u", 0, 1)], ("x", "x"): [("x", 0, 1)]},
        }
        m = B.OperationFamily("m", gens, ops, n=2, c=2)
        window = B.TruncationWindow(qmax=4)
        report = B.check_leibniz(m, window)
        assert report.passed and report.n_words == 44
        images = [
            [list(g), sorted([list(g2), d2, c] for (g2, d2), c in
                             B.dga_differential(m, g).items())]
            for g in B.basis_words(m, window)
        ]
        # the digest predates failing_words, so it hashes the report without it
        obj = report.to_obj()
        assert obj.pop("failing_words") == 0
        obj = json.dumps([obj, images])
        assert hashlib.sha256(obj.encode()).hexdigest() == (
            "ee31f68d0ee34a57679b229881d2a2260f3a41bada39d4b46774f1e6f92eb4cb"
        )

    def test_tables_must_agree_on_c(self, lib):
        fam = lib["polynomial"]
        h = _identity_h(fam)
        k = B.OperationFamily("k", list(fam.gens.values()), {}, c=1)
        with pytest.raises(ShapeError, match="differ in c"):
            B.check_homotopy(h, h, k, fam, fam, B.TruncationWindow(qmax=2))


class TestTruncationWindow:
    @pytest.mark.parametrize(
        "qmax, emax", [(0, 8), (-1, 8), (5, -1)], ids=["qmax0", "qmax-1", "emax-1"]
    )
    def test_vacuous_window_refused(self, qmax, emax):
        with pytest.raises(RangeError, match="qmax >= 1 and emax >= 0"):
            B.TruncationWindow(qmax=qmax, emax=emax)

    def test_smallest_window(self):
        # one-letter words and the t^0 terms are still a real check
        fam = B.random_family(random.Random(3))
        window = B.TruncationWindow(qmax=1, emax=0)
        assert window.to_obj() == {"qmax": 1, "emax": 0}
        assert B.check_a_infinity(fam, window).n_words == 3

    def test_negative_emax_would_hide_failures(self):
        # every exponent is >= 0, so emax -1 would truncate every residue
        fam = B.random_family(random.Random(3))
        assert not B.check_a_infinity(fam, B.TruncationWindow(qmax=3)).passed
        with pytest.raises(RangeError):
            B.check_a_infinity(fam, B.TruncationWindow(qmax=3, emax=-1))


def _two_roles(poly):
    obj = B.family_to_obj(poly)
    obj["ops"]["h"] = obj["ops"]["m"]
    return obj


class TestRefusals:
    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda poly: B.OperationFamily("x", [], {}), ShapeError,
             "role must be one of m/h/k, got 'x'"),
            (lambda poly: B.OperationFamily("m", [B.Generator("a", 3)], {}, n=2),
             ShapeError, "co-index of 'a' outside 0..2"),
            (lambda poly: B.OperationFamily(
                "m", [B.Generator("a", 1, (2, 1))], {}, c=2).validate_word(("a",)),
             BlockError, "bad interval label (2, 1) on 'a'"),
            (lambda poly: B.morphism_H(poly, ("a",)), ShapeError,
             "morphism_H needs an h family"),
            (lambda poly: B.homotopy_K(
                _identity_h(poly), _identity_h(poly), poly, ("a",)),
             ShapeError, "homotopy_K needs a k family"),
            (lambda poly: B.opposite(_identity_h(poly)), ShapeError,
             "opposite needs a differential family"),
            (lambda poly: B.family_from_obj(_two_roles(poly)), ShapeError,
             "file must declare exactly one op role"),
        ],
        ids=["role", "coidx", "interval-label", "morphism-H-role",
             "homotopy-K-role", "opposite-role", "two-roles"],
    )
    def test_refusals(self, lib, call, error, message):
        with pytest.raises(error) as info:
            call(lib["polynomial"])
        assert str(info.value) == message
