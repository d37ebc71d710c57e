"""Index formulas, reduction surgeries, audits, and end labelings."""

import itertools
import random
from math import comb

import pytest

from clustercx import indexcalc as I, strata as S, trees
from clustercx.errors import (
    CapError,
    DegenerateError,
    MonotoneError,
    ShapeError,
    SurgeryError,
)
from clustercx.trees import LEAF, PlanarTree, vertex


class TestIndexCr:
    def test_trivial_values(self):
        t = PlanarTree(vertex(0, False, (LEAF, LEAF)))
        assert I.index_cr(t, I.EndpointCondition(0, [0, 0]), 0) == 0
        assert I.index_cr(t, I.EndpointCondition(2, [0, 0]), 0) == 2

    def test_endpoint_mismatch(self):
        t = PlanarTree(vertex(0, False, (LEAF, LEAF)))
        with pytest.raises(ShapeError):
            I.index_cr(t, I.EndpointCondition(0, [0, 0, 0]), 0)

    def test_penalties_read_the_endpoint_n(self):
        # the n that bounds the co-indices is the one each interior
        # incidence point and each complex node costs
        t = trees.enumerate_types(2, 1, 0)[0]
        top = S.ClusterType(S.Stratum("K", t), {}, n_complex_nodes=1)
        for n in (2, 3, 4):
            ec = I.EndpointCondition(n, [0, 0], n=n)
            assert I.index_cr(t, ec, 0, interior_incidences=1) == 0
            assert I.index_cr(top, ec, 0) == 0
            assert I.index_cr(top, ec, 0, interior_incidences=2) == -2 * n
            with pytest.raises(ShapeError, match="outside 0..%d" % n):
                I.EndpointCondition(n + 1, [0, 0], n=n)

    def test_additivity_random(self):
        rng = random.Random(3)
        for _ in range(500):
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


class TestCokerDim:
    def test_examples(self):
        top = [
            s for s in S.face_poset("K", 2, 1).strata if s.codim == 0
        ][0]
        assert I.coker_dim(S.ClusterType(top, {}), 2, 1) == 2
        s1 = [s for s in S.face_poset("K", 3, 1).strata if s.codim == 1][0]
        e = list(s1.tree.edges())[0]
        assert I.coker_dim(S.ClusterType(s1, {e: "broken"}), 3, 1) == 2
        assert I.coker_dim(S.ClusterType(s1, {e: "node"}), 3, 1) == 2
        assert I.coker_dim(S.ClusterType(top, {}, n_complex_nodes=1), 2, 1) == 0

    def test_unknown_edge_state(self):
        s1 = [s for s in S.face_poset("K", 3, 0).strata if s.codim == 1][0]
        e = list(s1.tree.edges())[0]
        with pytest.raises(ShapeError, match="'complex'"):
            S.ClusterType(s1, {e: "complex"})
        for state in ("node", "line", "broken"):
            assert S.ClusterType(s1, {e: state}).edge_states == {e: state}

    def test_edge_states_must_match_the_edges(self):
        s2 = [s for s in S.face_poset("K", 4, 0).strata if s.codim == 2][0]
        e1, e2 = s2.tree.edges()
        with pytest.raises(ShapeError, match="cover the interior edges"):
            S.ClusterType(s2, {e1: "node"})
        not_an_edge = (len(s2.tree.root[2]),)
        with pytest.raises(ShapeError, match="cover the interior edges"):
            S.ClusterType(s2, {e1: "node", e2: "line", not_an_edge: "broken"})
        with pytest.raises(ShapeError, match="cover the interior edges"):
            S.ClusterType(s2, {e1: "node", not_an_edge: "broken"})
        ct = S.ClusterType(s2, {e1: "broken", e2: "node"})
        assert (ct.n_breakings, ct.n_real_nodes) == (1, 1)

    def test_degenerate_refused(self):
        top = [
            s for s in S.face_poset("K", 2, 1).strata if s.codim == 0
        ][0]
        for l, k in ((-1, 0), (0, -1), (2, -1)):
            with pytest.raises(DegenerateError, match="unstable parameters"):
                I.coker_dim(S.ClusterType(top, {}), l, k)
        # ambient dimension 2 holds one complex node, not two
        ct = S.ClusterType(top, {}, n_complex_nodes=2)
        with pytest.raises(DegenerateError, match="overdegenerate type"):
            I.coker_dim(ct, 2, 1)

    def test_unstable_special_cases(self):
        top = [
            s for s in S.face_poset("K", 2, 1).strata if s.codim == 0
        ][0]
        ct = S.ClusterType(top, {})
        assert I.coker_dim(ct, 1, 0) == 0
        assert I.coker_dim(ct, 0, 0) == 0
        assert I.kernel_dim(1, 0) == 1
        assert I.kernel_dim(3, 0) == 0


class TestTrajectory:
    def test_index(self):
        assert I.trajectory_index(5, 5, 0) == 0
        assert I.trajectory_index(3, 1, 0) == 2 - 0  # rigid m_2

    def test_energy(self):
        assert I.trajectory_energy(4, 1, 2) == 2
        with pytest.raises(MonotoneError):
            I.trajectory_energy(3, 1, 2)
        muF = I.BoundaryConditionIndex([2, 4], NL=2, monotone=True)
        assert I.trajectory_energy(muF, 1, 2) == 3
        with pytest.raises(MonotoneError):
            I.BoundaryConditionIndex([3], NL=2, monotone=True)


class TestSurgeries:
    def test_type_I(self):
        t = PlanarTree(vertex(4, False, (LEAF, LEAF)))
        rec = I.reduce(t, {"type": "I", "disk": (), "d": 1})
        assert rec.trivial
        rec = I.reduce(t, {"type": "I", "disk": (), "d": 2})
        assert rec.after.root == vertex(2, False, (LEAF, LEAF))
        assert rec.removed_marks == 2
        with pytest.raises(SurgeryError):
            I.reduce(t, {"type": "I", "disk": (), "d": 3})

    def test_type_III(self):
        t = PlanarTree(vertex(0, False, (LEAF, vertex(1, False, ()), LEAF)))
        rec = I.reduce(t, {"type": "III"})
        assert rec.after.root == vertex(0, False, (LEAF, LEAF))
        assert rec.after.num_leaves == t.num_leaves
        rec2 = I.reduce(rec.after, {"type": "III"})
        assert rec2.after.root == rec.after.root  # idempotent

    def test_type_II(self):
        t = PlanarTree(vertex(0, False, (LEAF, vertex(1, False, (LEAF, LEAF)))))
        rec = I.reduce(t, {"type": "IIa", "disk": (1,), "dest": (), "at": 1})
        assert rec.after.root == vertex(0, False, (LEAF, LEAF, LEAF))
        # a non-root parent loses the disk; the later sibling dest shifts
        mid = vertex(
            0,
            False,
            (LEAF, vertex(1, False, (LEAF, LEAF)), vertex(0, False, (LEAF, LEAF))),
        )
        t = PlanarTree(vertex(0, False, (mid, LEAF)))
        rec = I.reduce(t, {"type": "IIa", "disk": (0, 1), "dest": (0, 2), "at": 1})
        assert rec.after.root == vertex(
            0, False, (vertex(0, False, (LEAF, vertex(0, False, (LEAF,) * 4))), LEAF)
        )
        assert rec.removed_marks == 1
        t = PlanarTree(vertex(2, False, (LEAF, vertex(0, False, (LEAF, LEAF)))))
        rec = I.reduce(t, {"type": "IIb", "disk": (), "dest": 1, "at": 0})
        assert rec.after.root == vertex(0, False, (LEAF, LEAF, LEAF))

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"type": "IIa", "disk": (), "dest": (), "at": 0}, "root disk"),
            ({"type": "IIa", "disk": (1,), "dest": (1,), "at": 0}, "inside"),
            ({"type": "IIa", "disk": (1,), "dest": (1, 0), "at": 0}, "inside"),
            ({"type": "IIa", "disk": (1,), "dest": (), "at": 2}, "out of range"),
            ({"type": "IIa", "disk": (1,), "dest": (), "at": -1}, "out of range"),
            ({"type": "IIb", "disk": (), "dest": 1, "at": 3}, "out of range"),
            ({"type": "IIb", "disk": (), "dest": 1, "at": -1}, "out of range"),
            ({"type": "IV"}, "unknown surgery type 'IV'"),
        ],
    )
    def test_refusals(self, spec, message):
        t = PlanarTree(vertex(0, False, (LEAF, vertex(1, False, (LEAF, LEAF)))))
        with pytest.raises(SurgeryError, match=message):
            I.reduce(t, spec)

    def test_generalized_bookkeeping(self):
        t = PlanarTree(vertex(2, False, (LEAF, LEAF)))
        rec = I.reduce(
            t, {"type": "gen-II", "interior_incidences": 1, "removed_marks": 1}
        )
        assert rec.interior_incidences == 1
        assert rec.after.root == t.root


class TestAudit:
    def test_noop_not_triggered(self):
        t = PlanarTree(vertex(4, False, (LEAF, LEAF)))
        rec = I.reduce(t, {"type": "I", "disk": (), "d": 1})
        assert not I.reduction_index_audit(rec, 1, n=3)["applicable"]

    def test_maslov_drop(self):
        t = PlanarTree(vertex(4, False, (LEAF, LEAF)))
        rec = I.reduce(t, {"type": "I", "disk": (), "d": 2})
        rep = I.reduction_index_audit(rec, 1, n=3)
        assert rep["applicable"] and rep["index_drop"] >= 2
        assert rep["final_bound"] == 2 * 2 - 1
        assert rep["forces_cokernel"]

    def test_n_le_2_penalty(self):
        t = PlanarTree(vertex(4, False, (LEAF, LEAF)))
        rec = I.reduce(
            t, {"type": "gen-II", "interior_incidences": 1, "removed_marks": 2}
        )
        rep = I.reduction_index_audit(rec, 1, n=2)
        assert rep["final_bound"] == 2 * 2 - 1 - 1
        assert rep["forces_cokernel"]


class TestEndLabelings:
    def test_trivial_classes(self):
        assert I.enumerate_end_labelings(3, 0, "otimes") == {(0, 0, 0, 0)}
        assert I.enumerate_end_labelings(3, 0, "bullet") == {(1, 1, 1)}

    def test_counts(self):
        for l in range(1, 5):
            for c in range(0, 4):
                got = len(I.enumerate_end_labelings(l, c, "otimes"))
                assert got == comb(l + 1 + c, c) - (c + 1) + 1
                gotb = len(I.enumerate_end_labelings(l, c, "bullet"))
                want = sum(
                    comb(l, s) * comb(c, s) for s in range(0, min(l, c) + 1)
                )
                assert gotb == want

    def test_brute_force(self):
        # every nondecreasing chain, constants merged; every map whose
        # values below c + 1 strictly increase
        for l in range(5):
            for c in range(4):
                chains = {
                    ch if ch[0] != ch[-1] else (0,) * (l + 1)
                    for ch in itertools.product(range(c + 1), repeat=l + 1)
                    if list(ch) == sorted(ch)
                }
                assert I.enumerate_end_labelings(l, c, "otimes") == chains
                maps = set()
                for vals in itertools.product(range(1, c + 2), repeat=l):
                    small = [j for j in vals if j <= c]
                    if all(a < b for a, b in zip(small, small[1:])):
                        maps.add(vals)
                assert I.enumerate_end_labelings(l, c, "bullet") == maps

    @pytest.mark.parametrize("family", ["otimes", "bullet"])
    def test_closed_form_counts(self, family):
        for l in range(7):
            for c in range(6):
                got = len(I.enumerate_end_labelings(l, c, family))
                assert I.count_end_labelings(l, c, family) == got

    @pytest.mark.parametrize(
        "family, l, c, n", [("otimes", 3, 2, 13), ("bullet", 3, 2, 10)]
    )
    def test_cap_boundary(self, monkeypatch, family, l, c, n):
        # n labelings pass a cap of n and are refused, unbuilt, by n - 1
        assert I.count_end_labelings(l, c, family) == n
        monkeypatch.setattr(I, "MAX_LABELINGS", n)
        assert len(I.enumerate_end_labelings(l, c, family)) == n
        monkeypatch.setattr(I, "MAX_LABELINGS", n - 1)
        monkeypatch.setattr(I, "combinations", None)
        monkeypatch.setattr(I, "combinations_with_replacement", None)
        with pytest.raises(CapError, match="^%d %s labelings, above the cap" % (n, family)):
            I.enumerate_end_labelings(l, c, family)

    def test_brute_force_l1_c1(self):
        brute = set()
        for j0 in range(2):
            for j1 in range(j0, 2):
                brute.add((0, 0) if j0 == j1 else (j0, j1))
        assert I.enumerate_end_labelings(1, 1, "otimes") == brute


def _random_partition(rng, l):
    cuts = sorted(rng.sample(range(1, l), rng.randint(0, l - 2))) if l > 2 else []
    bounds = [1] + [x + 1 for x in cuts] + [l + 1]
    return [(bounds[i], bounds[i + 1] - 1) for i in range(len(bounds) - 1)]


def _merge_groups(rng, outer):
    groups, i = [], 0
    while i < len(outer):
        if i + 1 < len(outer) and rng.random() < 0.5:
            groups.append((i, i + 1))
            i += 2
        else:
            groups.append((i, i))
            i += 1
    return groups


class TestInducedLabelings:
    def test_chain_example(self):
        chain = (0, 1, 1, 2, 3)
        assert I.induced_component_labeling(chain, [(1, 2), (3, 4)], "otimes") == (
            0,
            1,
            3,
        )
        assert I.induced_component_labeling(
            chain, [(1, 2), (3, 2), (3, 4)], "otimes"
        ) == (0, 1, 1, 3)

    def test_bullet_empty_attachment(self):
        # a leafless branch takes c + 1
        got = I.induced_component_labeling((4, 4), [(1, 1), (3, 2)], "bullet", c=3)
        assert got == (4, 4)
        with pytest.raises(ShapeError, match="needs c"):
            I.induced_component_labeling((4, 4), [(1, 1), (3, 2)], "bullet")

    @pytest.mark.parametrize("family", ["otimes", "bullet"])
    def test_bad_intervals_refused(self, family):
        lab = (0, 1, 1)
        with pytest.raises(ShapeError, match="increasing and disjoint"):
            I.induced_component_labeling(lab, [(1, 2), (2, 3)], family, c=1)
        with pytest.raises(ShapeError, match="beyond the labeling length"):
            I.induced_component_labeling(lab, [(1, 4)], family, c=1)
        # an interval or an empty attachment that starts past the last
        # position: the chain (0, 1, 1) has positions 1..2, the pointed
        # labeling 1..3
        past = {"otimes": [[(5, 6)], [(4, 3)]], "bullet": [[(5, 6)], [(5, 4)]]}
        for intervals in past[family]:
            with pytest.raises(ShapeError, match="beyond the labeling length"):
                I.induced_component_labeling(lab, intervals, family, c=1)

    @pytest.mark.parametrize(
        "family, intervals, want",
        [
            ("otimes", [(1, 2), (3, 2)], (0, 1, 1)),
            ("bullet", [(1, 3), (4, 3)], (0, 2)),
        ],
    )
    def test_empty_attachment_at_the_last_position(self, family, intervals, want):
        got = I.induced_component_labeling((0, 1, 1), intervals, family, c=1)
        assert got == want

    def test_sweep_returns_or_refuses(self):
        # every labeling with l <= 2 over c = 2, every list of up to two
        # intervals with ends in 0..l+2: a call returns or is a ShapeError,
        # and what is accepted ends at or before the last position l
        accepted = refused = 0
        for l in range(3):
            pairs = list(itertools.product(range(l + 3), repeat=2))
            lists = [[]] + [[p] for p in pairs]
            lists += [[p, q] for p in pairs for q in pairs]
            kinds = (("otimes", "otimes"), ("bullet", "bullet"), ("x", "otimes"))
            for family, kind in kinds:
                for lab in I.enumerate_end_labelings(l, 2, kind):
                    for c in (2, None):
                        for intervals in lists:
                            try:
                                got = I.induced_component_labeling(
                                    lab, intervals, family, c=c
                                )
                            except ShapeError:
                                refused += 1
                                continue
                            accepted += 1
                            assert len(got) == len(intervals) + (family == "otimes")
                            if intervals:
                                lo, hi = intervals[-1]
                                assert max(hi, lo - 1) <= l, (lab, intervals)
        assert accepted and refused

    @pytest.mark.parametrize("alias", ["x", "."])
    def test_family_aliases_refused(self, alias):
        with pytest.raises(ShapeError):
            I.enumerate_end_labelings(2, 1, alias)
        with pytest.raises(ShapeError):
            I.induced_component_labeling((0, 1, 1), [(1, 2)], alias, c=1)

    @pytest.mark.parametrize("family", ["otimes", "bullet"])
    def test_coherence(self, family):
        rng = random.Random(5)
        for _ in range(150):
            c = rng.randint(0, 3)
            l = rng.randint(2, 6)
            if family == "otimes":
                lab = tuple(sorted(rng.choices(range(c + 1), k=l + 1)))
            else:
                lab = rng.choice(
                    sorted(I.enumerate_end_labelings(l, c, "bullet"))
                )
            outer = _random_partition(rng, l)
            mid = I.induced_component_labeling(lab, outer, family, c=c)
            groups = _merge_groups(rng, outer)
            inner = [(a + 1, b + 1) for a, b in groups]
            two_step = I.induced_component_labeling(mid, inner, family, c=c)
            direct = [(outer[a][0], outer[b][1]) for a, b in groups]
            one_step = I.induced_component_labeling(lab, direct, family, c=c)
            assert two_step == one_step
