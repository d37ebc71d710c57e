"""Face posets, boundary signs, corners, tiles, and collars."""

import json

import pytest

from clustercx import strata, trees
from clustercx.errors import GhostCornerError
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


class TestGradings:
    def test_dimensions(self):
        assert strata.dimension("K", 4, 0) == 2
        assert strata.dimension("Q", 3, 0) == 2
        assert strata.dimension("K", 2, 1) == 2

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


class TestCorners:
    def test_facet_kinds(self):
        poset = strata.face_poset("Q", 2, 0)
        kinds = set()
        for s in poset.strata:
            if s.codim == 1:
                kinds.add(strata.facet_kind(s))
        assert kinds == {"lower", "upper"}

    def test_decomposition_factors(self):
        poset = strata.face_poset("K", 4, 0)
        for s in poset.strata:
            if s.codim == 0:
                continue
            cp = strata.corner_decomposition(s)
            assert len(cp.factors) == s.codim + 1

    def test_ghost_corner_error(self):
        t = PlanarTree(
            vertex(1, False, ((vertex(0, False, (LEAF, LEAF))), LEAF))
        )
        s = strata.Stratum("Ks", t, perm=(1, 2, 3))
        with pytest.raises(GhostCornerError):
            strata.corner_decomposition(s)


class TestTiles:
    def test_counts(self):
        assert strata.tile_complex(2, 1).n_tiles == 2
        assert strata.tile_complex(3, 1).n_tiles == 6

    def test_orientation(self):
        for l in (2, 3):
            assert strata.orientation_consistency(strata.tile_complex(l, 1))

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


class TestCollarAndExport:
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
