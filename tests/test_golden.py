"""Golden outputs: the sha256 of each command's stdout and its exit code.

Refactors promise byte-identical output, so every digest below was taken
before the code under it changed.  Fixture files are written into a
temporary directory that the test runs in, and passed by relative name,
so the command echo in each report does not depend on where it runs.
"""

import hashlib
import json

import pytest

from clustercx import barcx, cli

# a colored tree with an edge of every region: (0,) is below the colors,
# (0, 0), (0, 1) and (1,) touch a colored vertex, (1, 0) lies above
_COLORED_LEAF = {"i": 0, "col": True, "children": ["x"]}
MIXED = {
    "i": 0,
    "col": False,
    "children": [
        {"i": 0, "col": False, "children": [_COLORED_LEAF, _COLORED_LEAF]},
        {
            "i": 0,
            "col": True,
            "children": [{"i": 0, "col": False, "children": ["x", "x"]}],
        },
    ],
}
# a colored root: every edge lies above the color
ROOT_COLORED = {
    "i": 0,
    "col": True,
    "children": [{"i": 1, "col": False, "children": ["x", "x"]}, "x"],
}
# maximal types for charts: plain (3, 0), marked (2, 1), quilted (2, 0)
PLAIN3 = {
    "i": 0,
    "col": False,
    "children": [{"i": 0, "col": False, "children": ["x", "x"]}, "x"],
}
MARKED21 = {
    "i": 0,
    "col": False,
    "children": [
        {
            "i": 0,
            "col": False,
            "children": ["x", {"i": 1, "col": False, "children": []}],
        },
        "x",
    ],
}
QUILTED2 = {
    "i": 0,
    "col": True,
    "children": [{"i": 0, "col": False, "children": ["x", "x"]}],
}
# a tree for every reduction surgery: a two-leaf disk, a leaf and a
# leafless marked disk over a root with two marks
SURGERY = {
    "i": 2,
    "col": False,
    "children": [
        {"i": 0, "col": False, "children": ["x", "x"]},
        "x",
        {"i": 1, "col": False, "children": []},
    ],
}

FIXTURES = {
    "chi_mixed.json": {
        "tree": MIXED,
        "labels": {"0": "1/2", "0.0": "3", "0.1": "3", "1": "3/2", "1.0": "2/3"},
    },
    "chi_root.json": {"tree": ROOT_COLORED, "labels": {"0": "5/7"}},
    "chart_plain.json": {"tree": PLAIN3, "xs": ["0", "1", "3"]},
    "chart_marked.json": {"tree": MARKED21, "xs": ["0", "2"], "zs": [["1", "3"]]},
    "chart_quilted.json": {"tree": QUILTED2, "xs": ["0", "1"], "seam": "3/2"},
    "inv_plain.json": {"tree": PLAIN3, "labels": {"0": "1/3"}},
    "inv_marked.json": {"tree": MARKED21, "labels": {"0": "1/2", "0.1": "3"}},
    "inv_quilted.json": {"tree": QUILTED2, "labels": {"0": "2/3"}},
    "inv_zero.json": {"tree": PLAIN3, "labels": {"0": "0"}},
    "ct.json": {
        "tree": {"i": 4, "col": False, "children": ["x", "x"]},
        "mu_root": 1,
        "mu_leaves": [0, 0],
        "maslov": [4],
        "n": 2,
    },
    "ct_nodes.json": {
        "tree": PLAIN3,
        "family": "K",
        "edge_states": {"0": "broken"},
        "complex_nodes": 1,
        "interior_incidences": 1,
        "mu_root": 2,
        "mu_leaves": [0, 1, 0],
        "maslov": [2, 4],
        "NL": 2,
        "monotone": True,
        "n": 2,
    },
    "surgery.json": {"tree": SURGERY},
}


def _family(role, gens, ops, n=2, c=0):
    """A family file: gens {sym: co-index}, ops {arity: {inputs: outs}}
    with outs a list of (sym, d, coef)."""
    return {
        "n": n,
        "NL": 2,
        "c": c,
        "generators": [
            {"sym": s, "coidx": mu, "label": "f"} for s, mu in sorted(gens.items())
        ],
        "ops": {
            role: {
                str(l): [
                    {
                        "in": list(pattern),
                        "out": [{"sym": s, "d": d, "coef": k} for s, d, k in outs],
                    }
                    for pattern, outs in rules.items()
                ]
                for l, rules in ops.items()
            }
        },
    }


# the example product, its deformation and identity-like morphisms on it
_LIB = barcx.example_library()
POLY = barcx.family_to_obj(_LIB["polynomial"])
POLY_BAD = barcx.family_to_obj(_LIB["polynomial"])
for _rule in POLY_BAD["ops"]["m"]["2"]:
    if _rule["in"] == ["a", "a"]:
        _rule["out"] = [{"sym": "a2", "d": 0, "coef": 2}]
_POLY_GENS = {s: 0 for s in ("1", "a", "a2", "a3", "a4")}


def _scaled_identity(c):
    return _family("h", _POLY_GENS, {1: {(s,): [(s, 0, c)] for s in _POLY_GENS}})


# non-associative families with constants in arities 1, 2 and 3 on an even
# generator x and an odd one y, so the residues carry every sign of the
# morphism and homotopy sums, shortened words and energy exponents
_XY = {"x": 0, "y": 1}
MIXED_M1 = _family(
    "m",
    _XY,
    {
        1: {("x",): [("y", 0, 1)]},
        2: {
            ("x", "x"): [("x", 0, 1)],
            ("x", "y"): [("y", 0, 1)],
            ("y", "x"): [("y", 0, -1)],
            ("y", "y"): [("x", 1, 2)],
        },
        3: {
            ("x", "x", "y"): [("x", 0, 3)],
            ("x", "y", "y"): [("y", 0, 1)],
            ("y", "x", "y"): [("y", 0, -1)],
            ("y", "y", "y"): [("x", 1, 1)],
        },
    },
)
MIXED_M0 = _family(
    "m",
    _XY,
    {
        1: {("x",): [("y", 0, -1)]},
        2: {
            ("x", "x"): [("x", 0, 1)],
            ("x", "y"): [("y", 0, 2)],
            ("y", "y"): [("x", 1, -1)],
        },
        3: {("y", "y", "x"): [("y", 0, 1)]},
    },
)
MIXED_H = _family(
    "h",
    _XY,
    {
        1: {("x",): [("x", 0, 1)], ("y",): [("y", 0, 1)]},
        2: {
            ("x", "y"): [("x", 0, 1)],
            ("y", "x"): [("x", 0, 2)],
            ("y", "y"): [("y", 0, -1)],
        },
        3: {
            ("y", "y", "x"): [("x", 0, 1)],
            ("x", "y", "y"): [("x", 0, -1)],
            ("y", "y", "y"): [("y", 0, 1)],
        },
    },
)
MIXED_H0 = _family(
    "h",
    _XY,
    {
        1: {("x",): [("x", 0, 1)], ("y",): [("y", 0, -1)]},
        3: {("y", "x", "y"): [("x", 0, 2)]},
    },
)
MIXED_K = _family(
    "k",
    _XY,
    {
        1: {("y",): [("x", 0, 1)]},
        2: {("y", "y"): [("x", 0, -1)]},
        3: {("y", "y", "y"): [("x", 0, 2)]},
    },
)
FIXTURES.update(
    {
        "poly.json": POLY,
        "poly_bad.json": POLY_BAD,
        "circle.json": barcx.family_to_obj(_LIB["circle"]),
        "id_h.json": _scaled_identity(1),
        "double_h.json": _scaled_identity(2),
        "zero_k.json": _family("k", _POLY_GENS, {}),
        "mixed_m1.json": MIXED_M1,
        "mixed_m0.json": MIXED_M0,
        "mixed_h.json": MIXED_H,
        "mixed_h0.json": MIXED_H0,
        "mixed_k.json": MIXED_K,
        "mixed_zero_k.json": _family("k", _XY, {}),
    }
)

SURGERIES = {
    "I": '{"type":"I","disk":[],"d":2}',
    "IIa": '{"type":"IIa","disk":[0],"dest":[],"at":1}',
    "IIb": '{"type":"IIb","disk":[],"dest":0,"at":0}',
    "III": '{"type":"III"}',
    "gen-II": '{"type":"gen-II","removed_marks":1,"interior_incidences":2}',
}


def _cases():
    out = []
    for fam in ("K", "Q", "Ks"):
        for l, k in ((2, 2), (3, 1), (4, 1)):
            lk = ["--family", fam, "--l", str(l), "--k", str(k)]
            out.append(["strata"] + lk + ["--json"])
            out.append(["fvector"] + lk)
            out.append(["export"] + lk + ["--format", "json"])
            out.append(["export"] + lk + ["--format", "dot"])
    out.append(["collar", "--l", "4", "--k", "1", "--json"])
    for l, k in ((3, 2), (3, 3), (4, 1), (0, 2), (2, 0), (6, 1)):
        out.append(["tiles", "--l", str(l), "--k", str(k), "--json"])
    for name in ("chi_mixed.json", "chi_root.json"):
        out.append(["chi", name, "--json"])
        out.append(["chi", name, "--quilted", "--json"])
        out.append(["chi", name, "--quilted", "--eps", "1/3", "--json"])
    for kind in ("plain", "marked", "quilted"):
        out.append(["chart", "chart_%s.json" % kind, "--json"])
        out.append(["chart", "inv_%s.json" % kind, "--invert", "--json"])
    out.append(["chart", "inv_zero.json", "--invert", "--json"])
    out.append(["index", "ct.json", "--json"])
    out.append(["index", "ct_nodes.json", "--json"])
    for spec in SURGERIES.values():
        out.append(["reduce", "surgery.json", "--surgery", spec, "--json"])
    out.append(
        ["reduce", "surgery.json", "--surgery", '{"type":"I","disk":[],"d":3}',
         "--json"]
    )
    for tag in ("I", "IIb", "III", "gen-II"):
        out.append(
            ["audit", "surgery.json", "--surgery", SURGERIES[tag],
             "--assumed-index", "0", "--n", "2", "--json"]
        )
    out.append(
        ["audit", "ct.json", "--surgery", SURGERIES["I"],
         "--assumed-index", "1", "--json"]
    )
    for fam in ("otimes", "bullet"):
        out.append(
            ["labelings", "--l", "4", "--c", "3", "--family", fam, "--json"]
        )
    out += _algebra_cases()
    return out


def _algebra_cases():
    out = [
        ["check-ainf", "poly.json", "--qmax", "3"],
        ["check-ainf", "circle.json", "--suspended", "--qmax", "4"],
        ["check-ainf", "poly_bad.json", "--qmax", "3"],
        ["check-ainf", "poly_bad.json", "--suspended", "--qmax", "3"],
        ["check-ainf", "mixed_m1.json", "--qmax", "3"],
    ]
    for h, source, target in (
        ("id_h", "poly", "poly"),
        ("double_h", "poly", "poly"),
        ("id_h", "poly_bad", "poly"),
        ("mixed_h", "mixed_m1", "mixed_m0"),
        ("mixed_h0", "mixed_m1", "mixed_m1"),
    ):
        out.append(
            ["check-morphism", "--morphism", h + ".json", "--source",
             source + ".json", "--target", target + ".json", "--qmax", "3"]
        )
    out.append(
        ["check-morphism", "--morphism", "mixed_h.json", "--source",
         "mixed_m1.json", "--target", "mixed_m0.json", "--qmax", "4",
         "--emax", "0", "--jobs", "2"]
    )
    for h0, h1, k, source, target in (
        ("id_h", "id_h", "zero_k", "poly", "poly"),
        ("double_h", "id_h", "zero_k", "poly", "poly"),
        ("mixed_h0", "mixed_h", "mixed_k", "mixed_m1", "mixed_m0"),
        ("mixed_h", "mixed_h", "mixed_zero_k", "mixed_m1", "mixed_m1"),
    ):
        out.append(
            ["check-homotopy", "--h0", h0 + ".json", "--h1", h1 + ".json",
             "--homotopy", k + ".json", "--source", source + ".json",
             "--target", target + ".json", "--qmax", "3"]
        )
    return [argv + ["--json"] for argv in out]


CASES = _cases()


@pytest.fixture
def fixture_dir(tmp_path, monkeypatch):
    for name, obj in FIXTURES.items():
        (tmp_path / name).write_text(json.dumps(obj))
    monkeypatch.chdir(tmp_path)
    return tmp_path


GOLDEN = {
    "strata --family K --l 2 --k 2 --json":
        ("621bf932a947acd540bdc3101c4a56033e12bdf685f4365a07dc0e1663b45554", 0),
    "fvector --family K --l 2 --k 2":
        ("cdb80bc758179227006a3c35207faaf0b9d5824cbcf1cb724e8fb5557ba3d286", 0),
    "export --family K --l 2 --k 2 --format json":
        ("f90e405c2e1eb9c034c4179ca12aa46466569400d06a3dca35f422acb31c7185", 0),
    "export --family K --l 2 --k 2 --format dot":
        ("7a4f5177bb7f518cebb740667508be986fd99d576fe01a5d12d8c24e354752e6", 0),
    "strata --family K --l 3 --k 1 --json":
        ("c6ea9bcae09f2c850c9886bb6841b4d649a31e31ec55df12fd7c1fb4f8540fef", 0),
    "fvector --family K --l 3 --k 1":
        ("e4572c58b990ecb814a76e965a8094a7e314e8b69c70a1730becd61cdf55412f", 0),
    "export --family K --l 3 --k 1 --format json":
        ("4eefa966ac283155560eeac03a9ee6412c8aca7695bf9182bc4bb61508e93dc5", 0),
    "export --family K --l 3 --k 1 --format dot":
        ("8af6579a1469411cdf2c56f41a43d153104e6b09fa5bc7002ccad90d38450452", 0),
    "strata --family K --l 4 --k 1 --json":
        ("f3d0dbb53de78c9a31241017634c25e0b48ebead0d552d47434710179604e91e", 0),
    "fvector --family K --l 4 --k 1":
        ("424d23f7412003c59a46a567dcc4ec13788a8d078b01e7d6e95c83402af12713", 0),
    "export --family K --l 4 --k 1 --format json":
        ("2856beae40fe422fc671361419c1ceb2117e2e84bac0e03cb24785b55ccb2b5f", 0),
    "export --family K --l 4 --k 1 --format dot":
        ("918afed9bb98c95df949c071305adc205b4932e5b7150072bc3893d57160cb29", 0),
    "strata --family Q --l 2 --k 2 --json":
        ("ce73e634c4c8ed86700556caed5273bf007665f4819913dd2588f593a67e8066", 0),
    "fvector --family Q --l 2 --k 2":
        ("7e18cb8160fb5497490d61c917946cdb9b20e9c8c7592ed79e73367744cb0c12", 0),
    "export --family Q --l 2 --k 2 --format json":
        ("931ff8eeafc40130b10256c9a165a96065895a980b16e980710b19dfd0c8c3aa", 0),
    "export --family Q --l 2 --k 2 --format dot":
        ("99d26c1f35993ad7fcf30a962a8d45786fcca79667b2875e495e4f185d5f7dfb", 0),
    "strata --family Q --l 3 --k 1 --json":
        ("0d778b1ec41895e34018db5c5fe69648b96f13b86624ad583d558167570e017e", 0),
    "fvector --family Q --l 3 --k 1":
        ("51f3cac9e25b676a936a5d4aadd38a66de2b3ef87bfac2b625dd20d2a2dde2b4", 0),
    "export --family Q --l 3 --k 1 --format json":
        ("0033457903ea8d93ef2829e92e98de075c0f3c7c91167a96ab2a813fcbfada1e", 0),
    "export --family Q --l 3 --k 1 --format dot":
        ("9b7dfd918c0845cdf6165693c2e39b8560b94cbf414dd5270a07e9cacd36223c", 0),
    "strata --family Q --l 4 --k 1 --json":
        ("46dd65f56e174daca5cea2fbc21b56f0f4c539ee45159517e13a710dcaea4c69", 0),
    "fvector --family Q --l 4 --k 1":
        ("4db6de56fee3ea589b71066f9ea239c2ae00fdbc17743d400f4a412a616b7ba3", 0),
    "export --family Q --l 4 --k 1 --format json":
        ("37a04311ab7b0dd04d734729ff9fecd196b001fdd02d38064588e4c6e11e4cbc", 0),
    "export --family Q --l 4 --k 1 --format dot":
        ("11df2db434dcebaadbcb41c6b7ffec6a0671e4d1d802f998e6046bbdec20bf49", 0),
    "strata --family Ks --l 2 --k 2 --json":
        ("15ed9f33ef39d3c9bb73c12f3836247c4d5fc8a077bda1ecbbff199f39036411", 0),
    "fvector --family Ks --l 2 --k 2":
        ("cdb80bc758179227006a3c35207faaf0b9d5824cbcf1cb724e8fb5557ba3d286", 0),
    "export --family Ks --l 2 --k 2 --format json":
        ("ff79be89f2280b85816d0f381bb4d879f704f6248910fb2bf3e063657d2c7378", 0),
    "export --family Ks --l 2 --k 2 --format dot":
        ("7a4f5177bb7f518cebb740667508be986fd99d576fe01a5d12d8c24e354752e6", 0),
    "strata --family Ks --l 3 --k 1 --json":
        ("960ccce2366dc312bd001722b7695ead558b3f8e45831087af06a4c4feb4d110", 0),
    "fvector --family Ks --l 3 --k 1":
        ("e4572c58b990ecb814a76e965a8094a7e314e8b69c70a1730becd61cdf55412f", 0),
    "export --family Ks --l 3 --k 1 --format json":
        ("deaf2fcd4e4e5eb35f56d3845f906d09f415fc74e71e9343e33035e5ea88ecc6", 0),
    "export --family Ks --l 3 --k 1 --format dot":
        ("8af6579a1469411cdf2c56f41a43d153104e6b09fa5bc7002ccad90d38450452", 0),
    "strata --family Ks --l 4 --k 1 --json":
        ("09b460dc7086a56d5d7581f5aa04a49304b0fb4acf0400d14bfe0734e79336b9", 0),
    "fvector --family Ks --l 4 --k 1":
        ("424d23f7412003c59a46a567dcc4ec13788a8d078b01e7d6e95c83402af12713", 0),
    "export --family Ks --l 4 --k 1 --format json":
        ("5dacff2a1bb97d6832396f3f6c0ceffce731b253f6d3f707ca70079b73695ad6", 0),
    "export --family Ks --l 4 --k 1 --format dot":
        ("918afed9bb98c95df949c071305adc205b4932e5b7150072bc3893d57160cb29", 0),
    "collar --l 4 --k 1 --json":
        ("7b6a2760ba22673a4b0918d61ccdb9c45857936ee3e54e9aa254317b19cb3720", 0),
    "tiles --l 3 --k 2 --json":
        ("3a488d3020ecd42c3624c7057f3ffdf6820769d8688f062b2a1c274ce904a7e2", 0),
    "tiles --l 3 --k 3 --json":
        ("1da1f3464b75c22d55077c1cdac81b3b824bf7f07836ec5ca87a3a60adb6e402", 0),
    "tiles --l 4 --k 1 --json":
        ("6fc27a7aa9939a75a7636a29ee14bcc77434db3bc320fa998e3a1389dcc773b7", 0),
    "tiles --l 0 --k 2 --json":
        ("76663098ac05e59fbc7586a9f93c32223e21fe7c5ad927804abe5c5593ed60f3", 0),
    "tiles --l 2 --k 0 --json":
        ("4b5c120adac05724d2b2c23a31a9d7ae640b6acbcbf401d1514acb1de08b9973", 0),
    "tiles --l 6 --k 1 --json":
        ("d8e4f6a325eba7e0bbb7148882a612a2ef657e7e7b50f6ef22e60f26deede4b3", 0),
    "chi chi_mixed.json --json":
        ("d11d4880a2c09218790dec49e65d36845db2c410f2b58e05ab7c97c4e300204f", 0),
    "chi chi_mixed.json --quilted --json":
        ("0e2426d0c2d6f11686f6cac557f3721bcbab1b0a3716196dc15e85543d052041", 0),
    "chi chi_mixed.json --quilted --eps 1/3 --json":
        ("72e90639505b29f6b4b2f94ca15b047bd4bc738258db52ad251f5a36dbf2b03f", 0),
    "chi chi_root.json --json":
        ("5b0229562ffb8e2f14c71e821f98b2c0245cd10ddb3d0c59c1d0dcd10529b2c3", 0),
    "chi chi_root.json --quilted --json":
        ("9f3a891f5b24cb4b358d171245d7980118efd2ba0da8e0c3703bee984f035a67", 0),
    "chi chi_root.json --quilted --eps 1/3 --json":
        ("9661d88c6fb454950017804e8a0ed038c1b483c56e2c133d8cc16aa4ebf55a3c", 0),
    "chart chart_plain.json --json":
        ("de090f25b9f35b5269b74db7a616d7deb7a87d783632bb76d8d5c007a129b43c", 0),
    "chart inv_plain.json --invert --json":
        ("f9a968b4675480500fe59551b8dbe5b6570e9ee7fbf9fad0186cb8b85e400fa6", 0),
    "chart chart_marked.json --json":
        ("1a81a7cdd3bc058f65cc51d097b03b4957654805c012e3f263b2d01d61af6607", 0),
    "chart inv_marked.json --invert --json":
        ("be333ff6beba65096e8e689eb40be28e71372767bee582815f0fe58f025d411e", 0),
    "chart chart_quilted.json --json":
        ("d073f27438522aedc6b3e940e8c858d626810cdade847d24853c16477abb4aec", 0),
    "chart inv_quilted.json --invert --json":
        ("16e97887204bb023583f6f5ed149cacc7a960d793c0479c92ea9b49205693a73", 0),
    "chart inv_zero.json --invert --json":
        ("ff91bb821b916d10649ee6932b6752c0986605b43edfad0f253f729120805ba6", 1),
    "index ct.json --json":
        ("70ce30a28863cf22d8a38c36313e5a42f5733d8de6d06a34308b8e1b14b54a34", 0),
    "index ct_nodes.json --json":
        ("7483669e59441d6a6041d6c66f7b41f92a0e95d0bad75d79ea123a0a2ca0e5b9", 0),
    'reduce surgery.json --surgery {"type":"I","disk":[],"d":2} --json':
        ("7642e8fdd48821b22de189d8516786b48dff6234e662e5ce5f7dd2f43c6a15bc", 0),
    'reduce surgery.json --surgery {"type":"IIa","disk":[0],"dest":[],"at":1} --json':
        ("0665bbe9f51cf11242132ddba6ebc9b615fcad1ea42069b13a749aaf8f7e2fc6", 0),
    'reduce surgery.json --surgery {"type":"IIb","disk":[],"dest":0,"at":0} --json':
        ("a25979c8fdd6c13811f98ff790f14d9bb69bfb3c62811b0d9854d7648339c3f4", 0),
    'reduce surgery.json --surgery {"type":"III"} --json':
        ("45e2b23daec7b39fa7351401b214bb28dbaa11686d05f63c7425010e395e6f7f", 0),
    'reduce surgery.json --surgery {"type":"gen-II","removed_marks":1,"interior_incidences":2} --json':
        ("d6a15239b580efe16c77475efb81a8f49ca035ef0376d4b4003ff0ea9826e9b6", 0),
    'reduce surgery.json --surgery {"type":"I","disk":[],"d":3} --json':
        ("e7fb401d5541b56d364f2fa50bbfdc595d2c23881b6c10bde8d43e8050f2d1ff", 1),
    'audit surgery.json --surgery {"type":"I","disk":[],"d":2} --assumed-index 0 --n 2 --json':
        ("4abe2c8e4d5b1959e068a8072adf00cf2b3677e498dfddf7027e09c059f43bb0", 0),
    'audit surgery.json --surgery {"type":"IIb","disk":[],"dest":0,"at":0} --assumed-index 0 --n 2 --json':
        ("f8bdfb7f583992a57cb057182a2a9ccd326d6fc259e2099b28f5aad25c796f5e", 0),
    'audit surgery.json --surgery {"type":"III"} --assumed-index 0 --n 2 --json':
        ("d6d165397917b12a687297a343081dfb18383e7f2870a9689084c167f2e2f819", 0),
    'audit surgery.json --surgery {"type":"gen-II","removed_marks":1,"interior_incidences":2} --assumed-index 0 --n 2 --json':
        ("abe7569ec09cb523786cf21367d4ceedbd7d398e33c9dd8dc5ec5f4588954848", 0),
    'audit ct.json --surgery {"type":"I","disk":[],"d":2} --assumed-index 1 --json':
        ("b6a0e9221b4227c550209208bae5aff740f1e55f4a48a75852b5a49855d7f425", 0),
    "labelings --l 4 --c 3 --family otimes --json":
        ("776b46062c9f5bcf47f1464588d3408ada5f6d0158661820d108575f25f66ff4", 0),
    "labelings --l 4 --c 3 --family bullet --json":
        ("5c4a32ce6ba1c4590cdba6b2b7b28b5fcacad845a98b355c7a4e34db04f52c37", 0),
    "check-ainf poly.json --qmax 3 --json":
        ("b341a4639f9e486735d503b2bc50ed969c8a20d537c75a8950bfb4069e23f948", 0),
    "check-ainf circle.json --suspended --qmax 4 --json":
        ("1648268b4c97744e7c21b1f7e5f0f4e52d671770f15bfd04e55cbdea10c8f2ba", 0),
    "check-ainf poly_bad.json --qmax 3 --json":
        ("e42faa89ed2bb8765664470714d83243b6f88140fedd81e38a8113e9e98e658f", 1),
    "check-ainf poly_bad.json --suspended --qmax 3 --json":
        ("b33ab7f564ad04ee94ff4a98ad98df1401c38c0cd53263f113e44d300830c675", 1),
    "check-ainf mixed_m1.json --qmax 3 --json":
        ("2cf466c6a16d26e42f34c31ff94de97f71332e1baca9525239ab54a7805fae26", 1),
    "check-morphism --morphism id_h.json --source poly.json --target poly.json --qmax 3 --json":
        ("f9c4aea8047b24f20c3e1f72034d783674f1d2faa1423cf6598908386bdc8f9b", 0),
    "check-morphism --morphism double_h.json --source poly.json --target poly.json --qmax 3 --json":
        ("2be8db67e89942cfbde6d7f6e8f2dce887b0e162235343e872c8f6c5c78645f9", 1),
    "check-morphism --morphism id_h.json --source poly_bad.json --target poly.json --qmax 3 --json":
        ("aea7563b4462d1d3b200e886d78f6f9f28c4ffdbe08835e8ae95b11ab86c8d8f", 1),
    "check-morphism --morphism mixed_h.json --source mixed_m1.json --target mixed_m0.json --qmax 3 --json":
        ("f3292d3540b45a95ee9c34b83ac1a15d41d8b8c6681bfc17a644bce5fbc36b42", 1),
    "check-morphism --morphism mixed_h0.json --source mixed_m1.json --target mixed_m1.json --qmax 3 --json":
        ("c4333e5c298eaa7f59ce998d12867d86edc2a62d826290fa4dbbf34e27f77aa6", 1),
    "check-morphism --morphism mixed_h.json --source mixed_m1.json --target mixed_m0.json --qmax 4 --emax 0 --jobs 2 --json":
        ("d30ba034a6b3a42cfd1af9d54dd4757fafe4ce5b3f1b5d51365783151f9edc66", 1),
    "check-homotopy --h0 id_h.json --h1 id_h.json --homotopy zero_k.json --source poly.json --target poly.json --qmax 3 --json":
        ("519bc8b3aefe3f27f82500bcb4c0566a66a92668cefb461230d79821e088f58a", 0),
    "check-homotopy --h0 double_h.json --h1 id_h.json --homotopy zero_k.json --source poly.json --target poly.json --qmax 3 --json":
        ("9090bb0f3225efd0fd79e8d0998c339d55b90c26f1c536d8437e4b085077f4f5", 1),
    "check-homotopy --h0 mixed_h0.json --h1 mixed_h.json --homotopy mixed_k.json --source mixed_m1.json --target mixed_m0.json --qmax 3 --json":
        ("a6768551641ce4bfbdbb3170f21c106f9795fdcd6d860159ef46792612b4948b", 1),
    "check-homotopy --h0 mixed_h.json --h1 mixed_h.json --homotopy mixed_zero_k.json --source mixed_m1.json --target mixed_m1.json --qmax 3 --json":
        ("e44d49ff81c8a9526cc3a38ce88926be2008412e1f469be1c4e0437bcaaddf31", 0),
}


@pytest.mark.parametrize("argv", CASES, ids=[" ".join(a) for a in CASES])
def test_golden(capsys, fixture_dir, argv):
    code = cli.main(list(argv))
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (digest, code) == GOLDEN[" ".join(argv)]


# family_to_obj of the example families, in its own key order, so the ops
# tables keep their pattern order too
LIBRARY = {
    "polynomial": "5e78be0aa93b8ee561d78899083e40f9f05b147be7a161aa274c88d44a952821",
    "exterior": "4aef78c1cc41ebf9ba63314e11c5eef696203bffa30281d92c9df43b5ba13308",
    "circle": "8737f74993be39602b8aa1c3cb0bb25d4e648ba9b19b05f67ec6689e14ddf758",
}


@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_example_family(name):
    obj = barcx.family_to_obj(barcx.example_library()[name])
    assert hashlib.sha256(json.dumps(obj).encode()).hexdigest() == LIBRARY[name]


def _load(obj, role):
    return barcx.family_from_obj(obj, role=role)


def _full_reports():
    """Whole reports, every failing word with its residue, of the checks
    on the mixed families: the command line prints three witnesses only."""
    window = barcx.TruncationWindow(qmax=4)
    m1, m0 = _load(MIXED_M1, "m"), _load(MIXED_M0, "m")
    h, h0, k = _load(MIXED_H, "h"), _load(MIXED_H0, "h"), _load(MIXED_K, "k")
    return {
        "chain-map h": lambda: barcx.check_chain_map(h, m0, m1, window),
        "chain-map h0": lambda: barcx.check_chain_map(h0, m1, m1, window),
        "homotopy h0 h k": lambda: barcx.check_homotopy(h0, h, k, m0, m1, window),
        "homotopy h h0 k": lambda: barcx.check_homotopy(h, h0, k, m1, m1, window),
    }


REPORTS = {
    "chain-map h": "f7471e9a3d2263e252b16bb5645843c76e54b2e530778bfb79d884f2e0877e83",
    "chain-map h0": "c4becdf58cbdf3596cf473a2cbeb7cd972781f7384e7e1e631602726ecb38f39",
    "homotopy h h0 k": "163e87d1285856a8a29939007f3d2167a242bced472c0e214c57f9a450437f83",
    "homotopy h0 h k": "7b2e7eb54df5ae543f4f5477afa74fe94fae72703531c4d74995f266951044b0",
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_full_report(name):
    # the pins predate failing_words, so they hash the object without it
    obj = _full_reports()[name]().to_obj()
    assert obj.pop("failing_words") == len(obj["failures"]) > 0
    assert hashlib.sha256(json.dumps(obj).encode()).hexdigest() == REPORTS[name]
