"""Exit codes, output formats, and determinism of the command line."""

import contextlib
import copy
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import clustercx
from clustercx import barcx, cli, errors, labelings, signs, strata, trees
from test_golden import CASES, FIXTURES


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


# two stable trees: a stratum of Q only, and a stratum of no family, with
# a colored vertex under another on the path to two of its leaves
_COLORED_ROOT = {"i": 4, "col": True, "children": ["x", "x"]}
_TWO_COLORS = {"col": True, "children": ["x", {"col": True, "children": ["x", "x"]}]}


@pytest.fixture(scope="module")
def family_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fams")
    lib = barcx.example_library()
    paths = {}
    for name in ("circle", "polynomial"):
        p = d / (name + ".json")
        p.write_text(json.dumps(barcx.family_to_obj(lib[name])))
        paths[name] = str(p)
    obj = barcx.family_to_obj(lib["polynomial"])
    for rule in obj["ops"]["m"]["2"]:
        if rule["in"] == ["a", "a"]:
            rule["out"][0]["coef"] = 2
    p = d / "poly_bad.json"
    p.write_text(json.dumps(obj))
    paths["bad"] = str(p)
    poly = barcx.family_to_obj(lib["polynomial"])
    syms = [g["sym"] for g in poly["generators"]]
    for name, role, ops in (
        ("id_h", "h", {"1": [{"in": [s], "out": [{"sym": s, "d": 0, "coef": 1}]}
                             for s in syms]}),
        ("double_h", "h", {"1": [{"in": [s], "out": [{"sym": s, "d": 0, "coef": 2}]}
                                 for s in syms]}),
        ("zero_k", "k", {}),
    ):
        p = d / (name + ".json")
        p.write_text(json.dumps(dict(poly, ops={role: ops})))
        paths[name] = str(p)
    ct = {
        "tree": {"b": 2, "i": 4, "col": False, "children": ["x", "x"]},
        "mu_root": 1,
        "mu_leaves": [0, 0],
        "maslov": [4],
        "n": 2,
    }
    p = d / "ct.json"
    p.write_text(json.dumps(ct))
    paths["ct"] = str(p)
    return paths


class TestBasics:
    def test_fvector_plain(self, capsys):
        code, out = run(capsys, "fvector", "--family", "K", "--l", "4", "--k", "0")
        assert code == 0 and out.strip() == "5 5 1"

    def test_export_quilted_with_marks_pinned(self, capsys):
        # stratum ids follow the enumeration order, so these pin it too
        pins = {
            ("Q", 2, 1): "c09d2444a7b4834bf9bee3301939dbf8c2b0b506968b7f3b3df967aa841a84f0",
            ("K", 6, 0): "f4022d486d1a9487e26c9216196b09f4ed78ebe2491c34f84c5cb9a046b43205",
            ("Q", 4, 0): "9d5c58ddd2f431729b0eee6aa98f1e08947cf81a2d2e7888b6252aa6c3bcee96",
            ("Q", 3, 1): "0033457903ea8d93ef2829e92e98de075c0f3c7c91167a96ab2a813fcbfada1e",
            ("Ks", 4, 1): "5dacff2a1bb97d6832396f3f6c0ceffce731b253f6d3f707ca70079b73695ad6",
            # one stratum and no coverings: "coverings": []
            ("K", 2, 0): "0e4f387fbab0914107f1852b8c56eb2ce82eeba307897b80f15c0ee462c8f35d",
        }
        for (family, l, k), want in pins.items():
            code, out = run(
                capsys, "export", "--family", family, "--l", str(l), "--k", str(k)
            )
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == want, family

    def test_sign_concat(self, capsys):
        code, out = run(capsys, "sign", "concat", "--l1", "2", "--j", "2", "--l2", "2")
        assert code == 0 and out.strip() == "-1"

    def test_sign_lower(self, capsys):
        for l1 in (1, 2, 3):
            for j in range(1, l1 + 1):
                for l2 in (0, 1, 2):
                    argv = ["--l1", str(l1), "--j", str(j), "--l2", str(l2)]
                    code, out = run(capsys, "sign", "lower", *argv)
                    want = signs.sign_lower_quilt(l1, j, l2)
                    assert code == 0 and int(out) == want

    @pytest.mark.parametrize("parts", ["2", "2,3", "3,2,1", "2,3,1", "1,2,2,3"])
    def test_sign_upper(self, capsys, parts):
        code, out = run(capsys, "sign", "upper", "--parts", parts, "--json")
        want = signs.sign_upper_quilt([int(x) for x in parts.split(",")])
        assert code == 0 and json.loads(out)["data"] == {"sign": want}

    @pytest.mark.parametrize(
        "l1, j, l2, perm",
        [(3, 1, 2, "1,3,2,4"), (3, 1, 2, "1,2,3,4"), (2, 2, 1, "1,2,3"),
         (3, 2, 2, "1,2,4,3,5"), (4, 1, 1, "1,4,3,2")],
    )
    def test_sign_bullet(self, capsys, l1, j, l2, perm):
        code, out = run(
            capsys, "sign", "bullet", "--l1", str(l1), "--j", str(j),
            "--l2", str(l2), "--perm", perm,
        )
        want = signs.sign_bullet(l1, j, l2, [int(x) for x in perm.split(",")])
        assert code == 0 and int(out) == want

    def test_fvector_json(self, capsys):
        code, out = run(capsys, "fvector", "--family", "Q", "--l", "3", "--json")
        assert code == 0
        assert out == '{"command":"fvector --family Q --l 3 --json",' \
            '"data":{"f_vector":[6,6,1]},"verdict":"pass"}\n'

    def test_human_report_is_indented_json(self, capsys, family_files):
        # human mode prints the same report, indented; only the check
        # commands add their timing
        for argv, timed in (
            (["strata", "--family", "Q", "--l", "3"], False),
            (["check-ainf", family_files["circle"], "--qmax", "2"], True),
        ):
            code, out = run(capsys, *argv)
            _, machine = run(capsys, *argv, "--json")
            obj = json.loads(out)
            assert code == 0
            assert out == json.dumps(obj, sort_keys=True, indent=2) + "\n"
            assert ("timing_s" in obj) is timed
            if timed:
                assert obj.pop("timing_s") >= 0
            obj["command"] += " --json"
            assert obj == json.loads(machine)

    def test_unopenable_file_is_a_usage_error(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.json")
        for argv in (["chi", missing], ["check-ainf", missing], ["index", missing]):
            assert cli.main(argv + ["--json"]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("usage error: ") and missing in err

    def test_export_has_no_output_flag(self, capsys, tmp_path):
        # a file is written with the shell's `>`
        target = tmp_path / "x"
        code = cli.main(["export", "--l", "3", "--output", str(target)])
        assert code == 2 and not target.exists()

    def test_collar_needs_positive_dimension(self, capsys):
        code, out = run(capsys, "collar", "--l", "2", "--k", "0", "--json")
        assert code == 1
        assert json.loads(out) == {
            "detail": "collar needs positive dimension",
            "error": "StabilityError",
            "verdict": "fail",
        }

    def test_usage_error(self, capsys):
        assert cli.main(["nosuch"]) == 2

    def test_seed_is_not_an_option(self, capsys):
        code, out = run(capsys, "fvector", "--l", "4", "--seed", "3")
        assert code == 2 and out == ""

    def test_strata_json(self, capsys):
        code, out = run(capsys, "strata", "--family", "Q", "--l", "3", "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["data"]["total"] == 13
        assert "timing_s" not in obj

    def test_json_deterministic(self, capsys):
        _, out1 = run(capsys, "strata", "--family", "K", "--l", "4", "--k", "1", "--json")
        _, out2 = run(capsys, "strata", "--family", "K", "--l", "4", "--k", "1", "--json")
        assert out1 == out2

    def test_quilted_at_caps(self, capsys):
        # cold tables, so the timed export pays for the whole count
        trees.plain.cache_clear()
        trees.colored.cache_clear()
        started = time.time()
        code, out = run(
            capsys, "export", "--family", "Q", "--l", "10", "--k", "4", "--json"
        )
        assert code == 1
        assert json.loads(out)["error"] == "CapError"
        assert time.time() - started < 10.0
        code, out = run(
            capsys, "strata", "--family", "Q", "--l", "10", "--k", "4", "--json"
        )
        assert code == 0
        assert json.loads(out)["data"]["total"] == 49050974222403

    def test_negative_arguments(self, capsys):
        code, out = run(
            capsys, "strata", "--family", "K", "--l", "-1", "--k", "0", "--json"
        )
        assert code == 1
        assert json.loads(out)["error"] == "RangeError"

    @pytest.mark.parametrize(
        "argv",
        [
            ["labelings", "--l", "-1", "--c", "1"],
            ["labelings", "--l", "2", "--c", "-1"],
            ["collar", "--l", "-1", "--k", "0"],
            ["collar", "--l", "3", "--k", "-1"],
        ],
    )
    def test_negative_arguments_every_command(self, capsys, argv):
        code, out = run(capsys, *argv, "--json")
        assert code == 1
        assert json.loads(out)["error"] == "RangeError"


class TestChecks:
    def test_check_ainf_pass(self, capsys, family_files):
        code, out = run(
            capsys, "check-ainf", family_files["circle"], "--qmax", "5", "--json"
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_check_ainf_fail_with_witness(self, capsys, family_files):
        code, out = run(
            capsys, "check-ainf", family_files["bad"], "--qmax", "4", "--json"
        )
        assert code == 1
        obj = json.loads(out)
        assert obj["verdict"] == "fail"
        assert obj["counterexample"]

    @pytest.mark.parametrize("field, value", [("coidx", 1), ("label", [0, 1])])
    def test_families_share_one_table(self, capsys, tmp_path, field, value):
        # generator a gets another co-index or label in one family only;
        # c = 1 makes the label (0, 1) a valid one
        poly = barcx.family_to_obj(barcx.example_library()["polynomial"])
        poly["c"] = 1
        syms = [g["sym"] for g in poly["generators"]]
        ident = {"1": [{"in": [s], "out": [{"sym": s, "d": 0, "coef": 1}]} for s in syms]}
        odd = [
            dict(g, **{field: value}) if g["sym"] == "a" else g
            for g in poly["generators"]
        ]
        fams = {
            "m": poly,
            "h": dict(poly, ops={"h": ident}),
            "h_odd": dict(poly, generators=odd, ops={"h": ident}),
            "k_odd": dict(poly, generators=odd, ops={"k": {}}),
        }
        path = {}
        for name, obj in fams.items():
            p = tmp_path / (name + ".json")
            p.write_text(json.dumps(obj))
            path[name] = str(p)
        ends = ["--source", path["m"], "--target", path["m"], "--qmax", "3", "--json"]
        for argv in (
            ["check-morphism", "--morphism", path["h_odd"]] + ends,
            ["check-homotopy", "--h0", path["h"], "--h1", path["h"],
             "--homotopy", path["k_odd"]] + ends,
        ):
            code, out = run(capsys, *argv)
            assert code == 1
            obj = json.loads(out)
            assert obj["error"] == "ShapeError"
            assert "generator 'a'" in obj["detail"]

    @pytest.mark.parametrize(
        "bounds", [["--qmax", "0"], ["--qmax", "-1"], ["--emax", "-1"]]
    )
    def test_vacuous_window_refused(self, capsys, family_files, bounds):
        # each of these windows would pass the failing family
        code, out = run(capsys, "check-ainf", family_files["bad"], *bounds, "--json")
        assert code == 1
        obj = json.loads(out)
        assert obj["error"] == "RangeError"
        assert "qmax >= 1 and emax >= 0" in obj["detail"]

    def test_negative_emax_would_pass_a_failing_family(self, capsys, tmp_path):
        fam = barcx.random_family(random.Random(3))
        p = tmp_path / "random3.json"
        p.write_text(json.dumps(barcx.family_to_obj(fam)))
        argv = ["check-ainf", str(p), "--qmax", "3", "--json"]
        code, out = run(capsys, *argv)
        assert code == 1 and json.loads(out)["verdict"] == "fail"
        code, out = run(capsys, *argv, "--emax", "-1")
        assert code == 1 and json.loads(out)["error"] == "RangeError"

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-ainf", "@polynomial"],
            ["check-morphism", "--morphism", "@id_h", "--source", "@polynomial",
             "--target", "@polynomial"],
            ["check-homotopy", "--h0", "@id_h", "--h1", "@id_h", "--homotopy",
             "@zero_k", "--source", "@polynomial", "--target", "@polynomial"],
        ],
        ids=["check-ainf", "check-morphism", "check-homotopy"],
    )
    def test_word_cap_refused_at_once(self, capsys, family_files, argv):
        # 5 + 5^2 + ... + 5^40 words would be listed one by one
        argv = [family_files[a[1:]] if a.startswith("@") else a for a in argv]
        started = time.perf_counter()
        code, out = run(capsys, *argv, "--qmax", "40", "--json")
        assert time.perf_counter() - started < 1.0
        assert code == 1
        obj = json.loads(out)
        assert obj["error"] == "CapError" and "above the cap" in obj["detail"]

    def test_malformed_label_family_refused(self, capsys, tmp_path):
        # b's label (2, 1) is no interval at c = 1; check-ainf once passed
        # this family on 3 words without reading m2(a, b) = a
        obj = {
            "c": 1,
            "generators": [
                {"sym": "a", "coidx": 0},
                {"sym": "b", "coidx": 0, "label": [2, 1]},
            ],
            "ops": {"m": {"2": [{"in": ["a", "b"], "out": [{"sym": "a", "coef": 1}]}]}},
        }
        p = tmp_path / "bad_label.json"
        p.write_text(json.dumps(obj))
        code, out = run(capsys, "check-ainf", str(p), "--qmax", "3", "--json")
        assert code == 1
        assert json.loads(out) == {
            "verdict": "fail",
            "error": "BlockError",
            "detail": "bad interval label (2, 1) on 'b'",
        }

    def test_jobs_flag(self, capsys, family_files):
        code, _ = run(
            capsys,
            "check-ainf",
            family_files["circle"],
            "--qmax",
            "4",
            "--jobs",
            "2",
            "--json",
        )
        assert code == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-ainf", "@bad", "--qmax", "3"],
            ["check-morphism", "--morphism", "@id_h", "--source", "@bad",
             "--target", "@polynomial", "--qmax", "3"],
            ["check-homotopy", "--h0", "@double_h", "--h1", "@id_h", "--homotopy",
             "@zero_k", "--source", "@polynomial", "--target", "@polynomial",
             "--qmax", "3"],
        ],
        ids=["check-ainf", "check-morphism", "check-homotopy"],
    )
    def test_jobs_changes_only_the_echo(self, capsys, family_files, argv):
        # check-ainf accepts --jobs and ignores it: the same failing report
        # either way; the other check commands refuse it as unknown
        argv = [family_files[a[1:]] if a.startswith("@") else a for a in argv]
        code2, out2 = run(capsys, *argv, "--jobs", "2", "--json")
        if argv[0] != "check-ainf":
            assert code2 == 2 and not out2
            return
        code1, out1 = run(capsys, *argv, "--json")
        plain, jobs = json.loads(out1), json.loads(out2)
        assert code1 == code2 == 1
        assert plain["verdict"] == "fail" and plain["counterexample"]
        assert plain.pop("command") == " ".join(argv + ["--json"])
        assert jobs.pop("command") == " ".join(argv + ["--jobs", "2", "--json"])
        assert jobs == plain

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-ainf", "@bad", "--qmax", "3"],
            ["check-morphism", "--morphism", "@id_h", "--source", "@bad",
             "--target", "@polynomial", "--qmax", "3"],
            ["check-homotopy", "--h0", "@double_h", "--h1", "@id_h", "--homotopy",
             "@zero_k", "--source", "@polynomial", "--target", "@polynomial",
             "--qmax", "3"],
        ],
        ids=["check-ainf", "check-morphism", "check-homotopy"],
    )
    def test_counterexample_without_the_full_report(
        self, capsys, monkeypatch, family_files, argv
    ):
        # the CLI serializes the three failures it prints, not every failure
        argv = [family_files[a[1:]] if a.startswith("@") else a for a in argv]
        code, expected = run(capsys, *argv, "--json")

        def refused(self):
            raise AssertionError("Report.to_obj called")

        monkeypatch.setattr(barcx.Report, "to_obj", refused)
        code2, out = run(capsys, *argv, "--json")
        assert code == code2 == 1
        assert out == expected
        obj = json.loads(out)
        assert obj["verdict"] == "fail" and 1 <= len(obj["counterexample"]) <= 3


class TestIndexCommands:
    def test_index(self, capsys, family_files):
        code, out = run(capsys, "index", family_files["ct"])
        assert code == 0 and out.strip() == "5"

    def test_reduce_and_audit(self, capsys, family_files):
        spec = '{"type":"I","disk":[],"d":2}'
        code, out = run(
            capsys, "reduce", family_files["ct"], "--surgery", spec, "--json"
        )
        assert code == 0
        assert json.loads(out)["data"]["removed_marks"] == 2
        code, out = run(
            capsys,
            "audit",
            family_files["ct"],
            "--surgery",
            spec,
            "--assumed-index",
            "1",
            "--json",
        )
        assert code == 0
        assert json.loads(out)["data"]["forces_cokernel"]

    def test_labelings(self, capsys):
        code, out = run(capsys, "labelings", "--l", "1", "--c", "1", "--json")
        assert code == 0
        assert json.loads(out)["data"]["count"] == 2

    @pytest.mark.parametrize("family", ["otimes", "bullet"])
    def test_labelings_cap_refused_at_once(self, capsys, family):
        # 77,558,746 otimes and 40,116,600 bullet labelings would be built
        started = time.perf_counter()
        code, out = run(
            capsys, "labelings", "--l", "14", "--c", "14", "--family", family, "--json"
        )
        assert time.perf_counter() - started < 1.0
        assert code == 1
        obj = json.loads(out)
        assert obj["error"] == "CapError" and "above the cap" in obj["detail"]

    def test_oversized_poset_rejected(self, capsys):
        started = time.time()
        code, out = run(capsys, "export", "--l", "10", "--k", "4", "--json")
        assert code == 1
        assert json.loads(out)["error"] == "CapError"
        assert time.time() - started < 10.0

    def test_tiles_beyond_materializing(self, capsys):
        code, out = run(capsys, "tiles", "--l", "7", "--k", "0", "--json")
        assert code == 0
        data = json.loads(out)["data"]
        assert data == {
            "tiles": 5040,
            "identified_pairs": {"I": 2978640, "II": 2751840, "III": 403200},
            "orientation_consistent": True,
        }

    def test_chart_invert_negative_label(self, capsys, tmp_path):
        # the maximal (2, 1) tree with a mark between its two leaves
        mark = {"i": 1, "col": False, "children": []}
        inner = {"i": 0, "col": False, "children": ["x", mark]}
        obj = {
            "tree": {"i": 0, "col": False, "children": [inner, "x"]},
            "labels": {"0": "-1/2", "0.1": "-3"},
        }
        p = tmp_path / "neg.json"
        p.write_text(json.dumps(obj))
        code, out = run(capsys, "chart", str(p), "--invert", "--json")
        assert code == 1
        assert json.loads(out)["error"] == "RangeError"

    @pytest.mark.parametrize(
        "family, tree",
        [("K", None), ("Ks", None), ("Q", _COLORED_ROOT)],
    )
    def test_index_tree_of_its_family(self, capsys, tmp_path, family, tree):
        obj = dict(FIXTURES["ct.json"], family=family)
        if tree is not None:
            obj["tree"] = tree
        p = tmp_path / "ct.json"
        p.write_text(json.dumps(obj))
        code, out = run(capsys, "index", str(p), "--json")
        assert code == 0 and "index" in json.loads(out)["data"]

    @pytest.mark.parametrize(
        "counts, detail",
        [
            ({"interior_incidences": -3},
             "interior_incidences must be nonnegative (got interior_incidences=-3)"),
            ({"complex_nodes": -1},
             "complex_nodes must be nonnegative (got complex_nodes=-1)"),
            # both at once once read as index 8
            ({"interior_incidences": -3, "complex_nodes": -1},
             "complex_nodes must be nonnegative (got complex_nodes=-1)"),
        ],
        ids=["incidences", "complex-nodes", "both"],
    )
    def test_index_negative_counts(self, capsys, tmp_path, counts, detail):
        # a 3-leaf corolla with every co-index 0
        obj = dict(
            {"tree": {"children": ["x", "x", "x"]}, "mu_root": 0, "mu_leaves": [0, 0, 0]},
            **counts,
        )
        p = tmp_path / "ct.json"
        p.write_text(json.dumps(obj))
        code, out = run(capsys, "index", str(p), "--json")
        assert code == 1
        assert json.loads(out) == {"verdict": "fail", "error": "RangeError", "detail": detail}

    @pytest.mark.parametrize("key", ["removed_marks", "interior_incidences", "complex_nodes"])
    @pytest.mark.parametrize("cmd", ["reduce", "audit"])
    def test_gen_spec_negative_count(self, capsys, tmp_path, cmd, key):
        # on a tree without marks, removed_marks -5 once gave k_after 5 and
        # a forced cokernel
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"tree": {"children": ["x", "x", "x"]}}))
        spec = json.dumps({"type": "gen-I", key: -5})
        extra = ["--assumed-index", "0"] if cmd == "audit" else []
        code, out = run(capsys, cmd, str(p), "--surgery", spec, *extra, "--json")
        assert code == 1
        obj = json.loads(out)
        assert obj["error"] == "SurgeryError"
        assert obj["detail"].endswith("must be nonnegative (got %s)" % ", ".join(
            "%s=%d" % (k, -5 if k == key else 0)
            for k in ("removed_marks", "interior_incidences", "complex_nodes")
        ))

    def test_chart_invert_refuses_unbalanced_quilted_labels(self, capsys, tmp_path):
        # both colored vertices lie at the seam, so their Deltas agree
        colored = {"col": True, "children": ["x"]}
        obj = {"tree": {"children": [colored, colored]}, "labels": {"0": "1/2", "1": "1"}}
        p = tmp_path / "q.json"
        p.write_text(json.dumps(obj))
        code, out = run(capsys, "chart", str(p), "--invert", "--json")
        assert code == 1
        assert json.loads(out)["error"] == "BalanceError"
        obj["labels"] = {"0": "1/2", "1": "1/2"}
        p.write_text(json.dumps(obj))
        code, out = run(capsys, "chart", str(p), "--invert", "--json")
        assert code == 0 and json.loads(out)["data"]["seam"] == "1/2"

    def test_index_unknown_edge_state(self, capsys, tmp_path):
        obj = {
            "tree": {
                "i": 0,
                "col": False,
                "children": [{"i": 0, "col": False, "children": ["x", "x"]}, "x"],
            },
            "edge_states": {"0": "complex"},
            "mu_root": 1,
            "mu_leaves": [0, 0, 0],
        }
        p = tmp_path / "ct_complex.json"
        p.write_text(json.dumps(obj))
        code, out = run(capsys, "index", str(p), "--json")
        assert code == 1
        assert json.loads(out)["error"] == "ShapeError"
        obj["edge_states"] = {"0": "broken"}
        p.write_text(json.dumps(obj))
        assert run(capsys, "index", str(p), "--json")[0] == 0

    @pytest.mark.parametrize(
        "spec",
        [
            # a negative slot index, a path or an integer of the wrong
            # type, a destination that is a leaf, a spec that is not an
            # object
            '{"type":"I","disk":[-1],"d":2}',
            '{"type":"I","disk":3}',
            '{"type":"I","disk":[1],"d":null}',
            '{"type":"IIa","disk":[1],"dest":[-1],"at":0}',
            '{"type":"IIa","disk":[1],"dest":[0],"at":0}',
            '[1]',
            # refused before too: a slot past the end, a float index and
            # a negative path whose vertex has no disk child to promote
            '{"type":"I","disk":[3],"d":2}',
            '{"type":"I","disk":[1.0],"d":2}',
            '{"type":"IIb","disk":[-1],"dest":0}',
        ],
    )
    def test_reduce_malformed_spec(self, capsys, tmp_path, spec):
        # a leaf, then a disk with two marks over two leaves
        disk = {"i": 2, "col": False, "children": ["x", "x"]}
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"tree": {"i": 0, "col": False, "children": ["x", disk]}}))
        code, out = run(capsys, "reduce", str(p), "--surgery", spec, "--json")
        assert code == 1
        assert json.loads(out)["error"] == "SurgeryError"

    @pytest.mark.parametrize(
        "argv",
        [
            ["chart", "F"],
            ["chi", "F"],
            ["check-ainf", "F"],
            ["check-morphism", "--morphism", "F", "--source", "F", "--target", "F"],
            ["check-homotopy", "--h0", "F", "--h1", "F", "--homotopy", "F",
             "--source", "F", "--target", "F"],
            ["index", "F"],
            ["reduce", "F", "--surgery", '{"type":"I","disk":[1],"d":2}'],
            ["audit", "F", "--surgery", '{"type":"I","disk":[1],"d":2}',
             "--assumed-index", "0"],
        ],
    )
    def test_file_not_an_object(self, capsys, tmp_path, argv):
        p = tmp_path / "list.json"
        p.write_text("[1, 2, 3]")
        code, out = run(capsys, *(str(p) if a == "F" else a for a in argv), "--json")
        assert code == 1
        assert json.loads(out)["error"] == "ShapeError"

    @pytest.mark.parametrize("cmd, child", [("chi", "y"), ("index", 5)])
    def test_malformed_tree_exit_1(self, capsys, tmp_path, cmd, child):
        obj = {
            "tree": {"i": 0, "col": False, "children": ["x", "x", child]},
            "labels": {},
            "mu_root": 1,
            "mu_leaves": [0, 0],
        }
        p = tmp_path / "t.json"
        p.write_text(json.dumps(obj))
        code, out = run(capsys, cmd, str(p), "--json")
        assert code == 1
        assert json.loads(out)["error"] == "ShapeError"

    def test_domain_error_exit_1(self, capsys, family_files):
        spec = '{"type":"I","disk":[],"d":3}'
        code, out = run(
            capsys, "reduce", family_files["ct"], "--surgery", spec, "--json"
        )
        assert code == 1
        assert json.loads(out)["error"] == "SurgeryError"


class TestTiles:
    def test_tiles_at_the_caps(self, capsys):
        # cold tables, so the timed command pays for the whole count
        trees.plain.cache_clear()
        started = time.time()
        code, out = run(capsys, "tiles", "--l", "10", "--k", "4", "--json")
        assert time.time() - started < 1.0
        assert code == 0
        assert json.loads(out)["data"] == {
            "tiles": 3628800,
            "identified_pairs": {
                "I": 706911190617340800,
                "II": 1660282602295968000,
                "III": 766371212877916800,
            },
            "orientation_consistent": True,
        }

    @pytest.mark.parametrize(
        "l, k, error",
        [
            ("11", "0", "CapError"),
            ("1", "0", "StabilityError"),
            ("-1", "0", "RangeError"),
        ],
    )
    def test_tiles_errors(self, capsys, l, k, error):
        code, out = run(capsys, "tiles", "--l", l, "--k", k, "--json")
        assert code == 1
        assert json.loads(out)["error"] == error

    def test_tiles_builds_no_poset(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("tiles listed trees")

        monkeypatch.setattr(strata, "face_poset", refuse)
        monkeypatch.setattr(trees, "_listed", refuse)
        code, out = run(capsys, "tiles", "--l", "3", "--k", "3", "--json")
        assert code == 0
        assert json.loads(out)["data"]["identified_pairs"] == {
            "I": 9102,
            "II": 37044,
            "III": 16212,
        }

    def test_even_type_one_move_fails_the_report(self, capsys, monkeypatch):
        # negative control: counts with an even type-I move, fed to the
        # command that makes the report
        counts = strata.TileCounts(3, 63, {("I", 0): 1, ("I", 1): 21})
        monkeypatch.setattr(strata, "tile_counts", lambda l, k: counts)
        code, out = run(capsys, "tiles", "--l", "3", "--k", "1", "--json")
        assert code == 1
        obj = json.loads(out)
        assert obj["verdict"] == "fail"
        assert obj["data"] == {
            "tiles": 6,
            "identified_pairs": {"I": 66},
            "orientation_consistent": False,
        }


# a quilted (2, 0) tree: one interior edge, below a colored root
_CHERRY = {
    "i": 0,
    "col": True,
    "children": [{"i": 0, "col": False, "children": ["x", "x"]}],
}


class TestFileFields:
    @pytest.mark.parametrize(
        "argv", [["chi"], ["chi", "--quilted"], ["chart", "--invert"]]
    )
    @pytest.mark.parametrize("labels", [[1, 2], {"0": 3}])
    def test_labels_of_the_wrong_type(self, capsys, tmp_path, argv, labels):
        p = tmp_path / "lab.json"
        p.write_text(json.dumps({"tree": _CHERRY, "labels": labels}))
        code, out = run(capsys, argv[0], str(p), *argv[1:], "--json")
        assert code == 1
        obj = json.loads(out)
        assert obj["error"] == "ShapeError"
        assert "label" in obj["detail"]

    @pytest.mark.parametrize(
        "argv", [["chi"], ["chi", "--quilted"], ["chart", "--invert"]]
    )
    @pytest.mark.parametrize(
        "label, part",
        [
            ({"num": 1, "den": [["0", "1"]]}, "label '0'.num must be "),
            ({"base": "1/2", "exp": [1]}, "label '0'.exp must be "),
            ({"base": "garbage", "exp": "1"}, "label '0'.base must be "),
            ("1/0", "label '0' must be a string p/q with q != 0"),
        ],
    )
    def test_malformed_label_objects(self, capsys, tmp_path, argv, label, part):
        p = tmp_path / "lab.json"
        p.write_text(json.dumps({"tree": _CHERRY, "labels": {"0": label}}))
        code, out = run(capsys, argv[0], str(p), *argv[1:], "--json")
        assert code == 1
        obj = json.loads(out)
        assert obj["error"] == "ShapeError"
        assert obj["detail"].startswith(part)

    def test_chart_invert_eps_label(self, capsys, tmp_path):
        p = tmp_path / "lab.json"
        labels = {"0": {"base": "1/2", "exp": "1"}}
        p.write_text(json.dumps({"tree": _PLAIN3, "labels": labels}))
        code, out = run(capsys, "chart", str(p), "--invert", "--json")
        assert code == 1
        obj = json.loads(out)
        assert obj["error"] == "ShapeError"
        assert obj["detail"].startswith("chart label on edge 0 must be a rational")

    def test_chi_quilted_eps_label(self, capsys, tmp_path):
        p = tmp_path / "lab.json"
        labels = {"0": {"base": "1/2", "exp": "1"}}
        p.write_text(json.dumps({"tree": _CHERRY, "labels": labels}))
        code, out = run(capsys, "chi", str(p), "--quilted", "--json")
        assert code == 1
        obj = json.loads(out)
        assert obj["error"] == "ShapeError"
        assert obj["detail"].startswith(
            "chi_quilted label on edge 0 must be a rational"
        )

    def test_chi_quilted_eps_powers_read_back(self, capsys, tmp_path):
        # chi of the all-zero labeling is l -> eps^M_l, written as
        # {"base", "exp"} labels, and reads back as the same values
        c = {"i": 0, "col": True, "children": ["x"]}
        tobj = {"i": 0, "col": False, "children": [
            {"i": 0, "col": False, "children": [c, c]}, c]}
        zero = {"0": "0", "0.0": "0", "0.1": "0", "1": "0"}
        p = tmp_path / "lab.json"
        p.write_text(json.dumps({"tree": tobj, "labels": zero}))
        code, out = run(capsys, "chi", str(p), "--quilted", "--eps", "1/3", "--json")
        assert code == 0
        labels = json.loads(out)["data"]["labels"]
        half = {"base": "1/3", "exp": "1/2"}
        assert labels == {"0": half, "0.0": half, "0.1": half,
                          "1": {"base": "1/3", "exp": "1"}}
        tree = trees.from_obj(tobj)
        chi = labelings.chi_quilted(
            labelings.labeling_from_obj(tree, zero), Fraction(1, 3)
        )
        assert labelings.labeling_from_obj(tree, labels) == chi

    @pytest.mark.parametrize("states", [[1], {"0": 1}, "broken"])
    def test_edge_states_of_the_wrong_type(self, capsys, tmp_path, states):
        obj = {
            "tree": {
                "i": 0,
                "col": False,
                "children": [{"i": 0, "col": False, "children": ["x", "x"]}, "x"],
            },
            "edge_states": states,
            "mu_root": 1,
            "mu_leaves": [0, 0, 0],
        }
        p = tmp_path / "ct.json"
        p.write_text(json.dumps(obj))
        code, out = run(capsys, "index", str(p), "--json")
        assert code == 1
        obj = json.loads(out)
        assert obj["error"] == "ShapeError"
        assert "edge_states" in obj["detail"]

    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("generators",), "ab", "generators"),
            (("generators", 0), "a", "generators[0]"),
            (("generators", 0, "sym"), 1, "generators[0].sym"),
            (("generators", 0, "coidx"), "0", "generators[0].coidx"),
            (("generators", 0, "coidx"), True, "generators[0].coidx"),
            (("generators", 0, "label"), 7, "generators[0].label"),
            (("ops",), [], "ops"),
            (("ops", "m"), [], "ops.m"),
            (("ops", "m", "2"), {}, "ops.m.2"),
            (("ops", "m", "2", 0), "rule", "ops.m.2[0]"),
            (("ops", "m", "2", 0, "in"), "11", "ops.m.2[0].in"),
            (("ops", "m", "2", 0, "in", 0), ["1"], "ops.m.2[0].in"),
            (("ops", "m", "2", 0, "out"), 1, "ops.m.2[0].out"),
            (("ops", "m", "2", 0, "out", 0), "1", "ops.m.2[0].out[0]"),
            (("ops", "m", "2", 0, "out", 0, "sym"), [], "ops.m.2[0].out[0].sym"),
            (("ops", "m", "2", 0, "out", 0, "d"), "0", "ops.m.2[0].out[0].d"),
            (("ops", "m", "2", 0, "out", 0, "coef"), 0.5, "ops.m.2[0].out[0].coef"),
            (("n",), "2", "n"),
            (("NL",), None, "NL"),
            (("c",), [0], "c"),
        ],
    )
    def test_family_field_of_the_wrong_type(
        self, capsys, tmp_path, path, value, field
    ):
        detail = _check_ainf_edited(capsys, tmp_path, path, value)
        assert detail.startswith("family field %s must be " % field)

    @pytest.mark.parametrize(
        "path, field",
        [
            (("generators",), "generators"),
            (("generators", 0, "sym"), "generators[0].sym"),
            (("generators", 0, "coidx"), "generators[0].coidx"),
            (("ops", "m"), "ops.m"),
            (("ops", "m", "2", 0, "in"), "ops.m.2[0].in"),
            (("ops", "m", "2", 0, "out"), "ops.m.2[0].out"),
            (("ops", "m", "2", 0, "out", 0, "sym"), "ops.m.2[0].out[0].sym"),
        ],
    )
    def test_family_field_missing(self, capsys, tmp_path, path, field):
        detail = _check_ainf_edited(capsys, tmp_path, path, _DELETE)
        assert detail == "family field %s is missing" % field

    @pytest.mark.parametrize("arity", ["two", "2.0", "\u00b2"])
    def test_family_arity_not_an_integer(self, capsys, tmp_path, arity):
        obj = barcx.family_to_obj(barcx.example_library()["polynomial"])
        obj["ops"]["m"][arity] = obj["ops"]["m"].pop("2")
        p = tmp_path / "fam.json"
        p.write_text(json.dumps(obj))
        code, out = run(capsys, "check-ainf", str(p), "--json")
        assert code == 1
        detail = json.loads(out)["detail"]
        assert detail == "family field ops.m has arity %r, not an integer" % arity


_DELETE = object()


def _check_ainf_edited(capsys, tmp_path, path, value):
    """The ShapeError detail of check-ainf on the library polynomial family
    with the field at ``path`` set to ``value`` (or deleted, for _DELETE)."""
    obj = barcx.family_to_obj(barcx.example_library()["polynomial"])
    at = obj
    for key in path[:-1]:
        at = at[key]
    if value is _DELETE:
        del at[path[-1]]
    else:
        at[path[-1]] = value
    p = tmp_path / "fam.json"
    p.write_text(json.dumps(obj))
    code, out = run(capsys, "check-ainf", str(p), "--qmax", "3", "--json")
    assert code == 1
    obj = json.loads(out)
    assert obj["error"] == "ShapeError"
    return obj["detail"]


# the chi_root.json and chart_plain.json fixtures of test_golden.py, with
# the digests of their golden commands
_ROOT_COLORED = {
    "i": 0,
    "col": True,
    "children": [{"i": 1, "col": False, "children": ["x", "x"]}, "x"],
}
_PLAIN3 = {
    "i": 0,
    "col": False,
    "children": [{"i": 0, "col": False, "children": ["x", "x"]}, "x"],
}
_GOLDEN = {
    ("chi", "chi_root.json", "--quilted", "--json"):
        "9f3a891f5b24cb4b358d171245d7980118efd2ba0da8e0c3703bee984f035a67",
    ("chi", "chi_root.json", "--json"):
        "5b0229562ffb8e2f14c71e821f98b2c0245cd10ddb3d0c59c1d0dcd10529b2c3",
    ("chart", "chart_plain.json", "--json"):
        "de090f25b9f35b5269b74db7a616d7deb7a87d783632bb76d8d5c007a129b43c",
}


class TestSharedParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_errors_and_help_leave_it_intact(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "chi_root.json").write_text(
            json.dumps({"tree": _ROOT_COLORED, "labels": {"0": "5/7"}})
        )
        (tmp_path / "chart_plain.json").write_text(
            json.dumps({"tree": _PLAIN3, "xs": ["0", "1", "3"]})
        )
        monkeypatch.chdir(tmp_path)
        code, out = run(capsys, "chi", "chi_root.json", "--no-such-flag")
        assert code == 2 and out == ""
        code, out = run(capsys, "--help")
        assert code == 0 and "check-homotopy" in out
        # the quilted flag of the first chi must not reach the second
        for argv, want in _GOLDEN.items():
            code, out = run(capsys, *argv)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == want, argv

    def test_fresh_namespace_per_call(self):
        parser = cli.build_parser()
        first = parser.parse_args(["chart", "a.json", "--invert"])
        first._command_echo = "chart a.json --invert"
        second = parser.parse_args(["chi", "a.json"])
        assert second is not first
        assert not hasattr(second, "invert")
        assert not hasattr(second, "_command_echo")
        assert second.fn is cli._cmd_chi and second.quilted is False


def _case(argv, name, want="ShapeError", **edits):
    """``argv`` on the test_golden fixture ``name`` with top-level fields
    replaced (or deleted, for _DELETE), and the error it must give."""
    obj = dict(FIXTURES[name])
    for key, value in edits.items():
        if value is _DELETE:
            del obj[key]
        else:
            obj[key] = value
    return argv, obj, want


def _surgery(**spec):
    argv = ["reduce", "F", "--surgery", json.dumps(spec)]
    return argv, FIXTURES["surgery.json"], "SurgeryError"


_INDEX = ["index", "F"]
_CHART = ["chart", "F"]
_CHI = ["chi", "F"]
_EPS = "argument --eps"

# inputs that ended in a traceback, in "usage error" (exit 2), in a
# silent truncation to an integer, in an unbounded computation or in a
# report on an unstable tree, each with what it gives now: an error name
# with exit 1, or the start of argparse's complaint with exit 2
REFUSED = {
    "index mu_leaves [{a: 1}]": _case(_INDEX, "ct.json", mu_leaves=[{"a": 1}]),
    "index n ''": _case(_INDEX, "ct.json", n=""),
    "index mu_root ''": _case(_INDEX, "ct.json", mu_root=""),
    "index no tree": _case(_INDEX, "ct.json", tree=_DELETE),
    "index mu_root 1.7": _case(_INDEX, "ct.json", mu_root=1.7),
    "index mu_leaves [true, 0]": _case(_INDEX, "ct.json", mu_leaves=[True, 0]),
    "index maslov [2.9]": _case(_INDEX, "ct.json", maslov=[2.9]),
    "index n 2.0": _case(_INDEX, "ct.json", n=2.0),
    "index NL '2'": _case(_INDEX, "ct.json", NL="2"),
    "index interior_incidences 0.5": _case(_INDEX, "ct.json", interior_incidences=0.5),
    "index complex_nodes true": _case(_INDEX, "ct.json", complex_nodes=True),
    "index monotone 'no'": _case(_INDEX, "ct.json", monotone="no"),
    "index NL 0, monotone": _case(_INDEX, "ct_nodes.json", "RangeError", NL=0),
    "index edge_states key 'x'": _case(
        _INDEX, "ct_nodes.json", edge_states={"x": "line"}),
    "index K colored root": _case(_INDEX, "ct.json", tree=_COLORED_ROOT),
    "index Q plain tree": _case(_INDEX, "ct.json", family="Q"),
    "index Q two colors on a path": _case(
        _INDEX, "ct.json", family="Q", tree=_TWO_COLORS, mu_leaves=[0, 0, 0]),
    "index Q leafless tree": _case(
        _INDEX, "ct.json", family="Q", tree={"i": 1, "col": False, "children": []},
        mu_leaves=[], maslov=[]),
    "chart no tree": _case(_CHART, "chart_marked.json", tree=_DELETE),
    "chart xs 0": _case(_CHART, "chart_marked.json", xs=0),
    "chart xs ['x']": _case(_CHART, "chart_marked.json", xs=["x"]),
    "chart xs ['0', '1/0']": _case(_CHART, "chart_marked.json", xs=["0", "1/0"]),
    "chart zs [[1, '3']]": _case(_CHART, "chart_marked.json", zs=[[1, "3"]]),
    "chart seam {}": _case(_CHART, "chart_quilted.json", seam={}),
    "chart seam 1.5": _case(_CHART, "chart_quilted.json", seam=1.5),
    "chi no tree": _case(_CHI, "chi_root.json", tree=_DELETE),
    "chi no labels": _case(_CHI, "chi_root.json", labels=_DELETE),
    "chi label key 'x'": _case(_CHI, "chi_root.json", labels={"x": "1"}),
    "chi not JSON": (_CHI, "{", "ShapeError"),
    "chi JSON nested too deep": (
        _CHI, '{"tree": %s%s}' % ("[" * 5000, "]" * 5000), "ShapeError"),
    "chi --eps 1/0": _case(_CHI + ["--eps", "1/0"], "chi_root.json", _EPS),
    "chi --eps x": _case(_CHI + ["--eps", "x"], "chi_root.json", _EPS),
    "chi --eps 1e999999999": _case(
        _CHI + ["--eps", "1e999999999"], "chi_root.json", _EPS),
    "chi label '1e999999999'": _case(
        _CHI, "chi_root.json", labels={"0": "1e999999999"}),
    "chart seam '1e999999999'": _case(
        _CHART, "chart_quilted.json", seam="1e999999999"),
    "index unstable tree": (_INDEX, {
        "tree": {"i": 0, "col": False,
                 "children": [{"i": 0, "col": False, "children": ["x"]}]},
        "mu_root": 1,
        "mu_leaves": [0],
    }, "StabilityError"),
    "reduce I d 2.5": _surgery(type="I", disk=[], d=2.5),
    "reduce I d true": _surgery(type="I", disk=[], d=True),
    "reduce I d '2'": _surgery(type="I", disk=[], d="2"),
    "reduce IIa at 1.0": _surgery(type="IIa", disk=[0], dest=[], at=1.0),
    "reduce IIa no dest": _surgery(type="IIa", disk=[0], at=1),
    "reduce IIb dest 0.5": _surgery(type="IIb", disk=[], dest=0.5),
    "reduce gen-II removed_marks 1.9": _surgery(type="gen-II", removed_marks=1.9),
    "reduce gen-II interior_incidences true": _surgery(
        type="gen-II", interior_incidences=True),
    "reduce gen-II complex_nodes '1'": _surgery(type="gen-II", complex_nodes="1"),
}

_A = {"sym": "a", "coidx": 0}
_AA = {"in": ["a", "a"], "out": [{"sym": "a", "d": 0, "coef": 1}]}
# family files with a repeated entry, which used to overwrite the earlier
# one silently, and the two entries the ShapeError must name
REPEATED = {
    "check-ainf repeated pattern": (
        {"generators": [_A], "ops": {"m": {"2": [_AA, {"in": ["a", "a"], "out": []}]}}},
        ["family field ops.m.2[1]", "family field ops.m.2[0]"],
    ),
    "check-ainf repeated generator": (
        {"generators": [_A, {"sym": "b", "coidx": 0}, _A], "ops": {"m": {"2": [_AA]}}},
        ["generators[0]", "generators[2]"],
    ),
    "check-ainf repeated arity": (
        {"generators": [_A], "ops": {"m": {"2": [_AA], "02": []}}},
        ["family field ops.m.02", "family field ops.m.2"],
    ),
}
REFUSED.update(
    (case, (["check-ainf", "F"], obj, "ShapeError")) for case, (obj, _) in REPEATED.items()
)


class TestRefusedInputs:
    @pytest.mark.parametrize("case", sorted(REFUSED))
    def test_refused(self, capsys, tmp_path, case):
        argv, content, want = REFUSED[case]
        p = tmp_path / "in.json"
        p.write_text(content if isinstance(content, str) else json.dumps(content))
        code = cli.main([str(p) if a == "F" else a for a in argv] + ["--json"])
        out, err = capsys.readouterr()
        if want == _EPS:
            assert code == 2 and out == "" and want in err
        else:
            assert code == 1 and err == ""
            assert json.loads(out)["error"] == want

    @pytest.mark.parametrize("case", sorted(c for c in REFUSED if "1e999999999" in c))
    def test_exponent_refused_at_once(self, capsys, tmp_path, case):
        # Fraction would build 10**999999999 digit by digit
        started = time.perf_counter()
        self.test_refused(capsys, tmp_path, case)
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize("case", sorted(REPEATED))
    def test_repeated_entry_names_both(self, capsys, tmp_path, case):
        obj, names = REPEATED[case]
        p = tmp_path / "fam.json"
        p.write_text(json.dumps(obj))
        code, out = run(capsys, "check-ainf", str(p), "--json")
        assert code == 1
        detail = json.loads(out)["detail"]
        assert all(name in detail for name in names), detail

    def test_not_json_names_the_file(self, capsys, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"tree": ')
        code, out = run(capsys, "index", str(p), "--json")
        assert code == 1
        assert str(p) in json.loads(out)["detail"]

    @pytest.mark.parametrize(
        "key", ["x", "0.", ".0", "0..1", "-1", "1/2", " 0", "²"]
    )
    def test_label_key_not_an_edge_id(self, capsys, tmp_path, key):
        p = tmp_path / "lab.json"
        p.write_text(json.dumps({"tree": _CHERRY, "labels": {key: "1"}}))
        code, out = run(capsys, "chi", str(p), "--json")
        assert code == 1
        obj = json.loads(out)
        assert obj["error"] == "ShapeError" and repr(key) in obj["detail"]

    def test_real_process_exit(self, tmp_path):
        p = tmp_path / "ct.json"
        p.write_text(json.dumps(_case(_INDEX, "ct.json", mu_root=1.7)[1]))
        src = os.path.dirname(os.path.dirname(clustercx.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "clustercx.cli", "index", str(p), "--json"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["error"] == "ShapeError"
        assert proc.stderr == ""


# one-field mutations: every JSON type, near-miss numbers and strings, and
# deletion of the field
MUTATIONS = [None, True, False, 0, -1, 2, 2.5, "", "x", "1/0", "2", [], ["x"], [0],
             {}, [{"a": 1}], _DELETE]
ERRORS = {
    name for name, cls in vars(errors).items()
    if isinstance(cls, type) and issubclass(cls, errors.ClusterCxError)
}


def _field_paths(obj, at=()):
    """The path of every object member and list entry inside ``obj``."""
    if isinstance(obj, dict):
        keys = list(obj)
    elif isinstance(obj, list):
        keys = range(len(obj))
    else:
        return
    for key in keys:
        yield at + (key,)
        yield from _field_paths(obj[key], at + (key,))


def _fuzz_targets():
    """(argv, file name, field path) for every field of every file that a
    golden command or a check-ainf on a library family reads."""
    lib = barcx.example_library()
    library = {
        "lib_%s.json" % name: barcx.family_to_obj(lib[name])
        for name in ("polynomial", "exterior", "circle")
    }
    files = dict(FIXTURES, **library)
    commands = list(CASES)
    commands += [["check-ainf", name, "--qmax", "3", "--json"] for name in library]
    return files, [
        (tuple(argv), name, path)
        for argv in commands
        for name in sorted(set(argv) & set(files))
        for path in _field_paths(files[name])
    ]


FUZZ_FILES, FUZZ_TARGETS = _fuzz_targets()


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    """The path of each fuzzed file, written unchanged, by name, and the
    path a mutated copy is written to under "mutated"."""
    d = tmp_path_factory.mktemp("fuzz")
    for name, obj in FUZZ_FILES.items():
        (d / name).write_text(json.dumps(obj))
    return dict({name: str(d / name) for name in FUZZ_FILES}, mutated=str(d / "m.json"))


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(
    target=st.sampled_from(FUZZ_TARGETS),
    value=st.sampled_from(MUTATIONS),
)
def test_one_field_mutation(fuzz_paths, target, value):
    argv, name, path = target
    obj = copy.deepcopy(FUZZ_FILES[name])
    at = obj
    for key in path[:-1]:
        at = at[key]
    if value is _DELETE:
        del at[path[-1]]
    else:
        at[path[-1]] = copy.deepcopy(value)
    paths = dict(fuzz_paths, **{name: fuzz_paths["mutated"]})
    with open(paths[name], "w") as fh:
        json.dump(obj, fh)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([paths.get(a, a) for a in argv])
    assert code in (0, 1) and "Traceback" not in err.getvalue()
    if code == 1:
        report = json.loads(out.getvalue())
        # a refused input names its error; a check that ran says what failed
        assert report.get("error") in ERRORS or "counterexample" in report
