"""The two workloads: their inputs, their fixed op lists and the gate.

An op is one call into clustercx: ``cli.main(argv)`` for a command, or a
public library function for a check that has no command.  Its time is
charged to one end-to-end metric (``metric``) or, when the issue names
none, only to ``wall_s``.  Each op's ``check`` turns the result into an
observed summary and raises ``Mismatch`` when an invariant fails; ops
whose inputs do not depend on the seed are also compared with the pinned
seed-code values in ``pins.json``.

Every workload runs each command metric at least once, so every
end-to-end metric is defined on every workload.  The ops that belong to
the other workload are small probes; each workload's own ops carry nearly
all of its time.  ``strata`` exercises trees, strata and signs; ``algebra``
exercises barcx, labelings and indexcalc.
"""

import contextlib
import hashlib
import io
import json
import math
import os
from fractions import Fraction

import gen

# Per-command end-to-end metrics, in the order BENCHMARK.json lists them.
COMMAND_METRICS = (
    "fvector_s", "strata_s", "export_s", "collar_s", "tiles_s",
    "check_ainf_s", "check_morphism_s", "check_homotopy_s", "leibniz_s",
    "chi_s", "index_s",
)

WORKLOADS = ("strata", "algebra")


class Mismatch(Exception):
    """An op's output is wrong."""


class Op:
    __slots__ = ("label", "metric", "run", "check", "pinned")

    def __init__(self, label, metric, run, check, pinned=False):
        self.label = label
        self.metric = metric
        self.run = run
        self.check = check
        self.pinned = pinned


def expect(cond, what):
    if not cond:
        raise Mismatch(what)


def digest(items):
    """Order-free fingerprint of a set, so a reordering refactor still passes."""
    text = json.dumps(sorted(list(x) if isinstance(x, tuple) else x for x in items))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def kirkman_cayley(l, c):
    """Faces of codimension c of the associahedron with l leaves: dissections
    of an (l+1)-gon by c non-crossing diagonals."""
    m = l + 1
    return math.comb(m - 3, c) * math.comb(m + c - 1, c) // (c + 1)


class Pass:
    """Inputs of one pass, written under ``workdir``, and its op list."""

    def __init__(self, cx, workload, seed, workdir):
        self.cx = cx
        self.seed = seed
        self.workdir = workdir
        self.stdout_bytes = 0
        self.ops = []
        self.chi_inputs = 0
        self.chi_distinct = 0
        self._files = 0
        getattr(self, "_build_" + workload)()
        self.ops = interleave(self.ops)

    # -- plumbing -------------------------------------------------------

    def write(self, obj, stem="in"):
        self._files += 1
        path = os.path.join(self.workdir, "%s%d.json" % (stem, self._files))
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path

    def cli(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cx.cli.main(list(argv))
        out = buf.getvalue()
        self.stdout_bytes += len(out)
        return rc, out

    def cli_op(self, label, metric, argv, check, rc=0, pinned=False):
        def chk(res):
            got, out = res
            expect(got == rc, "exit code %d, want %d" % (got, rc))
            return check(out)

        self.ops.append(Op(label, metric, lambda: self.cli(argv), chk, pinned))

    def lib_op(self, label, metric, run, check, pinned=False):
        self.ops.append(Op(label, metric, run, check, pinned))

    # -- strata-layer ops -------------------------------------------------

    def fvector(self, family, l, k):
        argv = ["fvector", "--family", family, "--l", str(l), "--k", str(k)]

        def check(out):
            fv = [int(x) for x in out.split()]
            expect(fv and fv[-1] == 1, "f-vector must end with the top cell")
            if family == "K" and k == 0:
                want = [kirkman_cayley(l, c) for c in range(l - 1)][::-1]
                expect(fv == want, "f-vector %r, Kirkman-Cayley %r" % (fv, want))
            return {"f_vector": fv}

        self.cli_op("fvector %s %d %d" % (family, l, k), "fvector_s", argv, check, pinned=True)

    def strata(self, family, l, k):
        argv = ["strata", "--family", family, "--l", str(l), "--k", str(k), "--json"]
        ambient = l - 2 + 2 * k if family == "K" else l - 1 + 2 * k

        def check(out):
            data = json.loads(out)["data"]
            rows = sorted((r["codim"], r["dim"], r["count"]) for r in data["by_codim_dim"])
            expect(all(cd + dm == ambient for cd, dm, _ in rows), "dim + codim != ambient")
            expect(data["total"] == sum(n for _, _, n in rows), "total != sum of counts")
            if family == "K" and k == 0:
                want = [(c, ambient - c, kirkman_cayley(l, c)) for c in range(ambient + 1)]
                expect(rows == want, "counts differ from Kirkman-Cayley")
            return {"by_codim_dim": [list(r) for r in rows]}

        self.cli_op("strata %s %d %d" % (family, l, k), "strata_s", argv, check, pinned=True)

    def export_json(self, family, l, k=0):
        argv = ["export", "--family", family, "--l", str(l), "--k", str(k)]

        def check(out):
            obj = json.loads(out)
            codim = {s["id"]: s["codim"] for s in obj["strata"]}
            cov = {tuple(c) for c in obj["coverings"]}
            expect(len(cov) == len(obj["coverings"]), "repeated covering")
            expect(all(codim[b] == codim[a] + 1 for a, b in cov), "covering skips a codim")
            if family == "K" and k == 0:
                f = [kirkman_cayley(l, c) for c in range(l - 1)]
                expect(len(codim) == sum(f), "stratum count")
                # a codim-c face lies in exactly c faces of codim c - 1
                expect(len(cov) == sum(c * n for c, n in enumerate(f)), "covering count")
            return {"strata": len(codim), "coverings": len(cov), "covering_set": digest(cov)}

        self.cli_op("export %s %d %d json" % (family, l, k), "export_s", argv, check, pinned=True)

    def export_dot(self, family, l, k=0):
        argv = ["export", "--family", family, "--l", str(l), "--k", str(k), "--format", "dot"]

        def check(out):
            lines = [x.strip() for x in out.strip().splitlines()]
            expect(lines[0] == "digraph faces {" and lines[-1] == "}", "dot frame")
            nodes = [x for x in lines[1:-1] if "->" not in x]
            arrows = {x for x in lines[1:-1] if "->" in x}
            return {"nodes": len(nodes), "coverings": len(arrows), "covering_set": digest(arrows)}

        self.cli_op("export %s %d %d dot" % (family, l, k), "export_s", argv, check, pinned=True)

    def collar(self, l, k):
        def check(out):
            data = json.loads(out)["data"]
            return {"cells": data["cells"], "gluings": data["gluings"]}

        argv = ["collar", "--l", str(l), "--k", str(k), "--json"]
        self.cli_op("collar %d %d" % (l, k), "collar_s", argv, check, pinned=True)

    def tiles(self, l, k):
        def check(out):
            data = json.loads(out)["data"]
            expect(data["tiles"] == math.factorial(l), "one tile per permutation")
            expect(data["orientation_consistent"] is True, "orientation")
            return {"pairs": data["identified_pairs"], "consistent": True}

        argv = ["tiles", "--l", str(l), "--k", str(k), "--json"]
        self.cli_op("tiles %d %d" % (l, k), "tiles_s", argv, check, pinned=True)

    def boundary_squares(self, family, l):
        strata = self.cx.strata

        def check(ok):
            expect(ok is True, "signed boundary does not square to zero")
            return {"squares_to_zero": True}

        self.lib_op(
            "d2 %s %d" % (family, l), None,
            lambda: strata.boundary_squares_to_zero(family, l, 0), check, pinned=True,
        )

    def strata_probes(self):
        for l, k in ((6, 1), (4, 2), (5, 1), (7, 0)):
            self.fvector("K", l, k)
        for family, l, k in (("K", 9, 3), ("Q", 6, 2), ("Q", 8, 1)):
            self.strata(family, l, k)
        self.export_json("K", 5)
        self.export_json("Q", 3)
        self.export_dot("K", 5)
        self.export_dot("Q", 3)
        for l, k in ((3, 1), (5, 0), (4, 0), (3, 0)):
            self.collar(l, k)
        for l, k in ((4, 1), (3, 2), (5, 0), (4, 0)):
            self.tiles(l, k)
        self.boundary_squares("K", 4)

    # -- barcx-layer ops --------------------------------------------------

    def families(self):
        """Write the families the barcx ops read; ``self.fam`` maps a key to
        each file."""
        rng = gen.rng_for(self.seed, "families")
        self.poly = gen.Polynomial(rng)
        p = self.poly
        self.deform = rng.choice([2, 3, -1, -2])
        phi = p.automorphism(rng.choice([1, -1, 2, -2]))
        ext, _ = gen.two_generator(rng, 1, n=2, NL=2)
        circle, self.circle_unit = gen.two_generator(rng, 1, n=1, NL=2)
        ident = {s: {s: 1} for s in p.names}
        self.fam = {
            "poly": self.write(p.family()),
            "bad": self.write(p.family(deform=self.deform)),
            "ext": self.write(ext),
            "circle": self.write(circle),
            "id_h": self.write(p.morphism(ident)),
            "conj_m0": self.write(p.family(phi=phi)),
            "conj_h": self.write(p.morphism(phi[0])),
            "zero_k": self.write(p.zero()),
        }

    def check_cli(self, label, metric, sub, files, qmax, n_words, extra=()):
        argv = [sub] + list(files) + ["--qmax", str(qmax), "--json"] + list(extra)

        def check(out):
            obj = json.loads(out)
            expect(obj["verdict"] == "pass", "verdict %r" % obj["verdict"])
            got = obj["data"]["words_checked"]
            expect(got == n_words, "words_checked %d, want %d" % (got, n_words))
            return {"verdict": "pass", "words_checked": got}

        self.cli_op(label, metric, argv, check, pinned=True)

    def ainf(self, key, qmax, n_gens, extra=(), tag="", metric="check_ainf_s"):
        words = sum(n_gens ** q for q in range(1, qmax + 1))
        self.check_cli(
            "check-ainf %s %d%s" % (key, qmax, tag), metric, "check-ainf",
            [self.fam[key]], qmax, words, extra,
        )

    def morphism(self, h, source, target, qmax, tag):
        words = sum(5 ** q for q in range(1, qmax + 1))
        files = ["--morphism", self.fam[h], "--source", self.fam[source],
                 "--target", self.fam[target]]
        self.check_cli("check-morphism %s %d" % (tag, qmax), "check_morphism_s",
                       "check-morphism", files, qmax, words)

    def homotopy(self, qmax, tag=""):
        words = sum(5 ** q for q in range(1, qmax + 1))
        f = self.fam
        files = ["--h0", f["id_h"], "--h1", f["id_h"], "--homotopy", f["zero_k"],
                 "--source", f["poly"], "--target", f["poly"]]
        self.check_cli("check-homotopy zero %d%s" % (qmax, tag), "check_homotopy_s",
                       "check-homotopy", files, qmax, words)

    def load_family(self, key):
        with open(self.fam[key]) as fh:
            return self.cx.barcx.family_from_obj(json.load(fh))

    def leibniz(self, key, qmax):
        B = self.cx.barcx
        words = sum((5 if key == "poly" else 2) ** q for q in range(1, qmax + 1))

        def run():
            return B.check_leibniz(self.load_family(key), B.TruncationWindow(qmax=qmax))

        def check(rep):
            expect(rep.passed, "Leibniz rule fails")
            expect(rep.n_words == words, "words checked")
            return {"passed": True, "words_checked": rep.n_words}

        self.lib_op("leibniz %s %d" % (key, qmax), "leibniz_s", run, check, pinned=True)

    def negative_control(self, qmax):
        """The deformed product must fail.  Its first witnesses (the report
        sorts words by length) are the triples whose independently computed
        associator is nonzero, with that associator as residue."""
        assoc = self.poly.associators(self.deform)
        order = sorted(assoc)
        argv = ["check-ainf", self.fam["bad"], "--qmax", str(qmax), "--json"]

        def check(out):
            obj = json.loads(out)
            expect(obj["verdict"] == "fail", "deformed product passed")
            wit = obj.get("counterexample") or []
            expect(wit, "failure without a witness")
            words = [tuple(w["word"]) for w in wit]
            expect(words[: len(order)] == order[: len(wit)],
                   "witness words differ from the nonzero associators")
            expect(all(w["residue"] for w in wit), "empty residue")
            for w in wit[: len(order)]:
                want = assoc[tuple(w["word"])]
                got = {r[0][0]: r[2] for r in w["residue"] if r[1] == 0}
                expect(len(got) == len(w["residue"]) == len(want), "residue support")
                expect(all(abs(got.get(s, 0)) == abs(c) for s, c in want.items()),
                       "residue coefficients")
            return {"verdict": "fail", "witnesses": len(wit)}

        self.cli_op("check-ainf deformed %d" % qmax, "check_ainf_s", argv, check, rc=1)

    def random_families(self, count, qmax):
        """Seeded random families: the signed and the suspended delta o delta
        residues have equal support, and the arity-sum form agrees."""
        B = self.cx.barcx
        rng = gen.rng_for(self.seed, "random-families")
        objs = [gen.random_family(rng) for _ in range(count)]
        window = B.TruncationWindow(qmax=qmax)
        words = sum(3 ** q for q in range(1, qmax + 1))

        def run():
            out = []
            for obj in objs:
                fam = B.family_from_obj(obj)
                out.append((
                    B.check_a_infinity(fam, window),
                    B.check_a_infinity(fam, window, via_suspension=True),
                    B.check_gj_relations(fam, window),
                ))
            return out

        def check(reports):
            failing = 0
            for signed, bare, gj in reports:
                expect(signed.n_words == bare.n_words == words, "words checked")
                sup1 = {w: set(r) for w, r in signed.failures}
                sup2 = {w: set(r) for w, r in bare.failures}
                expect(sup1 == sup2, "signed and suspended residues differ in support")
                expect(gj.passed == signed.passed, "arity-sum verdict disagrees")
                failing += not signed.passed
            return {"failing_families": failing}

        self.lib_op("random families", "check_ainf_s", run, check)

    def unit(self, qmax):
        B = self.cx.barcx

        def run():
            fam = self.load_family("circle")
            return B.check_unit(fam, self.circle_unit, B.TruncationWindow(qmax=qmax))

        def check(rep):
            expect(rep.passed, "unit / contracting homotopy fails")
            want = 2 + sum(2 ** q for q in range(1, qmax + 1))
            expect(rep.n_words == want, "words checked")
            return {"passed": True, "words_checked": rep.n_words}

        self.lib_op("unit circle %d" % qmax, None, run, check, pinned=True)

    def barcx_probes(self):
        self.ainf("poly", 5, 5)
        # the --jobs pair feeds barcx.jobs2_speedup only: thread hand-offs
        # make the jobs-2 time too jumpy for a small probe metric
        self.ainf("poly", 4, 5, metric=None)
        self.ainf("poly", 4, 5, ["--jobs", "2"], " jobs2", metric=None)
        self.ainf("ext", 8, 2)
        self.ainf("circle", 8, 2)
        self.negative_control(3)
        # several small ops per metric, spread over the pass by interleave()
        self.morphism("id_h", "poly", "poly", 4, "identity")
        self.morphism("conj_h", "poly", "conj_m0", 4, "conjugated")
        self.morphism("id_h", "poly", "poly", 3, "identity")
        self.homotopy(4)
        self.homotopy(3)
        self.leibniz("poly", 3)
        self.leibniz("ext", 6)
        self.leibniz("circle", 6)

    # -- labelings / indexcalc ops -----------------------------------------

    def chi_files(self, n_quilted, n_plain):
        """CLI chi on seeded labeling files, quilted and unquilted."""
        rng = gen.rng_for(self.seed, "chi-files")
        eps = rng.choice([Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 4)])
        quilted, nq = gen.distinct_labelings(gen.colored_pool(), n_quilted, rng,
                                             gen.balanced_labels)
        plain, npl = gen.distinct_labelings(
            gen.plain_pool(), n_plain, rng,
            lambda t, r: {e: gen.frac(r) for e in gen.edges(t)})
        self.chi_inputs += n_quilted + n_plain
        self.chi_distinct += nq + npl
        for n, (t, labels) in enumerate(quilted):
            path = self.write(gen.labeling_file(t, labels), "chi")
            self.cli_op("chi quilted %d" % n, "chi_s",
                        ["chi", path, "--quilted", "--eps", str(eps), "--json"],
                        self._chi_quilted_check(t, labels, eps))
        for n, (t, labels) in enumerate(plain):
            path = self.write(gen.labeling_file(t, labels), "chi")

            def check(out, labels=labels):
                got = json.loads(out)["data"]["labels"]
                want = {gen.edge_id(e): x + eps for e, x in labels.items()}
                expect({k: Fraction(v) for k, v in got.items()} == want, "chi = x + eps")

            self.cli_op("chi plain %d" % n, "chi_s",
                        ["chi", path, "--eps", str(eps), "--json"], check)

    def _chi_quilted_check(self, t, labels, eps):
        L = self.cx.labelings

        def check(out):
            data = json.loads(out)["data"]
            tree = self.cx.trees.from_obj(data["tree"])
            values = L.labeling_from_obj(tree, data["labels"])
            self.check_chi(t, labels, {e: values[e] for e in gen.edges(t)})

        return check

    def check_chi(self, t, labels, out):
        """Compare chi by value: root-to-color products telescope to
        eps (1 + Y) and edges above the colors shift by eps."""
        E = self.cx.labelings.EpsFrac
        y = Fraction(1)
        for e in (gen.colored_chains(t) or [[]])[0]:
            y *= labels[e]
        eps1 = E.eps_power(1)
        want = E.rational(1 + y) * eps1
        for chain in gen.colored_chains(t):
            if chain:
                prod = E.rational(1)
                for e in chain:
                    prod = prod * out[e]
                expect(prod == want, "color product does not telescope to eps(1+Y)")
        for e, r in gen.regions(t).items():
            if r == "above":
                expect(out[e] == E.rational(labels[e]) + eps1, "above-color shift")

    def chi_library(self, count, chunk):
        """chi_quilted on distinct balanced labelings, plus chi(0) = eps^M on
        every tree of the pool."""
        L = self.cx.labelings
        T = self.cx.trees
        rng = gen.rng_for(self.seed, "chi-library")
        pool = gen.colored_pool()
        inputs, distinct = gen.distinct_labelings(pool, count, rng, gen.balanced_labels)
        self.chi_inputs += count
        self.chi_distinct += distinct
        half = Fraction(1, 2)
        trees = {t: T.from_obj(gen.tree_obj(t)) for t in pool}
        labs = [(t, labels, L.EdgeLabeling(trees[t], labels)) for t, labels in inputs]
        for start in range(0, len(labs), chunk):
            part = labs[start:start + chunk]

            def run(part=part):
                return [L.chi_quilted(lab, half) for _, _, lab in part]

            def check(outs, part=part):
                for (t, labels, _), out in zip(part, outs):
                    self.check_chi(t, labels, {e: out[e] for e in gen.edges(t)})

            self.lib_op("chi library %d" % start, "chi_s", run, check)
        zeros = [(t, L.EdgeLabeling(trees[t], {e: Fraction(0) for e in gen.edges(t)}))
                 for t in pool]

        def run_zero():
            return [L.chi_quilted(lab, half) for _, lab in zeros]

        def check_zero(outs):
            E = L.EpsFrac
            for (t, _), out in zip(zeros, outs):
                for e, m in gen.m_exponents(t).items():
                    expect(out[e] == E.eps_power(m), "chi(0) != eps^M")

        self.lib_op("chi zero", "chi_s", run_zero, check_zero)

    def restrictions(self, per_op, n_ops):
        """Balanced restriction and exponents(tmax=...) along contractions
        that keep an uncolored root."""
        L = self.cx.labelings
        T = self.cx.trees
        rng = gen.rng_for(self.seed, "restrict")
        pairs = []
        for t in gen.colored_pool():
            t2 = T.from_obj(gen.tree_obj(t))
            edges = t2.edges()
            for r in range(1, len(edges)):
                for n in range(len(edges)):
                    s = [edges[(n + j) % len(edges)] for j in range(r)]
                    t1, _ = T.contract_set(t2, s)
                    if t1.check_colored_axiom() and t1.is_stable() and not t1.root[1]:
                        pairs.append((t, t2, t1))
                        break
        for n in range(n_ops):
            part = []
            for j in range(per_op):
                t, t2, t1 = pairs[(n * per_op + j) % len(pairs)]
                labels = gen.balanced_labels(t, rng)
                part.append((t1, t2, L.EdgeLabeling(t2, labels)))

            def run(part=part):
                return [(L.restrict_balanced(lab, t1, t2), L.exponents(t1, tmax=t2))
                        for t1, t2, lab in part]

            def check(outs, part=part):
                for (t1, _, lab), (res, ex) in zip(part, outs):
                    y = L.color_products(lab)[0]
                    expect(all(p == y for p in L.color_products(res)),
                           "restriction changed the color product")
                    for chain in _chains(T, t1):
                        expect(sum(ex.n[e] for e in chain) == 1, "N along a chain != 1")

            self.lib_op("restrict %d" % n, None, run, check)

    def charts(self, count):
        """chart and chart --invert round trips: chart o chart_inverse is the
        identity on chart labels."""
        rng = gen.rng_for(self.seed, "charts")
        for n in range(count):
            l, k = [(3, 0), (4, 0), (3, 1), (4, 1), (2, 2), (5, 0)][n % 6]
            disk = gen.chart_disk(rng, l, k)
            path = self.write(disk, "disk")
            back = os.path.join(self.workdir, "chart%d-labels.json" % n)
            redo = os.path.join(self.workdir, "chart%d-disk.json" % n)
            self.lib_op("chart %d" % n, None, self._chart_trip(path, back, redo),
                        self._chart_check(disk))

    def _chart_trip(self, path, back, redo):
        def run():
            rc1, out1 = self.cli(["chart", path, "--json"])
            first = json.loads(out1)["data"]
            with open(back, "w") as fh:
                json.dump(first, fh)
            rc2, out2 = self.cli(["chart", back, "--invert", "--json"])
            disk = json.loads(out2)["data"]
            with open(redo, "w") as fh:
                json.dump({"tree": first["tree"], "xs": disk["xs"], "zs": disk["zs"],
                           "seam": disk["seam"]}, fh)
            rc3, out3 = self.cli(["chart", redo, "--json"])
            return (rc1, rc2, rc3), first, json.loads(out3)["data"]
        return run

    def _chart_check(self, disk):
        def check(res):
            rcs, first, again = res
            expect(rcs == (0, 0, 0), "chart exit codes %r" % (rcs,))
            expect(first["tree"] == disk["tree"], "chart changed the tree")
            a = {k: Fraction(v) for k, v in first["labels"].items()}
            b = {k: Fraction(v) for k, v in again["labels"].items()}
            expect(a == b, "chart o chart_inverse is not the identity")
        return check

    def cluster_types(self, count):
        """index, reduce and audit on seeded cluster types and surgeries."""
        rng = gen.rng_for(self.seed, "cluster-types")
        for n in range(count):
            t = gen.marked_tree(rng, rng.randint(2, 5), rng.randint(0, 4), n % 3 == 0)
            ct = gen.cluster_type(rng, t)
            path = self.write(ct, "ct")
            want = (ct["mu_root"] - sum(ct["mu_leaves"]) + sum(ct["maslov"])
                    - ct["n"] * (ct["interior_incidences"] + ct["complex_nodes"]))

            def check_index(out, want=want):
                got = json.loads(out)["data"]["index"]
                expect(got == want, "index %r, want %r" % (got, want))

            self.cli_op("index %d" % n, "index_s", ["index", path, "--json"], check_index)
            spec = gen.surgery_for(t, rng, n)
            after, removed = reduce_oracle(t, spec)
            argv = ["reduce", path, "--surgery", json.dumps(spec), "--json"]

            def check_reduce(out, after=after, removed=removed):
                data = json.loads(out)["data"]
                expect(data["after"] == gen.tree_obj(after), "reduced tree")
                expect(data["removed_marks"] == removed, "removed marks")

            self.cli_op("reduce %d" % n, "index_s", argv, check_reduce)
            assumed = rng.randint(-4, 2)
            nn = rng.randint(1, 3)
            want_audit = audit_oracle(t, after, spec, removed, assumed, nn)
            argv = ["audit", path, "--surgery", json.dumps(spec), "--assumed-index",
                    str(assumed), "--n", str(nn), "--NL", "2", "--json"]

            def check_audit(out, want=want_audit):
                data = json.loads(out)["data"]
                for key, value in want.items():
                    expect(data[key] == value, "audit %s: %r, want %r"
                           % (key, data[key], value))

            self.cli_op("audit %d" % n, "index_s", argv, check_audit)

    def end_labelings(self, l, c):
        for family, want in (("otimes", math.comb(l + c + 1, l + 1) - c),
                             ("bullet", math.comb(l + c, c))):
            def check(out, want=want):
                data = json.loads(out)["data"]
                labs = {tuple(x) for x in data["labelings"]}
                expect(data["count"] == want == len(labs) == len(data["labelings"]),
                       "%d end labelings, want %d" % (data["count"], want))
                return {"count": data["count"]}

            argv = ["labelings", "--l", str(l), "--c", str(c), "--family", family, "--json"]
            self.cli_op("labelings %s %d %d" % (family, l, c), "index_s", argv, check,
                        pinned=True)

    def coker_sweep(self, lmax, kmax):
        """coker_dim = ambient - codim over every cluster type of K with
        l <= lmax, k <= kmax, each edge a breaking or a real node."""
        S = self.cx.strata
        I = self.cx.indexcalc
        mask = gen.rng_for(self.seed, "coker").getrandbits(16)
        for l in range(2, lmax + 1):
            for k in range(kmax + 1):
                if l - 2 + 2 * k < 0:
                    continue

                def run(l=l, k=k):
                    out = []
                    for s in S.face_poset("K", l, k).strata:
                        states = {e: ("broken" if mask >> (j % 16) & 1 else "node")
                                  for j, e in enumerate(s.tree.edges())}
                        ct = S.ClusterType(s, states)
                        out.append((s.codim, I.coker_dim(ct, l, k)))
                    return out

                def check(out, ambient=l - 2 + 2 * k):
                    expect(all(c == ambient - cd for cd, c in out), "coker != ambient - codim")
                    return {"types": len(out)}

                self.lib_op("coker K %d %d" % (l, k), "index_s", run, check, pinned=True)

    def labelings_probes(self):
        self.chi_files(10, 10)
        self.chi_library(60, 20)
        self.restrictions(5, 1)
        self.charts(2)
        self.cluster_types(8)
        self.end_labelings(6, 4)
        self.coker_sweep(3, 1)

    # -- the workloads ------------------------------------------------------

    def _build_strata(self):
        """Tree enumeration, the covering order, signed incidence and the
        l! tile loop."""
        self.families()
        for family, l, k in (("K", 6, 1), ("Q", 6, 0), ("K", 7, 0), ("K", 4, 2)):
            self.fvector(family, l, k)
        for family, l, k in (("Q", 7, 3), ("K", 10, 4), ("K", 10, 0), ("K", 9, 3)):
            self.strata(family, l, k)
        self.export_dot("Q", 4)
        self.export_json("Q", 4)
        self.export_json("K", 5)
        self.export_json("Q", 3)
        self.export_dot("K", 5)
        for l, k in ((6, 0), (5, 0), (3, 1)):
            self.collar(l, k)
        self.tiles(3, 3)
        self.tiles(4, 1)
        self.boundary_squares("K", 7)
        self.boundary_squares("Q", 5)
        self.barcx_probes()
        self.labelings_probes()

    def _build_algebra(self):
        """Bar-complex words, delta, delta o delta, block compositions and
        suspension (passing families beside failing ones), then EpsFrac
        arithmetic and index bookkeeping on distinct seeded inputs."""
        self.families()
        self.ainf("poly", 5, 5)
        self.ainf("poly", 5, 5, ["--suspended"], " suspended")
        # thread hand-offs make the --jobs 2 time jumpy: it counts in wall_s
        # and barcx.jobs2_speedup, not in check_ainf_s
        self.ainf("poly", 5, 5, ["--jobs", "2"], " jobs2", metric=None)
        self.ainf("ext", 10, 2)
        self.ainf("circle", 10, 2)
        self.negative_control(5)
        self.random_families(4, 4)
        self.morphism("id_h", "poly", "poly", 4, "identity")
        self.morphism("id_h", "poly", "poly", 3, "identity")
        self.morphism("conj_h", "poly", "conj_m0", 5, "conjugated")
        self.homotopy(4)
        self.homotopy(4, " again")
        self.leibniz("poly", 3)
        self.leibniz("ext", 7)
        self.leibniz("circle", 7)
        self.unit(8)
        self.chi_files(30, 30)
        self.chi_library(400, 100)
        self.restrictions(20, 5)
        self.charts(10)
        self.cluster_types(14)
        self.end_labelings(8, 6)
        self.coker_sweep(4, 2)
        self.strata_probes()


def interleave(ops):
    """Spread each metric's ops evenly over the pass.  The host's speed
    swings within seconds, so a metric whose ops sit together in one stretch
    of the pass samples fewer of those swings than one spread across it."""
    groups = {}
    for n, op in enumerate(ops):
        groups.setdefault(op.metric, []).append((n, op))
    keyed = []
    for group in groups.values():
        for i, (n, op) in enumerate(group):
            keyed.append(((i + 0.5) / len(group), n, op))
    return [op for _, _, op in sorted(keyed, key=lambda x: x[:2])]


def _chains(T, tree):
    return gen.colored_chains(_tuple(T.to_obj(tree)))


def _tuple(obj):
    return (obj.get("i", 0), obj.get("col", False),
            tuple(gen.LEAF if c == gen.LEAF else _tuple(c) for c in obj["children"]))


def reduce_oracle(t, spec):
    """Expected (tree after, removed marks) of a reduction, from its spec."""
    kind = spec["type"]
    if kind == "I":
        path = tuple(spec["disk"])
        i, col, slots = gen.vertex_at(t, path)
        return _replace(t, path, (i // spec["d"], col, slots)), i - i // spec["d"]
    if kind == "IIb":
        path = tuple(spec["disk"])
        i, col, slots = gen.vertex_at(t, path)
        ci, ccol, cslots = slots[spec["dest"]]
        rest = slots[:spec["dest"]] + slots[spec["dest"] + 1:]
        at = spec["at"]
        return _replace(t, path, (ci, ccol, cslots[:at] + rest + cslots[at:])), i
    if kind == "III":
        after = _prune(t)
        return after, gen.n_marks(t) - gen.n_marks(after)
    return t, spec["removed_marks"]


def _replace(t, path, new):
    if not path:
        return new
    i, col, slots = t
    idx = path[0]
    return (i, col, slots[:idx] + (_replace(slots[idx], path[1:], new),) + slots[idx + 1:])


def _prune(v):
    kept = []
    for s in v[2]:
        if s == gen.LEAF:
            kept.append(s)
        elif gen.n_leaves(s):
            kept.append(_prune(s))
    return (v[0], v[1], tuple(kept))


def audit_oracle(before, after, spec, removed, assumed, n, NL=2):
    """The index-drop audit's closed forms."""
    l = gen.n_leaves(before)
    k_after = gen.n_marks(after)
    if spec["type"].startswith("gen"):
        k_after = gen.n_marks(before) - removed
    trivial = (after == before and removed == 0
               and spec.get("complex_nodes", 0) == 0
               and spec.get("interior_incidences", 0) == 0)
    apriori = -(l - 2) + 1
    applicable = assumed <= apriori and not trivial and NL >= 2
    penalty = (n - 1) * spec.get("interior_incidences", 0) if n <= 2 else 0
    final = 2 * k_after - 1 - penalty
    return {
        "applicable": applicable,
        "k_after": k_after,
        "apriori_bound": apriori,
        "index_drop": 2 if applicable else 0,
        "final_bound": final if applicable else None,
        "kernel_lower_bound": 2 * k_after,
        "forces_cokernel": applicable and final < 2 * k_after,
    }
