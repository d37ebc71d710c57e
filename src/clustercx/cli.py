"""Command-line front end.

Every subcommand prints a short human summary by default, or a canonical
machine-readable RunReport with ``--json`` (timing excluded so identical
inputs give byte-identical output).  Exit codes: 0 success, 1 a checked
relation failed (witness included) or an input was refused, 2 a
command-line error.
"""

import argparse
import functools
import json
import sys
import time

from . import barcx, fields, indexcalc, labelings, signs, strata, trees
from .errors import ClusterCxError, ShapeError, StabilityError


def _report(args, verdict, data, counterexample=None, started=None):
    obj = {
        "command": args._command_echo,
        "verdict": verdict,
        "data": data,
    }
    if counterexample is not None:
        obj["counterexample"] = counterexample
    if args.json:
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    else:
        if started is not None:
            obj["timing_s"] = round(time.perf_counter() - started, 3)
        print(json.dumps(obj, sort_keys=True, indent=2))
    return 0 if verdict == "pass" else 1


def _load_json(path):
    """The JSON object in the file at ``path``; ShapeError if the file
    holds another JSON value or is not JSON."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except (ValueError, RecursionError) as e:
            raise ShapeError("cannot read %s as JSON: %s" % (path, e))
    return fields.typed(obj, dict, path)


def _tree(obj):
    """The ``tree`` field of ``obj`` and the tree it describes."""
    tobj = fields.field(obj, "tree", dict, "tree")
    return tobj, trees.from_obj(tobj)


def _labeling(obj, tree):
    """The labeling of ``tree`` in the ``labels`` field of ``obj``."""
    labels = fields.field(obj, "labels", dict, "labels")
    return labelings.labeling_from_obj(tree, labels)


def _window(args):
    return barcx.TruncationWindow(qmax=args.qmax, emax=args.emax)


def _add_window_flags(p):
    p.add_argument("--qmax", type=int, default=5)
    p.add_argument("--emax", type=int, default=8)
    # kept only for perfbench's `check-ainf ... --jobs 2` op; goes with it
    p.add_argument(
        "--jobs", type=int, default=1, help="ignored: checks run on one thread"
    )


def _cluster_type_from_obj(obj):
    tree = _tree(obj)[1]
    if not tree.is_stable():
        raise StabilityError("cluster type tree is not stable")
    stratum = strata.Stratum(fields.field(obj, "family", str, "family", "K"), tree)
    states = {
        fields.edge(e, "edge_states key"): fields.typed(s, str, "edge_states value")
        for e, s in fields.field(obj, "edge_states", dict, "edge_states", {}).items()
    }
    for e in tree.edges():
        states.setdefault(e, "line")
    nodes = fields.field(obj, "complex_nodes", int, "complex_nodes", 0)
    return strata.ClusterType(stratum, states, n_complex_nodes=nodes)


# -- subcommand bodies -------------------------------------------------------


def _cmd_strata(args):
    prof = strata.grading_profile(args.family, args.l, args.k)
    data = {
        "family": args.family,
        "l": args.l,
        "k": args.k,
        "by_codim_dim": [
            {"codim": cd, "dim": dm, "count": n}
            for (cd, dm), n in sorted(prof.items())
        ],
        "total": sum(prof.values()),
    }
    return _report(args, "pass", data)


def _cmd_fvector(args):
    fv = strata.f_vector(args.family, args.l, args.k)
    if args.json:
        return _report(args, "pass", {"f_vector": list(fv)})
    print(" ".join(str(x) for x in fv))
    return 0


def _cmd_export(args):
    poset = strata.face_poset(args.family, args.l, args.k)
    print(strata.export_poset(poset, fmt=args.format))
    return 0


def _cmd_collar(args):
    cells, gluings = strata.collar_cells(args.l, args.k)
    return _report(
        args, "pass", {"cells": len(cells), "gluings": len(gluings)}
    )


def _cmd_tiles(args):
    tc = strata.tile_counts(args.l, args.k)
    consistent = tc.orientation_consistent()
    data = {
        "tiles": tc.n_tiles,
        "identified_pairs": tc.pair_counts(),
        "orientation_consistent": consistent,
    }
    return _report(args, "pass" if consistent else "fail", data)


def _cmd_sign(args):
    if args.kind == "concat":
        val = signs.sign_concat(args.l1, args.j, args.l2)
    elif args.kind == "lower":
        val = signs.sign_lower_quilt(args.l1, args.j, args.l2)
    elif args.kind == "upper":
        parts = [int(x) for x in args.parts.split(",")]
        val = signs.sign_upper_quilt(parts)
    else:
        perm = [int(x) for x in args.perm.split(",")]
        val = signs.sign_bullet(args.l1, args.j, args.l2, perm)
    if args.json:
        return _report(args, "pass", {"sign": val})
    print(str(val))
    return 0


def _cmd_chart(args):
    obj = _load_json(args.file)
    tobj, tree = _tree(obj)
    if args.invert:
        disk = labelings.chart_inverse(_labeling(obj, tree))
        out = {
            "xs": [str(x) for x in disk.xs],
            "zs": [[str(a), str(b)] for a, b in disk.zs],
            "seam": None if disk.seam is None else str(disk.seam),
        }
        return _report(args, "pass", out)
    xs = fields.field(obj, "xs", list, "xs", [])
    seam = obj.get("seam")
    disk = labelings.MarkedDisk(
        [fields.rational(x, "an xs entry") for x in xs],
        [
            (fields.rational(a, "a zs entry"), fields.rational(b, "a zs entry"))
            for a, b in fields.pairs(obj.get("zs", []), "zs", "re, im")
        ],
        seam=None if seam is None else fields.rational(seam, "seam"),
    )
    lab = labelings.simple_ratio_chart(disk, tree)
    return _report(
        args,
        "pass",
        {"tree": tobj, "labels": labelings.labeling_to_obj(lab)},
    )


def _cmd_chi(args):
    obj = _load_json(args.file)
    tobj, tree = _tree(obj)
    lab = _labeling(obj, tree)
    chi = labelings.chi_quilted if args.quilted else labelings.chi_unquilted
    out = chi(lab, args.eps)
    return _report(
        args,
        "pass",
        {"tree": tobj, "labels": labelings.labeling_to_obj(out, eps=args.eps)},
    )


# failures a check command prints; the checkers hold no more than these
_SHOWN_FAILURES = 3


def _finish_check(args, report, started):
    data = {
        "check": report.check,
        "window": report.window.to_obj(),
        "words_checked": report.n_words,
    }
    witness = None
    if not report.passed:
        witness = [barcx.failure_to_obj(f) for f in report.failures]
    return _report(
        args,
        "pass" if report.passed else "fail",
        data,
        counterexample=witness,
        started=started,
    )


def _cmd_check_ainf(args):
    started = time.perf_counter()
    fam = barcx.family_from_obj(_load_json(args.file), role="m")
    report = barcx.check_a_infinity(
        fam, _window(args), via_suspension=args.suspended, keep=_SHOWN_FAILURES
    )
    return _finish_check(args, report, started)


def _cmd_check_morphism(args):
    started = time.perf_counter()
    h = barcx.family_from_obj(_load_json(args.morphism), role="h")
    m0 = barcx.family_from_obj(_load_json(args.target), role="m")
    m1 = barcx.family_from_obj(_load_json(args.source), role="m")
    report = barcx.check_chain_map(h, m0, m1, _window(args), keep=_SHOWN_FAILURES)
    return _finish_check(args, report, started)


def _cmd_check_homotopy(args):
    started = time.perf_counter()
    h0 = barcx.family_from_obj(_load_json(args.h0), role="h")
    h1 = barcx.family_from_obj(_load_json(args.h1), role="h")
    kf = barcx.family_from_obj(_load_json(args.homotopy), role="k")
    m0 = barcx.family_from_obj(_load_json(args.target), role="m")
    m1 = barcx.family_from_obj(_load_json(args.source), role="m")
    report = barcx.check_homotopy(
        h0, h1, kf, m0, m1, _window(args), keep=_SHOWN_FAILURES
    )
    return _finish_check(args, report, started)


def _cmd_index(args):
    obj = _load_json(args.file)
    ct = _cluster_type_from_obj(obj)

    def read(key, typ, default=fields.REQUIRED):
        return fields.field(obj, key, typ, key, default)

    n = read("n", int, 2)
    ec = indexcalc.EndpointCondition(
        read("mu_root", int), read("mu_leaves", [int]), n=n
    )
    muF = indexcalc.BoundaryConditionIndex(
        read("maslov", [int], []),
        NL=read("NL", int, 2),
        monotone=read("monotone", bool, False),
    )
    val = indexcalc.index_cr(
        ct, ec, muF, interior_incidences=read("interior_incidences", int, 0)
    )
    if args.json:
        return _report(args, "pass", {"index": val})
    print(val)
    return 0


def _surgery_record(args, obj):
    return indexcalc.reduce(_tree(obj)[1], json.loads(args.surgery))


def _cmd_reduce(args):
    rec = _surgery_record(args, _load_json(args.file))
    data = {
        "tag": rec.tag,
        "after": trees.to_obj(rec.after),
        "removed_marks": rec.removed_marks,
    }
    return _report(args, "pass", data)


def _cmd_audit(args):
    rec = _surgery_record(args, _load_json(args.file))
    rep = indexcalc.reduction_index_audit(
        rec, args.assumed_index, n=args.n, NL=args.NL
    )
    return _report(args, "pass", rep)


def _cmd_labelings(args):
    labs = indexcalc.enumerate_end_labelings(args.l, args.c, args.family)
    data = {
        "count": len(labs),
        "labelings": sorted(labs),
    }
    return _report(args, "pass", data)


# -- parser ------------------------------------------------------------------


@functools.cache
def build_parser():
    """The clustercx parser, built once per process on the first call and
    shared by every later ``main`` call.  Sharing is safe because
    ``parse_args`` returns a fresh Namespace each time, ``main`` sets the
    command echo on that Namespace, and nothing mutates the parser after
    this function returns."""
    p = argparse.ArgumentParser(
        prog="clustercx",
        description="Exact combinatorics of cluster moduli strata, "
        "signs, and bar-complex algebra.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine report")
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    def fam_lk(q, fam=True):
        if fam:
            q.add_argument("--family", default="K", choices=["K", "Q", "Ks"])
        q.add_argument("--l", type=int, required=True)
        q.add_argument("--k", type=int, default=0)

    q = add_parser("strata", help="stratum counts by (codim, dim)")
    fam_lk(q)
    q.set_defaults(fn=_cmd_strata)

    q = add_parser("fvector", help="faces by ascending dimension")
    fam_lk(q)
    q.set_defaults(fn=_cmd_fvector)

    q = add_parser("export", help="face poset as json or dot")
    fam_lk(q)
    q.add_argument("--format", default="json", choices=["json", "dot"])
    q.set_defaults(fn=_cmd_export)

    q = add_parser("collar", help="collar cells and gluings")
    fam_lk(q, fam=False)
    q.set_defaults(fn=_cmd_collar)

    q = add_parser("tiles", help="quotient tile complex")
    fam_lk(q, fam=False)
    q.set_defaults(fn=_cmd_tiles)

    q = add_parser("sign", help="orientation sign formulas")
    q.add_argument("kind", choices=["concat", "lower", "upper", "bullet"])
    q.add_argument("--l1", type=int, default=0)
    q.add_argument("--j", type=int, default=1)
    q.add_argument("--l2", type=int, default=0)
    q.add_argument("--parts", default="", help="comma list for upper")
    q.add_argument("--perm", default="", help="comma list for bullet")
    q.set_defaults(fn=_cmd_sign)

    q = add_parser("chart", help="simple-ratio chart of a marked disk")
    q.add_argument("file")
    q.add_argument("--invert", action="store_true")
    q.set_defaults(fn=_cmd_chart)

    q = add_parser("chi", help="collar smoothing map on a labeling")
    q.add_argument("file")
    eps = functools.partial(fields.rational, at="eps", error=argparse.ArgumentTypeError)
    q.add_argument("--eps", default="1/2", type=eps)
    q.add_argument("--quilted", action="store_true")
    q.set_defaults(fn=_cmd_chi)

    q = add_parser("check-ainf", help="delta squared on a family file")
    q.add_argument("file")
    q.add_argument("--suspended", action="store_true")
    _add_window_flags(q)
    q.set_defaults(fn=_cmd_check_ainf)

    q = add_parser("check-morphism", help="chain-map relation")
    q.add_argument("--morphism", required=True)
    q.add_argument("--source", required=True)
    q.add_argument("--target", required=True)
    _add_window_flags(q)
    q.set_defaults(fn=_cmd_check_morphism)

    q = add_parser("check-homotopy", help="homotopy relation")
    q.add_argument("--h0", required=True)
    q.add_argument("--h1", required=True)
    q.add_argument("--homotopy", required=True)
    q.add_argument("--source", required=True)
    q.add_argument("--target", required=True)
    _add_window_flags(q)
    q.set_defaults(fn=_cmd_check_homotopy)

    q = add_parser("index", help="linearized operator index")
    q.add_argument("file")
    q.set_defaults(fn=_cmd_index)

    q = add_parser("reduce", help="apply a reduction surgery")
    q.add_argument("file")
    q.add_argument("--surgery", required=True, help="json spec")
    q.set_defaults(fn=_cmd_reduce)

    q = add_parser("audit", help="reduction index-drop inequalities")
    q.add_argument("file")
    q.add_argument("--surgery", required=True, help="json spec")
    q.add_argument("--assumed-index", type=int, required=True)
    q.add_argument("--n", type=int, default=3)
    q.add_argument("--NL", type=int, default=2)
    q.set_defaults(fn=_cmd_audit)

    q = add_parser("labelings", help="enumerate end labelings")
    q.add_argument("--l", type=int, required=True)
    q.add_argument("--c", type=int, required=True)
    q.add_argument("--family", default="otimes", choices=["otimes", "bullet"])
    q.set_defaults(fn=_cmd_labelings)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0,) else 0
    args._command_echo = " ".join(argv if argv is not None else sys.argv[1:])
    try:
        return args.fn(args)
    except ClusterCxError as e:
        msg = {"verdict": "fail", "error": type(e).__name__, "detail": str(e)}
        print(json.dumps(msg, sort_keys=True))
        return 1
    except (OSError, ValueError) as e:
        print("usage error: %s" % (e,), file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
