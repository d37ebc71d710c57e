"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public clustercx functions with timing
wrappers.  It replaces every module attribute that is the original
function, so names re-bound by ``from ... import`` in sibling modules
(``strata.sign_concat``, ``barcx.suspension_parity``) are traced too.

Each wrapped call is a span with a name, start, end, parent span and op
id.  Self time is a span's time minus the time of its child spans.  Calls
and self times are aggregated for every span; the spans themselves are
kept in memory, down to ``SPAN_DEPTH`` below an op and at most
``SPAN_CAP`` of them, and written out when the pass ends.  Stacks and
aggregates are per thread, so the ``--jobs 2`` op keeps exact counts.
"""

import functools
import itertools
import json
import threading
import time
import weakref

SPAN_DEPTH = 3
SPAN_CAP = 200_000

TRACED = {
    "trees": ("enumerate_types", "enumerate_colored_types", "leq", "contract_set"),
    "strata": ("face_poset", "grading_profile", "boundary_faces", "boundary_matrix",
               "tile_complex", "orientation_consistency", "collar_cells",
               "export_poset"),
    "signs": ("sign_concat", "sign_lower_quilt", "sign_upper_quilt", "perm_parity",
              "sign_bullet", "koszul_sign", "koszul_apply", "epsilon_gj",
              "epsilon_bar", "suspension_parity", "suspension_sign"),
    "barcx": ("basis_words", "delta", "delta_comb", "suspend", "morphism_H",
              "homotopy_K", "dga_differential", "opposite", "family_from_obj",
              "check_a_infinity", "check_gj_relations", "check_unit",
              "check_chain_map", "check_homotopy", "check_leibniz"),
    "labelings": ("chi_quilted", "chi_unquilted", "restrict_balanced", "exponents",
                  "simple_ratio_chart", "chart_inverse", "labeling_to_obj"),
    "indexcalc": ("index_cr", "coker_dim", "reduce", "reduction_index_audit",
                  "enumerate_end_labelings"),
    "cli": ("main",),
}

EPSFRAC_OPS = ("__mul__", "__rmul__", "__truediv__", "__add__", "__radd__",
               "__sub__", "__eq__")

# (name, unit, better), in the order BENCHMARK.json lists them.
PER_LAYER = [
    ("trees.enumerate_types.self_s", "s", "lower"),
    ("trees.enumerate_types.calls", "count", "lower"),
    ("trees.enumerate_colored_types.self_s", "s", "lower"),
    ("trees.leq.self_s", "s", "lower"),
    ("trees.leq.calls", "count", "lower"),
    ("trees.leq.hit_ratio", "1", "higher"),
    ("trees.contract_set.calls", "count", "lower"),
    ("strata.face_poset.self_s", "s", "lower"),
    ("strata.strata_built", "count", "lower"),
    ("strata.coverings.self_s", "s", "lower"),
    ("strata.coverings.count", "count", "lower"),
    ("strata.grading_profile.self_s", "s", "lower"),
    ("strata.boundary_faces.self_s", "s", "lower"),
    ("strata.boundary_faces.calls", "count", "lower"),
    ("strata.boundary_faces.faces_out", "count", "lower"),
    ("strata.boundary_matrix.self_s", "s", "lower"),
    ("strata.tile_complex.self_s", "s", "lower"),
    ("strata.tile_records", "count", "lower"),
    ("strata.orientation_consistency.self_s", "s", "lower"),
    ("strata.collar_cells.self_s", "s", "lower"),
    ("strata.export_poset.self_s", "s", "lower"),
    ("strata.export_poset.bytes", "bytes", "lower"),
    ("signs.calls", "count", "lower"),
    ("signs.self_s", "s", "lower"),
    ("signs.sign_concat.calls", "count", "lower"),
    ("signs.suspension_parity.calls", "count", "lower"),
    ("signs.perm_parity.calls", "count", "lower"),
    ("barcx.basis_words.self_s", "s", "lower"),
    ("barcx.words_checked", "count", "higher"),
    ("barcx.delta.calls", "count", "lower"),
    ("barcx.delta.self_s", "s", "lower"),
    ("barcx.delta.terms_out", "count", "lower"),
    ("barcx.delta_comb.self_s", "s", "lower"),
    ("barcx.suspend.calls", "count", "lower"),
    ("barcx.suspend.self_s", "s", "lower"),
    ("barcx.morphism_H.calls", "count", "lower"),
    ("barcx.morphism_H.self_s", "s", "lower"),
    ("barcx.homotopy_K.calls", "count", "lower"),
    ("barcx.homotopy_K.self_s", "s", "lower"),
    ("barcx.dga_differential.calls", "count", "lower"),
    ("barcx.dga_differential.self_s", "s", "lower"),
    ("barcx.opposite.calls", "count", "lower"),
    ("barcx.family_from_obj.self_s", "s", "lower"),
    ("barcx.failing_word_ratio", "1", "lower"),
    ("barcx.jobs2_speedup", "1", "higher"),
    ("labelings.chi_quilted.calls", "count", "lower"),
    ("labelings.chi_quilted.self_s", "s", "lower"),
    ("labelings.chi_unquilted.self_s", "s", "lower"),
    ("labelings.EpsFrac.ops", "count", "lower"),
    ("labelings.EpsFrac.self_s", "s", "lower"),
    ("labelings.chi_out_terms", "count", "lower"),
    ("labelings.restrict_balanced.self_s", "s", "lower"),
    ("labelings.exponents.self_s", "s", "lower"),
    ("labelings.simple_ratio_chart.self_s", "s", "lower"),
    ("labelings.chart_inverse.self_s", "s", "lower"),
    ("labelings.labeling_to_obj.self_s", "s", "lower"),
    ("labelings.distinct_input_ratio", "1", "higher"),
    ("indexcalc.index_cr.self_s", "s", "lower"),
    ("indexcalc.coker_dim.calls", "count", "lower"),
    ("indexcalc.coker_dim.self_s", "s", "lower"),
    ("indexcalc.reduce.self_s", "s", "lower"),
    ("indexcalc.reduction_index_audit.self_s", "s", "lower"),
    ("indexcalc.enumerate_end_labelings.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("trace.overhead_ratio", "1", "lower"),
    ("fail_ratio", "1", "lower"),
]

CHECKERS = {"barcx." + n for n in TRACED["barcx"] if n.startswith("check_")}


class _Thread:
    def __init__(self):
        self.stack = []  # [child time, span id] per open call
        self.agg = {}    # name -> [calls, self time]
        self.cnt = {}    # counter name -> value


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op_id = None
        self.spans = []
        self._local = threading.local()
        self._threads = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _Thread()
            with self._lock:
                self._threads.append(st)
        return st

    def count(self, name, n=1):
        cnt = self._state().cnt
        cnt[name] = cnt.get(name, 0) + n

    def call(self, name, fn, args, kwargs, post=None):
        if not self.enabled:
            return fn(*args, **kwargs)
        st = self._state()
        stack = st.stack
        parent = stack[-1][1] if stack else None
        sid = next(self._ids)
        stack.append([0.0, sid])
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            child = stack.pop()[0]
            dur = t1 - t0
            if stack:
                stack[-1][0] += dur
            agg = st.agg.get(name)
            if agg is None:
                agg = st.agg[name] = [0, 0.0]
            agg[0] += 1
            agg[1] += dur - child
            if len(stack) < SPAN_DEPTH and len(self.spans) < SPAN_CAP:
                self.spans.append((sid, name, t0, t1, parent, self.op_id))
        if post is not None:
            post(result)
        return result

    def wrap(self, name, fn, post=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, post)
        return traced

    # -- installation -------------------------------------------------------

    def install(self, cx):
        modules = [cx.trees, cx.strata, cx.signs, cx.barcx, cx.labelings,
                   cx.indexcalc, cx.cli]
        posts = self._posts(cx)
        for layer, names in TRACED.items():
            mod = getattr(cx, layer)
            for attr in names:
                orig = getattr(mod, attr, None)
                if orig is None:
                    continue
                name = "%s.%s" % (layer, attr)
                wrapped = self.wrap(name, orig, posts.get(name))
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, wrapped)
        E = cx.labelings.EpsFrac
        for op in EPSFRAC_OPS:
            setattr(E, op, self.wrap("labelings.EpsFrac", getattr(E, op)))
        self._wrap_coverings(cx.strata.FacePoset)

    def _wrap_coverings(self, cls):
        """Time the first access to ``FacePoset.coverings`` per poset, which
        is where the covering relation is computed."""
        fget = cls.coverings.fget
        seen = weakref.WeakSet()
        tracer = self

        def coverings(poset):
            if poset in seen:
                return fget(poset)
            seen.add(poset)
            return tracer.call("strata.coverings", fget, (poset,), {},
                               lambda r: tracer.count("strata.coverings.count", len(r)))

        cls.coverings = property(coverings)

    def _posts(self, cx):
        count = self.count

        def chi_terms(lab):
            for v in lab.labels.values():
                num, den = getattr(v, "num", None), getattr(v, "den", None)
                if num is not None and den is not None:
                    count("labelings.chi_out_terms", len(num) + len(den))

        def report(rep):
            count("barcx.words_checked", rep.n_words)
            count("barcx.failing_words", len(rep.failures))

        posts = {
            "trees.leq": lambda r: count("trees.leq.true", 1 if r else 0),
            "strata.face_poset": lambda r: count("strata.strata_built", len(r.strata)),
            "strata.boundary_faces": lambda r: count("strata.boundary_faces.faces_out", len(r)),
            "strata.tile_complex": lambda r: count("strata.tile_records",
                                                   len(r.identifications)),
            "strata.export_poset": lambda r: count("strata.export_poset.bytes", len(r)),
            "barcx.delta": lambda r: count("barcx.delta.terms_out", len(r)),
            "labelings.chi_quilted": chi_terms,
        }
        for name in CHECKERS:
            posts[name] = report
        return posts

    # -- results ------------------------------------------------------------

    def totals(self):
        agg, cnt = {}, {}
        for st in self._threads:
            for name, (calls, self_s) in st.agg.items():
                a = agg.setdefault(name, [0, 0.0])
                a[0] += calls
                a[1] += self_s
            for name, n in st.cnt.items():
                cnt[name] = cnt.get(name, 0) + n
        return agg, cnt

    def layer_metrics(self):
        """Every per-layer metric that one traced pass measures."""
        agg, cnt = self.totals()
        out = {}
        for name, (calls, self_s) in agg.items():
            out[name + ".calls"] = calls
            out[name + ".self_s"] = self_s
        sign_names = ["signs." + n for n in TRACED["signs"]]
        out["signs.calls"] = sum(agg.get(n, [0, 0.0])[0] for n in sign_names)
        out["signs.self_s"] = sum(agg.get(n, [0, 0.0])[1] for n in sign_names)
        out["labelings.EpsFrac.ops"] = agg.get("labelings.EpsFrac", [0, 0.0])[0]
        out.update(cnt)
        leq = agg.get("trees.leq", [0])[0]
        out["trees.leq.hit_ratio"] = cnt.get("trees.leq.true", 0) / leq if leq else 0.0
        words = cnt.get("barcx.words_checked", 0)
        out["barcx.failing_word_ratio"] = (
            cnt.get("barcx.failing_words", 0) / words if words else 0.0)
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op}) + "\n")
