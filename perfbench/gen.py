"""Seeded input generators, written independently of clustercx.

Every input the program receives in a benchmark pass comes from here:
operation-family JSON files, labeling files, marked disks, cluster types
and surgery specs.  Nothing calls ``barcx.random_family`` or
``labelings.random_balanced``, so a change to those functions cannot change
the workload.

Trees are nested tuples ``(i, col, slots)`` with ``"x"`` for a leaf slot,
the same shape clustercx uses; ``tree_obj`` writes the JSON form.  Edges
are root paths of slot indices.

Work per pass is meant to be the same for every seed: the shapes (trees,
word alphabets, rule counts) come from fixed schedules and the seed only
picks values (labels, coefficients, symbol names, positions).
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import product

LEAF = "x"


def rng_for(seed, purpose):
    return random.Random("%d:%s" % (seed, purpose))


# -- trees -------------------------------------------------------------------


def tree_obj(v):
    i, col, slots = v
    return {
        "b": sum(1 for s in slots if s == LEAF),
        "i": i,
        "col": col,
        "children": [LEAF if s == LEAF else tree_obj(s) for s in slots],
    }


def edges(v, prefix=()):
    out = []
    for idx, s in enumerate(v[2]):
        if s != LEAF:
            out.append(prefix + (idx,))
            out.extend(edges(s, prefix + (idx,)))
    return out


def vertex_at(v, path):
    for idx in path:
        v = v[2][idx]
    return v


def n_leaves(v):
    return sum(1 if s == LEAF else n_leaves(s) for s in v[2])


def n_marks(v):
    return v[0] + sum(n_marks(s) for s in v[2] if s != LEAF)


def edge_id(e):
    return ".".join(str(i) for i in e)


@lru_cache(maxsize=None)
def _seqs(kind, l, e):
    """Slot sequences with l leaves and e edges.  ``plain`` sequences mix
    leaves and plain children; ``below`` sequences hold below-color
    children only (every leaf path must still meet a color)."""
    if l == 0 and e == 0:
        return ((),)
    out = []
    if kind == "plain" and l >= 1:
        out += [(LEAF,) + r for r in _seqs(kind, l - 1, e)]
    child = _plain if kind == "plain" else _below
    for lc in range(1, l + 1):
        for ec in range(e):
            for c in child(lc, ec):
                out += [(c,) + r for r in _seqs(kind, l - lc, e - 1 - ec)]
    return tuple(out)


@lru_cache(maxsize=None)
def _plain(l, e):
    return tuple((0, False, s) for s in _seqs("plain", l, e) if len(s) >= 2)


@lru_cache(maxsize=None)
def _colored(l, e):
    return tuple((0, True, s) for s in _seqs("plain", l, e) if len(s) >= 1)


@lru_cache(maxsize=None)
def _below(l, e):
    hubs = tuple((0, False, s) for s in _seqs("below", l, e) if len(s) >= 2)
    return _colored(l, e) + hubs


def colored_pool():
    """All stable colored trees without interior marks, 2 <= l <= 4 and
    1 <= edges <= 8: the quilted strata the collar map acts on."""
    return [t for l in (2, 3, 4) for e in range(1, 9) for t in _below(l, e)]


def plain_pool():
    """All stable plain trees without marks, 3 <= l <= 5, 1 <= edges."""
    return [t for l in (3, 4, 5) for e in range(1, l - 1) for t in _plain(l, e)]


def colored_chains(v):
    """Root-to-color edge chains, one per colored vertex."""
    out = []

    def rec(u, prefix, chain):
        if u[1]:
            out.append(chain)
            return
        for idx, s in enumerate(u[2]):
            if s != LEAF:
                rec(s, prefix + (idx,), chain + [prefix + (idx,)])

    rec(v, (), [])
    return out


def regions(v):
    """'above' (a colored vertex lies at or below the edge's bottom end),
    'touch' (the edge's top end is colored) or 'below', per edge."""
    out = {}

    def rec(u, prefix, seen):
        for idx, s in enumerate(u[2]):
            if s == LEAF:
                continue
            e = prefix + (idx,)
            out[e] = "above" if seen else ("touch" if s[1] else "below")
            rec(s, e, seen or s[1])

    rec(v, (), v[1])
    return out


def m_exponents(v):
    """M_l of the collar map: 1 above the colors, 1/2^(depth-1) on an edge
    touching a colored vertex, 1/2^depth below."""
    out = {}
    for e, r in regions(v).items():
        if r == "above":
            out[e] = Fraction(1)
        elif r == "touch":
            out[e] = Fraction(1, 2 ** (len(e) - 1))
        else:
            out[e] = Fraction(1, 2 ** len(e))
    return out


def frac(rng, hi=8):
    return Fraction(rng.randint(1, hi), rng.randint(1, hi))


def balanced_labels(v, rng):
    """Positive labels whose products along every root-to-color chain agree:
    free labels everywhere, then each chain's last edge solved for the
    common target."""
    labels = {e: frac(rng) for e in edges(v)}
    target = frac(rng)
    for chain in colored_chains(v):
        if chain:
            partial = Fraction(1)
            for e in chain[:-1]:
                partial *= labels[e]
            labels[chain[-1]] = target / partial
    return labels


def distinct_labelings(trees, count, rng, make):
    """``count`` labelings cycling through ``trees``; a draw equal to an
    earlier input is redrawn, so every input is distinct."""
    seen = set()
    out = []
    for n in range(count):
        t = trees[n % len(trees)]
        for _ in range(1000):
            labels = make(t, rng)
            key = (t, tuple(sorted(labels.items())))
            if key not in seen:
                break
        seen.add(key)
        out.append((t, labels))
    return out, len(seen)


def labeling_file(t, labels):
    return {
        "tree": tree_obj(t),
        "labels": {edge_id(e): str(x) for e, x in labels.items()},
    }


def binary_tree(items, rng):
    """A random binary planar tree over a sequence of markings: 'x' a
    boundary leaf, 'z' an interior mark (a one-mark vertex)."""
    if len(items) == 1:
        return LEAF if items[0] == "x" else (1, False, ())
    cut = rng.randint(1, len(items) - 1)
    return (0, False, (binary_tree(items[:cut], rng), binary_tree(items[cut:], rng)))


def chart_disk(rng, l, k):
    """A maximal chart type and an exact marked disk on it (l + k >= 2)."""
    items = ["x"] * l + ["z"] * k
    rng.shuffle(items)
    t = binary_tree(items, rng)
    pos = sorted(rng.sample(range(-60, 60), len(items)))
    xs = [str(p) for p, it in zip(pos, items) if it == "x"]
    zs = [[str(p), str(rng.randint(1, 20))] for p, it in zip(pos, items) if it == "z"]
    return {"tree": tree_obj(t), "xs": xs, "zs": zs, "seam": None}


def marked_tree(rng, l, k, side_branch):
    """A random stable plain tree with l leaves and k interior marks,
    optionally with one leafless side branch carrying two marks."""
    items = ["x"] * l + ["z"] * k
    rng.shuffle(items)

    def build(seq):
        if len(seq) == 1:
            return LEAF if seq[0] == "x" else (1, False, ())
        groups = rng.randint(2, min(3, len(seq)))
        cuts = sorted(rng.sample(range(1, len(seq)), groups - 1))
        bounds = [0] + cuts + [len(seq)]
        slots = [build(seq[bounds[g]:bounds[g + 1]]) for g in range(groups)]
        # fold one-mark children into the vertex's own mark count
        marks = sum(1 for s in slots if s == (1, False, ()))
        kept = tuple(s for s in slots if s != (1, False, ()))
        if len(kept) + 1 + 2 * marks < 3 or not kept:
            return (0, False, tuple(slots))
        return (marks, False, kept)

    t = build(items)
    if t == LEAF or t == (1, False, ()):
        t = (0, False, (t, LEAF, LEAF))
    if side_branch:
        t = (t[0], t[1], t[2] + ((2, False, ()),))
    return t


def vertices(v, prefix=()):
    out = [(prefix, v)]
    for idx, s in enumerate(v[2]):
        if s != LEAF:
            out.extend(vertices(s, prefix + (idx,)))
    return out


def surgery_for(t, rng, n):
    """One reduction spec for tree t, cycling through the surgery kinds."""
    kind = n % 4
    if kind == 0:
        marked = [(p, u) for p, u in vertices(t) if u[0] >= 1]
        if marked:
            p, u = rng.choice(marked)
            d = rng.choice([d for d in (1, 2, 3) if u[0] % d == 0])
            return {"type": "I", "disk": list(p), "d": d}
        return {"type": "I", "disk": [], "d": 1}
    if kind == 1:
        cands = [
            (p, idx, s)
            for p, u in vertices(t)
            for idx, s in enumerate(u[2])
            if s != LEAF
        ]
        if cands:
            p, idx, s = rng.choice(cands)
            return {
                "type": "IIb",
                "disk": list(p),
                "dest": idx,
                "at": rng.randint(0, len(s[2])),
            }
        return {"type": "III"}
    if kind == 2:
        return {"type": "III"}
    return {
        "type": rng.choice(["gen-I", "gen-II", "gen-III"]),
        "removed_marks": rng.randint(0, n_marks(t)),
        "interior_incidences": rng.randint(0, 2),
        "complex_nodes": rng.randint(0, 1),
    }


def cluster_type(rng, t):
    l = n_leaves(t)
    n = rng.randint(1, 3)
    return {
        "tree": tree_obj(t),
        "edge_states": {
            edge_id(e): rng.choice(["node", "line", "broken"]) for e in edges(t)
        },
        "mu_root": rng.randint(0, n),
        "mu_leaves": [rng.randint(0, n) for _ in range(l)],
        "maslov": [2 * rng.randint(0, 3) for _ in range(rng.randint(1, 3))],
        "n": n,
        "NL": 2,
        "interior_incidences": rng.randint(0, 2),
        "complex_nodes": rng.randint(0, 1),
    }


# -- operation families ------------------------------------------------------


def _names(rng, n):
    """n distinct three-letter generator names."""
    out = []
    while len(out) < n:
        s = "".join(rng.choice("bcdfghjkpqrstvwz") for _ in range(3))
        if s not in out:
            out.append(s)
    return out


def family_obj(gens, rules, role="m", n=2, NL=2):
    """gens: [(sym, coidx)]; rules: {arity: {pattern: [(sym, d, coef)]}}."""
    return {
        "n": n,
        "NL": NL,
        "c": 0,
        "generators": [{"sym": s, "coidx": c, "label": "f"} for s, c in gens],
        "ops": {
            role: {
                str(l): [
                    {
                        "in": list(p),
                        "out": [{"sym": s, "d": d, "coef": c} for s, d, c in outs],
                    }
                    for p, outs in sorted(table.items())
                ]
                for l, table in sorted(rules.items())
            }
        },
    }


class Polynomial:
    """Truncated polynomial algebra 1, a, a^2, a^3, a^4 under seeded names,
    optionally with m(a, a) = c a^2 deformed (the negative control)."""

    def __init__(self, rng):
        self.names = _names(rng, 5)

    def mul(self, x, y, deform=None):
        i = self.names.index(x) + self.names.index(y)
        if i >= 5:
            return {}
        coef = deform if (deform is not None and (x, y) == (self.names[1],) * 2) else 1
        return {self.names[i]: coef}

    def family(self, deform=None, phi=None):
        """m as a JSON family; with ``phi`` the multiplication is conjugated
        by the linear automorphism phi (given with its inverse)."""
        rules = {}
        for x, y in product(self.names, repeat=2):
            if phi is None:
                acc = self.mul(x, y, deform)
            else:
                fwd, inv = phi
                acc = {}
                for sx, cx in inv[x].items():
                    for sy, cy in inv[y].items():
                        for p, cp in self.mul(sx, sy).items():
                            for sz, cz in fwd[p].items():
                                acc[sz] = acc.get(sz, 0) + cx * cy * cp * cz
            rules[(x, y)] = [(s, 0, c) for s, c in sorted(acc.items()) if c]
        return family_obj([(s, 0) for s in self.names], {2: rules})

    def automorphism(self, c):
        """phi(a) = a + c a^2, identity on the other basis elements."""
        a, a2 = self.names[1], self.names[2]
        fwd = {s: {s: 1} for s in self.names}
        inv = {s: {s: 1} for s in self.names}
        fwd[a] = {a: 1, a2: c}
        inv[a] = {a: 1, a2: -c}
        return fwd, inv

    def morphism(self, lin, role="h"):
        rules = {1: {(s,): [(t, 0, c) for t, c in sorted(lin[s].items())] for s in self.names}}
        return family_obj([(s, 0) for s in self.names], rules, role=role)

    def zero(self, role="k"):
        return family_obj([(s, 0) for s in self.names], {}, role=role)

    def associators(self, deform):
        """Independent oracle for the negative control: every triple whose
        associator (xy)z - x(yz) under the deformed product is nonzero, with
        that associator."""
        def m(u, v):
            out = {}
            for su, cu in u.items():
                for sv, cv in v.items():
                    for p, c in self.mul(su, sv, deform).items():
                        out[p] = out.get(p, 0) + cu * cv * c
            return out

        found = {}
        for x, y, z in product(self.names, repeat=3):
            left = m(m({x: 1}, {y: 1}), {z: 1})
            right = m({x: 1}, m({y: 1}, {z: 1}))
            diff = {s: left.get(s, 0) - right.get(s, 0) for s in set(left) | set(right)}
            diff = {s: c for s, c in diff.items() if c}
            if diff:
                found[(x, y, z)] = diff
        return found


def two_generator(rng, odd_coidx, n, NL):
    """Exterior algebra (n=2) or the circle's Morse family (n=1): a unit e
    of co-index 0 and one odd generator t with t*t = 0."""
    e, t = _names(rng, 2)
    rules = {
        2: {
            (e, e): [(e, 0, 1)],
            (e, t): [(t, 0, 1)],
            (t, e): [(t, 0, 1)],
            (t, t): [],
        }
    }
    return family_obj([(e, 0), (t, odd_coidx)], rules, n=n, NL=NL), e


def random_family(rng, n_rules=(3, 6, 9)):
    """A degree-law-respecting differential family on three generators of
    co-index 0, 1, 2 (in seeded order), with a fixed number of rules per
    arity 1, 2, 3 and seeded nonzero coefficients.  Usually not A-infinity."""
    names = _names(rng, 3)
    coidx = dict(zip(names, rng.sample([0, 1, 2], 3)))
    rules = {}
    for l, count in zip((1, 2, 3), n_rules):
        cands = []
        for p in product(sorted(names), repeat=l):
            mu_in = sum(coidx[s] for s in p)
            outs = [
                (s, d)
                for d in range(3)
                for s in sorted(names)
                if coidx[s] == mu_in + 2 - l - 2 * d
            ]
            if outs:
                cands.append((p, outs))
        table = {}
        for p, outs in rng.sample(cands, min(count, len(cands))):
            table[p] = [(s, d, rng.choice([-2, -1, 1, 2])) for s, d in outs]
        rules[l] = table
    return family_obj([(s, coidx[s]) for s in names], rules)
