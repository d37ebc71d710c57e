"""Labeled tensor words over the Novikov ring and their relation checkers.

A family of operations (differential m, morphism h, homotopy k) is a table
of structure constants: per arity, input generator patterns mapping to
integer combinations of single generators with a Novikov exponent t^d.
The module assembles the word differential, the morphism and homotopy
sums with their facet signs, and checks the defining relations on every
basis word inside a finite truncation window.  Every facet, Koszul and
Getzler-Jones sign is a call into ``signs``, whose formulas the tests pin;
the morphism and homotopy sums share one recursion on the first block.
A family builds one pattern trie of its structure constants; the word
differential ``_delta`` and the first-block recursion both walk it, and
every sign of a delta term comes from ``signs.delta_parity``.

Degrees: a generator carries its co-index mu+ (number of positive Hessian
directions); a word of exponent d has mu = sum of co-indices + d*N_L and
cardinality q = number of factors.  Structure constants must shift mu by
2 - arity (differentials), 1 - arity (morphisms) or -arity (homotopies).
"""

from itertools import product as _iproduct

from .errors import BlockError, CapError, RangeError, ShapeError
from .fields import field, typed
from .signs import (
    delta_parity,
    epsilon_gj,
    first_block_parity,
    koszul_apply,
    koszul_sign,
    suspension_sign,
)

_ROLE_SHIFT = {"m": 2, "h": 1, "k": 0}

# Most generator tuples basis_words may list, all word lengths together.
# A check holds up to about 6 KB per basis word in its delta memo, word
# list and failing residues (peak RSS of dense failing random families at
# q = 9; 1.3 KB for the polynomial family at q = 7), so the cap keeps one
# check under about 600 MB.
MAX_WORDS = 100_000


class TruncationWindow:
    """Finite window for relation checking: cardinality and energy.

    Verdicts quantify over basis words of cardinality <= qmax; output
    terms of energy exponent > emax fall outside the window and are not
    inspected, so a pass is always 'pass up to E_max'.  qmax < 1 (no word)
    and emax < 0 (no term) would pass any family, so they raise RangeError.
    """

    def __init__(self, qmax=5, emax=8):
        self.qmax = qmax
        self.emax = emax
        if qmax < 1 or emax < 0:
            raise RangeError("%r needs qmax >= 1 and emax >= 0" % (self,))

    def to_obj(self):
        return {"qmax": self.qmax, "emax": self.emax}

    def __repr__(self):
        return "TruncationWindow(qmax=%d, emax=%d)" % (self.qmax, self.emax)


class Generator:
    def __init__(self, sym, coidx, label="f"):
        self.sym = sym
        self.coidx = int(coidx)
        self.label = tuple(label) if isinstance(label, (list, tuple)) else label

    def __repr__(self):
        return "Generator(%r, %d, %r)" % (self.sym, self.coidx, self.label)


class OperationFamily:
    """Immutable table of structure constants for one role.

    ``ops``: {arity: {input syms tuple: {(out sym, d): int coefficient}}}.
    ``trie``: the same constants as a pattern trie.  A node is a pair
    [children, terms]: children maps a symbol to the next node, and terms
    lists, as (out sym, d, coef, labelled) tuples, the constants of the
    pattern spelled by the path to the node, whose arity is its depth;
    labelled says whether out sym carries an interval label.  The root's
    terms are the arity-0 constants.
    """

    def __init__(
        self,
        role,
        generators,
        ops,
        n=2,
        NL=2,
        c=0,
        suspended=False,
    ):
        if role not in _ROLE_SHIFT:
            raise ShapeError("role must be one of m/h/k, got %r" % (role,))
        self.role = role
        self.n = n
        self.NL = NL
        self.c = c
        self.gens, where = {}, {}
        for t, g in enumerate(generators):
            _refuse_repeat(where, "sym", g.sym, "generators[%d]" % t)
            self.gens[g.sym] = g
        self.suspended = suspended
        table = {}
        missing = []
        for l, rules in ops.items():
            l = int(l)
            table[l] = {}
            for pattern, outs in rules.items():
                pattern = tuple(pattern)
                if outs is None:
                    missing.append((l, pattern))
                    continue
                acc = {}
                for sym, d, coef in outs:
                    if coef is None:
                        missing.append((l, pattern))
                        continue
                    key = (sym, int(d))
                    acc[key] = acc.get(key, 0) + int(coef)
                table[l][pattern] = {k: v for k, v in acc.items() if v}
        if missing:
            raise ShapeError(
                "unfilled structure constants: %s"
                % ", ".join("arity %d at %r" % mp for mp in missing)
            )
        self.ops = table
        self.coidx = {s: g.coidx for s, g in self.gens.items()}
        self.labelled = frozenset(s for s, g in self.gens.items() if g.label != "f")
        self._arities = tuple(l for l in sorted(table) if table[l])
        self._validate()
        self.trie = [{}, ()]
        for rules in table.values():
            for pattern, outs in rules.items():
                if not outs:
                    continue
                node = self.trie
                for sym in pattern:
                    node = node[0].setdefault(sym, [{}, ()])
                node[1] = tuple(
                    (sym, d, coef, sym in self.labelled)
                    for (sym, d), coef in outs.items()
                )

    def _validate(self):
        for g in self.gens.values():
            if not 0 <= g.coidx <= self.n:
                raise ShapeError(
                    "co-index of %r outside 0..%d" % (g.sym, self.n)
                )
        shift = _ROLE_SHIFT[self.role]
        for l, rules in self.ops.items():
            for pattern, outs in rules.items():
                if len(pattern) != l:
                    raise ShapeError("pattern %r is not arity %d" % (pattern, l))
                for sym in pattern:
                    if sym not in self.gens:
                        raise ShapeError("unknown generator %r" % (sym,))
                mu_in = sum(self.gens[s].coidx for s in pattern)
                for (sym, d), coef in outs.items():
                    if sym not in self.gens:
                        raise ShapeError("unknown generator %r" % (sym,))
                    if d < 0:
                        raise ShapeError(
                            "negative energy exponent t^%d in arity %d" % (d, l)
                        )
                    mu_out = self.gens[sym].coidx + d * self.NL
                    if mu_out - mu_in != shift - l:
                        raise ShapeError(
                            "degree law broken at arity %d, %r -> %r t^%d: "
                            "mu shift %d, expected %d"
                            % (l, pattern, sym, d, mu_out - mu_in, shift - l)
                        )

    def arities(self):
        return self._arities

    def mu(self, sym):
        return self.gens[sym].coidx

    def apply(self, l, pattern):
        """Structure constants at one arity and input pattern."""
        return self.ops.get(l, {}).get(tuple(pattern), {})

    def validate_word(self, gens):
        """Enforce the ordered-block constraint on function labels."""
        prev = None
        for s in gens:
            g = self.gens.get(s)
            if g is None:
                raise BlockError("unknown generator %r" % (s,))
            if g.label == "f":
                continue
            j1, j2 = g.label
            if not j1 < j2 <= self.c:
                raise BlockError("bad interval label %r on %r" % (g.label, s))
            if prev is not None and prev > j1:
                raise BlockError(
                    "interval labels out of order: %r then %r" % (prev, (j1, j2))
                )
            prev = j2


def _tuple_count(n, qmax):
    """n + n^2 + ... + n^qmax, in closed form.  For n >= 2, qmax is first
    cut to the bit length of MAX_WORDS, where the sum already exceeds the
    cap, so a huge qmax costs no huge power."""
    if n <= 1:
        return n * qmax
    q = min(qmax, MAX_WORDS.bit_length())
    return (n ** (q + 1) - n) // (n - 1)


def basis_words(fam, window):
    """All block-valid generator tuples with 1 <= q <= window.qmax.  More
    than MAX_WORDS tuples raise CapError before any is built.  Without
    interval labels every tuple is valid, so none is validated."""
    syms = sorted(fam.gens)
    if _tuple_count(len(syms), window.qmax) > MAX_WORDS:
        raise CapError(
            "%d generators and qmax %d give more than %d words, above the cap"
            % (len(syms), window.qmax, MAX_WORDS)
        )
    out = []
    if not syms:  # no word at all; the cap does not bound qmax here
        return out
    for q in range(1, window.qmax + 1):
        if not fam.labelled:
            out.extend(_iproduct(syms, repeat=q))
            continue
        for gens in _iproduct(syms, repeat=q):
            try:
                fam.validate_word(gens)
            except BlockError:
                continue
            out.append(gens)
    return out


def _one_table(*fams):
    """Raise ShapeError unless the families share one generator table: the
    same symbols, each with one co-index and label, and one c.  The words
    of a check are then valid for all of its families at once."""
    tables = [{s: (g.coidx, g.label) for s, g in f.gens.items()} for f in fams]
    for sym in sorted(set().union(*tables)):
        entries = [t.get(sym) for t in tables]
        if len(set(entries)) > 1:
            got = "; ".join(
                "missing" if e is None else "co-index %d, label %r" % e
                for e in entries
            )
            raise ShapeError(
                "the families of one check differ at generator %r: %s" % (sym, got)
            )
    if len({f.c for f in fams}) > 1:
        raise ShapeError(
            "the families of one check differ in c: %s"
            % ", ".join(str(f.c) for f in fams)
        )


# -- combinations ------------------------------------------------------------


def _add_term(acc, gens, d, coef):
    if not coef:
        return
    key = (gens, d)
    c = acc.get(key, 0) + coef
    if c:
        acc[key] = c
    elif key in acc:
        del acc[key]


def _sub(a, b):
    out = dict(a)
    for key, c in b.items():
        _add_term(out, key[0], key[1], -c)
    return out


def _truncate(comb, emax):
    return {k: v for k, v in comb.items() if k[1] <= emax}


def _comb_map(word_map, comb):
    """Linear extension of a word map to a combination: ``word_map(gens)``
    is the image of one word at exponent 0, shifted by each term's t^d."""
    out = {}
    for (gens, d), coef in comb.items():
        for (g2, d2), c2 in word_map(gens).items():
            key = (g2, d + d2)
            c = out.get(key, 0) + coef * c2
            if c:
                out[key] = c
            else:
                out.pop(key, None)
    return out


def _once(fn, known=()):
    """The word map gens -> fn(gens), computing each word once while the
    map lives; ``known`` gives images fixed in advance.  A checker builds
    one per inner map of its relation and drops it on return."""
    images = dict(known)

    def word_map(gens):
        image = images.get(gens)
        if image is None:
            image = images[gens] = fn(gens)
        return image

    return word_map


class _SelfMap:
    """The word map gens -> image(gens, 0, self) of a first-block sum,
    computing each word once while the map lives; ``known`` gives images
    fixed in advance.  image reaches the map's images of shorter words
    through its argument, not through a closure over the map, so no
    reference cycle keeps the images alive after the checker drops it."""

    __slots__ = ("_image", "_images")

    def __init__(self, image, known):
        self._image = image
        self._images = dict(known)

    def __call__(self, gens):
        out = self._images.get(gens)
        if out is None:
            out = self._images[gens] = self._image(gens, 0, self)
        return out


# -- the word differential ---------------------------------------------------


def delta(fam, gens, d=0):
    """delta applied to one word: sum over positions j and arities l of
    the facet sign times the Koszul sign times the structure constants.

    The sign convention is the family's own (``fam.suspended``): the
    (j, l) term carries sign_concat(q_out, j, l) times the Koszul sign of
    the degree-l operation past the prefix; suspended families use the
    Koszul sign of a degree-1 operation on the degrees mu - 1.  Both are
    signs.delta_parity.  The word is validated first.
    """
    fam.validate_word(gens)
    return _delta(fam, gens, d)


def _delta(fam, gens, d=0):
    """delta on a word known to be valid, in the family's sign convention.

    The family's pattern trie is walked from each gap j before a symbol
    of the word, and from the last gap, where only the root's arity-0
    constants apply.  A node with constants reached after l symbols gives
    the arity-l terms at position j: their parity is signs.delta_parity,
    with the degree sum of gens[:j] (of mu, or of mu - 1 when suspended)
    kept as a running sum.  An output word replaces a block of gens by one
    symbol; it is validated only when that symbol carries an interval
    label, since dropping labelled factors keeps the labels of a valid
    word in order."""
    if fam.role != "m":
        raise ShapeError("delta needs a differential family")
    Q = len(gens)
    suspended = fam.suspended
    shift = 1 if suspended else 0
    coidx = fam.coidx
    root = fam.trie
    out = {}
    prefix = 0
    for j in range(Q + 1):
        node = root
        k = j
        while True:  # about 1.3x faster here than `for k in range(j, Q + 1)`
            children, terms = node
            if terms:
                l = k - j
                negate = delta_parity(Q - l + 1, j + 1, l, prefix, suspended)
                head, tail = gens[:j], gens[k:]
                for sym, dd, coef, labelled in terms:
                    new = head + (sym,) + tail
                    if labelled:
                        fam.validate_word(new)
                    key = (new, d + dd)
                    c = out.get(key, 0) + (-coef if negate else coef)
                    if c:
                        out[key] = c
                    else:
                        del out[key]
            if k == Q or not children:
                break
            node = children.get(gens[k])
            if node is None:
                break
            k += 1
        if j < Q:
            prefix += coidx[gens[j]] - shift
    return out


def delta_comb(fam, comb):
    return _comb_map(lambda g: delta(fam, g), comb)


# -- suspension --------------------------------------------------------------


def suspend(fam):
    """Re-sign the structure constants by the degree-shift convention so
    the relations hold without the explicit correction terms.  The map is
    an involution, so it also serves as the inverse."""
    ops = {}
    for l, rules in fam.ops.items():
        new_rules = {}
        for pattern, outs in rules.items():
            sign = suspension_sign([fam.mu(s) for s in pattern])
            new_rules[pattern] = [
                (sym, d, sign * coef) for (sym, d), coef in outs.items()
            ]
        ops[l] = new_rules
    return OperationFamily(
        fam.role,
        list(fam.gens.values()),
        ops,
        n=fam.n,
        NL=fam.NL,
        c=fam.c,
        suspended=not fam.suspended,
    )


# -- reports -----------------------------------------------------------------


class Report:
    def __init__(self, check, window, n_words, failures):
        self.check = check
        self.window = window
        self.n_words = n_words
        self.failures = failures

    @property
    def passed(self):
        return not self.failures

    def first_failure(self):
        return self.failures[0] if self.failures else None

    def to_obj(self):
        return {
            "check": self.check,
            "window": self.window.to_obj(),
            "passed": self.passed,
            "words_checked": self.n_words,
            "failures": [
                {
                    "word": list(gens),
                    "d": d,
                    "residue": sorted(
                        [list(g2), d2, c]
                        for (g2, d2), c in residue.items()
                    ),
                }
                for (gens, d), residue in self.failures
            ],
            "note": "verified on all basis words up to the window bounds",
        }


def _run_over_words(check_name, fam, window, residue_fn):
    """Residues of the window's basis words; failures come in basis order."""
    words = basis_words(fam, window)
    failures = []
    for gens in words:
        residue = residue_fn(gens)
        if residue:
            residue = _truncate(residue, window.emax)
            if residue:
                failures.append(((gens, 0), residue))
    return Report(check_name, window, len(words), failures)


# -- relation checkers -------------------------------------------------------


def gj_relation(fam, gens):
    """The explicitly signed associativity relation at one word:
    sum over inner windows of (-1)^epsilon_gj(j, l1, l2) outer(prefix,
    inner(...), suffix), which delta-squared expands into; a rewritten
    word is validated as in delta."""
    Q = len(gens)
    degs = [fam.mu(s) for s in gens]
    out = {}
    for l2 in fam.arities():
        if l2 > Q:
            continue
        l1 = Q - l2 + 1
        for j in range(1, l1 + 1):
            inner = fam.apply(l2, gens[j - 1 : j - 1 + l2])
            if not inner:
                continue
            sign = -1 if epsilon_gj(j, l1, l2, degs) else 1
            for (sym, dd), icoef in inner.items():
                new = gens[: j - 1] + (sym,) + gens[j - 1 + l2 :]
                if fam.gens[sym].label != "f":
                    fam.validate_word(new)
                outer = fam.apply(l1, new)
                for (sym2, dd2), ocoef in outer.items():
                    _add_term(out, (sym2,), dd + dd2, sign * icoef * ocoef)
    return out


def check_a_infinity(fam, window, via_suspension=False):
    """delta o delta = 0 on every basis word in the window; the fully
    expanded signed relations give the same verdict by construction of
    the signs, and ``via_suspension`` reruns the check through the
    sign-free shifted convention instead."""
    name = "a-infinity"
    if via_suspension:
        name = "a-infinity(suspended)"
        fam = fam if fam.suspended else suspend(fam)
    # one memo for both factors: each distinct word's delta is computed once
    inner = _once(lambda g: _delta(fam, g))
    return _run_over_words(
        name, fam, window, lambda gens: _comb_map(inner, inner(gens))
    )


def check_gj_relations(fam, window):
    """The arity-sum form of the relations, one word at a time."""
    return _run_over_words(
        "a-infinity(gj)", fam, window, lambda gens: gj_relation(fam, gens)
    )


def check_unit(fam, unit_sym, window):
    """Unit axioms and the contracting homotopy U(w) = unit tensor w:
    delta(U(w)) + U(delta(w)) = w on every window word.  The pointwise
    axioms fail first; each generator's left unit counts as one word."""
    failures = []
    m1 = fam.apply(1, (unit_sym,))
    if m1:
        failures.append(((("m1", unit_sym), 0), dict(m1)))
    for sym in sorted(fam.gens):
        got = fam.apply(2, (unit_sym, sym))
        want = {(sym, 0): 1}
        if dict(got) != want:
            failures.append((((unit_sym, sym), 0), _sub(got, want)))
    for l in fam.arities():
        if l <= 2:
            continue
        for pattern, outs in fam.ops[l].items():
            if pattern[0] == unit_sym and outs:
                failures.append(((pattern, 0), dict(outs)))

    def residue(gens):
        lhs = delta(fam, (unit_sym,) + gens)
        for (g2, d2), c in _delta(fam, gens).items():
            _add_term(lhs, (unit_sym,) + g2, d2, c)
        return _sub(lhs, {(gens, 0): 1})

    contracting = _run_over_words("unit", fam, window, residue)
    failures += contracting.failures
    n_checked = len(fam.gens) + contracting.n_words
    return Report("unit", window, n_checked, failures)


# The morphism and homotopy sums by recursion on the first block: H is the
# coalgebra map with components h, so for w = u v with first block u of
# arity l, H(w) = sum h_l(u) (x) H(v) and K(w) = sum k_l(u) (x) H0(v) +
# h1_l(u) (x) K(v).  A tail term of r factors is signed by
# first_block_parity with D(u) = sum of mu over u and the tail's operation
# degree, r - |v| under H0 and r - 1 - |v| under K; K adds its position
# parity, 1 + r with k first and l with h1 first.  This equals the sum over
# arity compositions with sign_upper_quilt and each block's Koszul sign,
# but no composition with a block that has no constants is ever listed.

_UNIT = {((), 0): 1}  # H of the empty word


def _first_blocks(out, fam, gens, d, tail, parity):
    """Add to ``out`` the terms fam_l(u) (x) tail(v) over the first blocks
    u = gens[:l] with constants in fam, a term whose tail has r factors
    signed by (-1)^parity(l, D(u), r, |v|).  One trie walk from position 0
    finds every such block, summing D(u) as it goes; the root's arity-0
    constants are no block."""
    q = len(gens)
    node = fam.trie
    head = 0
    for l, s in enumerate(gens, 1):
        node = node[0].get(s)
        if node is None:
            return
        head += fam.coidx[s]
        if not node[1]:
            continue
        for (g2, d2), c2 in tail(gens[l:]).items():
            if parity(l, head, len(g2), q - l) % 2:
                c2 = -c2
            for sym, dd, c, _ in node[1]:
                _add_term(out, (sym,) + g2, d + dd + d2, c * c2)


def _morphism_maps(hfam):
    """(image, H): image(gens, d) is H(gens) t^d from the first blocks of
    gens, and H the word map image(gens) that computes each word once and
    serves the suffix images.  A checker keeps H for its inner words and
    sends outer words to image, so only inner words and suffixes are held."""
    if hfam.role != "h":
        raise ShapeError("morphism_H needs an h family")

    def image(gens, d, H):
        out = {}
        _first_blocks(
            out, hfam, gens, d, H,
            lambda l, head, r, nv: first_block_parity(l, head, r, r - nv),
        )
        return out

    H = _SelfMap(image, {(): _UNIT})
    return (lambda gens, d=0: image(gens, d, H)), H


def _homotopy_maps(h1, kfam, H0):
    """(image, K) as _morphism_maps gives them for H, for the homotopy sum
    K = k (x) H0 + h1 (x) K, with H0 the word map of h0's H."""
    if kfam.role != "k":
        raise ShapeError("homotopy_K needs a k family")

    def image(gens, d, K):
        out = {}
        _first_blocks(
            out, kfam, gens, d, H0,
            lambda l, head, r, nv: 1 + r + first_block_parity(l, head, r, r - nv),
        )
        _first_blocks(
            out, h1, gens, d, K,
            lambda l, head, r, nv: l + first_block_parity(l, head, r, r - 1 - nv),
        )
        return out

    K = _SelfMap(image, {(): {}})
    return (lambda gens, d=0: image(gens, d, K)), K


def morphism_H(hfam, gens, d=0):
    """H(w) t^d, the morphism sum over the first blocks of w: each block u
    with constants contributes h_l(u) (x) H(v) for the rest v of w, with
    the first-block sign; the suffix images are computed once per call."""
    image = _morphism_maps(hfam)[0]
    hfam.validate_word(gens)
    return image(gens, d)


def check_chain_map(hfam, m0, m1, window):
    """Residues of H o delta(1) - delta(0) o H over basis words of the
    source complex (whose differential is m1).  The images of H are
    validated as words of m0 by delta(0)."""
    _one_table(hfam, m0, m1)
    outer, H = _morphism_maps(hfam)
    delta0 = _once(lambda g: delta(m0, g))

    def residue(gens):
        return _sub(_comb_map(H, _delta(m1, gens)), _comb_map(delta0, outer(gens)))

    return _run_over_words("chain-map", m1, window, residue)


def homotopy_K(h0, h1, kfam, gens, d=0):
    """K(w) t^d over the first blocks u of w: k_l(u) (x) H0(v) and
    h1_l(u) (x) K(v), signed as H is and further by the homotopy position
    parity."""
    _one_table(h0, h1, kfam)
    image = _homotopy_maps(h1, kfam, _morphism_maps(h0)[1])[0]
    kfam.validate_word(gens)
    return image(gens, d)


def check_homotopy(h0, h1, kfam, m0, m1, window):
    """Residues of H(1) - H(0) - K o delta(1) - delta(0) o K; one H0 word
    map serves the outer H(0) and the tails of K."""
    _one_table(h0, h1, kfam, m0, m1)
    outer1 = _morphism_maps(h1)[0]
    outer0, H0 = _morphism_maps(h0)
    outer, K = _homotopy_maps(h1, kfam, H0)
    delta0 = _once(lambda g: delta(m0, g))

    def residue(gens):
        out = _sub(outer1(gens), outer0(gens))
        out = _sub(out, _comb_map(K, _delta(m1, gens)))
        return _sub(out, _comb_map(delta0, outer(gens)))

    return _run_over_words("homotopy", m1, window, residue)


# -- chain-level dual --------------------------------------------------------


def opposite(fam):
    """Transpose inputs and outputs: per generator, the combination of
    words it maps to in the dual, as {out sym: {(gens, d): coef}}."""
    if fam.role != "m":
        raise ShapeError("opposite needs a differential family")
    dual = {}
    for l, rules in fam.ops.items():
        for pattern, outs in rules.items():
            for (sym, d), coef in outs.items():
                dual.setdefault(sym, {})
                _add_term(dual[sym], pattern, d, coef)
    return dual


def _derivation(fam):
    """The dual derivation as a word map, with the suspended family and
    its transpose built once: the transposed operation at position j
    carries the Koszul sign of a degree-1 map past the shifted degrees
    mu - 1 of the prefix.  A rewritten word is validated only when its
    replacement pattern holds an interval-labelled symbol, as in delta;
    that flag is computed once per entry of the transpose."""
    bfam = fam if fam.suspended else suspend(fam)
    dual = {
        sym: [
            (rep, dd, coef, any(bfam.gens[s].label != "f" for s in rep))
            for (rep, dd), coef in reps.items()
        ]
        for sym, reps in opposite(bfam).items()
    }

    def word_map(gens, d=0):
        sdegs = [bfam.mu(s) - 1 for s in gens]
        out = {}
        for j in range(1, len(gens) + 1):
            reps = dual.get(gens[j - 1])
            if not reps:
                continue
            sign = koszul_apply(1, j, 1, sdegs)
            for rep, dd, coef, labelled in reps:
                new = gens[: j - 1] + rep + gens[j:]
                if labelled:
                    bfam.validate_word(new)
                _add_term(out, new, d + dd, sign * coef)
        return out

    return word_map


def dga_differential(fam, gens, d=0):
    """The dual derivation: apply the transposed, suspended operation at
    each position with the shifted-prefix Koszul sign.  The word is
    validated first."""
    fam.validate_word(gens)
    return _derivation(fam)(gens, d)


def check_leibniz(fam, window):
    """d(x (x) y) = d(x) (x) y + (-1)^|x| x (x) d(y) with the shifted word
    degree |x| = sum (mu - 1), at every split of every window word; the
    residue sums the per-split residues.

    The dual derivation obeys this rule for every family by construction,
    so a pass says nothing about the family: the check tests the sign
    code of the derivation and of the split."""
    dga = _derivation(fam)
    part = _once(dga)

    def residue(gens):
        Q = len(gens)
        total = {}
        for (g2, d2), c in dga(gens).items():
            _add_term(total, g2, d2, (Q - 1) * c)
        sdegs = [fam.mu(s) - 1 for s in gens]
        for cut in range(1, Q):
            x, y = gens[:cut], gens[cut:]
            for (g2, d2), c in part(x).items():
                _add_term(total, g2 + y, d2, -c)
            sign = koszul_sign(1, sdegs[:cut])
            for (g2, d2), c in part(y).items():
                _add_term(total, x + g2, d2, -sign * c)
        return total

    return _run_over_words("leibniz", fam, window, residue)


# -- serialization and examples ----------------------------------------------


def family_to_obj(fam):
    return {
        "n": fam.n,
        "NL": fam.NL,
        "c": fam.c,
        "generators": [
            {
                "sym": g.sym,
                "coidx": g.coidx,
                "label": "f" if g.label == "f" else list(g.label),
            }
            for g in sorted(fam.gens.values(), key=lambda g: g.sym)
        ],
        "ops": {
            fam.role: {
                str(l): [
                    {
                        "in": list(pattern),
                        "out": [
                            {"sym": sym, "d": d, "coef": coef}
                            for (sym, d), coef in sorted(outs.items())
                        ],
                    }
                    for pattern, outs in sorted(rules.items())
                ]
                for l, rules in fam.ops.items()
            }
        },
    }


def _out_term(o, at):
    """The (sym, d, coef) term of one ``out`` entry of a family rule."""
    typed(o, dict, at)
    return (
        field(o, "sym", str, at + ".sym"),
        field(o, "d", int, at + ".d", 0),
        field(o, "coef", int, at + ".coef", None, nullable=True),
    )


def _refuse_repeat(seen, what, key, at):
    """Record that the entry at ``at`` has ``key``; a ShapeError naming
    both entries if an earlier one has it too, which it would overwrite."""
    if key in seen:
        raise ShapeError("%s repeats the %s %r of %s" % (at, what, key, seen[key]))
    seen[key] = at


def family_from_obj(obj, role=None):
    """The family that ``obj``, in the form ``family_to_obj`` writes,
    describes.  A field of another JSON type, a missing required field, an
    arity that is not an integer and an arity or input pattern given twice
    are each a ShapeError that names the field."""
    all_ops = field(obj, "ops", dict, "family field ops", {})
    if role is None:
        if len(all_ops) != 1:
            raise ShapeError("file must declare exactly one op role")
        (role,) = all_ops
    gens = []
    for t, g in enumerate(field(obj, "generators", list, "family field generators")):
        at = "family field generators[%d]" % t
        typed(g, dict, at)
        label = g.get("label", "f")
        if label != "f" and len(typed(label, [int], at + ".label")) != 2:
            raise ShapeError(
                "%s.label must be 'f' or a list [j1, j2], not %r" % (at, label)
            )
        sym = field(g, "sym", str, at + ".sym")
        gens.append(Generator(sym, field(g, "coidx", int, at + ".coidx"), label))
    ops, arity_at = {}, {}
    at = "family field ops." + role
    for l, rules in field(all_ops, role, dict, at).items():
        if not l.isdecimal():
            raise ShapeError("%s has arity %r, not an integer" % (at, l))
        _refuse_repeat(arity_at, "arity", int(l), "%s.%s" % (at, l))
        table, rule_at = {}, {}
        for t, rule in enumerate(typed(rules, list, "%s.%s" % (at, l))):
            at_rule = "%s.%s[%d]" % (at, l, t)
            typed(rule, dict, at_rule)
            pattern = tuple(field(rule, "in", [str], at_rule + ".in"))
            _refuse_repeat(rule_at, "input", pattern, at_rule)
            outs = field(rule, "out", list, at_rule + ".out", nullable=True)
            table[pattern] = None if outs is None else [
                _out_term(o, "%s.out[%d]" % (at_rule, u)) for u, o in enumerate(outs)
            ]
        ops[int(l)] = table
    return OperationFamily(
        role,
        gens,
        ops,
        n=field(obj, "n", int, "family field n", 2),
        NL=field(obj, "NL", int, "family field NL", 2),
        c=field(obj, "c", int, "family field c", 0),
    )


def _assoc_family(names, mult, n=2, NL=2, coidx=None):
    gens = [Generator(s, 0 if coidx is None else coidx[s]) for s in names]
    rules = {}
    for a in names:
        for b in names:
            out = mult(a, b)
            rules[(a, b)] = [] if out is None else [(out, 0, 1)]
    return OperationFamily("m", gens, {2: rules}, n=n, NL=NL)


def example_library():
    """Desk-scale families: a truncated polynomial algebra, the exterior
    algebra on one odd generator, the two-generator Morse family of the
    circle, and a deformation template with constants left to fill in."""
    names = ["1", "a", "a2", "a3", "a4"]

    def pmul(x, y):
        i = names.index(x) + names.index(y)
        return names[i] if i < len(names) else None

    poly = _assoc_family(names, pmul)

    def unital(u):
        return lambda a, b: b if a == u else a if b == u else None

    ext = _assoc_family(["1", "t"], unital("1"), coidx={"1": 0, "t": 1})
    circle = _assoc_family(
        ["M", "m"], unital("M"), n=1, coidx={"M": 0, "m": 1}
    )

    def template():
        return OperationFamily(
            "m",
            [Generator("M", 0), Generator("m", 1)],
            {
                2: {
                    ("M", "M"): [("M", 0, 1)],
                    ("M", "m"): [("m", 0, 1)],
                    ("m", "M"): [("m", 0, 1)],
                    ("m", "m"): [("M", 1, None)],
                }
            },
            n=1,
            NL=2,
        )

    return {
        "polynomial": poly,
        "exterior": ext,
        "circle": circle,
        "quantum_template": template,
    }


def circle_cup_oracle():
    """Independent check data for the circle family: the simplicial cup
    product on a three-vertex triangulation of the circle has trivial
    square on H^1 and the class of a point as a two-sided unit on
    cohomology, matching the Morse constants."""
    # vertices 0,1,2; edges (0,1),(1,2),(2,0); cochains over Z
    # cup: (f u g)(i,j) = f(i) g(i,j) on 0x1, (f u g)(i,j) = f(i,j) g(j)
    verts = [0, 1, 2]
    edges = [(0, 1), (1, 2), (2, 0)]

    def d0(f):
        return {e: f[e[1]] - f[e[0]] for e in edges}

    def cup01(f, g):
        return {e: f[e[0]] * g[e] for e in edges}

    def cup10(f, g):
        return {e: f[e] * g[e[1]] for e in edges}

    one = {v: 1 for v in verts}
    # a generator of H^1: any cochain with total sum 1
    gen = {edges[0]: 1, edges[1]: 0, edges[2]: 0}
    results = {
        "unit_left": cup01(one, gen),
        "unit_right": cup10(gen, one),
        "gen": gen,
        "d_of_vertex_basis": {v: d0({w: 1 if w == v else 0 for w in verts}) for v in verts},
    }
    return results


def random_family(rng, n=2, NL=2, n_gens=3, arities=(1, 2, 3), density=0.7):
    """A random degree-law-respecting differential family (usually not
    associative: used for convention-equivalence testing)."""
    names = ["g%d" % i for i in range(n_gens)]
    coidx = {s: rng.randint(0, n) for s in names}
    gens = [Generator(s, coidx[s]) for s in names]
    by_coidx = {}
    for s in names:
        by_coidx.setdefault(coidx[s], []).append(s)
    ops = {}
    for l in arities:
        rules = {}
        for pattern in _iproduct(names, repeat=l):
            if rng.random() > density:
                continue
            mu_in = sum(coidx[s] for s in pattern)
            outs = []
            for d in range(0, 3):
                want = mu_in + 2 - l - d * NL
                for sym in by_coidx.get(want, ()):
                    if rng.random() < 0.5:
                        outs.append((sym, d, rng.choice([-2, -1, 1, 2])))
            if outs:
                rules[pattern] = outs
        if rules:
            ops[l] = rules
    return OperationFamily("m", gens, ops, n=n, NL=NL)
