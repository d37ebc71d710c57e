"""Labeled tensor words over the Novikov ring and their relation checkers.

A family of operations (differential m, morphism h, homotopy k) is a table
of structure constants: per arity, input generator patterns mapping to
integer combinations of single generators with a Novikov exponent t^d.
The module assembles the word differential, the morphism and homotopy
sums with their facet signs, and checks the defining relations on every
basis word inside a finite truncation window.  Every facet, Koszul and
Getzler-Jones sign is a call into ``signs``, whose formulas the tests pin.
The word differential, the morphism and the homotopy sums are each a
recursion over the suffixes of a word: delta is a coderivation, so
delta(x v) is the terms at the first gap plus x (x) delta(v) re-signed,
and H and K are coalgebra maps, summed over first blocks.  One word map
class (_WordMap) holds delta, H, K and the dual derivation per check, one
map per distinct family; it builds a missing word's suffixes shortest
first, in a loop, so words of any length can be mapped.  A check sums
each word's residue in one dict.
A family builds one pattern trie of its structure constants, which every
recursion walks from a word's first symbol, and every sign of a delta
term or of a derivation term comes from ``signs.delta_parity``.

Degrees: a generator carries its co-index mu+ (number of positive Hessian
directions); a word of exponent d has mu = sum of co-indices + d*N_L and
cardinality q = number of factors.  Structure constants must shift mu by
2 - arity (differentials), 1 - arity (morphisms) or -arity (homotopies).
"""

from functools import partial
from itertools import product as _iproduct

from .errors import BlockError, CapError, RangeError, ShapeError
from .fields import field, typed
from .gcpause import paused
from .signs import (
    delta_parity,
    epsilon_gj,
    first_block_parity,
    koszul_sign,
    suspension_sign,
)

_ROLE_SHIFT = {"m": 2, "h": 1, "k": 0}

# Most generator tuples basis_words may list, all word lengths together.
# A check holds its word list, its word maps (delta, H, K or the derivation)
# and its failing residues, but no image of a word of the window's full
# length (_WordMap.window_word).  Peak RSS of the polynomial family at q = 7
# (97,655 words): 35 MB under clustercx check-ainf (CI holds it under 45
# MB), 62 MB under check_leibniz and 85 MB under check-morphism of the
# identity, whose source and target share one delta map, which holds the
# full-length images that delta(0) reads, so the cap keeps such checks far
# under 600 MB.  The failing
# residues of a dense family grow with the word length, not the word count:
# on 3-generator dense failing random families a report of every failure
# takes 5.3 KB per word at q = 7 and 8.4 KB at q = 8 under check-ainf, and
# 21 KB and 30 KB under check-morphism.  The check commands keep only the
# three failures they print (``keep``): clustercx check-morphism on such a
# family at q = 8 (9,840 words) peaks at 92 MB, against 294 MB when it kept
# them all, and what is left are the word maps, which grow with the word
# length too.
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


def _comb_map(word_map, comb, out=None, sign=1):
    """Linear extension of a word map to a combination: ``word_map(gens)``
    is the image of one word at exponent 0, shifted by each term's t^d.
    The image times ``sign`` is added into ``out`` (a new dict if None),
    which is returned; a term whose sum is 0 is dropped, so the residue of
    a relation that holds is {}."""
    if out is None:
        out = {}
    for (gens, d), coef in comb.items():
        coef *= sign
        for key, c2 in word_map(gens).items():
            if d:
                key = (key[0], key[1] + d)
            c = out.get(key, 0) + coef * c2
            if c:
                out[key] = c
            else:
                out.pop(key, None)
    return out


class _WordMap(dict):
    """The word map gens -> image of a recursion on the first symbol: a
    dict from words to their images that computes a missing image on
    lookup, so each word's image is computed once while the map lives;
    ``known`` gives images fixed in advance.

    ``image(wmap, gens, tail)`` builds the image of gens from ``tail``, the
    map's image of gens[1:], and may read any shorter suffix from the map.
    A miss builds the longest suffix it lacks first and then each longer
    one, in a loop rather than a recursion, so a word of any length can be
    mapped and every suffix of a held word is held.  image gets the map as
    an argument and closes over nothing that holds it, so no reference
    cycle keeps the images alive after the caller drops the map.  ``fam``
    validates words from outside (``checked``); ``aux`` holds what image
    reads besides the map and its family."""

    __slots__ = ("fam", "image", "aux")

    def __init__(self, fam, image, known, aux=None):
        super().__init__(known)
        self.fam = fam
        self.image = image
        self.aux = aux

    def __missing__(self, gens):
        tail = self.get(gens[1:])
        if tail is None and gens:
            k = 1
            while tail is None and k < len(gens):
                k += 1
                tail = self.get(gens[k:])
            if tail is None:
                tail = self[()] = self.image(self, (), None)
            for i in range(k - 1, 0, -1):
                tail = self[gens[i:]] = self.image(self, gens[i:], tail)
        out = self[gens] = self.image(self, gens, tail)
        return out

    def checked(self, gens):
        """The image of gens, validated first unless the map holds it:
        suffixes and images of valid words are valid."""
        out = self.get(gens)
        if out is None:
            self.fam.validate_word(gens)
            out = self[gens]
        return out

    def outer(self, gens):
        """The image of gens, read from the map when it holds it, else
        built from the held image of gens[1:] (its suffixes are held) but
        not stored."""
        out = self.get(gens)
        return self.image(self, gens, self[gens[1:]]) if out is None else out

    def window_word(self, gens, top):
        """The image of a window word, held when gens is shorter than
        ``top``, the window's longest word, and built by ``outer`` when it
        is that long: such a word is the suffix of no window word, so a
        check holds no image of a word of the window's full length."""
        return self[gens] if len(gens) < top else self.outer(gens)


def _times_t(image, d):
    """A copy of ``image`` t^d: every term's exponent raised by d."""
    return {(g2, d + d2): c for (g2, d2), c in image.items()} if d else dict(image)


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
    return _times_t(_delta_map(fam).checked(gens), d)


def delta_comb(fam, comb):
    return _comb_map(_delta_map(fam).checked, comb)


def _tail_flips(mu, suspended):
    """(even, odd): the parity by which an arity-l term of delta(v)
    changes when a symbol of co-index mu is put in front of v, for l even
    and for l odd.  The term moves one position right, its output word
    gains a factor and its prefix gains the symbol's degree (mu, or
    mu - 1 when suspended), so the change is the difference of two
    signs.delta_parity values: 1 + l * mu in the plain convention and
    mu - 1 in the suspended one, a function of l's parity alone."""
    shifted = mu - 1 if suspended else mu
    return tuple(
        delta_parity(2, 2, l, shifted, suspended) ^ delta_parity(1, 1, l, 0, suspended)
        for l in (0, 1)
    )


def _delta_map(fam):
    """The word map gens -> delta(gens) of a differential family, in its
    sign convention, each image built by _delta_image from that of the
    word's suffix.  Its ``aux`` holds, per symbol, the tail flips indexed
    by the parity of the length of the word it heads and then by that of
    a tail term, as l = Q - |g2|."""
    if fam.role != "m":
        raise ShapeError("delta needs a differential family")
    flips = {}
    for s, mu in fam.coidx.items():
        even, odd = _tail_flips(mu, fam.suspended)
        flips[s] = ((even, odd), (odd, even))
    return _WordMap(fam, _delta_image, (), flips)


def _delta_image(dmap, gens, tail):
    """delta(gens) from its first gap and ``tail`` = delta(gens[1:]): delta
    is a coderivation, so delta(x v) is the terms at the gap before x plus
    x (x) delta(v), each tail term re-signed by _tail_flips.

    The arity-0 constants before x and one trie walk from x give the
    first-gap terms, each signed by signs.delta_parity at j = 1; a first
    block replaces gens[:l] by one symbol and the output is validated when
    that symbol carries an interval label, since dropping labelled factors
    keeps the labels of a valid word in order.  A tail term x (x) g2 is
    validated whenever x carries a label, as x may be out of order with a
    labelled symbol written into g2."""
    fam = dmap.fam
    suspended = fam.suspended
    Q = len(gens)
    out = {}
    node = fam.trie
    l = 0
    while True:
        children, terms = node
        if terms:
            negate = delta_parity(Q - l + 1, 1, l, 0, suspended)
            rest = gens[l:]
            for sym, dd, coef, labelled in terms:
                new = (sym,) + rest
                if labelled:
                    fam.validate_word(new)
                # first-gap terms of different arities differ in length
                out[new, dd] = -coef if negate else coef
        if l == Q or not children:
            break
        node = children.get(gens[l])
        if node is None:
            break
        l += 1
    if not Q:
        return out
    x = gens[0]
    if x in fam.labelled:
        for g2, _ in tail:
            fam.validate_word((x,) + g2)
    flip = dmap.aux[x][Q & 1]
    for (g2, d2), c in tail.items():
        key = ((x,) + g2, d2)
        c = out.get(key, 0) + (-c if flip[len(g2) & 1] else c)
        if c:
            out[key] = c
        else:
            del out[key]
    return out


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
    """A check's verdict over ``n_words`` words: ``failures`` holds the
    failing words' residues, the first ``keep`` of them when the check was
    given a ``keep``, and ``n_failing`` counts every failing word, which
    ``to_obj`` writes as ``failing_words``."""

    def __init__(self, check, window, n_words, failures, n_failing=None):
        self.check = check
        self.window = window
        self.n_words = n_words
        self.failures = failures
        self.n_failing = len(failures) if n_failing is None else n_failing

    @property
    def passed(self):
        return not self.n_failing

    def first_failure(self):
        return self.failures[0] if self.failures else None

    def to_obj(self):
        return {
            "check": self.check,
            "window": self.window.to_obj(),
            "passed": self.passed,
            "words_checked": self.n_words,
            "failing_words": self.n_failing,
            "failures": [failure_to_obj(f) for f in self.failures],
            "note": "verified on all basis words up to the window bounds",
        }


def failure_to_obj(failure):
    """One ((gens, d), residue) entry of ``Report.failures`` as JSON data,
    its residue terms sorted."""
    (gens, d), residue = failure
    return {
        "word": list(gens),
        "d": d,
        "residue": sorted([list(g2), d2, c] for (g2, d2), c in residue.items()),
    }


def _run_over_words(check_name, fam, window, residue_fn, keep=None):
    """Residues of the window's basis words; failures come in basis order.
    Every failing word is counted, and with ``keep`` only the first keep
    residues are held, so a failing check's memory does not grow with its
    failures (None keeps them all)."""
    words = basis_words(fam, window)
    failures = []
    n_failing = 0
    for gens in words:
        residue = residue_fn(gens)
        if residue:
            residue = {k: c for k, c in residue.items() if k[1] <= window.emax}
            if residue:
                n_failing += 1
                if keep is None or len(failures) < keep:
                    failures.append(((gens, 0), residue))
    return Report(check_name, window, len(words), failures, n_failing)


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


@paused()
def check_a_infinity(fam, window, via_suspension=False, keep=None):
    """delta o delta = 0 on every basis word in the window; the fully
    expanded signed relations give the same verdict by construction of
    the signs, and ``via_suspension`` reruns the check through the
    sign-free shifted convention instead.  ``keep`` bounds the failures
    the report holds (see _run_over_words)."""
    name = "a-infinity"
    if via_suspension:
        name = "a-infinity(suspended)"
        fam = fam if fam.suspended else suspend(fam)
    # one map for both factors: each distinct word's delta is computed once
    D = _delta_map(fam)
    inner, top = D.__getitem__, window.qmax
    return _run_over_words(
        name, fam, window, lambda gens: _comb_map(inner, D.window_word(gens, top)), keep
    )


@paused()
def check_gj_relations(fam, window):
    """The arity-sum form of the relations, one word at a time."""
    return _run_over_words(
        "a-infinity(gj)", fam, window, lambda gens: gj_relation(fam, gens)
    )


@paused()
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

    D = _delta_map(fam)  # delta of U(w) reads delta of w as its tail

    def residue(gens):
        lhs = dict(D.checked((unit_sym,) + gens))
        for (g2, d2), c in D[gens].items():
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


def _first_blocks(out, fam, gens, tails, parity):
    """Add to ``out`` the terms fam_l(u) (x) tails[v] over the first blocks
    u = gens[:l] with constants in fam and the rest v = gens[l:], a term
    whose tail has r factors signed by (-1)^parity(l, D(u), r, |v|).  One
    trie walk from position 0 finds every such block, summing D(u) as it
    goes; the root's arity-0 constants are no block.  The parities depend
    on r only through r mod 2, so a block takes two of them."""
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
        tail = tails[gens[l:]]
        if not tail:
            continue
        flip = (parity(l, head, 0, q - l) % 2, parity(l, head, 1, q - l) % 2)
        for (g2, d2), c2 in tail.items():
            if flip[len(g2) & 1]:
                c2 = -c2
            for sym, dd, coef, _ in node[1]:
                key = ((sym,) + g2, dd + d2)
                c = out.get(key, 0) + coef * c2
                if c:
                    out[key] = c
                else:
                    del out[key]


def _h_parity(l, head, r, nv):
    return first_block_parity(l, head, r, r - nv)


def _k_parity(l, head, r, nv):
    return 1 + r + first_block_parity(l, head, r, r - nv)


def _h1_parity(l, head, r, nv):
    return l + first_block_parity(l, head, r, r - 1 - nv)


def _morphism_image(H, gens, tail):
    """H(gens) from the first blocks of gens, with the suffix images read
    from the map H (tail is one of them)."""
    out = {}
    _first_blocks(out, H.fam, gens, H, _h_parity)
    return out


def _homotopy_image(K, gens, tail):
    """K(gens) = k (x) H0 + h1 (x) K over the first blocks of gens, with
    ``K.aux`` = (h1, H0) and the suffix images of K read from K."""
    h1, H0 = K.aux
    out = {}
    _first_blocks(out, K.fam, gens, H0, _k_parity)
    _first_blocks(out, h1, gens, K, _h1_parity)
    return out


def _morphism_map(hfam):
    """The word map of H.  A checker reads it for its inner words and
    takes its outer words' images with ``window_word``, so it holds no
    image of an outer word of the window's full length."""
    if hfam.role != "h":
        raise ShapeError("morphism_H needs an h family")
    return _WordMap(hfam, _morphism_image, {(): _UNIT})


def _homotopy_map(h1, kfam, H0):
    """The word map of K, as _morphism_map gives that of H, with H0 the
    word map of h0's H."""
    if kfam.role != "k":
        raise ShapeError("homotopy_K needs a k family")
    return _WordMap(kfam, _homotopy_image, {(): {}}, (h1, H0))


def _word_maps(make, f1, f0):
    """The word maps make(f1) and make(f0) (delta or H) for a check whose
    families share one generator table (_one_table).  When f0 and f1 are
    the same family (equal role, constants and suspension), one map serves
    both, so each word's image is built once."""
    M1 = make(f1)
    same = (f0.role, f0.ops, f0.suspended) == (f1.role, f1.ops, f1.suspended)
    return M1, M1 if same else make(f0)


def _source_reader(D1, D0, top):
    """How a check reads delta(1) of its window words: by window_word, so
    no image of a word of the window's full length is held, unless
    delta(1) is delta(0)'s map, which reads that image next."""
    return D1.__getitem__ if D1 is D0 else partial(D1.window_word, top=top)


def _image_reader(D0):
    """How delta(0) reads the images of H or K: they are written from the
    shared generator table, so without interval labels every one is a
    valid word and none is validated."""
    return D0.checked if D0.fam.labelled else D0.__getitem__


def morphism_H(hfam, gens, d=0):
    """H(w) t^d, the morphism sum over the first blocks of w: each block u
    with constants contributes h_l(u) (x) H(v) for the rest v of w, with
    the first-block sign; the suffix images are computed once per call."""
    H = _morphism_map(hfam)
    hfam.validate_word(gens)
    return _times_t(_morphism_image(H, gens, None), d)


@paused()
def check_chain_map(hfam, m0, m1, window, keep=None):
    """Residues of H o delta(1) - delta(0) o H over basis words of the
    source complex (whose differential is m1), summed in one dict per
    word.  The images of H are validated as words of m0 by delta(0) when
    the table has interval labels.  No image of a word of the window's
    full length is held, but for delta(1) when it is delta(0)'s map: then
    delta(0) reads it next."""
    _one_table(hfam, m0, m1)
    H = _morphism_map(hfam)
    D1, D0 = _word_maps(_delta_map, m1, m0)
    inner, delta0, top = H.__getitem__, _image_reader(D0), window.qmax
    delta1 = _source_reader(D1, D0, top)

    def residue(gens):
        out = _comb_map(inner, delta1(gens))
        return _comb_map(delta0, H.window_word(gens, top), out, -1)

    return _run_over_words("chain-map", m1, window, residue, keep)


def homotopy_K(h0, h1, kfam, gens, d=0):
    """K(w) t^d over the first blocks u of w: k_l(u) (x) H0(v) and
    h1_l(u) (x) K(v), signed as H is and further by the homotopy position
    parity."""
    _one_table(h0, h1, kfam)
    K = _homotopy_map(h1, kfam, _morphism_map(h0))
    kfam.validate_word(gens)
    return _times_t(_homotopy_image(K, gens, None), d)


@paused()
def check_homotopy(h0, h1, kfam, m0, m1, window, keep=None):
    """Residues of H(1) - H(0) - K o delta(1) - delta(0) o K, summed in one
    dict per word; the H0 word map serves the outer H(0) and the tails of
    K.  When h0 and h1 are the same family they share one map and H(1) -
    H(0) is 0, so no outer H image is built.  As in check_chain_map, no
    image of a word of the window's full length is held, but for delta(1)
    when it is delta(0)'s map."""
    _one_table(h0, h1, kfam, m0, m1)
    H1, H0 = _word_maps(_morphism_map, h1, h0)
    K = _homotopy_map(h1, kfam, H0)
    D1, D0 = _word_maps(_delta_map, m1, m0)
    inner, delta0, top = K.__getitem__, _image_reader(D0), window.qmax
    delta1 = _source_reader(D1, D0, top)
    outer1, outer0 = partial(H1.window_word, top=top), partial(H0.window_word, top=top)

    def residue(gens):
        out = {}
        if H1 is not H0:
            word = {(gens, 0): 1}
            _comb_map(outer1, word, out)
            _comb_map(outer0, word, out, -1)
        _comb_map(inner, delta1(gens), out, -1)
        return _comb_map(delta0, K.window_word(gens, top), out, -1)

    return _run_over_words("homotopy", m1, window, residue, keep)


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


def _derivation_map(fam):
    """The dual derivation as a word map over the suspended family.  Its
    ``aux`` holds the transpose, per symbol its (pattern, dd, coef,
    labelled) entries, labelled saying whether the pattern holds an
    interval-labelled symbol, and the shifted degree mu - 1 per symbol."""
    bfam = fam if fam.suspended else suspend(fam)
    dual = {
        sym: [
            (rep, dd, coef, any(bfam.gens[s].label != "f" for s in rep))
            for (rep, dd), coef in reps.items()
        ]
        for sym, reps in opposite(bfam).items()
    }
    shifted = {s: mu - 1 for s, mu in bfam.coidx.items()}
    return _WordMap(bfam, _derivation_image, {(): {}}, (dual, shifted))


def _derivation_image(dmap, gens, tail):
    """d(gens): the transposed, suspended operation at each position j,
    signed by signs.delta_parity in its suspended branch on the running
    shifted degree of gens[:j - 1], which is koszul_apply(1, j, 1, shifted
    degrees).  A rewritten word is validated when its replacement pattern
    holds an interval-labelled symbol, as in delta.

    ``tail`` is not read: building d(x v) from d(v) would be the Leibniz
    rule itself, and check_leibniz would compare the rule with itself."""
    dual, shifted = dmap.aux
    fam = dmap.fam
    Q = len(gens)
    out = {}
    prefix = 0
    for j, s in enumerate(gens, 1):
        reps = dual.get(s)
        if reps:
            negate = delta_parity(Q, j, 1, prefix, True)
            head, rest = gens[: j - 1], gens[j:]
            for rep, dd, coef, labelled in reps:
                new = head + rep + rest
                if labelled:
                    fam.validate_word(new)
                _add_term(out, new, dd, -coef if negate else coef)
        prefix += shifted[s]
    return out


def dga_differential(fam, gens, d=0):
    """The dual derivation: apply the transposed, suspended operation at
    each position with the shifted-prefix Koszul sign.  The word is
    validated first."""
    return _times_t(_derivation_map(fam).checked(gens), d)


@paused()
def check_leibniz(fam, window):
    """d(x (x) y) = d(x) (x) y + (-1)^|x| x (x) d(y) with the shifted word
    degree |x| = sum (mu - 1), at every split of every window word; the
    residue sums the per-split residues.  One derivation map serves the
    whole word and both parts of every split; it holds no image of a word
    of the window's full length, which is no part of another window word.
    The split sign reads the running shifted degree of x through
    signs.koszul_sign, apart from the derivation's own sign.

    The dual derivation obeys this rule for every family by construction,
    so a pass says nothing about the family: the check tests the sign
    code of the derivation and of the split."""
    D = _derivation_map(fam)
    shifted = D.aux[1]
    whole = partial(D.window_word, top=window.qmax)

    def residue(gens):
        Q = len(gens)
        total = _comb_map(whole, {(gens, 0): Q - 1})
        prefix = 0
        for cut in range(1, Q):
            x, y = gens[:cut], gens[cut:]
            for (g2, d2), c in D[x].items():
                key = (g2 + y, d2)
                c = total.get(key, 0) - c
                if c:
                    total[key] = c
                else:
                    del total[key]
            prefix += shifted[x[-1]]
            sign = koszul_sign(1, (prefix,))
            for (g2, d2), c in D[y].items():
                key = (x + g2, d2)
                c = total.get(key, 0) - sign * c
                if c:
                    total[key] = c
                else:
                    del total[key]
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
