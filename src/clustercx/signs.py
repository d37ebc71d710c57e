"""Orientation and sign calculus for facet maps and graded tensor words.

Every function here computes a parity exactly over the integers.  The two
grading conventions in play are the plain degree mu (with the explicit
Getzler-Jones correction terms) and the shifted degree mu - 1 per tensor
factor, related by the suspension sign.
"""

from .errors import RangeError, ShapeError, ShuffleError


def _pm(parity):
    return -1 if parity % 2 else 1


def sign_concat(l1, j, l2):
    """Facet sign for attaching an l2-slot component at slot j of an
    l1-slot component: (-1)^((l1-j)*l2 + (j-1))."""
    if not 1 <= j <= l1:
        raise RangeError("slot j=%d out of range 1..%d" % (j, l1))
    return _pm((l1 - j) * l2 + (j - 1))


def sign_lower_quilt(l1, j, l2):
    """Sign of the quilted facet where an unquilted component bubbles off
    at slot j: (-1)^((l1-j)*l2 + j).  Always -sign_concat."""
    if not 1 <= j <= l1:
        raise RangeError("slot j=%d out of range 1..%d" % (j, l1))
    return _pm((l1 - j) * l2 + j)


def sign_upper_quilt(ls):
    """Sign of the quilted facet with quilted components of slot counts
    ls = (l^(1), ..., l^(q)) under an unquilted root:
    (-1)^(sum_i (q-i)(l^(i)-1))."""
    ls = list(ls)
    if not ls:
        raise RangeError("need at least one component")
    q = len(ls)
    return _pm(sum((q - i) * (ls[i - 1] - 1) for i in range(1, q + 1)))


def first_block_parity(l, head_degree, r, tail_degree):
    """Parity of putting an arity-l block first, before a tail of r blocks,
    in a quilted block sum: the part r*(l-1) of sign_upper_quilt that the
    first block adds, plus the Koszul parity of moving the tail's
    operations, of total degree tail_degree, past the first block's
    inputs, of total degree head_degree.  Folding it from the last block
    gives sign_upper_quilt times every block's koszul_apply sign."""
    return (r * (l - 1) + head_degree * tail_degree) % 2


def perm_parity(perm):
    """Parity (0 or 1) of a permutation given as a tuple of 1-based images."""
    perm = list(perm)
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise ShapeError("not a permutation of 1..%d: %r" % (n, perm))
    seen = [False] * n
    parity = 0
    for s in range(n):
        if seen[s]:
            continue
        length = 0
        c = s
        while not seen[c]:
            seen[c] = True
            c = perm[c] - 1
            length += 1
        parity ^= (length - 1) & 1
    return parity


def sign_bullet(l1, p_min, l2, sigma):
    """Unordered-marking facet sign: the concatenation sign at slot p_min
    times the parity of the induced leaf shuffle sigma, which must fix
    1..p_min pointwise."""
    for j in range(1, min(p_min, len(sigma)) + 1):
        if sigma[j - 1] != j:
            raise ShuffleError(
                "shuffle must fix positions 1..%d, got sigma(%d)=%d"
                % (p_min, j, sigma[j - 1])
            )
    return sign_concat(l1, p_min, l2) * _pm(perm_parity(sigma))


def koszul_sign(op_degree, prefix_degrees):
    """Sign for moving a graded operation past the listed tensor factors."""
    return _pm(op_degree * sum(prefix_degrees))


def koszul_apply(op_degree, j, arity, degrees):
    """Sign of applying an arity-window operation at position j of a word
    with the given factor degrees: (-1)^(deg(op) * sum_{i<j} deg(x_i))."""
    if j < 1 or j - 1 + arity > len(degrees):
        raise ShapeError(
            "window [%d, %d) overflows word of length %d"
            % (j, j + arity, len(degrees))
        )
    return koszul_sign(op_degree, degrees[: j - 1])


def delta_parity(q_out, j, l, prefix_degree, suspended):
    """Parity of the arity-l operation at position j of the word
    differential, with q_out factors in the output word and prefix_degree
    the degree sum of the factors before j.  Plain degrees mu give the
    parity of sign_concat(q_out, j, l) times koszul_apply(l, j, l, degrees);
    shifted degrees mu - 1 (``suspended``) give that of
    koszul_apply(1, j, l, shifted degrees).  It has two readers: the word
    differential, in either convention, and the dual derivation of the
    Leibniz check, in the suspended branch at l = 1."""
    if suspended:
        return prefix_degree % 2
    return ((q_out - j) * l + (j - 1) + l * prefix_degree) % 2


def epsilon_gj(j, l1, l2, degrees):
    """Getzler-Jones parity for the inner arity-l2 operation at position j
    inside an outer arity-l1 operation:
    l2*(mu(x_1)+...+mu(x_{j-1})) + (j-1)(l2-1) + (l1-1)*l2, mod 2."""
    if len(degrees) < j - 1:
        raise ShapeError("need at least %d prefix degrees" % (j - 1))
    return (l2 * sum(degrees[: j - 1]) + (j - 1) * (l2 - 1) + (l1 - 1) * l2) % 2


def epsilon_bar(j, suspended_degrees):
    """Suspended-convention parity: (mu-1 degrees of the prefix) + (j-1)."""
    if len(suspended_degrees) < j - 1:
        raise ShapeError("need at least %d prefix degrees" % (j - 1))
    return (sum(suspended_degrees[: j - 1]) + (j - 1)) % 2


def suspension_parity(degrees):
    """Parity of the degree shift s^(-l) applied to a word: moving the i-th
    desuspension past the first i-1 inputs gives sum_i (l-i)*mu(x_i)."""
    l = len(degrees)
    return sum((l - i) * degrees[i - 1] for i in range(1, l + 1)) % 2


def suspension_sign(degrees):
    return _pm(suspension_parity(degrees))
