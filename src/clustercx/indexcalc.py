"""Fredholm-index and cokernel bookkeeping over cluster types.

Everything here is exact integer arithmetic on eigenvalue-sign counts:
endpoint conditions are stored as co-index counts mu+ (the number of
positive Hessian directions, 0 <= mu+ <= n), boundary conditions as
Maslov integers, and reduction surgeries as cut-and-paste operations on
planar trees plus the counters (removed marks, interior incidences,
complex nodes) the index-drop inequalities consume.
"""

from itertools import combinations, combinations_with_replacement
from math import comb

from . import trees
from .errors import (
    CapError,
    DegenerateError,
    EdgeError,
    MonotoneError,
    RangeError,
    ShapeError,
    SurgeryError,
)
from .fields import REQUIRED, field, typed
from .trees import LEAF, PlanarTree, check_nonnegative, replace_vertex, vertex

# `clustercx labelings` peaks at about 250 B of RSS per labeling (75 MB for
# the 293,921 of --l 11 --c 9, 196 MB for the 817,181 of --l 13 --c 9), so
# the cap keeps a listing under about 250 MB.
MAX_LABELINGS = 1_000_000


class EndpointCondition:
    """Co-index counts at the root and each leaf of a cluster type."""

    def __init__(self, mu_root, mu_leaves, n=2):
        self.mu_root = int(mu_root)
        self.mu_leaves = tuple(int(m) for m in mu_leaves)
        self.n = n
        for m in (self.mu_root,) + self.mu_leaves:
            if not 0 <= m <= n:
                raise ShapeError("co-index %d outside 0..%d" % (m, n))


class BoundaryConditionIndex:
    """Total Maslov index with its per-disk contributions."""

    def __init__(self, per_disk, NL=2, monotone=False):
        self.per_disk = tuple(int(m) for m in per_disk)
        self.total = sum(self.per_disk)
        self.NL = NL
        if monotone:
            if NL < 1:
                raise RangeError("monotone needs NL >= 1 (got NL=%d)" % NL)
            for m in self.per_disk:
                if m < 0 or m % NL:
                    raise MonotoneError(
                        "disk contribution %d not in %d*Z>=0" % (m, NL)
                    )


def _maslov_total(muF):
    if isinstance(muF, BoundaryConditionIndex):
        return muF.total
    return int(muF)


def _as_tree(ct):
    if isinstance(ct, PlanarTree):
        return ct
    return ct.stratum.tree


def index_cr(ct, ec, muF, interior_incidences=0):
    """Index of the linearized operator over a cluster type:
    mu+(root) - sum of leaf mu+ + Maslov, minus ec.n per interior
    incidence point and per complex node."""
    tree = _as_tree(ct)
    l = tree.num_leaves
    if len(ec.mu_leaves) != l:
        raise ShapeError(
            "endpoint condition has %d leaves, type has %d"
            % (len(ec.mu_leaves), l)
        )
    return (
        ec.mu_root
        - sum(ec.mu_leaves)
        + _maslov_total(muF)
        - ec.n * interior_incidences
        - ec.n * getattr(ct, "n_complex_nodes", 0)
    )


def coker_dim(ct, l, k):
    """Cokernel dimension of the tangent-space inclusion at a cluster
    type: ambient dimension (the corolla's) minus one per breaking and real
    node and two per complex node.  The two unstable smooth cases are an
    isomorphism ((0,0)) and a one-dimensional kernel ((1,0))."""
    ambient = trees.corolla_dim(l, k)
    if ambient < 0:
        if (l, k) == (0, 0) or (l, k) == (1, 0):
            return 0
        raise DegenerateError("unstable parameters (%d, %d)" % (l, k))
    value = ambient - ct.n_breakings - ct.n_real_nodes - 2 * ct.n_complex_nodes
    if value < 0:
        raise DegenerateError(
            "overdegenerate type: %d breakings/%d real/%d complex on "
            "ambient dimension %d"
            % (ct.n_breakings, ct.n_real_nodes, ct.n_complex_nodes, ambient)
        )
    return value


def kernel_dim(l, k):
    """Kernel of the same inclusion: one translation direction survives
    exactly in the (1, 0) case."""
    return 1 if (l, k) == (1, 0) else 0


def trajectory_index(mu_minus, mu_plus, muF):
    """mu(x-) - mu(x+) + mu(F)."""
    return int(mu_minus) - int(mu_plus) + _maslov_total(muF)


def trajectory_energy(muF, tau, NL):
    """Energy exponent d with omega = tau * mu(F) = d * tau * N_L."""
    total = _maslov_total(muF)
    if total % NL:
        raise MonotoneError(
            "Maslov %d not divisible by N_L = %d" % (total, NL)
        )
    return total // NL


# -- reduction surgeries -----------------------------------------------------


class ClusterSurgeryRecord:
    """Before/after trees plus the counters the audit inequalities use."""

    def __init__(
        self,
        before,
        after,
        tag,
        removed_marks=0,
        interior_incidences=0,
        complex_nodes=0,
    ):
        self.before = before
        self.after = after
        self.tag = tag
        self.removed_marks = removed_marks
        self.interior_incidences = interior_incidences
        self.complex_nodes = complex_nodes

    @property
    def trivial(self):
        return (
            self.after.root == self.before.root
            and self.removed_marks == 0
            and self.complex_nodes == 0
            and self.interior_incidences == 0
        )


def _vertex_at(tree, path):
    try:
        return tree.vertex_at(path)
    except EdgeError:
        raise SurgeryError("no vertex at path %r" % (path,))


def _prune_leafless(v):
    i, col, slots = v
    kept = []
    for s in slots:
        if s == LEAF:
            kept.append(s)
            continue
        sub = _prune_leafless(s)
        if sub is not None:
            kept.append(sub)
    if not kept:
        return None
    return vertex(i, col, tuple(kept))


def reduce(ct, spec):
    """Apply one elementary (or generalized) reduction.

    spec is a dict with a ``type`` tag:
      I     -- {"type": "I", "disk": path, "d": int}: the disk's interior
               marks are divided by the covering degree d (d | k(D)).
      IIa   -- {"disk": D2 path, "dest": D1 path, "at": slot}: remove the
               higher disk D2 together with its root line and reattach
               the lines above it to D1 at the given slot position.
      IIb   -- {"disk": D2 path, "dest": child slot of D2, "at": slot}:
               remove the lower disk D2; its direct child D1 takes its
               place and inherits D2's other branches at slot ``at``.
      III   -- {}: keep only the union of root-to-leaf cores, dropping
               every leafless side branch.
      gen-I / gen-II / gen-III -- bookkeeping-only records carrying
               {"removed_marks", "interior_incidences", "complex_nodes"}.
    """
    before = _as_tree(ct)
    typed(spec, dict, "a surgery spec", error=SurgeryError)

    def read(key, typ, default=REQUIRED):
        return field(spec, key, typ, key, default, error=SurgeryError)

    tag = spec.get("type")
    if tag == "I":
        path = tuple(read("disk", [int], ()))
        d = read("d", int, 1)
        i, col, slots = _vertex_at(before, path)
        if d < 1 or (d > 1 and (i == 0 or i % d)):
            raise SurgeryError(
                "type I needs d | k(D); got d=%d, k(D)=%d" % (d, i)
            )
        new_v = vertex(i // d, col, slots)
        after = replace_vertex(before, path, new_v)
        return ClusterSurgeryRecord(
            before, after, "I(%d)" % d, removed_marks=i - i // d
        )
    if tag == "IIa":
        path = tuple(read("disk", [int]))
        dest = tuple(read("dest", [int]))
        at = read("at", int, 0)
        if not path:
            raise SurgeryError("type IIa cannot remove the root disk")
        if dest == path or dest[: len(path)] == path:
            raise SurgeryError("destination lies inside the removed disk")
        i, col, slots = _vertex_at(before, path)
        parent, idx = path[:-1], path[-1]
        pi, pcol, pslots = _vertex_at(before, parent)
        dropped = replace_vertex(
            before, parent, vertex(pi, pcol, pslots[:idx] + pslots[idx + 1 :])
        )
        # paths before the removed slot are unchanged; the destination
        # must not pass through the removed branch
        if dest[: len(parent)] == parent and len(dest) > len(parent):
            step = dest[len(parent)]
            if step > idx:
                dest = dest[: len(parent)] + (step - 1,) + dest[len(parent) + 1 :]
        di, dcol, dslots = _vertex_at(dropped, dest)
        if not 0 <= at <= len(dslots):
            raise SurgeryError("slot position %d out of range" % at)
        new_dest = vertex(di, dcol, dslots[:at] + slots + dslots[at:])
        after = replace_vertex(dropped, dest, new_dest)
        return ClusterSurgeryRecord(
            before, after, "IIa", removed_marks=i
        )
    if tag == "IIb":
        path = tuple(read("disk", [int]))
        child = read("dest", int)
        at = read("at", int, 0)
        i, col, slots = _vertex_at(before, path)
        if not 0 <= child < len(slots) or slots[child] == LEAF:
            raise SurgeryError("type IIb needs a disk child to promote")
        ci, ccol, cslots = slots[child]
        rest = slots[:child] + slots[child + 1 :]
        if not 0 <= at <= len(cslots):
            raise SurgeryError("slot position %d out of range" % at)
        new_v = vertex(ci, ccol, cslots[:at] + rest + cslots[at:])
        after = replace_vertex(before, path, new_v)
        return ClusterSurgeryRecord(
            before, after, "IIb", removed_marks=i
        )
    if tag == "III":
        pruned = _prune_leafless(before.root)
        if pruned is None:
            raise SurgeryError("type III needs at least one leaf")
        after = PlanarTree(pruned)
        return ClusterSurgeryRecord(
            before,
            after,
            "III",
            removed_marks=before.num_marks - after.num_marks,
        )
    if tag in ("gen-I", "gen-II", "gen-III"):
        counts = {
            key: read(key, int, 0)
            for key in ("removed_marks", "interior_incidences", "complex_nodes")
        }
        return ClusterSurgeryRecord(before, before, tag, **counts)
    raise SurgeryError("unknown surgery type %r" % (tag,))


def reduction_index_audit(rec, assumed_index, n=3, NL=2):
    """Walk the index-drop argument for one reduction record.

    Inputs: the assumed trajectory index (must satisfy the a-priori bound
    <= -(l-2)+1), the target dimension n and minimal Maslov N_L >= 2.
    Output: the chain of inequalities with the final quotient-index bound
    2k(r(C)) - 1 (minus (n-1)N when n <= 2) and whether the forced
    cokernel contradiction applies.
    """
    l = rec.before.num_leaves
    k_before = rec.before.num_marks
    k_after = rec.after.num_marks
    if rec.tag.startswith("gen"):
        k_after = k_before - rec.removed_marks
    apriori = -(l - 2) + 1
    applicable = assumed_index <= apriori and not rec.trivial and NL >= 2
    # monotone drop: a nontrivial reduction removes at least one disk
    # contribution, each a positive multiple of N_L >= 2
    index_drop = 2 if applicable else 0
    index_after = assumed_index - index_drop
    # Ind over the reduced source: minus the dimension of its corolla
    source_index = -trees.corolla_dim(l, k_after)
    quotient_bound = index_after - source_index
    penalty = (n - 1) * rec.interior_incidences if n <= 2 else 0
    final_bound = 2 * k_after - 1 - penalty
    kernel_lower = 2 * k_after
    return {
        "applicable": applicable,
        "l": l,
        "k_before": k_before,
        "k_after": k_after,
        "assumed_index": assumed_index,
        "apriori_bound": apriori,
        "index_drop": index_drop,
        "quotient_index_bound": min(quotient_bound, final_bound)
        if applicable
        else None,
        "final_bound": final_bound if applicable else None,
        "kernel_lower_bound": kernel_lower,
        "forces_cokernel": applicable and final_bound < kernel_lower,
    }


# -- end labelings -----------------------------------------------------------


def count_end_labelings(l, c, family):
    """``len(enumerate_end_labelings(l, c, family))`` in closed form: the
    C(l+c+1, l+1) chains less c merged constants, or C(l+c, l) maps."""
    check_nonnegative(l=l, c=c)
    if family == "otimes":
        return comb(l + c + 1, l + 1) - c
    if family == "bullet":
        return comb(l + c, l)
    raise ShapeError("family must be otimes or bullet")


def enumerate_end_labelings(l, c, family):
    """All end labelings of length l over colors 0..c (or 1..c+1).

    Chained-pair labelings are stored as the underlying chain
    j_0 <= j_1 <= ... <= j_l <= c, with the constant (trivial) chains
    identified to the single all-zero representative.  Pointed labelings
    are the maps {1..l} -> {1..c+1} whose values below c+1 are strictly
    increasing.  The list is sorted.  More than MAX_LABELINGS raise
    CapError before any is built.
    """
    n = count_end_labelings(l, c, family)
    if n > MAX_LABELINGS:
        raise CapError(
            "%d %s labelings, above the cap of %d" % (n, family, MAX_LABELINGS)
        )
    if family == "otimes":
        # the chains come in lexicographic order, the all-zero one first
        out = [(0,) * (l + 1)]
        out += (
            chain
            for chain in combinations_with_replacement(range(c + 1), l + 1)
            if chain[0] != chain[-1]
        )
        return out
    out = []
    for r in range(min(l, c) + 1):
        for at in combinations(range(l), r):
            for small in combinations(range(1, c + 1), r):
                vals = [c + 1] * l
                for p, j in zip(at, small):
                    vals[p] = j
                out.append(tuple(vals))
    out.sort()
    return out


def induced_component_labeling(lab, intervals, family, c=None):
    """Labeling induced on an irreducible component.

    ``intervals`` lists, one per component leaf in planar order, the
    range (lo, hi) of input positions lying above that leaf (inclusive);
    an empty attachment between positions p and p+1 is written (p+1, p).
    Positions run 1..l, where a chain has l + 1 values and a pointed
    labeling l; an interval reaching past l is a ShapeError.
    Chained labelings restrict to the chain values just outside each
    range; pointed labelings take the label of the lowest position above
    (or c+1 for a leafless branch).
    """
    prev_hi = 0
    for lo, hi in intervals:
        if lo - 1 < prev_hi or (hi >= lo and lo < 1):
            raise ShapeError("intervals must be increasing and disjoint")
        prev_hi = max(prev_hi, hi, lo - 1)
    if family not in ("otimes", "bullet"):
        raise ShapeError("family must be otimes or bullet")
    if family == "bullet" and c is None:
        raise ShapeError("pointed induction needs c")
    # the last input position, l: a chain holds l + 1 values
    if prev_hi > len(lab) - (family == "otimes"):
        raise ShapeError("interval beyond the labeling length")
    if family == "bullet":
        return tuple(lab[lo - 1] if hi >= lo else c + 1 for lo, hi in intervals)
    new = [lab[intervals[0][0] - 1] if intervals else lab[0]]
    new += [lab[hi] if hi >= lo else lab[lo - 1] for lo, hi in intervals]
    return (0,) * len(new) if len(set(new)) == 1 else tuple(new)
