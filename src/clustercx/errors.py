"""Shared error taxonomy.

Every module raises subclasses of ClusterCxError so callers can catch one
base class; the CLI maps them onto exit code 1, input files that are not
JSON or hold a malformed field included.  Exit code 2 is kept for the
command line only: unknown flags, bad flag values and files that cannot
be opened.
"""


class ClusterCxError(Exception):
    pass


class StabilityError(ClusterCxError):
    """Requested parameters do not admit a stable configuration."""


class CapError(ClusterCxError):
    """Enumeration request exceeds the hard combinatorial caps."""


class EdgeError(ClusterCxError):
    """An edge reference does not name an interior edge of the tree."""


class ShapeError(ClusterCxError):
    """Mismatched shapes: leaf counts, arity windows, endpoint counts."""


class OrderError(ClusterCxError):
    """A contraction witness or planar marking order is invalid."""


class DegenerateError(ClusterCxError):
    """A chart denominator vanished."""


class RangeError(ClusterCxError):
    """A numeric argument lies outside its documented range."""


class ShuffleError(ClusterCxError):
    """A permutation violates the fixed-prefix shuffle condition."""


class BlockError(ClusterCxError):
    """A tensor word violates the ordered-block label constraint."""


class MonotoneError(ClusterCxError):
    """A Maslov contribution is incompatible with the monotone flag."""


class SurgeryError(ClusterCxError):
    """A reduction surgery is not applicable to the given cluster type."""


class GhostCornerError(ClusterCxError):
    """A ghost-bearing corner is an identification locus, not a product."""


class BalanceError(ClusterCxError):
    """An edge labeling on a colored tree is not balanced."""
