"""Readers for the fields of JSON input files.

Every file the command line reads (trees, labelings, marked disks, cluster
types, operation families) and the ``reduce``/``audit`` surgery spec is
read through these functions.  Each returns the value it is given when
that value has the expected form, and otherwise raises ``error``
(ShapeError, unless the caller names another ClusterCxError) with the
field's path ``at`` in the message.  An ``int`` here is never a ``bool``.
"""

import re
from fractions import Fraction

from .errors import ShapeError

REQUIRED = object()
_NAMES = {bool: "a boolean", int: "an integer", str: "a string", list: "a list",
          dict: "an object"}


def typed(value, typ, at, nullable=False, error=ShapeError):
    """``value`` when its JSON type is ``typ`` (or it is null and
    ``nullable``); a one-element list ``[t]`` as ``typ`` reads a list of
    ``t`` by ``items``."""
    if type(value) is typ or (value is None and nullable):
        return value
    if type(typ) is list:
        return items(value, typ[0], at, error)
    null = " or null" if nullable else ""
    raise error("%s must be %s%s, not %r" % (at, _NAMES[typ], null, value))


def field(obj, key, typ, at, default=REQUIRED, nullable=False, error=ShapeError):
    """``obj[key]`` read by ``typed``, or ``default`` when the key is
    absent; "<at> is missing" when a required key is absent."""
    value = obj.get(key, default)
    if value is REQUIRED:
        raise error("%s is missing" % at)
    return typed(value, typ, at, nullable, error)


def items(value, typ, at, error=ShapeError):
    """``value`` when it is a list of ``typ`` (a tuple, from a Python
    caller, reads as a list too)."""
    if type(value) in (list, tuple) and all(type(v) is typ for v in value):
        return value
    kind = _NAMES[typ].split()[1]
    raise error("%s must be a list of %ss, not %r" % (at, kind, value))


def pairs(value, at, names):
    """``value`` when it is a list of two-element lists, the ``[names]``
    pairs of the message."""
    if type(value) is list and all(type(p) is list and len(p) == 2 for p in value):
        return value
    raise ShapeError("%s must be a list of [%s] pairs, not %r" % (at, names, value))


_RATIONAL = re.compile(r"[+-]?(?:[0-9]+(?:/[0-9]+|\.[0-9]*)?|\.[0-9]+)")


def rational(value, at, error=ShapeError):
    """The rational that the string ``value`` denotes: an integer "p", a
    fraction "p/q" with q != 0 or a plain decimal such as "0.25".  Other
    forms ``Fraction`` reads, such as "1e999999999" (whose value it would
    build digit by digit), are refused before it sees them."""
    if type(value) is str and _RATIONAL.fullmatch(value):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise error("%s must be a string p/q with q != 0, not %r" % (at, value))


def edge(key, at):
    """The edge that the id ``key`` names: slot indices joined by dots,
    such as "0.1", or "" for the root."""
    parts = key.split(".") if key else ()
    if all(p.isdecimal() for p in parts):
        return tuple(map(int, parts))
    raise ShapeError("%s must be an edge id such as '0.1', not %r" % (at, key))
