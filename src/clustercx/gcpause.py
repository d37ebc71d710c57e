"""The cyclic garbage collector, paused while the library builds in bulk.

The library's word maps and face posets are large acyclic data, and the
library leaves no reference cycles behind (``tests/test_cycles.py`` pins
this), so a collection that runs while they grow frees nothing: it only
rescans what was built so far.  ``paused`` switches the collector off for
a block or a decorated call and restores the caller's state afterwards,
also when the call raises.  The collector is process-wide: other threads
run without it while a paused call runs.
"""

import gc
from contextlib import contextmanager


@contextmanager
def paused():
    """The collector off inside the block (or the decorated call), as the
    caller had it after.  When it is off already this does nothing and
    restores nothing, so a nested pause is cheap."""
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
