"""The names the benchmark's tracer hooks into still exist.

``perfbench/tracing.py`` skips a traced name that the library no longer
has, so a rename would silently blank its per-layer metrics.  The module
is loaded from its file and only read.
"""

import importlib
import importlib.util
import os

import pytest

from clustercx import labelings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def tracing():
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_epsfrac_ops_resolve(tracing):
    assert tracing.EPSFRAC_OPS
    missing = [op for op in tracing.EPSFRAC_OPS if not hasattr(labelings.EpsFrac, op)]
    assert missing == []


def test_traced_names_resolve(tracing):
    missing = [
        "%s.%s" % (layer, name)
        for layer, names in tracing.TRACED.items()
        for name in names
        if not hasattr(importlib.import_module("clustercx." + layer), name)
    ]
    assert "chi_quilted" in tracing.TRACED["labelings"]
    assert missing == []
