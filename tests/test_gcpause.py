"""The cyclic garbage collector is paused while the library builds in bulk.

The library makes no reference cycles (``test_cycles.py``), so a
collection that runs while a check's word maps or a face poset grow frees
nothing.  Each paused site runs with the collector off and leaves it as
the caller had it: on stays on, off stays off, also when the call raises
and when pauses nest.
"""

import gc
import json
import sys
from functools import partial

import pytest

from clustercx import barcx as B, cli, indexcalc, strata
from clustercx.errors import ShapeError
from clustercx.gcpause import paused


@pytest.fixture
def collector():
    """Restores the collector's state after a test that switches it."""
    was = gc.isenabled()
    yield
    (gc.enable if was else gc.disable)()


def _set(on):
    (gc.enable if on else gc.disable)()


def _spy(monkeypatch, module, name, seen):
    """Record the collector's state at each call of module.name."""
    real = getattr(module, name)

    def spied(*args, **kwargs):
        seen.append(gc.isenabled())
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spied)


def _identity_h(fam):
    return B.OperationFamily(
        "h", list(fam.gens.values()), {1: {(s,): [(s, 0, 1)] for s in fam.gens}}, n=fam.n
    )


def _poly():
    return B.example_library()["polynomial"]


def _window():
    return B.TruncationWindow(qmax=3)


def _labelings():
    assert cli.main(["labelings", "--l", "3", "--c", "2", "--json"]) == 0


def _rows():
    # face_poset has returned when the rows are built, under their own pause
    assert strata.face_poset("K", 5, 0).rows


# site -> (module, the function it calls while paused, a call of the site)
SITES = {
    "check_a_infinity": (
        B, "_run_over_words", lambda: B.check_a_infinity(_poly(), _window())
    ),
    "check_gj_relations": (
        B, "_run_over_words", lambda: B.check_gj_relations(_poly(), _window())
    ),
    "check_unit": (B, "_run_over_words", lambda: B.check_unit(_poly(), "1", _window())),
    "check_chain_map": (
        B,
        "_run_over_words",
        lambda: B.check_chain_map(_identity_h(_poly()), _poly(), _poly(), _window()),
    ),
    "check_homotopy": (
        B,
        "_run_over_words",
        lambda: B.check_homotopy(
            _identity_h(_poly()),
            _identity_h(_poly()),
            B.OperationFamily("k", list(_poly().gens.values()), {}, n=2),
            _poly(),
            _poly(),
            _window(),
        ),
    ),
    "check_leibniz": (B, "_run_over_words", lambda: B.check_leibniz(_poly(), _window())),
    "face_poset": (strata, "_strata", lambda: strata.face_poset("K", 5, 0)),
    "FacePoset.rows": (strata, "_faces", _rows),
    "cli.main": (indexcalc, "enumerate_end_labelings", _labelings),
}


@pytest.mark.parametrize("on", [True, False])
@pytest.mark.parametrize("site", sorted(SITES))
def test_paused_inside_and_restored(collector, monkeypatch, capsys, site, on):
    module, callee, call = SITES[site]
    seen = []
    _spy(monkeypatch, module, callee, seen)
    _set(on)
    call()
    assert seen and not any(seen)
    assert gc.isenabled() is on


@pytest.mark.parametrize("site", sorted(SITES))
def test_nested_pause_keeps_the_collector_off(collector, capsys, site):
    _, _, call = SITES[site]
    gc.enable()
    with paused():
        call()
        assert not gc.isenabled()
    assert gc.isenabled()


@pytest.mark.parametrize("on", [True, False])
def test_a_raising_check_changes_nothing(collector, on):
    # _one_table refuses an h family on another generator table
    fam = _poly()
    other = B.OperationFamily("h", [B.Generator("z", 0)], {}, n=2)
    _set(on)
    with pytest.raises(ShapeError):
        B.check_chain_map(other, fam, fam, _window())
    assert gc.isenabled() is on
    with pytest.raises(ShapeError):
        with paused():
            B.check_chain_map(other, fam, fam, _window())
    assert gc.isenabled() is on


@pytest.mark.parametrize("on", [True, False])
def test_a_failing_command_changes_nothing(collector, capsys, tmp_path, on):
    p = tmp_path / "other.json"
    p.write_text(json.dumps({"ops": {"m": {}}, "generators": "ab"}))
    _set(on)
    assert cli.main(["check-ainf", str(p), "--qmax", "2", "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == "ShapeError"
    assert gc.isenabled() is on


PAUSE_CODE = paused.__wrapped__.__code__


def _ends_a_pause(frame):
    """Whether frame is the exit of a paused block: the collector counts
    the allocations it does not collect while paused, so the first one
    after the pause starts the young collection that the pause put off."""
    cm = frame.f_locals.get("self") if frame.f_code.co_name == "__exit__" else None
    return getattr(getattr(cm, "gen", None), "gi_code", None) is PAUSE_CODE


def _collections_during(fn):
    """The generations of the collections that start while fn() runs,
    but for those that start as a pause ends."""
    started = []

    def hook(phase, info):
        if phase == "start" and not _ends_a_pause(sys._getframe(1)):
            started.append(info["generation"])

    gc.collect()
    gc.callbacks.append(hook)
    try:
        fn()
    finally:
        gc.callbacks.remove(hook)
    return started


def _rows_of(poset):
    return lambda: poset.rows


# work -> a fresh call of it, its inputs built outside the call
BULK = {
    "check_a_infinity": lambda: partial(
        B.check_a_infinity, _poly(), B.TruncationWindow(qmax=5)
    ),
    "face_poset": lambda: partial(strata.face_poset, "K", 4, 2),
    "FacePoset.rows": lambda: _rows_of(strata.face_poset("K", 4, 2)),
}


@pytest.mark.parametrize("work", sorted(BULK))
def test_no_collection_during_bulk_work(collector, monkeypatch, work):
    gc.enable()
    assert _collections_during(BULK[work]()) == []
    # with the pause made a no-op the same work starts collections, so the
    # hook would see them
    monkeypatch.setattr(gc, "disable", lambda: None)
    assert _collections_during(BULK[work]())
