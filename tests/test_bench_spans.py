"""The benchmark's traced run (``bench/spans.py``) wraps package functions
by name; a name that no longer resolves crashes ``bench/run.py --trace 1``."""

import importlib
import pathlib

import pytest

import rarecc.methods
import rarecc.search

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def test_tracer_wraps_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    originals = {(mod, attr): getattr(importlib.import_module(mod), attr)
                 for mod, attr, _, _ in spans.WRAPS}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (mod, attr), orig in originals.items():
            assert getattr(importlib.import_module(mod), attr) is not orig, (mod, attr)
    finally:
        tracer.uninstall()
    for (mod, attr), orig in originals.items():
        assert getattr(importlib.import_module(mod), attr) is orig, (mod, attr)


def test_wrapped_stubs_raise():
    # three WRAPS names are stubs of code the cut loop replaced, kept only
    # until the tracer stops wrapping them by name
    for stub in (rarecc.search.maximize_over_simplex, rarecc.search.nelder_mead,
                 rarecc.methods.solve_lp):
        with pytest.raises(NotImplementedError):
            stub()
