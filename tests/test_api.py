import types

import pytest

import stratumlab
from stratumlab import strata


def test_all_lists_exactly_the_public_names():
    public = {
        name
        for name in dir(stratumlab)
        if not name.startswith("_") and not isinstance(getattr(stratumlab, name), types.ModuleType)
    }
    assert len(stratumlab.__all__) == len(set(stratumlab.__all__))
    assert set(stratumlab.__all__) == public


def test_every_public_name_resolves():
    for name in stratumlab.__all__:
        getattr(stratumlab, name)  # raises if the table names the wrong module


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from stratumlab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(stratumlab.__all__)


def test_unknown_names_raise_attribute_error():
    for name in ("no_such_name", "no_such_module", "linalg.hs_norm"):
        with pytest.raises(AttributeError, match=name.replace(".", r"\.")):
            getattr(stratumlab, name)
    assert not hasattr(stratumlab, "__wrapped__")


def test_names_follow_a_rebinding_on_their_submodule(monkeypatch):
    # nothing is cached in the package, so a rebinding (as a tracer makes)
    # is seen while it lasts and gone once undone
    original = strata.classify
    monkeypatch.setattr(strata, "classify", lambda *args: "rebound")
    assert stratumlab.classify() == "rebound"
    monkeypatch.undo()
    assert stratumlab.classify is original
