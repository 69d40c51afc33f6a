import ast
import pathlib
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


def _unused_imports(path):
    """(line, name) of each name a module imports and never reads."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_modules_read_every_name_they_import():
    # the package's __init__ imports to re-export, so it is not scanned
    modules = sorted(pathlib.Path(stratumlab.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    unused = {p.name: _unused_imports(p) for p in modules if p.name != "__init__.py"}
    assert {name: found for name, found in unused.items() if found} == {}
