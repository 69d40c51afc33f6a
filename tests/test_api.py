import ast
import inspect
import pathlib
import subprocess
import sys
import types

import pytest

import stratumlab
from stratumlab import linalg, orbits, states, strata, whitney


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


def _random_references(path):
    """(line, function) of each reference to numpy.random in a module:
    np.random / numpy.random attributes and imports from numpy.random,
    with the name of the function they sit in ("" at module level)."""
    tree = ast.parse(path.read_text())
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute):
            hit = node.attr == "random" and getattr(node.value, "id", None) in ("np", "numpy")
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            hit = module.startswith("numpy.random") or (
                module == "numpy" and any(a.name == "random" for a in node.names)
            )
        elif isinstance(node, ast.Import):
            hit = any(a.name.startswith("numpy.random") for a in node.names)
        else:
            hit = False
        if hit:
            found.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "")
    return found


def test_only_uniform_rows_reads_the_random_streams(tmp_path):
    # every seeded draw goes through streams._uniform_rows, whose two
    # evaluators are the package's own port of SeedSequence and PCG64: no
    # module references numpy.random, which only the tests use as a reference
    modules = sorted(pathlib.Path(stratumlab.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    refs = {p.name: _random_references(p) for p in modules}
    assert {name: found for name, found in refs.items() if found} == {}
    # the scan finds each form of reference
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy.random\nfrom numpy import random\n"
        "def draw():\n    return np.random.default_rng(0)\n"
    )
    assert _random_references(probe) == [(1, ""), (2, ""), (4, "draw")]


SUITES_IN_A_FRESH_PROCESS = """
import sys
import numpy
# numpy before 2.0 imports numpy.random and numpy.ma with numpy itself; there
# the generators refuse instead, so that a suite drawing from them still fails
preloaded = "numpy.random" in sys.modules
preloaded_ma = "numpy.ma" in sys.modules
if preloaded:
    def refuse(*args, **kwargs):
        raise AssertionError("a suite called numpy.random")
    for name in ("default_rng", "Generator", "PCG64", "SeedSequence", "RandomState"):
        setattr(numpy.random, name, refuse)
from stratumlab import verify
verify.suite_whitney(max_dim=3, trials=3, seed=7)
verify.suite_frontier(samples=3, seed=7)
verify.suite_join(samples=20, seed=7)
verify.suite_orbit_census(draws=300, seed=7)
verify.suite_projector_equiv(samples=20, seed=7)
assert preloaded or "numpy.random" not in sys.modules, "a suite loaded numpy.random"
# numpy.ma (which np.unique and its kin import on first use) costs about
# 20 ms and over 1 MB of memory to load
assert preloaded_ma or "numpy.ma" not in sys.modules, "a suite loaded numpy.ma"
"""


def test_suites_never_load_numpy_random():
    # every suite at a small size, in a process of its own: the draws of
    # fewer than STREAM_PORT_ROWS rows included, none reaches numpy.random
    # or numpy.ma
    run = subprocess.run([sys.executable, "-c", SUITES_IN_A_FRESH_PROCESS], capture_output=True,
                         text=True)
    assert run.returncode == 0, run.stderr


def test_fixed_tolerances_are_not_parameters():
    # each of these decides at one named module constant
    fixed = (linalg.eigh_fixed, linalg.check_frame, states.AlgebraDescriptor.contains,
             orbits.adjoint_act, states.is_psd_eigen, states.is_psd_sylvester,
             whitney.secant_direction_stack, whitney.secant_direction)
    assert [f.__name__ for f in fixed if "tol" in inspect.signature(f).parameters] == []


def test_readme_quick_tour_runs():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    tour = readme.read_text().split("## Library quick tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md quick tour", "exec"), namespace)
    assert namespace["label"].per_block == (1, 2)
    assert linalg.hs_norm(namespace["back"].matrix - namespace["g"].matrix) <= 1e-12
