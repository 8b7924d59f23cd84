"""The package's module layering, read from each module's relative imports."""

import ast
import inspect
from pathlib import Path

import pytest

import turning_frame

PACKAGE = Path(turning_frame.__file__).parent


def relative_imports(module: str) -> set[str]:
    """The sibling modules that ``from .x import ...`` lines name."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return {node.module.split(".")[0] for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module}


def test_relative_imports_are_read():
    assert relative_imports("shift") >= {"model", "classical"}


# the series carries its anchor to the shift fit and the CLI computes the
# classical overlay, so neither of these modules needs the other; the domain
# types build states at tau = 0 and propagate nothing, so they need no kernel
@pytest.mark.parametrize("module, forbidden", [
    ("quantum", "classical"),
    ("shift", "quantum"),
    ("model", "_kernels"),
])
def test_module_does_not_import(module, forbidden):
    assert forbidden not in relative_imports(module)


def calls_outside(module: str, function: str, attrs: set[str]) -> list[int]:
    """Lines of ``module`` calling ``x.<attr>(...)`` outside ``function``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    inside = {id(node) for top in tree.body
              if isinstance(top, ast.FunctionDef) and top.name == function
              for node in ast.walk(top)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in attrs and id(node) not in inside]


# one quadrature rule: switching it (say to trapezoid end weights) edits
# model._integral alone
def test_node_sums_go_through_integral():
    assert len(calls_outside("model", "", {"sum", "reduce"})) == 1  # not vacuous
    for module in ("model", "quantum"):
        assert calls_outside(module, "_integral", {"sum", "reduce"}) == [], module


# no whole-grid complex exponential runs per tau: apply_phase takes cos and
# sin of a real angle, and the nodes past their exit enter a series as
# tau-invariant range sums weighted by cos and sin of one angle per tau
@pytest.mark.parametrize("function", ["phase_and_displacement", "apply_phase",
                                      "derivative"])
def test_per_tau_kernels_call_no_exp(function):
    every = calls_outside("_kernels", "", {"exp"})
    assert every  # not vacuous: the position transform still calls np.exp
    assert hasattr(turning_frame._kernels, function)
    assert set(every) == set(calls_outside("_kernels", function, {"exp"}))


def reached(module: str, function: str) -> list[ast.AST]:
    """The nodes of ``function`` and of every function of ``module`` it
    calls by name, transitively."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    defs = {top.name: top for top in tree.body if isinstance(top, ast.FunctionDef)}
    todo, seen, nodes = [function], set(), []
    while todo:
        name = todo.pop()
        if name in seen or name not in defs:
            continue
        seen.add(name)
        for node in ast.walk(defs[name]):
            nodes.append(node)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                todo.append(node.func.id)
    return nodes


def callee(node: ast.Call) -> str | None:
    """The name a call calls: ``f`` of ``f(...)`` and of ``x.f(...)``."""
    return getattr(node.func, "attr", getattr(node.func, "id", None))


def masks(nodes) -> list[int]:
    """Lines of calls with a ``where=`` select or to ``argmax`` or
    ``before_exit``: the marks of a whole-grid branch mask."""
    return [node.lineno for node in nodes if isinstance(node, ast.Call) and (
        any(k.arg == "where" for k in node.keywords)
        or callee(node) in {"argmax", "before_exit"})]


# every phase kernel and the propagation find their branches as index
# ranges of the ascending nodes; classical_position_profile, which keeps its
# before_exit mask, shows that the guard would see one
@pytest.mark.parametrize("function", ["phase_profile", "phase_and_displacement",
                                      "advance"])
def test_per_tau_phase_runs_on_ranges_not_masks(function):
    assert masks(reached("_kernels", "classical_position_profile"))  # not vacuous
    nodes = reached("_kernels", function)
    assert nodes and masks(nodes) == []


def moduli(nodes) -> list[int]:
    """Lines of calls to ``abs``, ``absolute`` or ``hypot``: a complex modulus."""
    return [node.lineno for node in nodes if isinstance(node, ast.Call)
            and callee(node) in {"abs", "absolute", "hypot"}]


# a norm or a variance sums |z|^2 as the squares of the float64 view, with no
# hypot per tau; _reference, whose density and truncation term the golden
# bytes read, shows that the guard would see NumPy's abs
@pytest.mark.parametrize("module, function", [("model", "_norm"),
                                              ("quantum", "_variance")])
def test_norm_and_variance_take_no_modulus(module, function):
    assert moduli(reached("quantum", "_reference"))  # not vacuous
    nodes = reached(module, function)
    assert nodes and moduli(nodes) == []


# one propagation: _kernels.advance carries amplitudes from start to tau.
# The tau loop of a series runs no per-tau step: it evolves only its tail,
# by apply_phase of the Phi it keeps in its workspace, and takes the nodes
# past their exit from the free-flight range sums.
def test_one_propagation_function():
    for module in ("spectral", "quantum"):
        assert calls_outside(module, "", {"advance"}), module  # not vacuous
    for module in ("model", "spectral"):
        assert calls_outside(module, "", {"apply_phase", "phase_profile"}) == [], module
    assert calls_outside("quantum", "", {"apply_phase"})  # not vacuous
    assert calls_outside("quantum", "expectation_series", {"apply_phase"}) == []
    for name in ("phase_step", "plane_wave", "spin"):
        assert not hasattr(turning_frame._kernels, name), name


# one trajectory: q(tau) and both sheets of q(phi) read its closed forms from
# _kernels.classical_position_profile, so only the rate takes a root itself
def test_classical_roots_only_in_q_rate():
    assert calls_outside("classical", "", {"sqrt"})  # not vacuous
    assert calls_outside("classical", "q_rate", {"sqrt"}) == []


# one numeric route: quantum stencils a state only inside _statistics, and
# the modulus of the truncation term only inside _boundary_term
def test_one_numeric_route():
    every = set(calls_outside("quantum", "", {"derivative"}))
    inside = {name: every - set(calls_outside("quantum", name, {"derivative"}))
              for name in ("_statistics", "_boundary_term")}
    assert inside["_statistics"] and inside["_boundary_term"]  # not vacuous
    assert every == inside["_statistics"] | inside["_boundary_term"]


def workspace_builders() -> set[tuple[str, str | None]]:
    """(module, top-level function) of every ``Workspace(...)`` call in the
    package; a call outside any function has the name None."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            if any(isinstance(node, ast.Call) and callee(node) == "Workspace"
                   for node in ast.walk(top)):
                found.add((path.stem, getattr(top, "name", None)))
    return found


# the kernels write into the arrays they are given, as NumPy's out=: a
# Workspace is the phase kernel's arrays and nothing else, with one builder,
# and no all-None record stands for "allocate"; the series keeps its own
# buffers
def test_workspace_is_built_only_for_the_tau_loop():
    assert workspace_builders() == {("_kernels", "workspace")}
    workspace = turning_frame._kernels.Workspace
    assert workspace._fields == ("p2", "p3", "cubic", "exit", "phi", "d", "u", "s")
    assert workspace._field_defaults == {}
    assert not hasattr(turning_frame._kernels, "_FRESH")


def parameters(module: str, function: str) -> list[str]:
    return list(inspect.signature(getattr(getattr(turning_frame, module),
                                          function)).parameters)


@pytest.mark.parametrize("module, function", [("_kernels", "apply_phase"),
                                              ("_kernels", "derivative"),
                                              ("quantum", "_statistics")])
def test_array_kernels_take_their_arrays_not_a_workspace(module, function):
    assert "ws" in parameters("_kernels", "phase_and_displacement")  # not vacuous
    assert parameters(module, function) and "ws" not in parameters(module, function)


# one start: a series runs from f, the amplitudes at tau = 0, so the
# free-flight sums take no scale to start from
def test_free_flight_takes_no_start():
    assert "start" in parameters("_kernels", "advance")  # not vacuous
    assert "taus" in parameters("_kernels", "free_flight")
    assert "start" not in parameters("_kernels", "free_flight")


def test_one_finiteness_guard():
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        names = {node.name for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)}
        names |= {alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert "_require_finite_tau" not in names, path.name
