"""The package's module layering, read from each module's relative imports."""

import ast
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
# classical overlay, so neither of these modules needs the other
@pytest.mark.parametrize("module, forbidden", [
    ("quantum", "classical"),
    ("shift", "quantum"),
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


# the tau loop runs no complex exponential: apply_phase takes cos and sin of
# a real angle
@pytest.mark.parametrize("function", ["phase_and_displacement", "apply_phase",
                                      "derivative"])
def test_per_tau_kernels_call_no_exp(function):
    every = calls_outside("_kernels", "", {"exp"})
    assert every  # not vacuous: the position transform still calls np.exp
    assert hasattr(turning_frame._kernels, function)
    assert set(every) == set(calls_outside("_kernels", function, {"exp"}))


# one propagation: Phi(tau) - Phi(start), then apply_phase, is
# _kernels.advance; only the tau loop of a series, which keeps Phi in its
# workspace, calls apply_phase itself
def test_one_propagation_function():
    for module in ("model", "spectral"):
        assert calls_outside(module, "", {"advance"}), module  # not vacuous
        assert calls_outside(module, "", {"apply_phase", "phase_profile"}) == [], module
    assert calls_outside("quantum", "", {"apply_phase"})  # not vacuous
    assert calls_outside("quantum", "expectation_series", {"apply_phase"}) == []


def test_one_finiteness_guard():
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        names = {node.name for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)}
        names |= {alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert "_require_finite_tau" not in names, path.name
