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
