"""The package's layering, read from the import statements of its sources."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sqbell"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def imported(module: str) -> set[str]:
    """Every module name `module` imports, relative names resolved
    (`from . import x` gives both 'sqbell' and 'sqbell.x')."""
    names = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "sqbell" if node.level else ""
            base = ".".join(filter(None, (base, node.module)))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_kernel_imports_only_numpy_and_the_standard_library():
    tops = {name.split(".")[0] for name in imported("kernel")}
    assert tops <= set(sys.stdlib_module_names) | {"numpy"}


@pytest.mark.parametrize("module", [m for m in MODULES if m != "gauss_poly"])
def test_only_gauss_poly_imports_gauss_poly(module):
    assert "sqbell.gauss_poly" not in imported(module)


def test_conditioning_imports_no_higher_layer():
    higher = {f"sqbell.{m}" for m in ("resources", "teleport", "optimize", "cli")}
    assert not imported("conditioning") & higher


def test_fock_oracle_imports_none_of_the_paths_it_checks():
    checked = {f"sqbell.{m}" for m in ("kernel", "conditioning", "teleport",
                                       "optimize", "cli")}
    assert not imported("fock_sim") & checked
