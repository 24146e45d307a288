"""The package's layering, read from the import statements of its sources."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sqbell"
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


def unused_imports(path: Path) -> list[str]:
    """The module-level imports of `path` that nothing in it loads, other
    than names listed in `__all__`, `__future__` features and imports
    marked `# noqa: F401` (re-exports)."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    return unused


def test_no_unused_module_level_imports():
    files = sorted(f for d in ("src/sqbell", "tests", "scripts")
                   for f in (ROOT / d).rglob("*.py"))
    assert len(files) > 20
    assert [u for f in files for u in unused_imports(f)] == []
