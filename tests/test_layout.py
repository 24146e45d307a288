"""The package's layering, read from the import statements of its sources."""

import ast
import collections
import dataclasses
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from sqbell import kernel
from sqbell import resources as rs

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sqbell"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def imported(module: str, directory: Path = SRC) -> set[str]:
    """Every module name `module` of `directory` imports, relative names
    resolved as the package's (`from . import x` gives both 'sqbell' and
    'sqbell.x')."""
    names = set()
    for node in ast.walk(ast.parse((directory / f"{module}.py").read_text())):
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


def test_kernel_makes_no_per_matrix_lapack_call():
    # every step of the kernel is elementwise over its batch, or a matmul;
    # np.linalg's per-matrix dispatch costs more than the 2x2 and 4x4
    # arithmetic it would do
    tree = ast.parse((SRC / "kernel.py").read_text())
    assert not any(isinstance(node, ast.Attribute) and node.attr == "linalg"
                   for node in ast.walk(tree))
    assert not any("linalg" in name for name in imported("kernel"))


def test_source_exponents_make_no_matrix_product():
    # S is written from its closed pair blocks, weighted entry by entry by
    # the beam splitters: no variable map multiplies another
    tree = ast.parse((SRC / "kernel.py").read_text())
    source, = (node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "source_exponents")
    assert not any(isinstance(node, ast.MatMult) for node in ast.walk(source))


def test_references_import_only_numpy_and_the_standard_library():
    # the covariance reference, the exact squeezed Bell map and the 50-digit
    # reference (on mpmath) share no code with the package they check
    tops = {name.split(".")[0] for reference in ("covariance", "bell_map", "mpgauss")
            for name in imported(reference, ROOT / "tests" / "reference")}
    assert tops <= set(sys.stdlib_module_names) | {"numpy", "mpmath"}


def test_only_the_fock_oracle_imports_scipy():
    assert [m for m in MODULES
            if any(name.split(".")[0] == "scipy" for name in imported(m))] == ["fock_sim"]


def modules_after(code: str, package: str) -> str:
    """The modules of `package` (it and its submodules) loaded once `code`
    has run in a fresh interpreter on this checkout's sources, as printed."""
    code += ("\nimport sys; print([m for m in sys.modules"
             f" if m == {package!r} or m.startswith({package + '.'!r})])")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip().splitlines()[-1]


# the Fock oracle's path: the lossy scheme for both detector kinds, every
# theoretical family, chi of a density and of a pure state
ORACLE_PATH = """
import warnings
import numpy as np
from sqbell import fock_sim as fs
from sqbell.resources import SchemeConfig
warnings.simplefilter("ignore")
for detector in ("ideal", "on-off"):
    cfg = SchemeConfig(r=0.3, s=0.05, T_loss=0.85)
    rho, _ = fs.scheme_oracle(cfg, detector, cutoff=8)
    fs.char_function_batch(rho, np.array([0.1, 0.2j]), np.array([0.3, -0.1]))
for family in ("twin-beam", "photon-subtracted", "photon-added", "squeezed-number"):
    state = fs.theoretical_oracle(family, 0.5, cutoff=20)
    fs.char_function_state(state, 0.1, 0.2j)
state = fs.theoretical_oracle("squeezed-bell", 0.5, 0.6, cutoff=20)
fs.char_function_state(state, 0.1, 0.2j)
"""


def test_package_and_cli_load_no_scipy_module():
    # scipy belongs to the Fock oracle's csr builders; the CLI, its
    # cross-check included, starts without it
    assert modules_after("import sqbell, sqbell.cli", "scipy") == "[]"


def test_fock_oracle_path_loads_no_scipy_module():
    # only the two csr builders load scipy, and the oracle calls neither
    assert modules_after(ORACLE_PATH, "scipy") == "[]"


def test_fock_oracle_path_loads_no_numpy_ma():
    # a plain np.unique(x) imports numpy.ma (through np.ma.is_masked), which
    # costs a fresh process 11-17 ms; the oracle calls np.unique only with
    # return_inverse, which does not
    assert modules_after(ORACLE_PATH, "numpy.ma") == "[]"


@pytest.mark.parametrize("module", [m for m in MODULES if m != "gauss_poly"])
def test_only_gauss_poly_imports_gauss_poly(module):
    assert "sqbell.gauss_poly" not in imported(module)


def test_only_its_own_tests_import_gauss_poly():
    # no test checks the package against the polynomial-Gaussian algebra
    tests = ROOT / "tests"
    importers = [path.relative_to(tests).as_posix()
                 for path in sorted(tests.rglob("*.py"))
                 if "sqbell.gauss_poly" in imported(path.stem, path.parent)]
    assert importers == ["test_gauss_poly.py"]


SCHEME_FIELDS = [f.name for f in dataclasses.fields(rs.SchemeConfig)]


def test_parameter_columns_follow_the_scheme_config_fields():
    # the kernel's rows are SchemeConfig's fields in its order, but for the
    # fields only some detector kinds read (the efficiencies), which follow
    # the source's so that a source reads the leading rows
    every_kind = set(rs.SCHEME_DETECTORS.values())
    detector_fields = {f for row in rs.SCHEME_FLAGS.values()
                       if row.detectors and set(row.detectors) != every_kind
                       for f in row.fields}
    assert detector_fields == {"eta3", "eta4"}
    assert kernel.SOURCE_FIELDS == tuple(f for f in SCHEME_FIELDS
                                         if f not in detector_fields)
    assert kernel.COLUMN_FIELDS == kernel.SOURCE_FIELDS + tuple(
        f for f in SCHEME_FIELDS if f in detector_fields)


def test_flag_table_sets_exactly_the_scheme_config_fields():
    # and the squeezed Bell angle, which no SchemeConfig holds
    named = {f for row in rs.SCHEME_FLAGS.values() for f in row.fields}
    assert named == set(SCHEME_FIELDS) | {"delta"}


def test_conditioning_imports_no_higher_layer():
    higher = {f"sqbell.{m}" for m in ("resources", "teleport", "optimize", "cli")}
    assert not imported("conditioning") & higher


def test_teleport_imports_nothing_from_the_kernel():
    # the closed-form fidelity is read from the state; the cubature
    # integrates chi only
    assert "sqbell.kernel" not in imported("teleport")


def test_fock_oracle_imports_none_of_the_paths_it_checks():
    checked = {f"sqbell.{m}" for m in ("kernel", "conditioning", "teleport",
                                       "optimize", "cli")}
    assert not imported("fock_sim") & checked


def test_cli_evaluates_scheme_points_only_through_the_optimizer_front_ends():
    # every scheme row of the CLI comes from sweep or optimize_s, and the
    # optimizer's lockstep driver stays private to them
    evaluators = {"sqbell.kernel.scheme_pf", "sqbell.kernel.columns_pf",
                  "sqbell.optimize._lockstep", "sqbell.optimize._search",
                  "sqbell.optimize._point", "sqbell.conditioning"}
    assert not imported("cli") & evaluators


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


def referenced(node: ast.AST) -> collections.Counter:
    """Every name `node` reads, as a variable, as an attribute or as a
    string that is exactly the name (the benchmark's tracer patches by
    name), counted, leaving out the entries of `__all__`."""
    names = collections.Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            names[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            names[n.value] += 1
        elif isinstance(n, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in n.targets):
            names.subtract(ast.literal_eval(n.value))
    return names


def package_definitions(path: Path):
    """The top-level functions and classes of `path`, and their classes'
    methods not named `__*__`, as (qualified name, name, node)."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item.name, item


def test_every_package_name_has_a_caller_outside_the_tests():
    # the package holds no API that only tests read: each function, class
    # and method is read by the package outside its own body, a script, the
    # benchmark or the acceptance module (an import reads nothing, and
    # gauss_poly, which has members no one calls, is left out).  Names are
    # matched by their short name, so one shared with a name in use hides:
    # a method `GaussianChar.evaluate` would pass unread, beside
    # gauss_poly.evaluate, which the benchmark's tracer patches by that name
    readers = [*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
               *(ROOT / "bench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    reads = sum((referenced(ast.parse(path.read_text())) for path in readers),
                collections.Counter())
    unread = [f"{path.stem}.{qualified}"
              for path in sorted(SRC.glob("*.py")) if path.stem != "gauss_poly"
              for qualified, name, node in package_definitions(path)
              if reads[name] <= referenced(node)[name]]
    assert unread == []


def bench_module(name: str) -> types.ModuleType:
    """A module of the benchmark, run from its source; no bytecode is
    written next to it."""
    path = ROOT / "bench" / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_bench_tracer_finds_every_name_it_traces():
    # the benchmark's tracer wraps sqbell functions by name, so a renamed or
    # deleted one fails here, not only in the traced benchmark run
    worker, tracing = bench_module("worker"), bench_module("tracing")
    sq = importlib.import_module("sqbell")
    modules = [importlib.import_module(f"sqbell.{name}") for name in worker.SQBELL_MODULES]
    before = [dict(vars(m)) for m in modules]
    tracer = tracing.Tracer()
    tracer.install(sq)
    try:
        wrapped = {m.__name__ for m, b in zip(modules, before)
                   if any(v is not b.get(k) for k, v in vars(m).items())}
    finally:
        tracer.uninstall()
    assert "sqbell.fock_sim" in wrapped
    for m, b in zip(modules, before):
        assert all(vars(m)[k] is v for k, v in b.items())
