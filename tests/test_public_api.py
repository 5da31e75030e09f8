"""Each module's `__all__` names exactly its public functions and classes,
no module reaches into another's private names, and none imports scipy."""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import casebound

MODULES = [info.name for info in pkgutil.iter_modules(casebound.__path__)
           if hasattr(importlib.import_module(f"casebound.{info.name}"), "__all__")]
SOURCES = sorted(pathlib.Path(casebound.__file__).parent.glob("*.py"))


def test_package_all_resolves():
    assert [name for name in casebound.__all__ if not hasattr(casebound, name)] == []


@pytest.mark.parametrize("name", MODULES)
def test_module_all_matches_public_names(name):
    module = importlib.import_module(f"casebound.{name}")
    listed = set(module.__all__)
    assert sorted(n for n in listed if not hasattr(module, n)) == []
    defined = {n for n, obj in vars(module).items()
               if not n.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__}
    assert sorted(defined - listed) == []


def _private_imports(path):
    """(module, name) of every `_`-prefixed name a module imports from
    another casebound module."""
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (
                node.module or "").split(".")[0] == "casebound"):
            for alias in node.names:
                if alias.name.startswith("_") and alias.name != "__version__":
                    yield node.module, alias.name


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_no_module_imports_a_private_name(path):
    assert list(_private_imports(path)) == []


def _imports(path):
    """Every module a source file imports, and every name it imports from
    one, as dotted paths, at any depth."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_no_module_imports_scipy(path):
    # the package runs on numpy alone; scipy is a test dependency
    assert [name for name in _imports(path) if name.split(".")[0] == "scipy"] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_only_logit_calls_the_lapack_gufuncs(path):
    # the Newton kernel in logit.py is the one place that factorises
    lapack = "numpy.linalg._umath_linalg" in set(_imports(path))
    assert lapack == (path.stem == "logit")


AR_KERNELS = {"ar_term_formula", "gamma_ar_formula"}


def _definitions(path):
    """The top-level definitions of a source file (functions, and classes
    with their methods, by name; any other statement as "<module>") and
    the names and attributes each one's body mentions, imports left out."""
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            yield getattr(node, "name", "<module>"), node, names


def _kernel_users(path):
    """The top-level definitions of a source file whose bodies name an AR
    kernel of oracle.py."""
    for name, _, names in _definitions(path):
        if names & AR_KERNELS:
            yield path.stem, name


def test_one_attributable_risk_statistic():
    # outside oracle.py, the only code that evaluates r * Gamma_AR or xi is
    # attributable_risk._statistic; the identity suite's use is the oracle
    # checking its own bound cell by cell on a population law
    users = sorted(user for path in SOURCES if path.stem != "oracle"
                   for user in _kernel_users(path))
    assert users == [("attributable_risk", "_statistic"),
                     ("checks", "_check_cp_bound_linear")]


def test_one_refit_path():
    # attributable_risk.py refits the sample and every replicate through
    # _refit_block, whose blocks alone call _block and fit_logit_batch: no
    # definition names fit_logit, and only _refit_block calls _block
    path = next(path for path in SOURCES if path.stem == "attributable_risk")
    defs = list(_definitions(path))
    assert [name for name, _, names in defs if "fit_logit" in names] == []
    assert [name for name, node, _ in defs
            if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                   and n.func.id == "_block" for n in ast.walk(node))] == ["_refit_block"]
