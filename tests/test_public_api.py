"""Each module's `__all__` names exactly its public functions and classes,
no module reaches into another's private names, none imports scipy, and
every definition in src/ is named there or says who calls it."""

import ast
import importlib
import inspect
import pathlib
import pkgutil
from collections import Counter

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
    # _refit_block, the one routine that packs, fits, reads and judges a
    # block: no _block, no definition but _refit_block names fit_logits or
    # _statistic, and none names fit_logit
    path = next(path for path in SOURCES if path.stem == "attributable_risk")
    defs = list(_definitions(path))
    assert "_block" not in [name for name, _, _ in defs]
    assert [name for name, _, names in defs
            if names & {"fit_logits", "_statistic"}] == ["_refit_block"]
    assert [name for name, _, names in defs if "fit_logit" in names] == []


def test_one_json_writer():
    # stdout's document, ar_diagnostics.json and mc_summary.json are all
    # written by cli._json, which adds schema_version and refuses NaN
    path = next(path for path in SOURCES if path.stem == "cli")
    assert [name for name, _, names in _definitions(path)
            if names & {"dump", "dumps"}] == ["_json"]


def test_one_constant_column_rule():
    # a constant basis column is refused by build_basis on the rows and by
    # _refit_block on a replicate's support, both through
    # basis.constant_columns; attributable_risk.py maps no basis columns of
    # its own
    users = {(path.stem, name): names for path in SOURCES if path.stem != "errors"
             for name, _, names in _definitions(path) if "DegenerateColumn" in names}
    assert sorted(users) == [("attributable_risk", "_refit_block"), ("basis", "build_basis")]
    assert all("constant_columns" in names for names in users.values())
    path = next(path for path in SOURCES if path.stem == "attributable_risk")
    assert [name for name, _, names in _definitions(path) if "intercept_safe_mask" in names] == []


def test_one_mc_fitting_path_and_one_covariance_read_out():
    # synthetic.py fits its replicates through logit.fit_logits alone, and
    # inv(information) is read out in one definition of logit.py
    path = next(path for path in SOURCES if path.stem == "synthetic")
    assert [name for name, _, names in _definitions(path)
            if names & {"fit_nuisances", "fit_logit"}] == []
    path = next(path for path in SOURCES if path.stem == "logit")
    assert [name for name, node, _ in _definitions(path)
            if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                   and n.func.attr == "inv" and isinstance(n.func.value, ast.Name)
                   and n.func.value.id == "_linalg" for n in ast.walk(node))] == ["fit_logits"]


def _callers(path, callee):
    """The top-level definitions of a source file that call `callee` by name."""
    return [name for name, node, _ in _definitions(path)
            if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                   and n.func.id == callee for n in ast.walk(node))]


def test_one_newton_front_end():
    # every fit reaches the Newton loop through logit.fit_logits, which
    # fit_logit calls on a stack of one; no module keeps a second stacked
    # front end, fit_logit_batch, under any form
    assert [path.stem for path in SOURCES if "fit_logit_batch" in path.read_text()] == []
    path = next(path for path in SOURCES if path.stem == "logit")
    assert _callers(path, "_newton") == ["fit_logits"]
    assert _callers(path, "fit_logits") == ["fit_logit"]


STREAM_BUILDERS = {"SeedSequence", "PCG64", "default_rng"}
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_one_stream_derivation(path):
    # rng.py alone builds numpy seed sequences and generators, so the
    # (seed, purpose, index) rule is stated once; a loop takes its streams
    # from one RngSpec.streams range, not a derive call per pass
    if path.stem != "rng":
        names = {name for _, _, names in _definitions(path) for name in names}
        imported = {name.rsplit(".", 1)[-1] for name in _imports(path)}
        assert sorted((names | imported) & STREAM_BUILDERS) == []
    looped = [node.lineno for loop in ast.walk(ast.parse(path.read_text()))
              if isinstance(loop, LOOPS) for node in ast.walk(loop)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "derive"]
    assert looped == []


LOADS_NUMPY_MA = {f"{nan}{name}" for nan in ("", "nan")
                  for name in ("quantile", "percentile", "median")}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_no_module_calls_what_loads_numpy_ma(path):
    # np.quantile, np.percentile and np.median, and their nan forms, import
    # numpy.ma inside a command; the spline knots and the MC medians are
    # computed without them.  Any mention counts, a call or a reference
    names = {name for _, _, names in _definitions(path) for name in names}
    imported = {name.rsplit(".", 1)[-1] for name in _imports(path)}
    assert sorted((names | imported) & LOADS_NUMPY_MA) == []


SELF_DRAWING_CHECKS = {"_check_rare_disease_limit", "_check_mts_violation_detected"}


def test_one_table_of_identity_checks():
    # checks.py states once, in _CHECKS, which identity is checked on which
    # populations: the suite and check_population read the table and name
    # no family check themselves, and the table lists each family check once
    path = next(path for path in SOURCES if path.stem == "checks")
    bound = {}  # each top-level name: its definition, or its assigned value
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            bound[node.name] = node
        elif isinstance(node, ast.Assign):
            bound.update((t.id, node.value) for t in node.targets if isinstance(t, ast.Name))
    family = {name for name in bound if name.startswith("_check_")} - SELF_DRAWING_CHECKS
    assert len(family) == 12

    def checks_named(node):
        return [n.id for n in ast.walk(node)
                if isinstance(n, ast.Name) and n.id.startswith("_check_")]

    for reader in ("run_identity_suite", "check_population"):
        assert set(checks_named(bound[reader])) <= SELF_DRAWING_CHECKS, reader
    assert sorted(checks_named(bound["_CHECKS"])) == sorted(family)


def _opens(path):
    """(definition, mode) of every `open(...)` call in a source file; the
    mode is None where it is not a literal."""
    for name, node, _ in _definitions(path):
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) \
                    and call.func.id == "open":
                modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
                mode = modes[0].value if modes and isinstance(modes[0], ast.Constant) else "r"
                yield name, mode


def test_every_file_read_goes_through_one_reader():
    # model.open_csv is the one code that opens a file to read it, so every
    # input is decoded by one rule; any other open writes
    reads = [(path.stem, name) for path in SOURCES for name, mode in _opens(path)
             if "w" not in mode]
    assert reads == [("model", "open_csv")]


# definitions that nothing in src/ names, each with the reason it stays
NAMED_OUTSIDE_SRC = {
    **{("cli", command): "a click command, which `casebound` runs by its name"
       for command in ("demo", "rr", "ar", "oracle", "mc")},
    ("model", "export_csv"): "perfbench's worker writes its input files with it",
    ("synthetic", "sample_from_population"): "perfbench's worker draws its samples with it",
    ("relative_risk", "estimate_beta_plugin"): "criterion 5's estimator",
    ("model", "CountTable2x2.to_dataset"): "criterion 8 expands the paper's 2x2 tables with it",
    ("synthetic", "MCStudyResult.cell"): "criterion 2 reads its cells with it",
    ("fixtures", "benchmark_estimates"): "criterion 8 reads the paper's numbers from it",
    ("oracle", "save_population"): "the writer of the format load_population reads",
    ("oracle", "random_population"): "perfbench's worker and the tests draw one population "
                                     "with it; src/ draws stacks",
    ("rng", "RngSpec.derive"): "perfbench's worker and the tests derive one stream with it; "
                               "src/ loops open streams",
    ("rng", "_SeedWords.generate_state"): "numpy's PCG64 calls it for its seed words",
}


def _dunder(name):
    """A special method such as __post_init__, which Python calls itself."""
    return name.startswith("__") and name.endswith("__")


def _named(node):
    """How often each name is mentioned under `node`, as an ast.Name or an
    ast.Attribute; names in imports and in strings do not count."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _root(node):
    """The name a dotted receiver such as `np.linalg` starts from, or None."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _attributes(node, modules):
    """How often each name is mentioned under `node` as an attribute of
    something other than a module of `modules` or an attribute of one,
    which is how a method is named: `np.empty` does not name a method
    `empty`."""
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute) and _root(n.value) not in modules)


def _top_level_definitions(tree):
    """(qualified name, node) of each top-level function and class of a
    module, and of each method of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                yield from ((f"{node.name}.{m.name}", m) for m in node.body
                            if isinstance(m, ast.FunctionDef))


def test_every_definition_is_named_in_src():
    """Every top-level function and class of src/, and every method of its
    classes, is named somewhere in src/ outside its own definition, or
    NAMED_OUTSIDE_SRC says who calls it; a special method is left to
    Python.  A function or class counts as named by an ast.Name or an
    ast.Attribute, a method only by an ast.Attribute on something other
    than an imported module, so that `np.empty` or a local variable `cell`
    does not pass for a method of that name.  An import alias or an
    `__all__` string does not count as a use, and an allow-listed
    definition that src/ starts to name fails too.

    What remains open: the check goes by name, so a method passes when an
    attribute of that name is read off any object that is not a module.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    modules = {path.stem: {name for name, value in vars(
        importlib.import_module(f"casebound.{path.stem}")).items() if inspect.ismodule(value)}
        for path in SOURCES}
    mentions = sum((_named(tree) for tree in trees.values()), Counter())
    attributes = sum((_attributes(tree, modules[stem]) for stem, tree in trees.items()),
                     Counter())
    unnamed = sorted(
        (module, qualname) for module, tree in trees.items()
        for qualname, node in _top_level_definitions(tree) if not _dunder(node.name)
        and (attributes[node.name] == _attributes(node, modules[module])[node.name]
             if "." in qualname else mentions[node.name] == _named(node)[node.name]))
    assert unnamed == sorted(NAMED_OUTSIDE_SRC)
