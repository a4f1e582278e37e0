"""Static checks of the package: each module imports only the modules
listed above it in the layering of the package docstring and nothing
outside the standard library, no module imports from the tests, no module
or test file imports a name it never uses, no function picks its backend
by an argument, no module carries the field arithmetic over Q(i)(s)
or the number type Q(i) that the tests keep as their reference, and no
module names the retired consistency check."""

import ast
import re
import sys
from pathlib import Path

import pytest

import elliptica

SRC = Path(elliptica.__file__).resolve().parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
TESTS = Path(__file__).resolve().parent
TEST_FILES = sorted(p.stem for p in TESTS.glob("*.py"))


def _layering():
    """Module names in the order of the package docstring's layering."""
    block = elliptica.__doc__.split("Layering", 1)[1]
    names = re.findall(r"^    (\w+)  ", block, flags=re.MULTILINE)
    assert sorted(names) == MODULES, names
    return names


def _tree(name, root=SRC):
    return ast.parse((root / f"{name}.py").read_text(encoding="utf-8"))


def _package_imports(tree):
    """The sibling modules a module imports, at any depth of its body."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    return out


@pytest.mark.parametrize("name", MODULES)
def test_imports_follow_the_layering(name):
    order = _layering()
    above = set(order[: order.index(name)])
    assert _package_imports(_tree(name)) <= above


def test_layering_reader_sees_imports():
    """The check above is not vacuous: witten imports a layer above it."""
    assert {"ring", "qseries"} <= _package_imports(_tree("witten"))


def _absolute_imports(tree):
    """The top-level names of the modules a module imports absolutely."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.add(node.module.split(".")[0])
    return out


@pytest.mark.parametrize("name", ["__init__", *MODULES])
def test_package_does_not_import_the_tests(name):
    """The references under tests/ stay out of the package."""
    assert not _absolute_imports(_tree(name)) & {"tests", *TEST_FILES}


def test_test_import_reader_sees_the_reference():
    """The check above is not vacuous: the tests import their reference."""
    assert "series_reference" in _absolute_imports(_tree("test_qseries", TESTS))


def _unused_imports(tree):
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                bound[local] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(name for name in bound if name not in used)


@pytest.mark.parametrize(
    "name, root",
    [*((name, SRC) for name in ["__init__", *MODULES]),
     *((name, TESTS) for name in TEST_FILES)],
    ids=[*["__init__", *MODULES], *(f"tests/{name}" for name in TEST_FILES)],
)
def test_no_unused_imports(name, root):
    assert _unused_imports(_tree(name, root)) == []


def test_unused_import_reader_flags_a_dead_name():
    tree = ast.parse("from .ring import RingError, poly_valuation\n"
                     "x = poly_valuation\n")
    assert _unused_imports(tree) == ["RingError"]


# each backend and each computation has its own functions (phi_exact /
# phi_numeric, z_fun / z_character): a parameter with one of these names
# would choose between them
SWITCHES = {"backend", "exact", "route", "divided"}


def _switch_parameters(tree):
    """(function name, parameter) for every function, method or lambda that
    takes a parameter named in SWITCHES."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            names = [x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                     a.vararg, a.kwarg) if x is not None]
            out += [(getattr(node, "name", "<lambda>"), n)
                    for n in names if n in SWITCHES]
    return out


@pytest.mark.parametrize("name", ["__init__", *MODULES])
def test_no_backend_switch_parameters(name):
    assert _switch_parameters(_tree(name)) == []


def test_switch_reader_flags_a_backend_parameter():
    tree = ast.parse("def f(x, backend='exact'):\n    pass\n"
                     "class C:\n    def g(self, *, exact=False):\n        pass\n"
                     "h = lambda z, route='character': z\n"
                     "def r(term, m, order, divided=False):\n    pass\n")
    assert _switch_parameters(tree) == [("f", "backend"), ("r", "divided"),
                                        ("g", "exact"), ("<lambda>", "route")]


# the general field arithmetic over Q(i)(s) lives in the tests' references;
# the package reduces over Z[s] only (RationalFunctionQi.from_integer_laurent)
FIELD_FUNCTIONS = {"poly_gcd", "poly_divmod", "_reduce", "reduce"}
FIELD_METHODS = {"__add__", "__mul__", "__truediv__", "inverse", "__pow__"}
VALUE_TYPES = {"ring": "RationalFunctionQi", "qseries": "PSeries"}


def _definitions(tree):
    """Names bound by def or assignment: {'': module and function level,
    class name: that class's body}."""
    out = {"": set()}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            names = out.setdefault(node.name, set())
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(item.name)
                elif isinstance(item, ast.Assign):
                    names.update(t.id for t in item.targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out[""].add(node.name)
    return out


@pytest.mark.parametrize("name", ["__init__", *MODULES])
def test_package_has_no_field_arithmetic(name):
    defined = _definitions(_tree(name))
    assert not defined[""] & FIELD_FUNCTIONS
    if name in VALUE_TYPES:
        assert not defined[VALUE_TYPES[name]] & FIELD_METHODS


def test_field_arithmetic_reader_sees_the_reference():
    """The check above is not vacuous: the references define what it bans."""
    ring_ref = _definitions(_tree("ring_reference", TESTS))
    series_ref = _definitions(_tree("series_reference", TESTS))
    assert {"poly_gcd", "poly_divmod", "reduce"} <= ring_ref[""]
    assert FIELD_METHODS <= ring_ref["RF"]
    assert {"__add__", "__mul__"} <= series_ref["PS"]
    assert "ps_invert" in series_ref[""]
    # and the value types it reads are there
    assert "from_integer_laurent" in _definitions(_tree("ring"))["RationalFunctionQi"]
    assert "to_json" in _definitions(_tree("qseries"))["PSeries"]


# an exact coefficient is a quotient of integer polynomials: the number type
# Q(i), the fractions it is built on, and the scaling of a value by one of
# its numbers live in the references only
SCALING_METHODS = {"scale", "map_coefficients"}


def _names(tree):
    """Every name a module defines, imports or reads, attributes included."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            out.add(node.name)
        elif isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(alias.asname or alias.name for alias in node.names)
    return out


@pytest.mark.parametrize("name", ["__init__", *MODULES])
def test_package_has_no_gaussian_rationals(name):
    tree = _tree(name)
    assert "GaussianRational" not in _names(tree)
    assert "fractions" not in _absolute_imports(tree)
    if name in VALUE_TYPES:
        assert not _definitions(tree)[VALUE_TYPES[name]] & SCALING_METHODS


def test_gaussian_rational_reader_sees_the_reference():
    """The check above is not vacuous: the reference defines and uses what
    it bans, and the package exports none of it."""
    ring_ref = _tree("ring_reference", TESTS)
    assert "GaussianRational" in _definitions(ring_ref)
    assert "GaussianRational" in _names(ring_ref)
    assert "fractions" in _absolute_imports(ring_ref)
    assert "scale" in _definitions(_tree("series_reference", TESTS))["PS"]
    assert "GaussianRational" not in elliptica.__all__


def _third_party_imports(tree):
    """Imported top-level modules outside the standard library, counting
    ``pytest.importorskip("name")`` as an import of ``name``."""
    names = _absolute_imports(tree)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "importorskip"
                and node.args and isinstance(node.args[0], ast.Constant)):
            names.add(node.args[0].value.split(".")[0])
    return names - set(sys.stdlib_module_names)


@pytest.mark.parametrize("name", ["__init__", *MODULES])
def test_package_imports_only_the_standard_library(name):
    assert _third_party_imports(_tree(name)) == set()


def test_stdlib_reader_sees_the_oracles():
    """The check above is not vacuous: the oracle tests import sympy and
    mpmath."""
    assert {"sympy", "mpmath"} <= _third_party_imports(_tree("test_oracles", TESTS))


# the identity suites fork their workers with os.fork and send results back
# through a pipe with marshal; a process pool or pickle would add about 1.7 MB
# and a few ms to every command's start
WORKER_MODULES = {"multiprocessing", "concurrent", "pickle", "subprocess"}


@pytest.mark.parametrize("name", ["__init__", *MODULES])
def test_package_imports_no_worker_pool(name):
    assert not _absolute_imports(_tree(name)) & WORKER_MODULES


def test_worker_pool_reader_sees_each_form():
    """The check above is not vacuous: it sees a dotted import and a
    from-import."""
    tree = ast.parse("import concurrent.futures\nimport pickle\n"
                     "from multiprocessing import Pool\nimport subprocess\n")
    assert _absolute_imports(tree) >= WORKER_MODULES


# the local-vs-direct comparison at non-special points, retired because its
# two sides agree term by term for any weights, so it passed on data that
# is not rigid; `rigidity` is the check of the manifold
RETIRED_NAMES = {"consistency_check", "ConsistencyReport", "SpecialPointError",
                 "cmd_consistency",
                 # usage errors take one path, cli.UsageError, and a trial's
                 # tau draws are retried in zem._run_trial alone
                 "_UnwritableOut", "_cannot_evaluate", "_load_or_exit",
                 "_retry_draws"}


def _names_and_strings(tree):
    """``_names`` and every string constant, such as the entries of
    ``__all__``."""
    return _names(tree) | {node.value for node in ast.walk(tree)
                           if isinstance(node, ast.Constant)
                           and isinstance(node.value, str)}


@pytest.mark.parametrize("name", ["__init__", *MODULES])
def test_retired_names_stay_out(name):
    assert not _names_and_strings(_tree(name)) & RETIRED_NAMES


def test_retired_name_reader_flags_each_form():
    """The check above is not vacuous: it sees an import, a class, a
    function and an ``__all__`` entry."""
    tree = ast.parse("from .fixedpoint import SpecialPointError\n"
                     "class ConsistencyReport: pass\n"
                     "def cmd_consistency(args): pass\n"
                     "__all__ = ['consistency_check']\n"
                     "_UnwritableOut = _cannot_evaluate = _load_or_exit = "
                     "_retry_draws = None\n")
    assert _names_and_strings(tree) >= RETIRED_NAMES
