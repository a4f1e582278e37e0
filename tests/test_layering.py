"""Checks of the package's structure: each module imports only the modules
listed above it in the layering of the package docstring and nothing
outside the standard library, no module imports from the tests, no module
or test file imports a name it never uses, no function picks its backend
by an argument, no module carries the field arithmetic over Q(i)(s)
or the number type Q(i) that the tests keep as their reference, no
module names a retired function, and a fixed list of commands calls every
function and method the package defines, but a listed few."""

import ast
import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

import pytest

import elliptica
from elliptica import cli, elliptic

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
    """Every name a module defines, imports (under its own name and any
    alias) or reads, attributes included."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            out.add(node.name)
        elif isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(alias.name for alias in node.names)
            out.update(alias.asname for alias in node.names if alias.asname)
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
                 "_retry_draws",
                 # entry points that no command reached: the tests build the
                 # Z- and W_i-series from laurent_sum, em_fun takes its
                 # adapted data from normalized_residues, and the exact
                 # EM_eps, the j-factor and the Pfaffian are the tests'
                 # references (tests/series_reference.py,
                 # tests/numeric_reference.py)
                 "z_exact", "witten_exact", "em_eps_exact", "adapted_k",
                 "AdaptedKError", "has_eigenvalue_minus_one", "same_point",
                 "recode", "concat", "j_factor", "pfaffian"}


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
                     "_retry_draws = None\n"
                     "from .zem import z_exact, em_eps_exact, adapted_k\n"
                     "from .witten import witten_exact as w\n"
                     "class AdaptedKError(ValueError): pass\n"
                     "class RotationData:\n"
                     "    def recode(self, j): pass\n"
                     "    def concat(self, other): pass\n"
                     "x = zeta.has_eigenvalue_minus_one() or g.same_point(h)\n"
                     "__all__ += ['j_factor', 'pfaffian']\n")
    assert _names_and_strings(tree) >= RETIRED_NAMES


# every def in the package is reached by a command: the seeded argvs below,
# run through cli.main under sys.setprofile, cover each subcommand and call
# every function and method but these, each kept for its reason
_DUNDER = ("a value type's protocol method: the tests and interactive use "
           "compare, hash and print values; no report does")
_RAISED = ("an exception's constructor: runs only where the error it carries "
           "data for is raised, on input none of the argvs gives")
_IMPORTED = "builds the catalog when fixedpoint is imported, before any command"
_FORKED = ("runs only where a suite forks its workers, on 100 trials or more "
           "and 2 CPUs or more; tests/test_zem.py runs it")
UNREACHED = {
    "qseries.PSeries.__eq__": _DUNDER,
    "qseries.PSeries.__hash__": _DUNDER,
    "qseries.PSeries.__repr__": _DUNDER,
    "qseries.PSeries.__str__": _DUNDER,
    "ring.RationalFunctionQi.__eq__": _DUNDER,
    "ring.RationalFunctionQi.__hash__": _DUNDER,
    "ring.RationalFunctionQi.__repr__": _DUNDER,
    "ring.PoleEvaluationError.__init__": _RAISED,
    "witten.WittenDenominatorError.__init__": _RAISED,
    "elliptic.PoleError.__init__": _RAISED,
    "zem.SpecialCollisionError.__init__": _RAISED,
    "fixedpoint.ManifoldValidationError.__init__": _RAISED,
    "fixedpoint.linear_points": _IMPORTED,
    "fixedpoint.product_points": _IMPORTED,
    "zem._fork_share": _FORKED,
    "zem.IdentityReport.merge": _FORKED,
}


def _command_argvs(tmp):
    """(argv, exit code) pairs covering every subcommand and the inputs that
    reach the rest of the package: a manifold file, one whose index is not a
    Laurent polynomial, a twist whose index has a gcd to divide out, --at
    and --out."""
    lone = tmp / "lone.json"
    lone.write_text(json.dumps({"name": "lone", "half_dim": 1,
                                "points": [{"weights": [1]}]}))
    dumped = str(tmp / "s2.json")
    return [
        (["verify", "--suite", "all", "--trials", "3", "--seed", "1",
          "--q-order", "4"], 0),
        (["verify", "--suite", "K-transfer,allW", "--trials", "2", "--seed", "2",
          "--tol", "1e-6", "--dims", "4", "--out", str(tmp / "verify.json")], 0),
        (["index", "--manifold", "cp3", "--twist", "tangent_witten",
          "--q-order", "2", "--at", "0.2+0.01j", "--tau", "0.1+1.1j"], 0),
        (["index", "--manifold", "s2", "--at", "0.2"], 0),
        (["index", "--manifold", "cp3_alt", "--twist", "s2t"], 0),
        (["index", "--manifold", "cp3", "--twist", "lambda3t"], 0),
        (["index", "--manifold", str(lone)], 1),
        (["rigidity", "--manifold", "cp3", "--q-order", "2"], 0),
        (["special", "--manifold", "s2xs2xs2"], 0),
        (["expand", "--phi", "2", "--q-order", "3", "--at", "0.2"], 0),
        (["catalog"], 0),
        (["catalog", "--dump", "s2", "--out", dumped], 0),
        (["index", "--manifold", dumped], 0),
    ]


def _package_sources():
    """{module: (path, source)} for every module of the package."""
    return {name: (str(SRC / f"{name}.py"),
                   (SRC / f"{name}.py").read_text(encoding="utf-8"))
            for name in ["__init__", *MODULES]}


def _defined_functions(sources):
    """{(path, first line): 'module.Qual.name'} for every def in ``sources``,
    methods and nested functions included.  A decorated function's first
    line is its first decorator's, as in its code object."""
    out = {}

    def walk(body, path, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                walk(node.body, path, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                out[(path, first)] = f"{prefix}{node.name}"
                walk(node.body, path, f"{prefix}{node.name}.")

    for name, (path, text) in sources.items():
        walk(ast.parse(text).body, path, f"{name}.")
    return out


def _run_commands(argvs):
    """The exit codes of ``argvs`` run through cli.main, and (path, first
    line) of every function code they call."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    # a cached series would hide the functions that build it
    elliptic.phi_exact.cache_clear()
    previous = sys.getprofile()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(hook)
        try:
            codes = [cli.main(argv) for argv in argvs]
        finally:
            sys.setprofile(previous)
    return codes, {(os.path.realpath(path), line) for path, line in seen}


def _unreached(sources, reached):
    return {name for key, name in _defined_functions(sources).items()
            if key not in reached}


def test_every_function_is_reached_by_a_command(tmp_path):
    argvs, codes = zip(*_command_argvs(tmp_path))
    got, reached = _run_commands(argvs)
    assert got == list(codes)
    unreached = _unreached(_package_sources(), reached)
    # a def that no command calls, and an entry that a command now reaches
    # or that names no def
    assert sorted(unreached - UNREACHED.keys()) == []
    assert sorted(UNREACHED.keys() - unreached) == []


def test_reachability_reader_flags_an_added_function():
    """The check above is not vacuous: a function added to a module is
    flagged, while one a command calls is not."""
    sources = _package_sources()
    path, text = sources["cli"]
    sources["cli"] = (path, text + "\n\ndef _never_called():\n    pass\n")
    codes, reached = _run_commands([["catalog"]])
    assert codes == [0]
    unreached = _unreached(sources, reached)
    assert "cli._never_called" in unreached
    assert "cli.cmd_catalog" not in unreached and "cli.main" not in unreached
