"""Static checks of the package's imports: each module imports only the
modules listed above it in the layering of the package docstring, and no
module imports a name it never uses."""

import ast
import re
from pathlib import Path

import pytest

import elliptica

SRC = Path(elliptica.__file__).resolve().parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def _layering():
    """Module names in the order of the package docstring's layering."""
    block = elliptica.__doc__.split("Layering", 1)[1]
    names = re.findall(r"^    (\w+)  ", block, flags=re.MULTILINE)
    assert sorted(names) == MODULES, names
    return names


def _tree(name):
    return ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))


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


@pytest.mark.parametrize("name", ["__init__", *MODULES])
def test_no_unused_imports(name):
    assert _unused_imports(_tree(name)) == []


def test_unused_import_reader_flags_a_dead_name():
    tree = ast.parse("from .ring import RingError, poly_valuation\n"
                     "x = poly_valuation\n")
    assert _unused_imports(tree) == ["RingError"]
