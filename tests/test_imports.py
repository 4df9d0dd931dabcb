"""Every module-level import of the package, its tests and demos is used,
every definition of the package is referenced somewhere in the repository,
every name the package exports is read outside the unit tests, the
package evaluates stencils through `_stencils.partials` only, and only
`operators` reads a base field's callback partials."""

import ast
import functools
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bochner2d"
MODULES = (sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
           + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py")))


def module_id(path):
    """Package modules by file name, test and demo files by directory/name."""
    return path.name if path.parent == PACKAGE else f"{path.parent.name}/{path.name}"


def unused_imports(source):
    """Names bound by top-level imports that nothing else in the module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_detector_flags_only_unused_names():
    source = "import os\nimport numpy as np\nfrom typing import Optional\nnp.zeros(1)\n"
    assert unused_imports(source) == [(1, "os"), (3, "Optional")]


@pytest.mark.parametrize("path", MODULES, ids=module_id)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


# where a definition of the package may be referenced
REFERENCE_DIRS = ("src", "tests", "demos", "bench")


def definitions(source):
    """(line, name) of the module-level functions and classes and of the
    classes' non-dunder methods, the latter named Class.method."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            out += [(m.lineno, f"{node.name}.{m.name}") for m in node.body
                    if isinstance(m, ast.FunctionDef)
                    and not (m.name.startswith("__") and m.name.endswith("__"))]
    return out


def referenced_names(sources):
    """Names read by a Name or an Attribute, or bound by an import alias."""
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(filter(None, (node.name.split(".")[-1], node.asname)))
    return names


@functools.lru_cache(maxsize=None)
def repository_names():
    return frozenset(referenced_names(
        path.read_text() for d in REFERENCE_DIRS for path in sorted((ROOT / d).rglob("*.py"))))


def unreferenced(source, names):
    return [(line, name) for line, name in definitions(source)
            if name.split(".")[-1] not in names]


def test_definition_detector():
    source = ("class A:\n    def __init__(self): pass\n    def m(self): pass\n"
              "def f(): pass\ndef g(): A().m()\n")
    assert definitions(source) == [(1, "A"), (3, "A.m"), (4, "f"), (5, "g")]
    assert unreferenced(source, referenced_names([source])) == [(4, "f"), (5, "g")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=module_id)
def test_every_definition_is_referenced(path):
    assert unreferenced(path.read_text(), repository_names()) == []


# where a name that `__init__.py` exports must be read: the package (the
# exporting module counts), the demos, the acceptance suite and the README
EXPORT_READERS = ([p for p in MODULES if p.parent == PACKAGE]
                  + sorted((ROOT / "demos").glob("*.py"))
                  + [ROOT / "tests" / "test_acceptance.py"])


def exported_names(source):
    """The names `__init__.py` binds by its `from .module import ...` lines."""
    return [alias.asname or alias.name for node in ast.parse(source).body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def test_every_export_is_read_outside_the_unit_tests():
    readers = referenced_names(path.read_text() for path in EXPORT_READERS)
    readers |= set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    exported = exported_names((PACKAGE / "__init__.py").read_text())
    assert [name for name in exported if name not in readers] == []


# the stencil evaluators, on the chart and along one chart axis, which share
# the weights and their contraction; a further evaluation path must not come back
STENCIL_EVALUATORS = ("partials", "along")


def stencil_uses(source):
    """(line, name) of the `_stencils` members a module uses other than the
    evaluator, by attribute of the module or by import."""
    tree = ast.parse(source)
    modules, out = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "_stencils":
                    modules.add(alias.asname or alias.name)
                elif (node.module or "").split(".")[-1] == "_stencils":
                    out.append((node.lineno, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            out.append((node.lineno, node.attr))
    return sorted((line, name) for line, name in out if name not in STENCIL_EVALUATORS)


def test_stencil_use_detector():
    source = ("from . import _stencils\nfrom . import _stencils as st\n"
              "from ._stencils import gradient, partials\n"
              "_stencils.partials(f, u, v, h, 2)\nst.hessian(f, u, v, h)\n"
              "_stencils.BLOCK_NODES\n")
    assert stencil_uses(source) == [(3, "gradient"), (5, "hessian"), (6, "BLOCK_NODES")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=module_id)
def test_package_evaluates_stencils_through_partials_only(path):
    assert stencil_uses(path.read_text()) == []


# the exact partials a base field may declare, which `operators` wraps into
# the field's jet function when the field is built; a second derivative
# route reading them must not come back
CALLBACK_PARTIALS = ("d_coeff", "dd_coeff", "grad", "hess")


def callback_reads(source):
    """(line, name) of the callback partials a module reads as attributes."""
    return sorted((node.lineno, node.attr) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in CALLBACK_PARTIALS)


def test_callback_read_detector():
    source = ("X.d_coeff(u, v)\nf.hess\nScalarField(value, grad=g)\n"
              "X.coeff(u, v)\nf.gradient\n")
    assert callback_reads(source) == [(1, "d_coeff"), (2, "hess")]


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py"))
                                  if p.name != "operators.py"], ids=module_id)
def test_only_operators_reads_callback_partials(path):
    assert callback_reads(path.read_text()) == []
