"""Every module-level import of the package, its tests and demos is used."""

import ast
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
