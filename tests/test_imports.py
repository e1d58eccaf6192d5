"""Every top-level import in the package modules is used (no linter is
installed, so this is the lint)."""
import ast
import glob
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "homlie3")
MODULES = sorted(p for p in glob.glob(os.path.join(SRC, "*.py"))
                 # the package's imports are its public names
                 if os.path.basename(p) != "__init__.py")


def _annotation_names(node) -> set:
    """Names inside a string annotation such as -> "Mat"."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                expr = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            out |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return out


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_detector_flags_an_unused_import():
    src = "import os\nfrom typing import Mapping, Optional\n\ndef f(x: 'Mapping'):\n    return os\n"
    assert unused_imports(src) == [(2, "Optional")]


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_unused_top_level_imports(path):
    with open(path) as fh:
        assert unused_imports(fh.read()) == []
