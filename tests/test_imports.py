"""Every name a module imports is used in it.

Parses each .py file of the package (except __init__.py, whose imports
are its exports), the tests and the demos, and lists the imported names
that no expression in the file reads.
"""

import ast
import os

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
DIRS = ("src/striplab", "tests", "demos")


def _sources():
    for d in DIRS:
        for name in sorted(os.listdir(os.path.join(ROOT, d))):
            if name.endswith(".py") and name != "__init__.py":
                yield os.path.join(d, name)


def unused_imports(source):
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_imports_detected():
    src = "import json\nimport os\nfrom math import pi, tau\nos.sep, tau\n"
    assert unused_imports(src) == [(1, "json"), (3, "pi")]


@pytest.mark.parametrize("path", list(_sources()))
def test_no_unused_imports(path):
    with open(os.path.join(ROOT, path)) as fh:
        unused = unused_imports(fh.read())
    assert not unused, "%s imports but never uses %s" % (
        path, ", ".join("%s (line %d)" % (n, l) for l, n in unused))
