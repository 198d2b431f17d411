"""Every name a module imports is used in it, every private helper and
every parameter is read, every exception is raised, the README still
runs, and the CLI starts without modules it does not use.

Parses each .py file of the package (except __init__.py, whose imports
are its exports), the tests and the demos, and lists the imported names
that no expression in the file reads.  Lists the module-level private
names of the package that no package module reads, and the parameters
of its functions and lambdas that their bodies never read.  Checks that
each exception class of errors.py is raised somewhere in the package.
Runs the README's library quick start, so that a renamed or removed API
fails here, not in a reader's hands.  Checks in a fresh process that
importing the CLI loads neither csv nor concurrent.futures, which no
module uses.
"""

import ast
import os
import re
import subprocess
import sys

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


def unread_privates(sources):
    """(path, line, name) of each module-level private name bound in
    the sources, a dict path -> text, that no expression of any of them
    reads."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            unread += [(path, node.lineno, name) for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and name not in read]
    return sorted(unread)


def test_unread_privates_detected():
    src = ("_A, _B = 1, 2\n_C: int = 3\ndef _f():\n    return _A\n"
           "class _K:\n    pass\n__all__ = []\n")
    assert unread_privates({"a.py": src, "b.py": "import a\na._f()\n"}) == [
        ("a.py", 1, "_B"), ("a.py", 2, "_C"), ("a.py", 5, "_K")]


def test_every_private_name_is_read():
    pkg = os.path.join(ROOT, "src/striplab")
    sources = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                sources[name] = fh.read()
    unread = unread_privates(sources)
    assert not unread, "never read: %s" % ", ".join(
        "%s:%d %s" % row for row in unread)


def unread_params(source):
    """(line, function, parameter) of each parameter of a function or
    lambda of the source that its body never reads; self and cls are
    exempt."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        unread += [(node.lineno, name, p) for p in params
                   if p not in read and p not in ("self", "cls")]
    return sorted(unread)


def test_unread_params_detected():
    src = ("def f(a, b, *c, d=1, **e):\n    return a + d\n"
           "class K:\n    def m(self, x):\n        return 0\n"
           "    @classmethod\n    def n(cls, y):\n"
           "        return lambda z, w: y + z\n"
           "def g(u, v):\n    def h():\n        return u\n    return h\n")
    assert unread_params(src) == [
        (1, "f", "b"), (1, "f", "c"), (1, "f", "e"), (4, "m", "x"),
        (8, "<lambda>", "w"), (9, "g", "v")]


def test_every_parameter_is_read():
    pkg = os.path.join(ROOT, "src/striplab")
    unread = []
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                unread += [(name,) + row for row in unread_params(fh.read())]
    assert not unread, "never read: %s" % ", ".join(
        "%s:%d %s(%s)" % row for row in unread)


def test_every_exception_is_raised():
    pkg = os.path.join(ROOT, "src/striplab")
    with open(os.path.join(pkg, "errors.py")) as fh:
        classes = {node.name for node in ast.parse(fh.read()).body
                   if isinstance(node, ast.ClassDef)} - {"StripLabError"}
    raised = set()
    for name in os.listdir(pkg):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                raises = [node for node in ast.walk(ast.parse(fh.read()))
                          if isinstance(node, ast.Raise)]
            raised.update(n.id if isinstance(n, ast.Name) else n.attr
                          for r in raises for n in ast.walk(r)
                          if isinstance(n, (ast.Name, ast.Attribute)))
    assert not classes - raised, "never raised: %s" % ", ".join(
        sorted(classes - raised))


def test_readme_quick_start_runs(capsys):
    with open(os.path.join(ROOT, "README.md")) as fh:
        block = re.search(r"```python\n(.*?)```", fh.read(), re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == block.count("print(")


def test_cli_imports_neither_csv_nor_a_thread_pool():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    code = ("import sys, striplab.cli; print(sorted("
            "{'csv', 'concurrent.futures'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout == "[]\n"
