"""No module imports a name it never uses, the package defines no
function or class that nothing reads, no parameter default that no
call overrides and no ``global`` statement, only ``cli.main`` reports
bad input, every exception class the package defines is caught, only
``cli._atomic_write`` replaces a file, the exact layers touch no float,
and README names the standard-library modules the package imports: the
unused-import and dead-code rules of a linter, two error-path rules, a
layering rule and a documentation rule, written with the stdlib ``ast``
module so that they run wherever the tests run.  ``__init__.py`` is held
to them too: it re-exports nothing, so an import there is unused."""

import ast
import builtins
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC_FILES = sorted((ROOT / "src" / "su2chan").glob("*.py"))
FILES = SRC_FILES + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str):
    """(line, name) of every imported name that no expression reads.
    Scopes are not told apart: a name read anywhere in the module counts
    as a use of every import of it."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # 'import a.b' binds 'a'
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_checker_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os\n"
              "import os.path as osp\nfrom math import comb, gcd\n"
              "print(gcd(4, 6), osp.sep)\n")
    assert unused_imports(source) == [(2, "os"), (4, "comb")]


@pytest.mark.parametrize("path", FILES,
                         ids=[f"{p.parent.name}/{p.name}" for p in FILES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


# A definition is read where the package's modules or the benchmark's
# scripts name it; the tests do not count, and __init__.py binds only
# __version__
READERS = SRC_FILES + sorted((ROOT / "perfbench").glob("*.py"))


def dead_definitions(defining: str, readers):
    """(line, name) of every function, class or method that ``defining``
    defines, dunders aside, and that no source of ``readers`` reads as a
    name or an attribute.  As in :func:`unused_imports`, scopes and
    owners are not told apart."""
    read = set()
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(
        (node.lineno, node.name) for node in ast.walk(ast.parse(defining))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in read)


def test_checker_finds_a_dead_definition():
    defining = ("class A:\n    def __init__(self): pass\n"
                "    def used(self): pass\n    def dead(self): pass\n"
                "def helper(): pass\ndef unread(): pass\n")
    readers = [defining, "A().used()\n", "print(helper)\n"]
    assert dead_definitions(defining, readers) == [(4, "dead"), (6, "unread")]


@pytest.mark.parametrize("path", SRC_FILES, ids=lambda p: p.name)
def test_no_dead_definition(path):
    readers = [p.read_text() for p in READERS]
    assert dead_definitions(path.read_text(), readers) == []


# A default is a knob: some call must turn it.  The verify registry hands
# check_trace_preservation its fault through run_check(check, grid, *args),
# which the AST cannot follow
OVERRIDE_ALLOWED = {("check_trace_preservation", "fault")}


def unused_defaults(defining: str, readers):
    """(line, function, parameter) of every parameter default of a
    function in ``defining`` that no call in ``readers`` overrides, by
    keyword or by position.  A call is matched by the name it calls, so
    a method's call skips its first parameter and ``__init__`` is called
    by its class's name; as above, scopes and owners are not told apart,
    and a starred argument overrides nothing."""
    positional, keywords = {}, {}
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            n = next((i for i, a in enumerate(node.args)
                      if isinstance(a, ast.Starred)), len(node.args))
            positional[name] = max(positional.get(name, 0), n)
            keywords.setdefault(name, set()).update(
                k.arg for k in node.keywords if k.arg)
    owner = {}
    tree = ast.parse(defining)
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                owner[item] = node.name
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name = owner[node] if node in owner and node.name == "__init__" \
            else node.name
        skip = node in owner and not any(
            getattr(d, "id", None) == "staticmethod"
            for d in node.decorator_list)
        args = node.args
        params = args.posonlyargs + args.args
        first = len(params) - len(args.defaults)
        for i, arg in enumerate(params[first:], start=first - skip):
            if i >= positional.get(name, 0) \
                    and arg.arg not in keywords.get(name, ()):
                out.append((arg.lineno, node.name, arg.arg))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None \
                    and arg.arg not in keywords.get(name, ()):
                out.append((arg.lineno, node.name, arg.arg))
    return sorted(out)


def test_checker_finds_an_unused_default():
    defining = ("class A:\n    def __init__(self, x=1, y=2): pass\n"
                "    def m(self, a, b=0): pass\n"
                "    @staticmethod\n    def s(a, b=0): pass\n"
                "def f(a, b=1, *, c=2, d=3): pass\n"
                "def g(a=0): pass\n")
    readers = [defining, "A(0)\nA().m(1, 2)\nA.s(1)\n",
               "f(1, 2, c=3)\ng(*[1])\n"]
    assert unused_defaults(defining, readers) == [
        (2, "__init__", "y"), (5, "s", "b"), (6, "f", "d"), (7, "g", "a")]


@pytest.mark.parametrize("path", SRC_FILES, ids=lambda p: p.name)
def test_every_default_is_overridden(path):
    readers = [p.read_text() for p in READERS]
    unused = [(line, fn, arg) for line, fn, arg in
              unused_defaults(path.read_text(), readers)
              if (fn, arg) not in OVERRIDE_ALLOWED]
    assert unused == []


# Cached tables live in functools.lru_cache functions, which a forked
# worker inherits whole: no function rebinds a module-level name
def global_statements(source: str):
    """(line, names) of every ``global`` statement."""
    return sorted((node.lineno, tuple(node.names))
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Global))


def test_checker_finds_a_global_statement():
    source = ("_table = [1]\ndef grow(n):\n    global _table, _n\n"
              "    _table = list(range(n))\n"
              "def outer():\n    x = 0\n    def inner():\n"
              "        nonlocal x\n        x = _table\n")
    assert global_statements(source) == [(3, ("_table", "_n"))]


@pytest.mark.parametrize("path", SRC_FILES, ids=lambda p: p.name)
def test_no_global_statement(path):
    assert global_statements(path.read_text()) == []


# Bad input leaves by one path: a check raises cli.ConfigError (or a
# FloatRangeError or InvalidSpecError), and cli.main alone writes the
# 'error:' line and returns EXIT_CONFIG_ERROR
def error_exits(source: str):
    """(line, function) of every read of ``sys.stderr`` or of the name
    ``EXIT_CONFIG_ERROR`` in a function, the innermost one named."""
    out = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif function and (
                isinstance(node, ast.Name) and node.id == "EXIT_CONFIG_ERROR"
                and isinstance(node.ctx, ast.Load)
                or isinstance(node, ast.Attribute) and node.attr == "stderr"
                and getattr(node.value, "id", None) == "sys"):
            out.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return sorted(out)


def test_checker_finds_an_error_exit():
    source = ("import sys\nEXIT_CONFIG_ERROR = 2\n"
              "def check(x):\n    if x < 0:\n"
              "        print('error: x < 0', file=sys.stderr)\n"
              "        return EXIT_CONFIG_ERROR\n"
              "def main():\n    def inner():\n        sys.stderr.write('')\n"
              "    return EXIT_CONFIG_ERROR\n")
    assert error_exits(source) == [(5, "check"), (6, "check"), (9, "inner"),
                                   (10, "main")]


@pytest.mark.parametrize("path", SRC_FILES, ids=lambda p: p.name)
def test_only_main_reports_bad_input(path):
    allowed = {"main"} if path.name == "cli.py" else set()
    assert [(line, fn) for line, fn in error_exits(path.read_text())
            if fn not in allowed] == []


# An exception class is worth defining only where some handler tells it
# apart from its base: each one the package defines is named in an
# ``except`` clause of the package, in any module, since the classes are
# defined where they are raised and caught in cli.main
def uncaught_exceptions(sources):
    """Name of every exception class that ``sources`` define, one whose
    bases include a builtin exception or such a class, and that no
    ``except`` clause of ``sources`` names, as a name or an attribute."""
    trees = [ast.parse(source) for source in sources]
    bases, caught = {}, set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.ClassDef):
            bases[node.name] = [getattr(b, "id", getattr(b, "attr", ""))
                                for b in node.bases]
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) \
                else [node.type]
            caught.update(getattr(t, "id", getattr(t, "attr", None))
                          for t in types)

    def is_exception(name):
        builtin = getattr(builtins, name, None)
        if isinstance(builtin, type):
            return issubclass(builtin, BaseException)
        return any(map(is_exception, bases.get(name, ())))

    return sorted(name for name in bases
                  if is_exception(name) and name not in caught)


def test_checker_finds_an_uncaught_exception():
    defining = ("class AError(ValueError): pass\n"
                "class BError(AError): pass\nclass Plain: pass\n"
                "class DError(errors.Base, OverflowError): pass\n")
    catching = ("try:\n    f()\nexcept (AError, m.DError):\n    pass\n"
                "except Plain:\n    pass\nexcept:\n    pass\n")
    assert uncaught_exceptions([defining, catching]) == ["BError"]
    assert uncaught_exceptions([defining]) == ["AError", "BError", "DError"]


def test_every_exception_class_is_caught():
    assert uncaught_exceptions([p.read_text() for p in SRC_FILES]) == []


# A report reaches its file by one path, cli._atomic_write, which writes
# into a device or FIFO that a replace would swap for a regular file
def file_replaces(source: str):
    """(line, function) of every call of ``os.replace`` or ``os.rename``,
    as an attribute or imported by name, the innermost function named."""
    tree = ast.parse(source)
    by_name = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "os"
               for alias in node.names
               if alias.name in ("replace", "rename")}
    out = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in ("replace", "rename")
                and getattr(node.func.value, "id", None) == "os"
                or getattr(node.func, "id", None) in by_name):
            out.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return sorted(out)


def test_checker_finds_a_file_replace():
    source = ("import os\nfrom os import rename as mv\n"
              "def write(a, b):\n    os.replace(a, b)\n"
              "    'x'.replace('x', 'y')\n"
              "def move(a, b):\n    mv(a, b)\nos.rename('a', 'b')\n")
    assert file_replaces(source) == [(4, "write"), (7, "move"), (8, None)]


@pytest.mark.parametrize("path", SRC_FILES, ids=lambda p: p.name)
def test_only_atomic_write_replaces_a_file(path):
    allowed = {"_atomic_write"} if path.name == "cli.py" else set()
    assert [(line, fn) for line, fn in file_replaces(path.read_text())
            if fn not in allowed] == []


# The exact layers compute over the integers and the rationals alone:
# floats start in quadrature, which reads their small integer factors
EXACT_FILES = [ROOT / "src" / "su2chan" / f"{name}.py" for name in
               ("exactnum", "repspace", "intertwine", "symbolcalc")]


def float_uses(source: str):
    """(line, what) of every float or complex literal, call of the name
    ``float``, and ``math.sqrt``, as an attribute or imported by name."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) \
                and isinstance(node.value, (float, complex)):
            out.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.Call) \
                and getattr(node.func, "id", None) == "float":
            out.append((node.lineno, "float("))
        elif isinstance(node, ast.Attribute) and node.attr == "sqrt" \
                and getattr(node.value, "id", None) == "math":
            out.append((node.lineno, "math.sqrt"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math" \
                and any(alias.name == "sqrt" for alias in node.names):
            out.append((node.lineno, "math.sqrt"))
    return sorted(out)


def test_checker_finds_a_float():
    source = ("import math\nfrom math import sqrt as root\nx = 2 * 0.5\n"
              "y = float(3) + 1j\nz = math.sqrt(4) + math.isqrt(4)\n"
              "w = int('1') + 10 ** 3\n")
    assert float_uses(source) == [(2, "math.sqrt"), (3, "0.5"), (4, "1j"),
                                  (4, "float("), (5, "math.sqrt")]


@pytest.mark.parametrize("path", EXACT_FILES, ids=lambda p: p.name)
def test_exact_layer_uses_no_float(path):
    assert float_uses(path.read_text()) == []


# The package runs on the standard library alone: numpy serves the tests
# and the benchmark, and no module under src/su2chan imports it
PACKAGE_FILES = sorted((ROOT / "src" / "su2chan").glob("*.py"))


def numpy_imports(source: str):
    """Line of every absolute import of numpy or one of its modules."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "numpy" for name in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_checker_finds_a_numpy_import():
    source = ("import os, numpy.linalg as la\nfrom numpy import sqrt\n"
              "from .numpy import x\nimport numpyish\n")
    assert numpy_imports(source) == [1, 2]


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=lambda p: p.name)
def test_exact_layer_imports_no_numpy(path):
    # every module: the exact layers, the float layer and the CLI
    assert numpy_imports(path.read_text()) == []


# README's "Start-up" section lists the standard-library modules the
# package imports: exactly those its modules import, at any depth
def absolute_imports(source: str):
    """Top-level module of every absolute import, in a function body
    too, ``__future__`` aside (a compiler directive)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return {name.split(".")[0] for name in names} - {"__future__"}


def startup_modules(readme: str):
    """The modules named in README's "Start-up" section, from its list
    up to the modules that ``import su2chan.cli`` must not load."""
    section = readme.split("\n## Start-up\n", 1)[1].split("\n## ", 1)[0]
    listed = section.split("standard-library modules:", 1)[1]
    return set(re.findall(r"`(\w+)`",
                          listed.split("`import su2chan.cli`", 1)[0]))


def test_checker_finds_every_absolute_import():
    source = ("from __future__ import annotations\nimport os.path, csv\n"
              "from collections.abc import Sized\nfrom . import cli\n"
              "def stop():\n    import signal\n    return signal\n")
    assert absolute_imports(source) == {"os", "csv", "collections", "signal"}
    readme = ("# x\n## Start-up\nimports only these standard-library "
              "modules: `os` and `csv` (and `signal`, lazily). "
              "`import su2chan.cli` loads no `numpy`.\n## Layout\n`gc`\n")
    assert startup_modules(readme) == {"os", "csv", "signal"}


def test_readme_lists_the_imported_modules():
    imported = set().union(*(absolute_imports(p.read_text())
                             for p in PACKAGE_FILES))
    assert startup_modules((ROOT / "README.md").read_text()) == imported


# Nor does a CLI start load numpy, or dataclasses and the inspect, ast and
# dis modules it pulls in, or the process pools and pickle that the CLI's
# own fork map does without: a start that compiles the package from
# source pays for every module in time and peak memory.  Only the modules
# the package brings count, not those a site hook loaded before it
NO_NUMPY_RUN = """
import json, os, sys
before = set(sys.modules)
import su2chan, su2chan.cli
runs = [["converge", "--mu", "2", "--k", "1", "--nu", "4,8", "--n", "1,2",
         "--phi", "entropy8"],
        ["verify", "--mu", "1", "--nu-max", "2"],
        ["spectrum", "--mu", "2"],
        ["channel-dump", "--mu", "1", "--nu", "2", "--k", "1"]]
codes = [su2chan.cli.main(argv + ["--out", os.path.join(sys.argv[1], argv[0])])
         for argv in runs]
print(json.dumps([codes, sorted(set(sys.modules) - before)]))
"""
KEPT_OUT = {"concurrent.futures", "dataclasses", "inspect", "multiprocessing",
            "numpy", "pickle"}


def test_cli_run_loads_no_numpy(tmp_path):
    # the import and a run of every subcommand, in one fresh interpreter
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY_RUN,
                           str(tmp_path)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, gained = json.loads(proc.stdout)
    # converge exits 1: from nu = 4 to 8 its gaps fall by less than 4x
    assert codes == [1, 0, 0, 0]
    assert "su2chan.cli" in gained
    assert KEPT_OUT.intersection(gained) == set()
