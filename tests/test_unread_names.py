"""Every parameter and local of the package's functions is read somewhere.

A name that is bound but never read is either dead code or an argument the
function ignores, which a caller may think it honors.  Names starting with
an underscore are deliberate throwaways.  Nor does the package read the
environment: every setting it honors is a parameter or a flag.  Nor does
it import `dataclasses`: records share `words.Record`'s methods, so
defining one compiles no code at import.  Nor does `ColumnStep` have a
driver beside `fold`, nor does any module copy an array with `np.tile`
where it could broadcast.  Nor do count tables and minimal sets walk but
through their one shared consumer of `walk_legal`.
"""

import ast
import pathlib
import subprocess
import sys

import wordavoid

SRC = pathlib.Path(wordavoid.__file__).parent

# The scenario runners share the `(registry, prefix_length)` signature that
# `SCENARIOS` calls them with; only the long-word scenarios read the length.
ALLOWED = {("scenarios.py", "_scenario_dekking_motivation", "prefix_length"),
           ("scenarios.py", "_scenario_counting", "prefix_length")}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(function):
    """The nodes of a function's body outside its nested functions."""
    todo = list(ast.iter_child_nodes(function))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, FUNCTIONS):
            todo.extend(ast.iter_child_nodes(node))


def unread_names(source: str, filename: str) -> list[tuple[str, str, str]]:
    """(file, function, name) for each parameter or local never read."""
    out = []
    for function in ast.walk(ast.parse(source, filename)):
        if not isinstance(function, FUNCTIONS):
            continue
        args = function.args
        params = [a.arg for a in (*args.posonlyargs, *args.args,
                                  *args.kwonlyargs, args.vararg, args.kwarg)
                  if a is not None]
        outer = {name for node in _own_nodes(function)
                 if isinstance(node, (ast.Global, ast.Nonlocal))
                 for name in node.names}
        stores = [node.id for node in _own_nodes(function)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Store)]
        # Nested functions read their enclosing function's names too.
        reads = {node.id for node in ast.walk(function)
                 if isinstance(node, ast.Name)
                 and isinstance(node.ctx, ast.Load)}
        name = getattr(function, "name", "<lambda>")
        for bound in dict.fromkeys(params + stores):
            if (bound in reads or bound in outer or bound.startswith("_")
                    or bound in ("self", "cls")):
                continue
            if (filename, name, bound) not in ALLOWED:
                out.append((filename, name, bound))
    return out


def test_the_checker_sees_unread_parameters_and_locals():
    source = ("def f(a, b, _c):\n"
              "    x, y = a\n"
              "    def g():\n"
              "        return y\n"
              "    return g\n")
    assert unread_names(source, "m.py") == [("m.py", "f", "b"),
                                            ("m.py", "f", "x")]


def test_every_parameter_and_local_is_read():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += unread_names(path.read_text(), path.name)
    assert found == []


def _definitions(tree):
    """(name, node) for each module-level function, class and constant, and
    each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((item.name, item) for item in node.body
                        if isinstance(item, ast.FunctionDef))
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        yield from ((t.id, node) for t in targets if isinstance(t, ast.Name))


def unread_private_names(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(file, name) for each module-level `_private` function, class or
    constant, and each `_private` method, that no code in `sources` reads
    outside its own definition.  A read is a loaded name or an attribute."""
    trees = {name: ast.parse(source, name) for name, source in sources.items()}
    reads = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
             or isinstance(node, ast.Attribute)]
    out = []
    for filename, tree in trees.items():
        for name, definition in _definitions(tree):
            if not name.startswith("_") or name.endswith("__"):
                continue
            inside = {id(node) for node in ast.walk(definition)}
            if not any(getattr(node, "id", getattr(node, "attr", None)) == name
                       and id(node) not in inside for node in reads):
                out.append((filename, name))
    return out


def test_the_checker_sees_unread_private_names():
    sources = {
        "a.py": ("_LIMIT = 3\n"
                 "_USED: int = 4\n"
                 "def _dead(n):\n"
                 "    return _dead(n - 1)\n"
                 "def _helper():\n"
                 "    return _USED\n"
                 "class _Gone:\n"
                 "    pass\n"
                 "class Box:\n"
                 "    def __init__(self):\n"
                 "        self._seen = 0\n"
                 "    def _stale(self):\n"
                 "        return 1\n"
                 "    def _fresh(self):\n"
                 "        return 2\n"),
        "b.py": ("from .a import Box, _helper\n"
                 "print(_helper(), Box()._fresh())\n"),
    }
    assert unread_private_names(sources) == [
        ("a.py", "_LIMIT"), ("a.py", "_dead"), ("a.py", "_Gone"),
        ("a.py", "_stale")]


def test_every_private_name_is_read():
    sources = {path.name: path.read_text()
               for path in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []


ENVIRONMENT = ("environ", "environb", "getenv", "getenvb")


def environment_reads(source: str, filename: str) -> list[tuple[str, int]]:
    """(file, line) for each use of `os.environ` or `os.getenv`, whether as
    an attribute or imported by name."""
    return [(filename, node.lineno) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT
            or isinstance(node, ast.ImportFrom) and node.module == "os"
            and any(alias.name in ENVIRONMENT for alias in node.names)]


def test_no_module_reads_the_environment():
    sample = ("import os\n"
              "from os import getenv\n"
              "x = os.environ.get('A')\n"
              "y = os.path.join('a', 'b')\n")
    assert environment_reads(sample, "m.py") == [("m.py", 2), ("m.py", 3)]
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += environment_reads(path.read_text(), path.name)
    assert found == []


def dataclass_imports(source: str, filename: str) -> list[tuple[str, int]]:
    """(file, line) for each import of `dataclasses`, whose decorator
    compiles several methods for every class it makes a record."""
    return [(filename, node.lineno) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Import)
            and any(alias.name == "dataclasses" for alias in node.names)
            or isinstance(node, ast.ImportFrom)
            and node.module == "dataclasses"]


def test_no_module_imports_dataclasses():
    sample = ("import dataclasses\n"
              "from dataclasses import dataclass\n"
              "import functools\n")
    assert dataclass_imports(sample, "m.py") == [("m.py", 1), ("m.py", 2)]
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += dataclass_imports(path.read_text(), path.name)
    assert found == []


def second_drivers(source: str, filename: str) -> list[tuple[str, int]]:
    """(file, line) for each `__call__` that `ColumnStep` defines beside
    `fold`, and each call of a function named `tile`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name == "ColumnStep":
            found += [(filename, item.lineno) for item in node.body
                      if isinstance(item, ast.FunctionDef)
                      and item.name == "__call__"]
        elif isinstance(node, ast.Call) and (
                getattr(node.func, "attr", None) == "tile"
                or getattr(node.func, "id", None) == "tile"):
            found.append((filename, node.lineno))
    return found


def test_the_column_step_has_one_driver():
    sample = ("class ColumnStep:\n"
              "    def fold(self): pass\n"
              "    def __call__(self): pass\n"
              "class Other:\n"
              "    def __call__(self): pass\n"
              "runs = np.tile(runs, 3)\n"
              "runs = np.broadcast_to(runs, (3, 2))\n")
    assert second_drivers(sample, "m.py") == [("m.py", 3), ("m.py", 6)]
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += second_drivers(path.read_text(), path.name)
    assert found == []


# The functions that walk through the shared consumer, and its name.
SHARED_WALKERS = ("count_avoiding", "minimal_forbidden")
SHARED_CONSUMER = "_recorded_walk"


def unshared_walks(source: str) -> list[str]:
    """The shared walkers that name `walk_legal` or call no shared
    consumer, and the consumer itself if it calls no `walk_legal`."""
    names = {node.name: {name.id for name in ast.walk(node)
                         if isinstance(name, ast.Name)}
             for node in ast.parse(source).body
             if isinstance(node, ast.FunctionDef)}
    found = [name for name in SHARED_WALKERS
             if name not in names or "walk_legal" in names[name]
             or SHARED_CONSUMER not in names[name]]
    if "walk_legal" not in names.get(SHARED_CONSUMER, ()):
        found.append(SHARED_CONSUMER)
    return found


def test_counts_and_minimal_sets_walk_through_one_consumer():
    sample = ("def _recorded_walk(spec, n):\n"
              "    return walk_legal(spec, n)\n"
              "def count_avoiding(spec, n):\n"
              "    return _recorded_walk(spec, n)\n"
              "def minimal_forbidden(spec, n):\n"
              "    _recorded_walk(spec, n)\n"
              "    return walk_legal(spec, n)\n")
    assert unshared_walks(sample) == ["minimal_forbidden"]
    assert unshared_walks("def count_avoiding(spec, n): pass\n") == [
        "count_avoiding", "minimal_forbidden", SHARED_CONSUMER]
    assert unshared_walks((SRC / "counting.py").read_text()) == []


def test_importing_the_package_leaves_dataclasses_unloaded():
    """Records subclass `words.Record`, and nothing the package imports
    loads `dataclasses` either (numpy does not)."""
    script = ("import sys\n"
              f"sys.path.insert(0, {str(SRC.parent)!r})\n"
              "import wordavoid\n"
              "print(wordavoid.__file__, 'dataclasses' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-I", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.split() == [wordavoid.__file__, "False"], proc.stderr


# What reads a prefix of a fixed point: its generators and the gap scanners.
PREFIX_READERS = ("fixed_point_prefix", "FixedPointStream",
                  "gap_first_and_count", "gap_occurrences")


def prefix_reader_uses(source: str, filename: str) -> list[tuple[str, int]]:
    """(file, line) for each import of a prefix reader, or attribute read
    of one through its module."""
    return [(filename, node.lineno) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and any(alias.name in PREFIX_READERS for alias in node.names)
            or isinstance(node, ast.Attribute)
            and node.attr in PREFIX_READERS]


def test_the_verifier_reads_no_fixed_point_prefix():
    """Gap evidence comes from proofs on exact factors or from a bounded
    walk, so the verifier needs no prefix of a fixed point."""
    sample = ("from .morphisms import Morphism, fixed_point_prefix\n"
              "from .words import (GapPattern,\n"
              "                    gap_first_and_count)\n"
              "from . import morphisms\n"
              "stream = morphisms.FixedPointStream\n"
              "from .words import satisfies_spec\n")
    assert prefix_reader_uses(sample, "m.py") == [("m.py", 1), ("m.py", 2),
                                                  ("m.py", 5)]
    verify = SRC / "verify.py"
    assert prefix_reader_uses(verify.read_text(), verify.name) == []
