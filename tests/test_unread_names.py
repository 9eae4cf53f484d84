"""Every parameter and local of the package's functions is read somewhere.

A name that is bound but never read is either dead code or an argument the
function ignores, which a caller may think it honors.  Names starting with
an underscore are deliberate throwaways.  Nor does the package read the
environment: every setting it honors is a parameter or a flag.
"""

import ast
import pathlib

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
