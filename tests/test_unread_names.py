"""Every parameter and local of the package's functions is read somewhere.

A name that is bound but never read is either dead code or an argument the
function ignores, which a caller may think it honors.  Names starting with
an underscore are deliberate throwaways.
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
