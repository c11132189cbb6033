"""Print each ``mflow.__all__`` name and ``mflow`` flag that no code outside the tests uses.

    python3 tools/unused_surface.py

A name counts as used when some Python file under ``src/``
(``mflow/__init__.py`` excepted), ``bench/`` or ``tools/`` reads it: as a
bare name, as an attribute (``dynamics.solve``), or as a string constant that
is exactly the name, the way ``bench/spans.py`` names the functions it wraps.
The flags are the option strings of the ``add_argument`` calls in
``src/mflow/cli.py``; a flag counts as used when some Python file under
``bench/`` or ``tools/`` holds it as a whole string constant, the way
``bench/workloads.py`` and ``tools/output_digests.py`` pass flags.
The files are parsed, so comments and docstrings do not count, and
neither do a name's own definition and the ``__all__`` lists that export it.
The script exits 1 when it lists a name or a flag, and 0 when it lists none.
"""

import ast
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
INIT = HERE / "src" / "mflow" / "__init__.py"
CLI = HERE / "src" / "mflow" / "cli.py"


def is_all(node):
    """Whether ``node`` is an assignment to ``__all__``."""
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def exported():
    """The names in ``mflow.__all__``, read from the package's ``__init__``."""
    tree = ast.parse(INIT.read_text())
    for node in tree.body:
        if is_all(node):
            return ast.literal_eval(node.value)
    raise SystemExit("src/mflow/__init__.py has no __all__")


def declared_flags():
    """The option strings that ``src/mflow/cli.py`` passes to ``add_argument``, sorted."""
    flags = set()
    for node in ast.walk(ast.parse(CLI.read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument":
            flags.update(
                arg.value
                for arg in node.args
                if isinstance(arg, ast.Constant) and str(arg.value).startswith("-")
            )
    return sorted(flags)


def used_names(tree):
    """Names a module reads, as names, attributes or whole string constants."""
    skipped = set()
    for node in ast.walk(tree):
        # docstrings, and the __all__ lists that export names rather than use them
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            skipped.add(id(node.value))
        if is_all(node):
            skipped.update(id(n) for n in ast.walk(node.value))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in skipped:
                used.add(node.value)
    return used


def main():
    used = {}
    for top in ("src", "bench", "tools"):
        used[top] = set()
        for path in sorted((HERE / top).rglob("*.py")):
            if path != INIT:
                used[top] |= used_names(ast.parse(path.read_text(), filename=str(path)))
    names = exported()
    unused = [name for name in names if name not in set().union(*used.values())]
    flags = declared_flags()
    unused_flags = [flag for flag in flags if flag not in used["bench"] | used["tools"]]
    for item in unused + unused_flags:
        print(item)
    print(f"{len(unused)} of {len(names)} names in mflow.__all__ unused outside the tests")
    print(f"{len(unused_flags)} of {len(flags)} mflow flags unused in bench/ and tools/")
    return 1 if unused or unused_flags else 0


if __name__ == "__main__":
    raise SystemExit(main())
