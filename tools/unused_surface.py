"""Print each name in ``mflow.__all__`` that no code outside the tests uses.

    python3 tools/unused_surface.py

A name counts as used when some Python file under ``src/``
(``mflow/__init__.py`` excepted), ``bench/`` or ``tools/`` reads it: as a
bare name, as an attribute (``dynamics.solve``), or as a string constant that
is exactly the name, the way ``bench/spans.py`` names the functions it wraps.
The files are parsed, so comments and docstrings do not count, and
neither do a name's own definition and the ``__all__`` lists that export it.
The script exits 1 when it lists a name, and 0 when it lists none.
"""

import ast
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
INIT = HERE / "src" / "mflow" / "__init__.py"


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
    used = set()
    for top in ("src", "bench", "tools"):
        for path in sorted((HERE / top).rglob("*.py")):
            if path != INIT:
                used |= used_names(ast.parse(path.read_text(), filename=str(path)))
    names = exported()
    unused = [name for name in names if name not in used]
    for name in unused:
        print(name)
    print(f"{len(unused)} of {len(names)} names in mflow.__all__ unused outside the tests")
    return 1 if unused else 0


if __name__ == "__main__":
    raise SystemExit(main())
