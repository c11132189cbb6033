"""Print each ``mflow.__all__`` name, ``mflow`` flag and document key unused outside the tests.

    python3 tools/unused_surface.py

A name counts as used when some Python file under ``src/``
(``mflow/__init__.py`` excepted), ``bench/`` or ``tools/`` reads it: as a
bare name, as an attribute (``dynamics.solve``), or as a string constant that
is exactly the name, the way ``bench/spans.py`` names the functions it wraps.
The flags are the option strings of the ``add_argument`` calls in
``src/mflow/cli.py``; a flag counts as used when some Python file under
``bench/`` or ``tools/`` holds it as a whole string constant, the way
``bench/workloads.py`` and ``tools/output_digests.py`` pass flags.
The instance-document keys are the strings of ``_KEYS`` in
``src/mflow/config.py``; a key counts as used by the same rule as a flag,
the way ``bench/workloads.py`` and ``tools/output_digests.py`` write
instance documents.
The files are parsed, so comments and docstrings do not count, and
neither do a name's own definition and the ``__all__`` lists that export it.
The script exits 1 when it lists a name, a flag or a key, and 0 when it lists none.
"""

import ast
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
INIT = HERE / "src" / "mflow" / "__init__.py"
CLI = HERE / "src" / "mflow" / "cli.py"
CONFIG = HERE / "src" / "mflow" / "config.py"


def assigns(node, name):
    """Whether ``node`` is an assignment to the plain name ``name``."""
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == name for t in node.targets
    )


def constant(path, name):
    """The literal assigned to ``name`` in the module at ``path``."""
    for node in ast.parse(path.read_text()).body:
        if assigns(node, name):
            return ast.literal_eval(node.value)
    raise SystemExit(f"{path.relative_to(HERE)} has no {name}")


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
        if assigns(node, "__all__"):
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
    names = constant(INIT, "__all__")
    unused = [name for name in names if name not in set().union(*used.values())]
    passed = used["bench"] | used["tools"]
    flags = declared_flags()
    unused_flags = [flag for flag in flags if flag not in passed]
    keys = constant(CONFIG, "_KEYS")
    unused_keys = [key for key in keys if key not in passed]
    for item in unused + unused_flags + unused_keys:
        print(item)
    print(f"{len(unused)} of {len(names)} names in mflow.__all__ unused outside the tests")
    print(f"{len(unused_flags)} of {len(flags)} mflow flags unused in bench/ and tools/")
    print(f"{len(unused_keys)} of {len(keys)} instance-document keys unused in bench/ and tools/")
    return 1 if unused or unused_flags or unused_keys else 0


if __name__ == "__main__":
    raise SystemExit(main())
