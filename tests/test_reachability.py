"""Every module under ``src/repro`` is reachable from the command line.

The import closure starts at ``repro.cli`` and ``repro.__main__`` and
follows every ``import`` statement in the source, including the lazy
ones inside function bodies, plus every package ``__init__`` on a
dotted path.  A module outside that closure is code no command can run.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ENTRY_POINTS = ("repro.cli", "repro.__main__")


def _module_files():
    files = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        files[".".join(parts)] = path
    return files


def _imported_names(path):
    """Dotted names ``path`` imports, with ``from X import Y`` as ``X.Y``.

    The package uses absolute imports only; a relative one would read as
    an unknown name, leave its target unreached and fail the test.
    """
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            yield node.module
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


def _closure(files):
    reached, todo = set(), list(ENTRY_POINTS)
    while todo:
        name = todo.pop()
        if name in reached or name not in files:
            continue
        reached.add(name)
        parts = name.split(".")
        todo.extend(".".join(parts[:i]) for i in range(1, len(parts)))
        todo.extend(_imported_names(files[name]))
    return reached


def test_every_module_is_reached_from_the_cli():
    files = _module_files()
    unreached = sorted(
        name.removeprefix("repro.") for name in set(files) - _closure(files)
    )
    assert not unreached, f"no command reaches {', '.join(unreached)}"
