"""Static checks of the sources, made with ``ast``.

Every imported name is read somewhere in the module that imports it.
The library modules (bar ``__init__``, which re-exports) and the test
files are parsed.  A name counts as read when it is loaded anywhere in
the module, so an import that a ``global`` statement binds for other
functions (``_normal``'s lazy scipy names) counts as read.

Every ``raise`` in the library raises a ``MaxplusError`` subclass or
``NotImplementedError``, so that the CLI turns every rejected input into
exit status 3 rather than a traceback.
"""

import ast
from pathlib import Path

import pytest

from maxplus import errors

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "maxplus").glob("*.py"))
MODULES = [p for p in LIBRARY if p.name != "__init__.py"] + sorted(
    (ROOT / "tests").glob("*.py")
)
RAISABLE = {
    name for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, errors.MaxplusError)
} | {"NotImplementedError"}


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=[f"{p.parent.name}/{p.name}" for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_sees_an_unused_import_and_a_global_rebinding():
    source = (
        "import numpy as np\n"
        "from os import path, sep\n"
        "def load():\n"
        "    global sep\n"
        "    from os import sep\n"
        "def join(a):\n"
        "    return a + sep\n"
    )
    assert unused_imports(source) == [(1, "np"), (2, "path")]


def foreign_raises(source):
    """(line, name) of every ``raise`` of a class outside ``RAISABLE``;
    a bare re-raise is named ``None``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = getattr(exc, "id", getattr(exc, "attr", None))
            if name not in RAISABLE:
                out.append((node.lineno, name))
    return out


@pytest.mark.parametrize("path", LIBRARY, ids=[p.name for p in LIBRARY])
def test_library_raises_only_package_errors(path):
    assert foreign_raises(path.read_text()) == []


def test_scan_sees_a_foreign_raise_and_a_bare_reraise():
    source = (
        "from .errors import ValidationError\n"
        "def check(v):\n"
        "    if v < 0:\n"
        "        raise ValidationError('negative')\n"
        "    if v > 9:\n"
        "        raise ValueError('large')\n"
        "    try:\n"
        "        return 1 / v\n"
        "    except ZeroDivisionError:\n"
        "        raise\n"
        "    raise errors.GridMismatchError\n"
    )
    assert foreign_raises(source) == [(6, "ValueError"), (10, None)]
