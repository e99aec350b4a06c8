"""Static checks of the sources, made with ``ast``.

Every imported name is read somewhere in the module that imports it.
The library modules (bar ``__init__``, which re-exports) and the test
files are parsed.  A name counts as read when it is loaded anywhere in
the module, so an import that a ``global`` statement binds for other
functions (``_normal``'s lazy scipy names) counts as read.

Every ``raise`` in the library raises a ``MaxplusError`` subclass or
``NotImplementedError``, so that the CLI turns every rejected input into
exit status 3 rather than a traceback.

Every field of a library dataclass is read somewhere in the library or
the tests: as an attribute load, or as a string constant (a name that a
``getattr`` loop reads).  The scan goes by name, so it finds fields that
nothing reads under any name.
"""

import ast
from pathlib import Path

import pytest

from maxplus import errors

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "maxplus").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
MODULES = [p for p in LIBRARY if p.name != "__init__.py"] + TESTS
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


def dataclass_fields(source):
    """(class, field) of every annotated field of a ``@dataclass``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for dec in node.decorator_list:
            fn = dec.func if isinstance(dec, ast.Call) else dec
            if getattr(fn, "id", getattr(fn, "attr", None)) == "dataclass":
                out += [
                    (node.name, stmt.target.id)
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                ]
    return out


def read_names(source):
    """Attribute names loaded anywhere in the source, and its string constants."""
    nodes = list(ast.walk(ast.parse(source)))
    return {
        node.attr for node in nodes
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    } | {
        node.value for node in nodes
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def unread_fields(library, readers):
    read = set().union(*map(read_names, readers))
    return [
        (cls, name)
        for source in library
        for cls, name in dataclass_fields(source)
        if name not in read
    ]


def test_every_dataclass_field_is_read():
    sources = [p.read_text() for p in LIBRARY]
    assert unread_fields(sources, sources + [p.read_text() for p in TESTS]) == []


def test_scan_sees_an_unread_field():
    source = (
        "from dataclasses import dataclass, field\n"
        "@dataclass(frozen=True)\n"
        "class Report:\n"
        "    kept: float\n"
        "    listed: list = field(default_factory=list)\n"
        "    dead: int = 0\n"
        "    LIMIT = 3\n"
        "class Plain:\n"
        "    other: int\n"
    )
    reader = "print(r.kept, [getattr(r, k) for k in ('listed',)])\nr.dead = 1\n"
    assert unread_fields([source], [source, reader]) == [("Report", "dead")]
