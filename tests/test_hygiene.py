"""Every imported name is read somewhere in the module that imports it.

The library modules (bar ``__init__``, which re-exports) and the test
files are parsed with ``ast``.  A name counts as read when it is loaded
anywhere in the module, so an import that a ``global`` statement binds
for other functions (``_normal``'s lazy scipy names) counts as read.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p for p in (ROOT / "src" / "maxplus").glob("*.py") if p.name != "__init__.py"
) + sorted((ROOT / "tests").glob("*.py"))


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
