"""Static checks of the sources, made with ``ast``.

Every imported name is read somewhere in the module that imports it.
The library modules (bar ``__init__``, which re-exports) and the test
files are parsed.  A name counts as read when it is loaded anywhere in
the module.

Every ``raise`` in the library raises a ``MaxplusError`` subclass or
``NotImplementedError``, so that the CLI turns every rejected input into
exit status 3 rather than a traceback.

Every field of a library dataclass is read somewhere in the library or
the tests: as an attribute load, or as a string constant (a name that a
``getattr`` loop reads).  The scan goes by name, so it finds fields that
nothing reads under any name.

Every backticked dotted name in ``README.md`` that starts at ``maxplus``,
one of its modules or one of its exports (``ldp.pipeline``,
``maxplus.cli``, ``Kernel.rows``) resolves by ``getattr``, a dataclass
field with no default as its declared type, so that the README does not
name what the code no longer holds.

Every defaulted parameter of a module-level public function, and of a
public method, classmethod or staticmethod of a module-level class, in
the library is passed, by name or by position, by some call in the
library or in ``test_acceptance.py``, so that no option is settable that
no caller sets.  The defaulted fields of a public dataclass are the
parameters of its constructor, and a config object's fields are options
too, so they are scanned the same way.  Calls are matched by the called
name, as fields are; a call through an import alias counts under the
imported name (``cli``'s ``covering_verdict`` is ``covering.verdict``,
the acceptance tests' ``cli_main`` is ``cli.main``), and a starred
argument (``WindowSides(*pair)``) passes every position.

Every module-level private name of the library (a function, a class or
an assigned name with one leading underscore) is loaded somewhere in the
library, bare or as an attribute, so that no helper or constant outlives
its last library reader; tests do not count as readers.  The scan goes by
name, as the field scan does.
"""

import ast
import functools
import importlib
import re
from pathlib import Path

import pytest

import maxplus
from maxplus import errors

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "maxplus").glob("*.py"))
MODULE_NAMES = {p.stem for p in LIBRARY} - {"__init__"}
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


def is_dataclass(node):
    """Is the ``ast.ClassDef`` decorated with ``@dataclass``?"""
    return any(
        getattr(fn, "id", getattr(fn, "attr", None)) == "dataclass"
        for fn in (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    )


def field_statements(node):
    """The annotated field statements of a dataclass, in order."""
    return [
        stmt for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]


def dataclass_fields(source):
    """(class, field) of every annotated field of a ``@dataclass``."""
    return [
        (node.name, stmt.target.id)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef) and is_dataclass(node)
        for stmt in field_statements(node)
    ]


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


def member(obj, name):
    """``getattr(obj, name)``; a dataclass field with no default reads as its type."""
    field = getattr(obj, "__dataclass_fields__", {}).get(name)
    return field.type if field is not None and not hasattr(obj, name) else getattr(obj, name)


def unresolved_names(text):
    """Backticked dotted names in ``text`` that start at ``maxplus``, one of
    its modules or one of its exports, and that ``member`` does not resolve."""
    out = []
    for name in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", text):
        head, *rest = name.split(".")
        if head == "maxplus":
            head, *rest = rest
        elif head not in MODULE_NAMES and not hasattr(maxplus, head):
            continue  # numpy's, or a name the package does not export
        try:
            if head in MODULE_NAMES:
                obj = importlib.import_module(f"maxplus.{head}")
            else:
                obj = getattr(maxplus, head)
            functools.reduce(member, rest, obj)
        except AttributeError:
            out.append(name)
    return out


def test_readme_names_resolve():
    assert unresolved_names((ROOT / "README.md").read_text()) == []


def test_scan_sees_a_stale_readme_name():
    text = (
        "`ldp.pipeline` and `ldp.gone`, `maxplus.cli` and `maxplus.nowhere`,\n"
        "`Kernel.rows` and `Kernel.lost`, `GartnerOutput.tightness.holds` and\n"
        "`GartnerOutput.gone`, `np.quantile`, `Kernel.rows(..., out=buf)`"
    )
    assert unresolved_names(text) == [
        "ldp.gone", "maxplus.nowhere", "Kernel.lost", "GartnerOutput.gone"
    ]


def public_functions(source):
    """(function, bound) of every module-level public function and every
    public method of a module-level class; ``bound`` is true where a call
    does not pass the first parameter (``self`` or ``cls``)."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            out += [
                (fn, not any(getattr(d, "id", None) == "staticmethod"
                             for d in fn.decorator_list))
                for fn in node.body
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
            ]
        elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            out.append((node, False))
    return out


def field_default(stmt):
    """Does the dataclass field statement give a default?  ``field(...)``
    gives one only through ``default`` or ``default_factory``."""
    value = stmt.value
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return any(kw.arg in ("default", "default_factory") for kw in value.keywords)
    return value is not None


def defaulted_params(source):
    """(function, parameter, position) of every defaulted parameter of a
    ``public_functions`` entry, and (class, field, position) of every
    defaulted field of a module-level public dataclass; a position counts
    the arguments a call passes, and keyword-only parameters have
    position None."""
    out = []
    for node, bound in public_functions(source):
        args = node.args
        pos = (args.posonlyargs + args.args)[int(bound):]
        first = len(pos) - len(args.defaults)
        out += [(node.name, a.arg, i) for i, a in enumerate(pos) if i >= first]
        out += [
            (node.name, a.arg, None)
            for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
        ]
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and is_dataclass(node) and not node.name.startswith("_"):
            out += [
                (node.name, stmt.target.id, i)
                for i, stmt in enumerate(field_statements(node)) if field_default(stmt)
            ]
    return out


def unpassed_params(library, callers):
    """(function, parameter) of the defaulted parameters that no call in
    ``callers`` passes.  A call through an import alias
    (``from .m import f as g``) counts as a call of f."""
    n_pos, keywords = {}, set()
    for source in callers:
        tree = ast.parse(source)
        alias = {
            a.asname: a.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for a in node.names if a.asname
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                name = alias.get(name, name)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                n = float("inf") if starred else len(node.args)
                n_pos[name] = max(n_pos.get(name, 0), n)
                keywords |= {(name, kw.arg) for kw in node.keywords}
    return [
        (fn, arg)
        for source in library
        for fn, arg, i in defaulted_params(source)
        if (fn, arg) not in keywords and (i is None or n_pos.get(fn, 0) <= i)
    ]


def test_every_defaulted_parameter_is_passed():
    sources = [p.read_text() for p in LIBRARY]
    callers = sources + [(ROOT / "tests" / "test_acceptance.py").read_text()]
    assert unpassed_params(sources, callers) == []


def test_scan_sees_an_unpassed_parameter():
    source = (
        "def run(f, tol=0.0, *, seed=None, verbose=False, quiet=True):\n"
        "    return _spread(f, 2)\n"
        "def _spread(f, width=1):\n"
        "    return f\n"
        "class Runner:\n"
        "    def step(self, n=1, *, dry=False):\n"
        "        return n\n"
        "    @classmethod\n"
        "    def build(cls, size=4):\n"
        "        return cls()\n"
        "    @staticmethod\n"
        "    def scale(v, by=2):\n"
        "        return v\n"
        "    def _reset(self, to=0):\n"
        "        return to\n"
    )
    caller = (
        "from .m import run as go\n"
        "run(g, 1e-3)\ngo(g, seed=4)\nother(g, h, quiet=False)\n"
        "r.step(3)\nRunner.build()\nRunner.scale(1, 3)\n"
    )
    assert unpassed_params([source], [source, caller]) == [
        ("run", "verbose"), ("run", "quiet"), ("step", "dry"), ("build", "size"),
    ]


def test_scan_sees_an_unset_config_field():
    source = (
        "from dataclasses import dataclass, field\n"
        "@dataclass(frozen=True)\n"
        "class Config:\n"
        "    name: str\n"
        "    tol: float = 0.0\n"
        "    radius: int = 1\n"
        "    rows: list = field(default_factory=list)\n"
        "    report: object = field(repr=False)\n"
        "    LIMIT = 3\n"
        "@dataclass\n"
        "class Pair:\n"
        "    below: tuple = ()\n"
        "    above: tuple = ()\n"
        "@dataclass\n"
        "class _Private:\n"
        "    knob: int = 0\n"
        "class Plain:\n"
        "    other: int = 0\n"
    )
    caller = "Config('a', 1e-3)\nConfig('b', rows=[])\nPair(*flags)\n"
    assert unpassed_params([source], [source, caller]) == [("Config", "radius")]


def private_names(source):
    """(line, name) of every module-level function, class and assigned
    name with one leading underscore."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [
                (node.lineno, t.id) for target in targets for t in ast.walk(target)
                if isinstance(t, ast.Name)
            ]
    return [(line, name) for line, name in out if name.startswith("_") and not name.startswith("__")]


def loaded_names(source):
    """Names loaded anywhere in the source, bare or as an attribute."""
    return {
        getattr(node, "id", getattr(node, "attr", None))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def unloaded_private_names(library):
    loaded = set().union(*map(loaded_names, library))
    return [
        (line, name)
        for source in library
        for line, name in private_names(source)
        if name not in loaded
    ]


def test_every_private_name_is_loaded_in_the_library():
    assert unloaded_private_names([p.read_text() for p in LIBRARY]) == []


def test_scan_sees_an_unloaded_private_name():
    source = (
        "import numpy as np\n"
        "_ROWS = 512\n"
        "_BUDGET: int = 2**17\n"
        "_LO, _HI = 0, 1\n"
        "__all__ = ['act']\n"
        "def act(x):\n"
        "    _local = 1\n"
        "    return _merge(x) + _BUDGET + _local\n"
        "def _merge(x):\n"
        "    return x\n"
        "def _sweep(x):\n"
        "    return x\n"
        "class _Block:\n"
        "    pass\n"
    )
    reader = "from . import m\nm._LO\n"
    assert unloaded_private_names([source, reader]) == [
        (2, "_ROWS"), (4, "_HI"), (11, "_sweep"), (13, "_Block"),
    ]
