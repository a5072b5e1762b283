"""Every name a module of the package imports is read somewhere in it,
every private function or class the package defines is read somewhere in
the package, and so is every public module-level function, or else
``__init__.py`` re-exports it.

``__init__.py`` is skipped by the import check: it imports names to
re-export them."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "negdep"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the module's imports that no ``ast.Name`` reads,
    in import order; ``from __future__`` imports bind no name."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom typing import Sequence, Callable\n\nx: Sequence = os.sep\n"
    assert unused_imports(source) == ["Callable"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unused_private_definitions(sources: list[str]) -> list[str]:
    """The ``_private`` functions and classes (not ``__dunder__`` ones)
    defined in any of the sources that no ``ast.Name`` or ``ast.Attribute``
    reads in any of them, in definition order."""
    trees = [ast.parse(source) for source in sources]
    defined, read = [], set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_") and not node.name.endswith("__"):
                defined.append(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return [name for name in defined if name not in read]


def test_the_check_sees_an_unused_private_helper():
    sources = ["def _kept(): pass\ndef _dropped(): pass\nclass _Box:\n    def __init__(self): pass\n",
               "import a\nx = a._kept()\ny = _Box()\n"]
    assert unused_private_definitions(sources) == ["_dropped"]


def test_no_unused_private_helpers():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert unused_private_definitions(sources) == []


def unused_public_functions(sources: dict[str, str]) -> list[str]:
    """The public functions defined at the top level of the modules, given
    by file name, that no ``ast.Name`` or ``ast.Attribute`` reads in any of
    them and that ``__init__.py`` does not import to re-export, as
    ``module.function`` in file-name and definition order. Methods are not
    module-level and are not checked."""
    trees = {name: ast.parse(source) for name, source in sorted(sources.items())}
    defined, read = [], set()
    for name, tree in trees.items():
        defined += [f"{name.removesuffix('.py')}.{node.name}" for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not node.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and name == "__init__.py":
                read.update(alias.name for alias in node.names)
    return [qualified for qualified in defined if qualified.partition(".")[2] not in read]


def test_the_check_sees_an_unused_public_function():
    sources = {
        "__init__.py": "from .a import exported\n",
        "a.py": "def exported(): pass\ndef called(): pass\ndef dropped(): pass\n"
                "def _private(): pass\nclass Law:\n    def method(self): pass\n",
        "b.py": "from . import a\nx = a.called()\n",
    }
    assert unused_public_functions(sources) == ["a.dropped"]


def test_no_unused_public_functions():
    sources = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    assert unused_public_functions(sources) == []
