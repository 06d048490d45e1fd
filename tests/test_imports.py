"""Every name a module of the package imports is used in that module,
and every private name the package defines is used somewhere in it.

`__init__.py` is skipped by the import check: its imports are the
package's re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tautchern"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # Quoted annotations such as "TautExpr" name a type without a Name node.
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                used |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                         if isinstance(n, ast.Name)}
            except SyntaxError:
                pass
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_finds_an_unused_name():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == \
        ["line 1: os", "line 2: tau"]


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """The private names (a leading "_", not a dunder) defined at module or
    class level in sources, a {module name: source} map, that no module
    reads: as a name, an attribute, an imported name or a string equal to
    it (such as a getattr or setattr argument)."""
    defined, used = {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        bodies = [tree.body] + [n.body for n in tree.body if isinstance(n, ast.ClassDef)]
        for node in (n for body in bodies for n in body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.endswith("__"):
                    defined.setdefault(name, f"{module}:{node.lineno}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return [f"{where} {name}" for name, where in sorted(defined.items()) if name not in used]


def test_no_dead_private_names():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert dead_private_names(sources) == []


def test_dead_private_names_finds_an_unread_name():
    sources = {
        "a.py": "_A = 1\n_B = 2\n\ndef _f():\n    return _B\n\n\ndef __g__():\n    pass\n",
        "b.py": "from a import _f\n\n\nclass C:\n    _x: int = 0\n\n    def _m(self):\n"
                "        return getattr(self, '_x')\n",
    }
    assert dead_private_names(sources) == ["a.py:1 _A", "b.py:7 _m"]
