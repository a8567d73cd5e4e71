"""Every module of the package uses each name it imports, imports no
other module's private (leading-underscore) name, and defines no function
or class that the package never reaches.

Standard library only: the checks parse each module with ast and compare
the names its import statements bind, and the names it defines, with the
names its code reads.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "porofem"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import statement, with its line number."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """Names the module reads, in code, in quoted annotations or in __all__."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    used |= {n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                             if isinstance(n, ast.Name)}
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return used


def unused_imports(source: str, module: str = "<source>") -> list[str]:
    tree = ast.parse(source)
    used = _used_names(tree)
    return [
        f"{module}:{line}: {name}"
        for name, line in sorted(_imported_names(tree).items(), key=lambda item: item[1])
        if name not in used
    ]


def private_imports(source: str, module: str = "<source>") -> list[str]:
    """Each leading-underscore name a from-import takes from another module."""
    return [
        f"{module}:{node.lineno}: {alias.name} from {'.' * node.level}{node.module or ''}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
        if alias.name.startswith("_")
    ]


def unreached_definitions(sources: dict[str, str]) -> list[str]:
    """Functions and classes of the package that no reached code names.

    Each module's top-level code is reached, and so is each definition that
    reached code other than its own names: a class member by an attribute
    (`x.name`), any other definition also by a bare or imported name.
    Dunder methods count as reached, since Python calls them.  A string in
    __all__ names nothing, but an import in __init__.py does.
    """
    scopes = []  # (qualified name, name, is a class member, names, attributes)

    def visit(node, qualname, member):
        names, attrs = set(), set()
        stack = list(ast.iter_child_nodes(node))
        while stack:
            sub = stack.pop()
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                sep = ":" if isinstance(node, ast.Module) else "."
                visit(sub, f"{qualname}{sep}{sub.name}", isinstance(node, ast.ClassDef))
                continue
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                attrs.add(sub.attr)
            elif isinstance(sub, ast.ImportFrom):
                names.update(alias.name for alias in sub.names)
            stack.extend(ast.iter_child_nodes(sub))
        scopes.append((qualname, getattr(node, "name", ""), member, names, attrs))

    for module, source in sources.items():
        visit(ast.parse(source), module, False)
    live = set(sources)
    while True:
        names = set().union(*(s[3] for s in scopes if s[0] in live))
        attrs = set().union(*(s[4] for s in scopes if s[0] in live))
        reached = {
            qualname for qualname, name, member, _, _ in scopes
            if qualname not in live and (name in attrs or (not member and name in names)
                                         or name.startswith("__") and name.endswith("__"))
        }
        if not reached:
            return sorted(s[0] for s in scopes if s[0] not in live)
        live |= reached


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8"), path.name) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_no_private_name(path):
    assert private_imports(path.read_text(encoding="utf-8"), path.name) == []


def test_package_defines_nothing_unreached():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert unreached_definitions(sources) == []


def test_unreached_definition_check_flags_and_clears():
    sources = {
        "a.py": (
            "__all__ = ['used', 'exported_only']\n"
            "def used(): return Box().size\n"
            "def exported_only(): return helper()\n"
            "def helper(): return helper()\n"
            "class Box:\n"
            "    def __init__(self): self.n = 1\n"
            "    @property\n"
            "    def size(self): return self.n\n"
            "    def area(self): return self.n\n"
        ),
        "__init__.py": "from .a import used\narea = 0\n",
    }
    # helper is named only by itself and by an unreached function, and a
    # bare name (area) does not reach a member.
    assert unreached_definitions(sources) == ["a.py:Box.area", "a.py:exported_only", "a.py:helper"]


def test_unused_import_check_flags_and_clears():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from typing import Optional, Sequence\n"
        "from .mesh import Mesh\n"
        "__all__ = ['Mesh']\n"
        "def f(x: 'Optional[int]') -> float:\n"
        "    return np.sqrt(x)\n"
    )
    assert unused_imports(source) == ["<source>:3: Sequence"]


def test_private_import_check_flags_and_clears():
    source = (
        "from __future__ import annotations\n"
        "from .assembly import DofMap, _edge_rule\n"
        "from . import _version\n"
        "import numpy as np\n"
    )
    assert private_imports(source) == [
        "<source>:2: _edge_rule from .assembly",
        "<source>:3: _version from .",
    ]
