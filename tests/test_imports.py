"""Every module of the package uses each name it imports.

Standard library only: the check parses each module with ast and compares
the names its import statements bind with the names its code reads.
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


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8"), path.name) == []


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
