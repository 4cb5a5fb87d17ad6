"""src/ holds only what a run executes: every top-level function and method
of the package is named somewhere in the package itself."""
from __future__ import annotations

import ast
from pathlib import Path

import hwexposure

# name -> why it stays without a caller in src/
ALLOWED: dict[str, str] = {}


def test_every_function_in_src_is_referenced_in_src():
    defined: dict[str, str] = {}  # name -> module.Class.name of its first definition
    referenced: set[str] = set()
    for path in sorted(Path(hwexposure.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            owner, members = (f"{node.name}.", node.body) if isinstance(node, ast.ClassDef) \
                else ("", [node])
            for member in members:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defined.setdefault(member.name, f"{path.stem}.{owner}{member.name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unused = sorted(where for name, where in defined.items()
                    if name not in referenced and name not in ALLOWED
                    and not (name.startswith("__") and name.endswith("__")))
    assert unused == []
    assert set(ALLOWED) <= set(defined) - referenced  # the allowlist holds no stale name
