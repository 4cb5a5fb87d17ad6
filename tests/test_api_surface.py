"""src/ holds only what a run executes: every top-level function and method
of the package is named somewhere in the package itself, and every error
class is raised there and told apart by a handler."""
from __future__ import annotations

import ast
from pathlib import Path

import hwexposure

SOURCES = sorted(Path(hwexposure.__file__).parent.glob("*.py"))

# name -> why it stays without a caller in src/
ALLOWED: dict[str, str] = {}


def test_every_function_in_src_is_referenced_in_src():
    defined: dict[str, str] = {}  # name -> module.Class.name of its first definition
    referenced: set[str] = set()
    for path in SOURCES:
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


def test_every_error_class_is_raised_in_src():
    # a class counts when a raise in src/ names it, or when it is a base of
    # one that does (EngineError, which the CLI catches)
    raised: set[str] = set()
    bases: dict[str, list[str]] = {}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised |= {n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name)}
            elif isinstance(node, ast.ClassDef):
                bases[node.name] = [b.id for b in node.bases if isinstance(b, ast.Name)]
    live, todo = set(), list(raised)
    while todo:
        name = todo.pop()
        if name not in live:
            live.add(name)
            todo += bases.get(name, [])
    errors = ast.parse(Path(hwexposure.__file__).with_name("errors.py").read_text("utf-8"))
    defined = [node.name for node in errors.body if isinstance(node, ast.ClassDef)]
    assert [name for name in defined if name not in live] == []


def test_every_error_class_is_told_apart_by_a_handler():
    # a class that no except clause names is one no run tells apart from
    # the others; each kind of ending has its handler
    handlers: dict[str, set[str]] = {}  # class -> module.function of each except naming it
    for path in SOURCES:
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.ExceptHandler) and node.type is not None:
                    for name in ast.walk(node.type):
                        if isinstance(name, ast.Name):
                            handlers.setdefault(name.id, set()).add(
                                f"{path.stem}.{function.name}")
    errors = ast.parse(Path(hwexposure.__file__).with_name("errors.py").read_text("utf-8"))
    defined = [node.name for node in errors.body if isinstance(node, ast.ClassDef)]
    assert [name for name in defined if name not in handlers] == []
    assert {"cli.main"} <= handlers["EngineError"]  # exit 1
    assert {"cli.main"} <= handlers["ConfigError"]  # exit 2
    assert {"pipeline._stage_disparity", "pipeline._stage_bias"} \
        <= handlers["DegenerateSliceError"]  # a skipped, counted slice
    assert {"ingest.read_tracts", "pipeline._stage_surface"} \
        <= handlers["FormatError"]  # the file named
