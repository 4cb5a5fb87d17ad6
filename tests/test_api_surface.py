"""src/ holds only what a run executes: every top-level function and method
of the package is named somewhere in the package itself, every parameter is
read by its function, every name imported from another package module is
used where it is imported, every record field is read somewhere in the
package, every error class is raised there and told apart by a handler, and
every raise names one of those classes. Every function the outside tracer
(perfbench/traced_run.py) wraps still exists."""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

import hwexposure

SOURCES = sorted(Path(hwexposure.__file__).parent.glob("*.py"))
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "traced_run.py"

# name -> why it stays without a caller in src/
ALLOWED: dict[str, str] = {}
# module.function(parameter) -> why its function need not read it
ALLOWED_UNREAD_PARAMETERS: dict[str, str] = {}
# module.Class.field -> why no attribute read in src/ names it
ALLOWED_UNREAD_FIELDS: dict[str, str] = {}
# exception class -> why src/ raises it, though no handler tells it apart
ALLOWED_RAISES: dict[str, str] = {}
# module.function in the tracer's TRACED table -> why src/ need not have it
ALLOWED_UNTRACED: dict[str, str] = {
    "zonal.write_surface_csv": "gone since the surface report became one of pipeline's "
                               "reports; ROADMAP open item 3 deletes the outside tracer",
}


def parsed_sources():
    for path in SOURCES:
        yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


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


def test_every_parameter_in_src_is_read():
    # a parameter no statement of its function (nested ones included) loads
    # is one no run needs: its callers pass it for nothing
    unread = []
    for path, tree in parsed_sources():
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = function.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                      args.vararg, args.kwarg) if a is not None]
            loaded = {node.id for statement in function.body for node in ast.walk(statement)
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unread += [f"{path.stem}.{function.name}({name})" for name in params
                       if name not in loaded]
    assert sorted(set(unread) - set(ALLOWED_UNREAD_PARAMETERS)) == []
    assert set(ALLOWED_UNREAD_PARAMETERS) <= set(unread)  # no stale entry


def test_every_name_imported_from_the_package_is_used():
    # a name that a module imports from another package module and never
    # uses is a re-export or a leftover: a caller imports it from its home
    unused = []
    for path, tree in parsed_sources():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}:{node.lineno}: {alias.asname or alias.name}"
                   for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                   and (node.level or (node.module or "").split(".")[0] == "hwexposure")
                   for alias in node.names if (alias.asname or alias.name) not in used]
    assert unused == []


def test_every_record_field_in_src_is_read():
    # a NamedTuple field or __slots__ entry that no attribute load in src/
    # names is stored for nothing (a name read on any object counts)
    fields: dict[str, str] = {}  # module.Class.field -> field
    read: set[str] = set()
    for path, tree in parsed_sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            if not isinstance(node, ast.ClassDef):
                continue
            record = any(isinstance(base, ast.Name) and base.id == "NamedTuple"
                         for base in node.bases)
            for statement in node.body:
                if record and isinstance(statement, ast.AnnAssign):
                    names = [statement.target.id]
                elif isinstance(statement, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__slots__"
                        for t in statement.targets):
                    names = [c.value for c in ast.walk(statement.value)
                             if isinstance(c, ast.Constant) and isinstance(c.value, str)]
                else:
                    continue
                fields.update((f"{path.stem}.{node.name}.{name}", name) for name in names)
    unread = {where for where, name in fields.items() if name not in read}
    assert sorted(unread - set(ALLOWED_UNREAD_FIELDS)) == []
    assert set(ALLOWED_UNREAD_FIELDS) <= unread  # no stale entry


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


def test_every_raise_in_src_names_an_engine_error():
    # a run ends in a named bad input or a counted degenerate slice; a raise
    # of any other class (an internal-invariant ValueError, say) must state
    # its reason in ALLOWED_RAISES. A raised function call (`raise f(...)`)
    # counts by the calls its returns make.
    functions = {node.name: node for _, tree in parsed_sources() for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)}

    def callees(exc):  # the Name(...) calls that make an exception: `raise f(...) or exc`
        values = exc.values if isinstance(exc, ast.BoolOp) else [exc]
        return [v.func.id for v in values
                if isinstance(v, ast.Call) and isinstance(v.func, ast.Name)]

    def made(name):  # the classes that a raised Name(...) call makes
        if name not in functions:
            return [name]
        return [callee for node in ast.walk(functions[name])
                if isinstance(node, ast.Return) and node.value is not None
                for callee in callees(node.value)]

    raised = [(cls, f"{path.stem}:{node.lineno}") for path, tree in parsed_sources()
              for node in ast.walk(tree) if isinstance(node, ast.Raise) and node.exc is not None
              for name in callees(node.exc) for cls in made(name)]
    errors = ast.parse(Path(hwexposure.__file__).with_name("errors.py").read_text("utf-8"))
    allowed = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    assert sorted(f"{where}: {cls}" for cls, where in raised
                  if cls not in allowed and cls not in ALLOWED_RAISES) == []
    assert set(ALLOWED_RAISES) <= {cls for cls, _ in raised}  # no stale entry


def test_every_function_the_tracer_wraps_exists():
    # the tracer counts a function it cannot find as absent and times
    # nothing for it, so a rename in src/ would silently zero its metric
    table = next(node.value for node in ast.parse(TRACER.read_text(encoding="utf-8")).body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"])
    absent = {f"{module}.{name}" for _, module, names in ast.literal_eval(table)
              for name in names
              if not callable(getattr(importlib.import_module(f"hwexposure.{module}"),
                                      name, None))}
    assert sorted(absent - set(ALLOWED_UNTRACED)) == []
    assert set(ALLOWED_UNTRACED) <= absent  # no stale entry
