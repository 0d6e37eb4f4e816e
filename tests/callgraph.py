"""One call graph of ``src/mnrules`` and ``tests/oracles.py``, for the structure tests.

Each source is parsed once.  A node is a top-level definition, ``mod.name``
(a function, a class or a module constant), or a class member,
``mod.Class.member`` (a ``def`` or a class-level assignment).  Annotated
names without a value bind nothing: in a class they are a record's fields
and belong to the class node, with its decorators, bases and docstring.

A name resolves through ``from .x import y``, ``from mnrules.x import y``,
``from . import x`` and ``from mnrules import x`` (then ``x.name``), wherever
in its module the import stands.  In a class body outside a ``def``, a name
may also be a sibling member: ``__rmul__ = __mul__``.  Matching by name can
only over-approximate what runs.
"""

import ast
import functools
from pathlib import Path
from typing import NamedTuple

import mnrules

SOURCES = {
    **{path.stem: path for path in Path(mnrules.__file__).parent.glob("*.py")},
    "oracles": Path(__file__).with_name("oracles.py"),
}


class CallGraph(NamedTuple):
    calls: dict[str, set[str]]  # node -> the definitions its evaluated code names
    annotations: dict[str, set[str]]  # node -> the definitions it names only in annotations
    attributes: dict[str, set[str]]  # node -> the attribute names its evaluated code reads
    members: dict[str, list[str]]  # class -> its member nodes
    exports: dict[str, str | None]  # each name in mnrules.__all__ -> its definition, or None


def _bound(stmt: ast.stmt) -> list[str]:
    """The names a def, a class or an assignment with a value binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and stmt.value and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _walk(node: ast.AST, note: bool = False):
    """(each node at or below ``node``, whether it sits in an annotation)."""
    yield node, note
    for field, value in ast.iter_fields(node):
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                yield from _walk(child, note or field in ("annotation", "returns"))


@functools.cache
def call_graph() -> CallGraph:
    """The graph, built on the first call and shared; callers only read it."""
    code: dict[str, tuple[str, str | None, list[ast.AST]]] = {}  # node -> (mod, class scope, code)
    members: dict[str, list[str]] = {}
    aliases: dict[str, str] = {}  # mod.bound -> mod.name it was imported from
    modules: dict[str, str] = {}  # mod.bound -> the module imported under that name
    exported: list[str] = []
    for mod, path in SOURCES.items():
        tree = ast.parse(path.read_text())
        for node in tree.body:
            for name in _bound(node):
                if name == "__all__":
                    exported = ast.literal_eval(node.value)
                else:
                    code[f"{mod}.{name}"] = (mod, None, [node])
            if isinstance(node, ast.ClassDef):
                key = f"{mod}.{node.name}"
                rest = [*node.decorator_list, *node.bases, *node.keywords]
                for item in node.body:
                    rest.extend([] if _bound(item) else [item])
                    for name in _bound(item):
                        scope = None if isinstance(item, ast.FunctionDef) else node.name
                        code[f"{key}.{name}"] = (mod, scope, [item])
                        members.setdefault(key, []).append(f"{key}.{name}")
                code[key] = (mod, node.name, rest)
        for node in (node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)):
            source = node.module or ""
            if node.level == 0 and source.partition(".")[0] == "mnrules":
                source = source.partition(".")[2]
            elif node.level != 1 or mod == "oracles":
                continue
            for alias in node.names:
                bound = f"{mod}.{alias.asname or alias.name}"
                if source:
                    aliases[bound] = f"{source}.{alias.name}"
                else:
                    modules[bound] = alias.name

    def resolve(mod: str, name: str) -> str | None:
        key = f"{mod}.{name}"
        while key in aliases:
            key = aliases[key]
        return key if key in code else None

    graph = CallGraph({}, {}, {}, members, {name: resolve("__init__", name) for name in exported})
    for key, (mod, scope, nodes) in code.items():
        calls, notes, read = set(), set(), set()
        for node in nodes:
            for sub, note in _walk(node):
                if isinstance(sub, ast.Name):
                    found = {resolve(mod, sub.id), scope and resolve(mod, f"{scope}.{sub.id}")}
                elif isinstance(sub, ast.Attribute):
                    read |= set() if note else {sub.attr}
                    base = isinstance(sub.value, ast.Name) and modules.get(f"{mod}.{sub.value.id}")
                    found = {base and resolve(base, sub.attr)}
                else:
                    continue
                (notes if note else calls).update(filter(None, found))
        graph.calls[key], graph.annotations[key], graph.attributes[key] = calls, notes - calls, read
    return graph
