"""Every name and class member in src/mnrules is reachable from the library or the CLI.

Starting from ``mnrules.__all__`` and ``cli.main``, the walk follows name and
attribute references through the bodies of top-level definitions (functions,
classes and module constants), resolving ``from .x import y`` and
``from . import x`` as it goes.  Each member of a class is a node of its own:
a ``def`` (methods, classmethods, properties) or a class-level assignment.
Annotated names without a value are a record's fields; they belong to the
class.  A member is reached when its class is reached and reached code names
it as an attribute (``x.name`` or ``Cls.name``); matching by name alone can
only over-approximate.  Operator and protocol dunders are never named, so
``PROTOCOL_MEMBERS`` lists the ones the package relies on.  Anything the walk
never reaches is code only tests call, and belongs in ``tests/oracles.py`` or
nowhere.

Because an export counts as reached, the walk runs a second time from
``cli.main`` alone.  Every name in ``__all__`` must resolve to a definition,
and each one this walk does not reach is library API only: ``LIBRARY_API``
says why it is public.
"""

import ast
from pathlib import Path

import mnrules

# Members that are called by syntax or by the runtime, never by name.
PROTOCOL_MEMBERS = {
    "poly.SparsePoly.__slots__": "instance layout: ``terms`` is the only attribute",
    "poly.SparsePoly.__init__": "the constructor, SparsePoly({...}) in power_sum_poly",
    "poly.SparsePoly.__bool__": "value protocol of an exported class: a polynomial is false when zero",
    "poly.SparsePoly.__eq__": "value protocol of an exported class",
    "poly.SparsePoly.__neg__": "``-other`` in __sub__",
    "poly.SparsePoly.__add__": "``self + (-other)`` in __sub__",
    "poly.SparsePoly.__sub__": "ring protocol of an exported class",
    "poly.SparsePoly.__mul__": "ring protocol of an exported class",
    "poly.SparsePoly.__rmul__": "``c * f`` for an int c; perfbench asserts it is __mul__",
    "poly.SparsePoly.__str__": "display protocol of an exported class",
    "poly.SparsePoly.__repr__": "display protocol of an exported class",
    "partitions._Record.__slots__": "instance layout: no fields of its own, and no ``__dict__``",
    "partitions._Record.__eq__": "value protocol of the exported records",
    "partitions._Record.__ne__": "value protocol of the exported records: tuple's own ``!=`` would match a plain tuple",
    "partitions._Record.__hash__": "value protocol of the exported records",
    "partitions.CoreResult.__slots__": "instance layout: the named tuple's fields, and no ``__dict__``",
    "quantum.GrContext.__slots__": "instance layout: the named tuple's fields, and no ``__dict__``",
    "quantum.GrContext.__new__": "the constructor; checks that k and n are integers with 0 < k < n and k at most ROW_LIMIT",
    "quantum.GrContext._make": "called by the named tuple's ``_replace``; builds through the constructor's checks",
}

# Exports that no CLI command uses.
LIBRARY_API = {
    "__version__": "package metadata, the release in pyproject.toml",
    "grassmannian_permutation": "ties mn_schubert to mn_classical; the README gives its size limit",
    "power_sum_poly": "p_r(x_1..x_k) as a polynomial: the README's reference route, the tests and perfbench's recorder",
    "remove_rim_hooks": "the documented inverse of add_rim_hooks; n_core moves its beads directly",
    "schubert_poly": "the Schubert polynomial itself; no command prints one",
}


def walk(from_all: bool = True) -> tuple[set[str], set[str], set[str], dict[str, str | None]]:
    """(every name defined, every class member, every name reached, and each
    name in ``__all__`` with the definition it resolves to or None), as
    ``mod.name`` and ``mod.Class.member``.  Without ``from_all`` the walk
    starts from ``cli.main`` alone."""
    defs: dict[tuple[str, str], ast.AST] = {}
    members: dict[tuple[str, str], list[str]] = {}
    aliases: dict[tuple[str, str], tuple[str, str]] = {}
    modules: dict[tuple[str, str], str] = {}
    for path in sorted(Path(mnrules.__file__).parent.glob("*.py")):
        mod = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                defs[(mod, node.name)] = node
            elif isinstance(node, ast.ClassDef):
                members[(mod, node.name)] = []
                for item in node.body:
                    for name in member_names(item):
                        defs[(mod, f"{node.name}.{name}")] = item
                        members[(mod, node.name)].append(name)
                # the class node keeps its decorators, bases, docstring and fields
                node.body = [item for item in node.body if not member_names(item)]
                defs[(mod, node.name)] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    if isinstance(t, ast.Name) and t.id != "__all__":
                        defs[(mod, t.id)] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if node.module is None:
                        modules[(mod, bound)] = alias.name
                    else:
                        aliases[(mod, bound)] = (node.module, alias.name)

    def resolve(key):
        while key in aliases:
            key = aliases[key]
        return key if key in defs else None

    def references(mod: str, name: str, node: ast.AST):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield resolve((mod, sub.id))
                if "." in name and isinstance(node, (ast.Assign, ast.AnnAssign)):
                    # a class-level assignment may name a sibling: __rmul__ = __mul__
                    yield resolve((mod, f"{name.split('.')[0]}.{sub.id}"))
            elif isinstance(sub, ast.Attribute):
                named.add(sub.attr)
                if isinstance(sub.value, ast.Name):
                    target = modules.get((mod, sub.value.id))
                    if target is not None:
                        yield resolve((target, sub.attr))

    def reachable_members():
        for (mod, cls), own in members.items():
            for name in own:
                if (mod, cls) in seen and (
                    name in named or f"{mod}.{cls}.{name}" in PROTOCOL_MEMBERS
                ):
                    yield (mod, f"{cls}.{name}")

    named: set[str] = set()
    seen: set[tuple[str, str]] = set()
    exports = {name: resolve(("__init__", name)) for name in mnrules.__all__}
    todo = [("cli", "main"), *exports.values()] if from_all else [("cli", "main")]
    while todo:
        key = todo.pop()
        if key is not None and key not in seen:
            seen.add(key)
            todo.extend(references(*key, defs[key]))
        if not todo:
            todo.extend(key for key in reachable_members() if key not in seen)
    member_keys = {f"{mod}.{cls}.{name}" for (mod, cls), own in members.items() for name in own}
    export_keys = {name: key and f"{key[0]}.{key[1]}" for name, key in exports.items()}
    return {f"{m}.{n}" for m, n in defs}, member_keys, {f"{m}.{n}" for m, n in seen}, export_keys


def member_names(item: ast.stmt) -> list[str]:
    """The names a statement in a class body defines as members."""
    if isinstance(item, ast.FunctionDef):
        return [item.name]
    if isinstance(item, ast.Assign):
        return [t.id for t in item.targets if isinstance(t, ast.Name)]
    if isinstance(item, ast.AnnAssign) and item.value is not None and isinstance(item.target, ast.Name):
        return [item.target.id]
    return []


def test_every_src_name_is_reached_from_the_library_or_the_cli():
    defined, members, reached, _ = walk()
    assert sorted(defined - members - reached) == []


def test_every_class_member_is_reached_from_the_library_or_the_cli():
    defined, members, reached, _ = walk()
    assert sorted(members - reached) == []
    assert sorted(set(PROTOCOL_MEMBERS) - members) == [], "allowlisted members that no longer exist"


def test_every_export_is_used_by_the_cli_or_listed_as_library_api():
    _, _, reached, exports = walk(from_all=False)
    assert sorted(name for name, key in exports.items() if key is None) == [], "unresolved exports"
    library_only = {name for name, key in exports.items() if key not in reached}
    assert sorted(library_only - set(LIBRARY_API)) == []
    assert sorted(set(LIBRARY_API) - library_only) == [], "listed names no longer exported, or used by the CLI"
