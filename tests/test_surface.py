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
"""

import ast
from pathlib import Path

import mnrules

# Members that are called by syntax or by the runtime, never by name.
PROTOCOL_MEMBERS = {
    "poly.SparsePoly.__slots__": "instance layout: ``terms`` is the only attribute",
    "poly.SparsePoly.__init__": "the constructor, SparsePoly({...}) in power_sum_poly and monomial",
    "poly.SparsePoly.__bool__": "``while rem`` in expand_in_schubert",
    "poly.SparsePoly.__eq__": "value protocol of an exported class",
    "poly.SparsePoly.__neg__": "``-other`` in __sub__",
    "poly.SparsePoly.__add__": "``self + (-other)`` in __sub__",
    "poly.SparsePoly.__sub__": "``rem - coeff * schubert_poly(u)`` in expand_in_schubert",
    "poly.SparsePoly.__mul__": "``power_sum_poly(r, k) * schubert_poly(w)`` in mn-schubert --verify",
    "poly.SparsePoly.__rmul__": "``coeff * schubert_poly(u)``; perfbench asserts it is __mul__",
    "poly.SparsePoly.__str__": "display protocol of an exported class",
    "poly.SparsePoly.__repr__": "display protocol of an exported class",
    "partitions._Record.__slots__": "instance layout: no fields of its own, and no ``__dict__``",
    "partitions._Record.__init_subclass__": "runs once per record class: slot setters and match args",
    "partitions._Record.__eq__": "value protocol of the exported records",
    "partitions._Record.__hash__": "value protocol of the exported records",
    "partitions._Record.__repr__": "display protocol; the n_core doctest prints a CoreResult",
    "partitions._Record.__reduce__": "pickle, copy.copy and copy.deepcopy of a record",
    "partitions._Record.__setattr__": "keeps a record immutable after __init__",
    "partitions._Record.__delattr__": "keeps a record immutable after __init__",
    "partitions.RimHookRecord.__slots__": "instance layout: inner, outer, size, height",
    "partitions.RimHookRecord.__init__": "the constructor, RimHookRecord(...) in add_rim_hooks and remove_rim_hooks",
    "partitions.CoreResult.__slots__": "instance layout: core, hooks_removed, height_sum",
    "partitions.CoreResult.__init__": "the constructor, CoreResult(...) in n_core",
    "quantum.GrContext.__slots__": "instance layout: k, n",
    "quantum.GrContext.__init__": "the constructor; checks that k and n are integers with 0 < k < n",
    "quantum.GeneratorCheck.__slots__": "instance layout: name, expected, actual, ok",
    "quantum.GeneratorCheck.__init__": "the constructor, GeneratorCheck(...) in ideal_vanishing_check",
}


def walk() -> tuple[set[str], set[str], set[str]]:
    """(every name defined, every class member, every name reached), as
    ``mod.name`` and ``mod.Class.member``."""
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
                    if isinstance(t, ast.Name) and not t.id.startswith("__"):
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
    todo = [resolve(("__init__", name)) for name in mnrules.__all__]
    todo.append(("cli", "main"))
    while todo:
        key = todo.pop()
        if key is not None and key not in seen:
            seen.add(key)
            todo.extend(references(*key, defs[key]))
        if not todo:
            todo.extend(key for key in reachable_members() if key not in seen)
    member_keys = {f"{mod}.{cls}.{name}" for (mod, cls), own in members.items() for name in own}
    return {f"{m}.{n}" for m, n in defs}, member_keys, {f"{m}.{n}" for m, n in seen}


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
    defined, members, reached = walk()
    assert sorted(defined - members - reached) == []


def test_every_class_member_is_reached_from_the_library_or_the_cli():
    defined, members, reached = walk()
    assert sorted(members - reached) == []
    assert sorted(set(PROTOCOL_MEMBERS) - members) == [], "allowlisted members that no longer exist"
