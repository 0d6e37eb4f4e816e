"""Every top-level name in src/mnrules is reachable from the library or the CLI.

Starting from ``mnrules.__all__`` and ``cli.main``, the walk follows name and
attribute references through the bodies of top-level definitions (functions,
classes and module constants), resolving ``from .x import y`` and
``from . import x`` as it goes.  Anything defined in ``src/mnrules`` that the
walk never reaches is code only tests call, and belongs in
``tests/oracles.py`` or nowhere.
"""

import ast
from pathlib import Path

import mnrules


def unreached_names() -> list[str]:
    defs: dict[tuple[str, str], ast.AST] = {}
    aliases: dict[tuple[str, str], tuple[str, str]] = {}
    modules: dict[tuple[str, str], str] = {}
    for path in sorted(Path(mnrules.__file__).parent.glob("*.py")):
        mod = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
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

    def references(mod: str, node: ast.AST):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield resolve((mod, sub.id))
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                target = modules.get((mod, sub.value.id))
                if target is not None:
                    yield resolve((target, sub.attr))

    todo = [resolve(("__init__", name)) for name in mnrules.__all__]
    todo.append(("cli", "main"))
    seen = set()
    while todo:
        key = todo.pop()
        if key is None or key in seen:
            continue
        seen.add(key)
        todo.extend(references(key[0], defs[key]))
    return sorted(f"{mod}.{name}" for mod, name in defs if (mod, name) not in seen)


def test_every_src_name_is_reached_from_the_library_or_the_cli():
    assert unreached_names() == []
