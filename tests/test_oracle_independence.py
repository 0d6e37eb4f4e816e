"""Each public rule has an oracle that shares no kernel with it.

An AST walk over ``src/mnrules`` and ``tests/oracles.py`` builds a call graph
whose nodes are top-level definitions: functions, module constants and
classes, a class with all of its methods.  A function reaches every
definition it names, directly, through ``from .x import y`` or
``from mnrules.x import y``, or as ``module.name``; annotations are never
evaluated and do not count.  Matching by name can only over-approximate what
runs.

For each pair below, the call graphs of a rule and of a route that checks it
may meet only in ``SHARED``: argument checks, records and the signed-sum
accumulator.
The walk does not look inside these, so a kernel they call does not count as
shared.  Anything else the two graphs hold in common is code a bug could put
into both answers at once, so that they still agree.
"""

import ast
from pathlib import Path

import pytest

import mnrules

# (rule, a route that checks it from a different definition)
ORACLES = [
    ("symfun.mn_classical", "oracles.oracle_add_rim_hooks"),
    ("schubert.mn_schubert", "oracles.polynomial_route_mn_schubert"),
    ("quantum.quantum_mn", "oracles.schubert_route_quantum_mn"),
    # the mn-schubert --verify route
    ("schubert.mn_schubert", "schubert.power_sum_times"),
]

SHARED = {
    "partitions.validate_partition": "checks a partition argument",
    "partitions.require_fits": "checks that a partition has at most k rows",
    "partitions._require_rows": "checks a row count against ROW_LIMIT",
    "perm.canonical": "checks one-line notation and trims fixed points",
    "perm.require_support": "checks a word length against SUPPORT_LIMIT",
    "perm.default_max_support": "the support bound, checked against SUPPORT_LIMIT",
    "quantum._require_args": "checks lam, r and the box of Gr(k, n)",
    "partitions._Record": "base of the records: equality and hashing",
    "partitions.CoreResult": "record of an n-core",
    "quantum.GrContext": "record of (k, n), checked when built",
    "poly._add": "the one accumulator for signed sums",
}

SOURCES = {
    **{path.stem: path for path in Path(mnrules.__file__).parent.glob("*.py")},
    "oracles": Path(__file__).with_name("oracles.py"),
}


def imported_module(node: ast.ImportFrom, mod: str) -> str | None:
    """The mnrules module a ``from ... import`` reads from: its name, ""
    for the package itself, or None for anything outside the package."""
    if mod != "oracles" and node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == "mnrules":
        return node.module.partition(".")[2]
    return None


def evaluated(node: ast.AST):
    """Every node below ``node`` except annotations."""
    for field, value in ast.iter_fields(node):
        if field in ("annotation", "returns"):
            continue
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                yield child
                yield from evaluated(child)


def call_graph() -> dict[str, set[str]]:
    """``mod.name`` -> the definitions its body names, for every top-level
    definition in the package and the oracles."""
    defs: dict[tuple[str, str], ast.AST] = {}
    aliases: dict[tuple[str, str], tuple[str, str]] = {}
    modules: dict[tuple[str, str], str] = {}
    for mod, path in SOURCES.items():
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[(mod, node.name)] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    if isinstance(t, ast.Name):
                        defs[(mod, t.id)] = node
        # imports inside a function count for the whole module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = imported_module(node, mod)
                for alias in node.names if source is not None else []:
                    bound = (mod, alias.asname or alias.name)
                    if source:
                        aliases[bound] = (source, alias.name)
                    else:
                        modules[bound] = alias.name

    def resolve(key):
        while key in aliases:
            key = aliases[key]
        return key if key in defs else None

    def named(mod: str, node: ast.AST):
        for sub in evaluated(node):
            if isinstance(sub, ast.Name):
                yield resolve((mod, sub.id))
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                target = modules.get((mod, sub.value.id))
                if target is not None:
                    yield resolve((target, sub.attr))

    return {
        f"{mod}.{name}": {f"{m}.{n}" for m, n in filter(None, named(mod, node))} - {f"{mod}.{name}"}
        for (mod, name), node in defs.items()
    }


def reach(graph: dict[str, set[str]], start: str) -> set[str]:
    """Every definition ``start`` reaches, without looking inside ``SHARED``."""
    seen, todo = set(), [start]
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            if key not in SHARED:
                todo.extend(graph[key])
    return seen


def test_shared_definitions_exist():
    graph = call_graph()
    assert sorted(set(SHARED) - set(graph)) == []


@pytest.mark.parametrize("rule, oracle", ORACLES)
def test_rule_and_oracle_meet_only_in_shared_checks(rule, oracle):
    graph = call_graph()
    ours, theirs = reach(graph, rule), reach(graph, oracle)
    # the walk sees each side's own kernel, so an empty graph cannot pass
    assert ours - set(SHARED) - {rule} and theirs - set(SHARED) - {oracle}
    assert sorted(ours & theirs - set(SHARED)) == []
