"""Every name and class member in src/mnrules is reachable from the library or the CLI.

Starting from ``mnrules.__all__`` and ``cli.main``, the walk follows the
shared call graph (``tests/callgraph.py``), annotations included: an alias
such as ``Partition`` is there for its readers.  A member is reached when
its class is reached and reached code reads it as an attribute (``x.name``
or ``Cls.name``); matching by name alone can only over-approximate.
Operator and protocol dunders are never named, so ``PROTOCOL_MEMBERS`` lists
the ones the package relies on.  Anything the walk never reaches is code
only tests call, and belongs in ``tests/oracles.py`` or nowhere.

Because an export counts as reached, the walk runs a second time from
``cli.main`` alone.  Every name in ``__all__`` must resolve to a definition,
and each one this walk does not reach is library API only: ``LIBRARY_API``
says why it is public.
"""

from callgraph import call_graph

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
    """(every name defined in src, every class member, every name reached,
    and each name in ``__all__`` with the definition it resolves to or
    None).  Without ``from_all`` the walk starts from ``cli.main`` alone."""
    graph = call_graph()
    defined = {key for key in graph.calls if not key.startswith("oracles.")}
    members = {key for cls in defined & graph.members.keys() for key in graph.members[cls]}
    seen, read = set(), set()
    todo = ["cli.main", *graph.exports.values()] if from_all else ["cli.main"]
    while todo:
        key = todo.pop()
        if key is not None and key not in seen:
            seen.add(key)
            todo.extend(graph.calls[key] | graph.annotations[key])
            read |= graph.attributes[key]
        if not todo:
            todo = [
                key for cls in seen & graph.members.keys() for key in graph.members[cls]
                if key not in seen and (key.rpartition(".")[2] in read or key in PROTOCOL_MEMBERS)
            ]
    return defined, members, seen, graph.exports


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
