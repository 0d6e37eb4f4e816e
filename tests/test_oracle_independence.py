"""Each public rule has an oracle that shares no kernel with it.

The walk follows the shared call graph of ``src/mnrules`` and
``tests/oracles.py`` (``tests/callgraph.py``).  A definition reaches every
definition its evaluated code names, and a class reaches all of its members;
annotations are never evaluated and do not count.  Matching by name can
only over-approximate what runs.

For each pair below, the call graphs of a rule and of a route that checks it
may meet only in ``SHARED``: argument checks, records and the signed-sum
accumulator.  The walk does not look inside these, so a kernel they call
does not count as shared.  Anything else the two graphs hold in common is
code a bug could put into both answers at once, so that they still agree.
"""

import pytest
from callgraph import call_graph

# (rule, a route that checks it from a different definition)
ORACLES = [
    ("symfun.mn_classical", "oracles.oracle_add_rim_hooks"),
    ("schubert.mn_schubert", "oracles.polynomial_route_mn_schubert"),
    ("quantum.quantum_mn", "oracles.schubert_route_quantum_mn"),
    ("quantum.quantum_mn", "oracles.pieri_newton_quantum_mn"),
    ("partitions.n_core", "oracles.hook_at_a_time_n_core"),
    # the mn-schubert --verify route
    ("schubert.mn_schubert", "schubert.power_sum_times"),
]

SHARED = {
    "partitions.validate_partition": "checks a partition argument",
    "partitions.require_fits": "checks that a partition has at most k rows",
    "partitions.require_int": "reads an integer argument, with its least value",
    "partitions._require_rows": "checks a row count against ROW_LIMIT",
    "perm.canonical": "checks one-line notation and trims fixed points",
    "perm.require_support": "checks a word length against SUPPORT_LIMIT",
    "perm.default_max_support": "the support bound, checked against SUPPORT_LIMIT",
    "quantum._require_args": "checks lam, r and the box of Gr(k, n)",
    "partitions.CoreResult": "record of an n-core",
    "quantum.GrContext": "record of (k, n), checked when built",
    "partitions._add": "the one accumulator for signed sums",
}


def reach(start: str) -> set[str]:
    """Every definition ``start`` reaches, without looking inside ``SHARED``."""
    graph = call_graph()
    seen, todo = set(), [start]
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            if key not in SHARED:
                todo.extend([*graph.calls[key], *graph.members.get(key, [])])
    return seen


def test_shared_definitions_exist():
    assert sorted(set(SHARED) - set(call_graph().calls)) == []


@pytest.mark.parametrize("rule, oracle", ORACLES)
def test_rule_and_oracle_meet_only_in_shared_checks(rule, oracle):
    ours, theirs = reach(rule), reach(oracle)
    # the walk sees each side's own kernel, so an empty graph cannot pass
    assert ours - set(SHARED) - {rule} and theirs - set(SHARED) - {oracle}
    assert sorted(ours & theirs - set(SHARED)) == []


def test_mn_quantum_verify_shares_only_the_splice():
    # quantum_mn splices its rows itself, and oracle_quantum_mn, the check of
    # mn-quantum --verify, does through mn_classical's rim hooks
    shared = reach("quantum.quantum_mn") & reach("quantum.oracle_quantum_mn")
    assert sorted(shared - set(SHARED)) == ["partitions._splice"]
