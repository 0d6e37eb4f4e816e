"""Every refusal of the library is pinned here: each call below raises
ValueError with its exact message, which a missing or reordered check would
change or silence.

Integer arguments are all read by ``partitions.require_int``, so a float, a
string or a fraction gets its one message and a value below the least
``need {name} >= {least}, got {value}``.  A function checks its partition or
word first, then each integer in signature order, then the checks that
relate two arguments.
"""

from fractions import Fraction

import pytest

from mnrules.partitions import add_rim_hooks, box_partition, n_core, remove_rim_hooks, strips
from mnrules.perm import SUPPORT_LIMIT, canonical, chain_endpoints, inverse, k_bruhat_covers, length
from mnrules.poly import SparsePoly
from mnrules.quantum import GrContext, oracle_quantum_mn, quantum_mn, quantum_mn_extended
from mnrules.schubert import grassmannian_permutation, mn_schubert, monk, power_sum_times
from mnrules.symfun import mn_classical, pieri_e, pieri_h, power_sum_poly


def not_integers(label, call, name, value=2):
    """Rows that pass ``value`` as a float, a string and a fraction for the
    argument ``name`` of ``call``: each is refused, never truncated, carried
    into a shape or recursed on."""
    return [
        pytest.param(lambda bad=bad: call(bad), f"{name} must be an integer, got {bad!r}", id=f"{label}-{kind}")
        for kind, bad in (("float", float(value)), ("str", str(value)), ("fraction", Fraction(value)))
    ]


REFUSALS = [
    pytest.param(lambda: add_rim_hooks((1,), 0, 3), "need r >= 1, got 0", id="add_rim_hooks-r0"),
    pytest.param(lambda: add_rim_hooks((1,), 1, -1), "need max_rows >= 0, got -1", id="add_rim_hooks-max_rows-1"),
    *not_integers("add_rim_hooks-r", lambda v: add_rim_hooks((1,), v, 3), "r"),
    *not_integers("add_rim_hooks-max_rows", lambda v: add_rim_hooks((1,), 2, v), "max_rows"),
    # one past the plain-int fast path, which takes max_rows up to ROW_LIMIT
    pytest.param(lambda: add_rim_hooks((1,), 2, 501), "501 rows is over the limit of 500", id="add_rim_hooks-max_rows-501"),
    pytest.param(lambda: remove_rim_hooks((2,), 0), "need r >= 1, got 0", id="remove_rim_hooks-r0"),
    *not_integers("remove_rim_hooks-r", lambda v: remove_rim_hooks((3,), v), "r"),
    pytest.param(lambda: n_core((3, 2, 1), 1), "need n >= 2, got 1", id="n_core-n1"),
    *not_integers("n_core-n", lambda v: n_core((5, 3), v), "n"),
    pytest.param(
        lambda: n_core((200002,), 2), "may strip up to 100001 hooks, over the limit of 100000", id="n_core-hooks-over-limit"
    ),
    pytest.param(lambda: strips((1,), 0, "horizontal", 3), "need size >= 1, got 0", id="strips-size0"),
    *not_integers("strips-size", lambda v: strips((2, 1), v, "vertical", 3), "size"),
    *not_integers("strips-max_rows", lambda v: strips((2, 1), 1, "vertical", v), "max_rows"),
    # a max_rows of 2.5 used to recurse until RecursionError
    pytest.param(lambda: strips((2, 1), 1, "vertical", 2.5), "max_rows must be an integer, got 2.5", id="strips-max_rows-2.5"),
    *not_integers("box_partition-k", lambda v: box_partition(v, 5), "k"),
    *not_integers("box_partition-n", lambda v: box_partition(2, v), "n"),
    pytest.param(lambda: GrContext(0, 4), "need 0 < k < n, got k=0, n=4", id="GrContext-k0"),
    pytest.param(lambda: GrContext(4, 4), "need 0 < k < n, got k=4, n=4", id="GrContext-k-is-n"),
    pytest.param(lambda: GrContext(5, 3), "need 0 < k < n, got k=5, n=3", id="GrContext-k-over-n"),
    pytest.param(lambda: GrContext(3, 3), "need 0 < k < n, got k=3, n=3", id="GrContext-k-is-n-3"),
    # k is the row count of every shape in the box; the fast path takes k up to ROW_LIMIT
    pytest.param(lambda: GrContext(501, 1000), "501 rows is over the limit of 500", id="GrContext-k-over-row-limit"),
    *not_integers("GrContext-k", lambda v: GrContext(v, 4), "k"),
    *not_integers("GrContext-n", lambda v: GrContext(2, v), "n", 4),
    pytest.param(lambda: GrContext(1.5, 4), "k must be an integer, got 1.5", id="GrContext-k-1.5"),
    pytest.param(lambda: GrContext(None, 4), "k must be an integer, got None", id="GrContext-k-None"),
    # k is read before n, whatever n is
    pytest.param(lambda: GrContext("2", 4.0), "k must be an integer, got '2'", id="GrContext-k-before-n"),
    *not_integers("quantum_mn-r", lambda v: quantum_mn((1,), v, GrContext(2, 5)), "r"),
    # quantum_mn: lam against the box first, then 1 <= r < n
    pytest.param(lambda: quantum_mn((3, 2, 1), 0, GrContext(4, 8)), "need 1 <= r < n=8, got r=0", id="quantum_mn-r0"),
    pytest.param(lambda: quantum_mn((3, 2, 1), 8, GrContext(4, 8)), "need 1 <= r < n=8, got r=8", id="quantum_mn-r-is-n"),
    pytest.param(
        lambda: quantum_mn((5, 2, 1), 3, GrContext(4, 8)), "(5, 2, 1) does not fit in the 4 x 4 box", id="quantum_mn-past-box"
    ),
    pytest.param(
        lambda: quantum_mn((1,) * 5, 3, GrContext(4, 8)),
        "(1, 1, 1, 1, 1) does not fit in the 4 x 4 box",
        id="quantum_mn-over-k-rows",
    ),
    pytest.param(
        lambda: quantum_mn((5, 2, 1), 8, GrContext(4, 8)),
        "(5, 2, 1) does not fit in the 4 x 4 box",
        id="quantum_mn-box-before-r",
    ),
    # the reduction oracle takes any r >= 1 and any lam of at most k rows
    pytest.param(lambda: oracle_quantum_mn((3, 2, 1), 0, GrContext(4, 8)), "need r >= 1, got 0", id="oracle_quantum_mn-r0"),
    pytest.param(
        lambda: oracle_quantum_mn((1,) * 5, 3, GrContext(4, 8)),
        "(1, 1, 1, 1, 1) has more than 4 rows",
        id="oracle_quantum_mn-over-k-rows",
    ),
    *not_integers("quantum_mn_extended-r", lambda v: quantum_mn_extended((1,), v, GrContext(2, 5)), "r", 7),
    # the partition is checked before r, r before r mod n, and r mod n
    # before lam against the box
    pytest.param(
        lambda: quantum_mn_extended((1, 2), 0, GrContext(2, 5)),
        "parts must be weakly decreasing, got (1, 2)",
        id="quantum_mn_extended-lam-before-r",
    ),
    pytest.param(lambda: quantum_mn_extended((1,), 0, GrContext(2, 5)), "need r >= 1, got 0", id="quantum_mn_extended-r0"),
    pytest.param(
        lambda: quantum_mn_extended((1,), 10, GrContext(2, 5)), "r divisible by n=5 is not supported", id="quantum_mn_extended-r-mod-n"
    ),
    pytest.param(
        lambda: quantum_mn_extended((5, 2, 1), 11, GrContext(4, 8)),
        "(5, 2, 1) does not fit in the 4 x 4 box",
        id="quantum_mn_extended-past-box",
    ),
    pytest.param(
        lambda: quantum_mn_extended((5, 2, 1), 16, GrContext(4, 8)),
        "r divisible by n=8 is not supported",
        id="quantum_mn_extended-r-mod-n-before-box",
    ),
    # mn_classical: lam, then r, then k with its row limit, then lam's row count
    pytest.param(lambda: mn_classical((1, 2), 1, 3), "parts must be weakly decreasing, got (1, 2)", id="mn_classical-lam"),
    pytest.param(
        lambda: mn_classical((1, 2), 0, 600), "parts must be weakly decreasing, got (1, 2)", id="mn_classical-lam-before-r"
    ),
    pytest.param(lambda: mn_classical((1.5,), 1, 2), "parts must be positive integers, got (1.5,)", id="mn_classical-lam-float"),
    pytest.param(lambda: mn_classical((2, -1), 1, 3), "parts must be positive integers, got (2, -1)", id="mn_classical-lam-negative"),
    pytest.param(lambda: mn_classical((2, 1, 1), 0, 2), "need r >= 1, got 0", id="mn_classical-r-before-rows"),
    pytest.param(lambda: mn_classical((1, 1), 1, 1), "(1, 1) has more than 1 rows", id="mn_classical-rows"),
    pytest.param(lambda: mn_classical((), 1, -1), "need k >= 0, got -1", id="mn_classical-k-1"),
    pytest.param(lambda: mn_classical((3,), -2, -1), "need r >= 1, got -2", id="mn_classical-r-before-k"),
    pytest.param(lambda: mn_classical((1,) * 600, 1, 501), "501 rows is over the limit of 500", id="mn_classical-limit-first"),
    pytest.param(lambda: mn_classical((1,), 0, 501), "need r >= 1, got 0", id="mn_classical-r0"),
    pytest.param(lambda: mn_classical((), 0, 0), "need r >= 1, got 0", id="mn_classical-r0-k0"),
    pytest.param(lambda: mn_classical((1,), 2, 501), "501 rows is over the limit of 500", id="mn_classical-k-limit"),
    pytest.param(lambda: mn_classical((1,) * 501, 1, 501), "501 rows is over the limit of 500", id="mn_classical-limit-501-rows"),
    *not_integers("mn_classical-r", lambda v: mn_classical((1,), v, 3), "r"),
    *not_integers("mn_classical-k", lambda v: mn_classical((1,), 2, v), "k"),
    pytest.param(lambda: pieri_e((1,), 0, 2), "need a >= 1, got 0", id="pieri_e-a0"),
    *not_integers("pieri_e-a", lambda v: pieri_e((1,), v, 3), "a"),
    *not_integers("pieri_e-k", lambda v: pieri_e((1,), 2, v), "k", 3),
    pytest.param(lambda: pieri_h((1,), 0, 2), "need b >= 1, got 0", id="pieri_h-b0"),
    *not_integers("pieri_h-b", lambda v: pieri_h((1,), v, 3), "b"),
    *not_integers("pieri_h-k", lambda v: pieri_h((1,), 2, v), "k", 3),
    pytest.param(lambda: power_sum_poly(0, 2), "need r >= 1, got 0", id="power_sum_poly-r0"),
    pytest.param(lambda: power_sum_poly(2, 0), "need k >= 1, got 0", id="power_sum_poly-k0"),
    *not_integers("power_sum_poly-r", lambda v: power_sum_poly(v, 2), "r"),
    *not_integers("power_sum_poly-k", lambda v: power_sum_poly(2, v), "k"),
    pytest.param(lambda: canonical((1, 1, 2)), "not a permutation of 1..3: (1, 1, 2)", id="canonical-repeat"),
    pytest.param(lambda: canonical([2.7, 1]), "entries must be integers, got (2.7, 1)", id="canonical-float"),
    # a list or a generator is copied to a tuple, so the message shows the same word
    pytest.param(lambda: canonical([1, 1, 2]), "not a permutation of 1..3: (1, 1, 2)", id="canonical-list"),
    pytest.param(lambda: canonical(v for v in (1, 1, 2)), "not a permutation of 1..3: (1, 1, 2)", id="canonical-generator"),
    pytest.param(lambda: canonical(v for v in (2.7, 1)), "entries must be integers, got (2.7, 1)", id="canonical-generator-float"),
    pytest.param(lambda: inverse((3,)), "not a permutation of 1..1: (3,)", id="inverse-out-of-range"),
    pytest.param(lambda: inverse((2, 2)), "not a permutation of 1..2: (2, 2)", id="inverse-repeat"),
    pytest.param(lambda: length((2.5, 1)), "entries must be integers, got (2.5, 1)", id="length-float"),
    # k_bruhat_covers: the word first, then k, then the support limit, then
    # the bound; every bound here is below max(len(w), k) + 1, and a low
    # bound raises instead of truncating
    pytest.param(
        lambda: k_bruhat_covers((1.0, 2), SUPPORT_LIMIT, 1), "entries must be integers, got (1.0, 2)", id="k_bruhat_covers-non-integer"
    ),
    pytest.param(
        lambda: k_bruhat_covers((v for v in (1.0, 2)), 1, 3), "entries must be integers, got (1.0, 2)", id="k_bruhat_covers-generator"
    ),
    pytest.param(lambda: k_bruhat_covers((1, 1), 0, 1), "not a permutation of 1..2: (1, 1)", id="k_bruhat_covers-word-before-k"),
    pytest.param(lambda: k_bruhat_covers([1, 1], 1, 3), "not a permutation of 1..2: (1, 1)", id="k_bruhat_covers-list"),
    pytest.param(lambda: k_bruhat_covers((2, 1), 0, 1), "need k >= 1, got 0", id="k_bruhat_covers-k0"),
    pytest.param(
        lambda: k_bruhat_covers((2, 1), SUPPORT_LIMIT, 1),
        "needs words of 100001 letters, over the limit of 100000",
        id="k_bruhat_covers-over-support-limit",
    ),
    pytest.param(
        lambda: k_bruhat_covers((2, 1), 1, 2), "max_support=2 is below max(len(w), k) + 1 = 3", id="k_bruhat_covers-bound-below-len"
    ),
    pytest.param(
        lambda: k_bruhat_covers((3, 4, 1, 2), 2, 4),
        "max_support=4 is below max(len(w), k) + 1 = 5",
        id="k_bruhat_covers-bound-at-len",
    ),
    pytest.param(
        lambda: k_bruhat_covers((), 3, 3), "max_support=3 is below max(len(w), k) + 1 = 4", id="k_bruhat_covers-bound-below-k"
    ),
    pytest.param(
        lambda: k_bruhat_covers((2, 1, 3, 4), 1, 0), "max_support=0 is below max(len(w), k) + 1 = 3", id="k_bruhat_covers-bound-zero"
    ),
    *not_integers("k_bruhat_covers-k", lambda v: k_bruhat_covers((2, 1), v, 4), "k"),
    *not_integers("k_bruhat_covers-max_support", lambda v: k_bruhat_covers((2, 1), 2, v), "max_support", 4),
    pytest.param(lambda: chain_endpoints((2, 1), 1, -1), "need r >= 0, got -1", id="chain_endpoints-r-1"),
    # with r = 0 no kernel call is made to check k
    pytest.param(lambda: chain_endpoints((2, 1), 0, 0), "need k >= 1, got 0", id="chain_endpoints-k0"),
    pytest.param(lambda: chain_endpoints((2, 1), -5, 0), "need k >= 1, got -5", id="chain_endpoints-k-5"),
    *not_integers("chain_endpoints-k", lambda v: chain_endpoints((2, 1), v, 1), "k"),
    *not_integers("chain_endpoints-r", lambda v: chain_endpoints((2, 1), 2, v), "r"),
    *not_integers("mn_schubert-k", lambda v: mn_schubert((2, 1), v, 2), "k"),
    *not_integers("mn_schubert-r", lambda v: mn_schubert((2, 1), 2, v), "r"),
    *not_integers("monk-k", lambda v: monk((2, 1), v), "k"),
    *not_integers("grassmannian_permutation-k", lambda v: grassmannian_permutation((1,), v), "k"),
    # the mn-schubert --verify route
    pytest.param(lambda: power_sum_times((2, 1), 0, 1), "need k >= 1, got 0", id="power_sum_times-k0"),
    pytest.param(lambda: power_sum_times((2.5, 1), 1, 1), "entries must be integers, got (2.5, 1)", id="power_sum_times-word"),
    pytest.param(
        lambda: power_sum_times((2, 1), 100_000, 2),
        "needs words of 100002 letters, over the limit of 100000",
        id="power_sum_times-over-support-limit",
    ),
    *not_integers("power_sum_times-k", lambda v: power_sum_times((2, 1), v, 1), "k"),
    *not_integers("power_sum_times-r", lambda v: power_sum_times((2, 1), 1, v), "r"),
    *not_integers("SparsePoly.constant-c", SparsePoly.constant, "c"),
    pytest.param(lambda: SparsePoly.parse(""), "empty polynomial text", id="parse-empty"),
    pytest.param(lambda: SparsePoly.parse("  "), "empty polynomial text", id="parse-blank"),
    pytest.param(lambda: SparsePoly.parse("x1 +"), "malformed polynomial: 'x1 +'", id="parse-trailing-plus"),
    pytest.param(lambda: SparsePoly.parse("x1++x2"), "malformed polynomial: 'x1++x2'", id="parse-double-plus"),
    # checked before "-" is read as a term's sign, so the message names the text
    pytest.param(lambda: SparsePoly.parse("x1^-1"), "negative exponent in 'x1^-1'", id="parse-negative-exponent"),
    # an empty factor is refused as the empty term is, not as a factor '' never written
    pytest.param(lambda: SparsePoly.parse("x1*"), "malformed polynomial: 'x1*'", id="parse-trailing-star"),
    pytest.param(lambda: SparsePoly.parse("x1*-x2"), "malformed polynomial: 'x1*-x2'", id="parse-star-minus"),
]


@pytest.mark.parametrize("call, message", REFUSALS)
def test_bad_argument_is_refused_with_its_message(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_polynomial_equality_and_repr():
    f = SparsePoly.parse("x1 + 2")
    assert f.__eq__("x1 + 2") is NotImplemented
    assert f != "x1 + 2" and f != [f]
    assert repr(f) == 'SparsePoly("x1 + 2")'
    assert repr(SparsePoly.zero()) == 'SparsePoly("0")'
