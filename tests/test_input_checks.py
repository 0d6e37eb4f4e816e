"""Argument checks with no other test: each call below is refused with its
own message, which a missing check would change or silence."""

import pytest

from mnrules.partitions import add_rim_hooks, n_core, remove_rim_hooks, strips
from mnrules.perm import canonical, chain_endpoints, k_bruhat_covers
from mnrules.poly import SparsePoly
from mnrules.quantum import GrContext, quantum_mn, quantum_mn_extended
from mnrules.symfun import mn_classical, pieri_e, pieri_h, power_sum_poly

REFUSALS = [
    pytest.param(lambda: add_rim_hooks((1,), 0, 3), "rim hook size must be positive, got 0", id="add_rim_hooks-r0"),
    pytest.param(lambda: add_rim_hooks((1,), 1, -1), "max_rows must be nonnegative, got -1", id="add_rim_hooks-max_rows-1"),
    pytest.param(lambda: remove_rim_hooks((2,), 0), "rim hook size must be positive, got 0", id="remove_rim_hooks-r0"),
    pytest.param(lambda: n_core((3, 2, 1), 1), "hook size must be at least 2, got 1", id="n_core-n1"),
    pytest.param(
        lambda: n_core((200002,), 2), "may strip up to 100001 hooks, over the limit of 100000", id="n_core-hooks-over-limit"
    ),
    pytest.param(lambda: strips((1,), 0, "horizontal", 3), "strip size must be positive, got 0", id="strips-size0"),
    pytest.param(lambda: canonical((1, 1, 2)), "not a permutation of 1..3: (1, 1, 2)", id="canonical-repeat"),
    pytest.param(lambda: canonical([2.7, 1]), "entries must be integers, got (2.7, 1)", id="canonical-float"),
    # the word is checked before k
    pytest.param(lambda: k_bruhat_covers((1, 1), 0, 1), "not a permutation of 1..2: (1, 1)", id="k_bruhat_covers-word-before-k"),
    pytest.param(lambda: chain_endpoints((2, 1), 1, -1), "need r >= 0, got -1", id="chain_endpoints-r-1"),
    # with r = 0 no kernel call is made to check k
    pytest.param(lambda: chain_endpoints((2, 1), 0, 0), "k must be positive, got 0", id="chain_endpoints-k0"),
    pytest.param(lambda: chain_endpoints((2, 1), -5, 0), "k must be positive, got -5", id="chain_endpoints-k-5"),
    pytest.param(lambda: power_sum_poly(0, 2), "need r, k >= 1, got r=0, k=2", id="power_sum_poly-r0"),
    pytest.param(lambda: power_sum_poly(2, 0), "need r, k >= 1, got r=2, k=0", id="power_sum_poly-k0"),
    pytest.param(lambda: SparsePoly.parse(""), "empty polynomial text", id="parse-empty"),
    pytest.param(lambda: SparsePoly.parse("  "), "empty polynomial text", id="parse-blank"),
    pytest.param(lambda: SparsePoly.parse("x1 +"), "malformed polynomial: 'x1 +'", id="parse-trailing-plus"),
    pytest.param(lambda: SparsePoly.parse("x1++x2"), "malformed polynomial: 'x1++x2'", id="parse-double-plus"),
    # checked before "-" is read as a term's sign, so the message names the text
    pytest.param(lambda: SparsePoly.parse("x1^-1"), "negative exponent in 'x1^-1'", id="parse-negative-exponent"),
    # an empty factor is refused as the empty term is, not as a factor '' never written
    pytest.param(lambda: SparsePoly.parse("x1*"), "malformed polynomial: 'x1*'", id="parse-trailing-star"),
    pytest.param(lambda: SparsePoly.parse("x1*-x2"), "malformed polynomial: 'x1*-x2'", id="parse-star-minus"),
    pytest.param(lambda: pieri_e((1,), 0, 2), "need a >= 1, got 0", id="pieri_e-a0"),
    pytest.param(lambda: pieri_h((1,), 0, 2), "need b >= 1, got 0", id="pieri_h-b0"),
]


@pytest.mark.parametrize("call, message", REFUSALS)
def test_bad_argument_is_refused_with_its_message(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


# Sizes are read with operator.index: a float is refused, not carried into the shapes
FLOAT_SIZES = [
    pytest.param(lambda: add_rim_hooks((1,), 2.0, 3), id="add_rim_hooks"),
    pytest.param(lambda: remove_rim_hooks((3,), 2.0), id="remove_rim_hooks"),
    pytest.param(lambda: n_core((5, 3), 2.0), id="n_core"),
    pytest.param(lambda: mn_classical((1,), 2.0, 3), id="mn_classical"),
    pytest.param(lambda: quantum_mn((1,), 2.0, GrContext(2, 5)), id="quantum_mn"),
    pytest.param(lambda: quantum_mn_extended((1,), 7.0, GrContext(2, 5)), id="quantum_mn_extended"),
]


@pytest.mark.parametrize("call", FLOAT_SIZES)
def test_float_size_is_refused(call):
    with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
        call()


def test_polynomial_equality_and_repr():
    f = SparsePoly.parse("x1 + 2")
    assert f.__eq__("x1 + 2") is NotImplemented
    assert f != "x1 + 2" and f != [f]
    assert repr(f) == 'SparsePoly("x1 + 2")'
    assert repr(SparsePoly.zero()) == 'SparsePoly("0")'
