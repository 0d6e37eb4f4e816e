import time

import pytest
from hypothesis import given, settings, strategies as st

from mnrules import canonical, validate_partition
from mnrules.poly import SparsePoly
from oracles import colex_key, homogeneous_components, leading_term, swap_variables, variable

exponents = st.tuples(*[st.integers(0, 4)] * 3)
coeffs = st.integers(-9, 9)
polys = st.dictionaries(exponents, coeffs, max_size=6).map(
    lambda d: sum(
        (c * SparsePoly({e: 1}) for e, c in d.items()),
        SparsePoly.zero(),
    )
)


def test_basic_construction():
    x1, x2 = variable(1), variable(2)
    assert str(x1 + x2) == "x1 + x2"
    assert str(2 * x1 * x1 - x2) == "2*x1^2 - x2"
    assert SparsePoly.zero() == 0
    assert SparsePoly.constant(1) == 1
    assert SparsePoly.constant(-3) == -3
    assert not SparsePoly.zero()
    assert x1 != x2
    with pytest.raises(TypeError):
        hash(x1)


def test_arithmetic_with_a_non_polynomial_raises_type_error():
    # + and * return NotImplemented for an operand that is neither an int nor
    # a SparsePoly, so Python raises TypeError instead of reading .terms
    f = SparsePoly.parse("x1")
    for bad in (2.5, "x1", None):
        for operate in (f.__add__, f.__mul__, f.__rmul__):
            assert operate(bad) is NotImplemented
        for operate in (lambda: f + bad, lambda: bad + f, lambda: f * bad, lambda: bad * f, lambda: f - bad):
            with pytest.raises(TypeError):
                operate()
    assert SparsePoly.__rmul__ is SparsePoly.__mul__
    assert f + 2 == SparsePoly.parse("x1 + 2") and 2 * f == f * 2 == SparsePoly.parse("2*x1")


def test_trailing_zero_exponents_are_trimmed():
    assert SparsePoly({(1, 0, 0): 1}) == variable(1)
    assert SparsePoly({(): 1}) == 1
    # two spellings of one monomial meet after trimming and cancel
    cancelled = SparsePoly({(1,): 2, (1, 0): -2})
    assert cancelled == 0
    assert cancelled.terms == {}
    # a zero coefficient leaves no key, trimmed or not
    assert SparsePoly({(2, 0): 0, (0, 1): 1}).terms == {(0, 1): 1}


@given(polys, polys, polys)
@settings(max_examples=50, deadline=None)
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + SparsePoly.zero() == f
    assert f * SparsePoly.constant(1) == f
    assert f - f == 0


@given(polys)
@settings(max_examples=50, deadline=None)
def test_str_parse_round_trip(f):
    assert SparsePoly.parse(str(f)) == f


def test_parse_examples():
    f = SparsePoly.parse("3*x1^2*x3 - x2 + 7")
    x1, x2, x3 = (variable(i) for i in (1, 2, 3))
    assert f == 3 * x1 * x1 * x3 - x2 + 7
    # zero terms, added to nothing or cancelling each other, leave no key
    assert SparsePoly.parse("0*x1 + x2").terms == {(0, 1): 1}
    assert SparsePoly.parse("x1 - x1").terms == {}
    assert SparsePoly.parse("2*x1*0").terms == {}
    for text in ("0", "-0", " 0 "):
        assert SparsePoly.parse(text).terms == {}
    with pytest.raises(ValueError):
        SparsePoly.parse("3*y1")


def test_parse_refuses_variables_past_the_support_limit():
    # x_i is a tuple of i exponents, built only up to the limit
    assert SparsePoly.parse("x100000").terms == {(0,) * 99_999 + (1,): 1}
    for text in ("x100001", "x99999999999999999999", "x1 + 2*x3^4*x100001"):
        with pytest.raises(ValueError, match="over the limit of 100000"):
            SparsePoly.parse(text)
    with pytest.raises(ValueError, match="1-indexed"):
        SparsePoly.parse("x0")


@given(polys)
@settings(max_examples=40, deadline=None)
def test_swap_variables_is_an_involution(f):
    assert swap_variables(swap_variables(f, 1, 3), 1, 3) == f


def test_leading_term_is_colex_greatest():
    x1, x2, x3 = (variable(i) for i in (1, 2, 3))
    x1_5 = x1 * x1 * x1 * x1 * x1
    cases = [
        (x1_5 + x2, (0, 1)),
        (x1 + x2 * x3 + x3, (0, 1, 1)),
        (x1_5 * x2 + x3, (0, 0, 1)),
        (x1 * x1 + 2 * x1 * x2, (1, 1)),
    ]
    for f, leader in cases:
        assert max(f.terms, key=colex_key) == leader
        assert leading_term(f) == (leader, f.terms[leader])
    with pytest.raises(ValueError):
        leading_term(SparsePoly.zero())


@given(polys)
@settings(max_examples=40, deadline=None)
def test_homogeneous_components_recombine(f):
    comps = homogeneous_components(f)
    assert sum(comps.values(), SparsePoly.zero()) == f
    for degree, comp in comps.items():
        assert all(sum(e) == degree for e in comp.terms)


def test_constructor_rejects_non_integer_exponents_and_coefficients():
    for terms in ({(1.5,): 1}, {(1,): 2.5}, {("1",): 1}, {(1,): "2"}):
        with pytest.raises(ValueError, match="must be integers"):
            SparsePoly(terms)
    assert SparsePoly({(True, 0): True}) == variable(1)


def test_constructor_rejects_negative_exponents_whatever_the_coefficient():
    for terms, shown in (({(-1,): 1}, "(-1,)"), ({(-1,): 0}, "(-1,)"), ({(2, -1): 0}, "(2, -1)")):
        with pytest.raises(ValueError) as err:
            SparsePoly(terms)
        assert str(err.value) == f"negative exponent in {shown}"


TRAILING = 200_000


@pytest.mark.parametrize(
    "trim, arg, expected",
    [
        (canonical, [2, 1, *range(3, TRAILING + 3)], (2, 1)),
        (validate_partition, [3, 1] + [0] * TRAILING, (3, 1)),
        (lambda e: SparsePoly({tuple(e): 1}).terms, [0, 2] + [0] * TRAILING, {(0, 2): 1}),
    ],
    ids=["canonical", "validate_partition", "poly_trim"],
)
def test_trailing_trims_take_linear_time(trim, arg, expected):
    # Dropping one trailing entry per slice copies the tuple each time, about
    # TRAILING**2 / 2 element copies: over a minute on a 2-vCPU machine, where
    # one cut takes milliseconds.
    start = time.perf_counter()
    assert trim(arg) == expected
    assert time.perf_counter() - start < 2.0
