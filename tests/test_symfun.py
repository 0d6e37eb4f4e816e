import pytest
from hypothesis import given, settings, strategies as st

from mnrules import cli
from mnrules.poly import SparsePoly
from mnrules.symfun import (
    mn_classical,
    pieri_e,
    pieri_h,
    power_sum_poly,
)
from oracles import (
    complete_homogeneous_poly,
    expansion_poly,
    grassmannian_project,
    hook_partition,
    hook_times_schur,
    jacobi_trudi_schur_poly,
    p_as_hooks,
    partitions_of,
    schur_to_monomials,
    variable,
)

small_partitions = st.integers(0, 6).flatmap(
    lambda n: st.sampled_from(sorted(partitions_of(n, max_rows=4)) or [()])
)


def test_pieri_e_examples():
    assert pieri_e((), 3, 4) == {(1, 1, 1): 1}
    assert pieri_e((1,), 1, 2) == {(2,): 1, (1, 1): 1}
    assert pieri_e((1,), 2, 2) == {(2, 1): 1}


def test_pieri_h_examples():
    assert pieri_h((), 4, 2) == {(4,): 1}
    assert pieri_h((2,), 1, 1) == {(3,): 1}
    assert pieri_h((1,), 2, 3) == {(3,): 1, (2, 1): 1}


def test_pieri_rejects_too_many_rows():
    with pytest.raises(ValueError):
        pieri_e((1, 1, 1), 1, 2)
    with pytest.raises(ValueError):
        pieri_h((1, 1, 1), 1, 2)
    with pytest.raises(ValueError):
        mn_classical((1, 1, 1), 2, 2)
    with pytest.raises(ValueError):
        schur_to_monomials((1, 1, 1), 2)


@given(small_partitions, st.integers(1, 3), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_pieri_matches_monomial_products(lam, size, k):
    if len(lam) > k:
        return
    sl = schur_to_monomials(lam, k)
    e_poly = schur_to_monomials((1,) * size, k) if size <= k else SparsePoly.zero()
    h_poly = schur_to_monomials((size,), k)
    assert expansion_poly(pieri_e(lam, size, k), k) == e_poly * sl
    assert expansion_poly(pieri_h(lam, size, k), k) == h_poly * sl


def test_mn_classical_edge_answers():
    assert mn_classical((), 1, 0) == {}
    assert mn_classical([2, 1, 0, 0], 1, 2) == {(2, 2): 1, (3, 1): 1}
    assert mn_classical((1,), 2, 500) == mn_classical((1,), 2, 3)


def test_mn_classical_on_empty_partition_is_hook_alternation():
    for r in (1, 2, 3, 4):
        assert mn_classical((), r, 4) == p_as_hooks(r)


def test_mn_classical_examples():
    assert mn_classical((1,), 2, 3) == {(3,): 1, (1, 1, 1): -1}
    assert mn_classical((3, 2, 1), 5, 4) == {
        (3, 3, 3, 2): 1,
        (4, 4, 3): 1,
        (6, 4, 1): -1,
        (8, 2, 1): 1,
    }


def test_p_as_hooks():
    assert p_as_hooks(1) == {(1,): 1}
    assert p_as_hooks(2) == {(2,): 1, (1, 1): -1}
    assert p_as_hooks(4) == {
        (4,): 1,
        (3, 1): -1,
        (2, 1, 1): 1,
        (1, 1, 1, 1): -1,
    }


def test_hook_partition():
    assert hook_partition(3, 1) == (3,)
    assert hook_partition(2, 3) == (2, 1, 1)


def test_grassmannian_project():
    assert grassmannian_project({(3, 2, 1): 1}, 4, 8) == {(3, 2, 1): 1}
    assert grassmannian_project({(5, 1): 2}, 4, 8) == {}
    assert grassmannian_project(p_as_hooks(5), 4, 8) == {
        (4, 1): -1,
        (3, 1, 1): 1,
        (2, 1, 1, 1): -1,
    }


def test_schur_to_monomials_examples():
    x1, x2 = variable(1), variable(2)
    assert schur_to_monomials((1,), 2) == x1 + x2
    assert schur_to_monomials((1, 1), 2) == x1 * x2
    assert schur_to_monomials((2,), 2) == x1 * x1 + x1 * x2 + x2 * x2
    assert schur_to_monomials((), 3) == SparsePoly.constant(1)


@given(small_partitions, st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_schur_to_monomials_matches_jacobi_trudi(lam, k):
    if len(lam) > k:
        return
    assert schur_to_monomials(lam, k) == jacobi_trudi_schur_poly(lam, k)


def test_power_sum_poly():
    x1, x2, x3 = (variable(i) for i in (1, 2, 3))
    assert power_sum_poly(1, 2) == x1 + x2
    assert power_sum_poly(3, 1) == x1 * x1 * x1
    assert power_sum_poly(2, 3) == x1 * x1 + x2 * x2 + x3 * x3


@given(small_partitions, st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_mn_classical_matches_monomial_oracle(lam, r, k):
    if len(lam) > k:
        return
    got = mn_classical(lam, r, k)
    assert all(c in (-1, 1) for c in got.values())
    assert expansion_poly(got, k) == power_sum_poly(r, k) * schur_to_monomials(lam, k)


@given(small_partitions, st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_mn_classical_matches_hook_alternating_sum(lam, r):
    k = 4
    if len(lam) > k:
        return
    acc: dict = {}
    for i in range(min(r, k)):
        sign = -1 if i % 2 else 1
        for mu, c in hook_times_schur(lam, i + 1, r - i, k).items():
            acc[mu] = acc.get(mu, 0) + sign * c
    acc = {mu: c for mu, c in acc.items() if c}
    assert acc == mn_classical(lam, r, k)


@pytest.mark.parametrize("a,b", [(1, 1), (2, 2), (3, 2), (4, 3), (2, 5), (1, 6)])
def test_hook_formula_at_monomial_level(a, b):
    # s_(b,1^(a-1)) = e_(a-1) h_b - e_(a-2) h_(b+1) + ... in k variables
    k = 4
    total = SparsePoly.zero()
    for j in range(a):
        e_part = (1,) * (a - 1 - j)
        term = schur_to_monomials(e_part, k) * complete_homogeneous_poly(b + j, k)
        total = total + (term if j % 2 == 0 else -term)
    assert total == schur_to_monomials(hook_partition(b, a), k)


def test_schur_expansion_json_round_trip():
    exp = {(3, 1): -2, (2, 2): 1, (): 5}
    encoded = cli.render_schur(exp, as_json=True)
    assert encoded == [
        {"coeff": 5, "partition": []},
        {"coeff": 1, "partition": [2, 2]},
        {"coeff": -2, "partition": [3, 1]},
    ]
