import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from mnrules import cli, perm, schubert
from mnrules.poly import SparsePoly
from mnrules.schubert import (
    expand_in_schubert,
    grassmannian_permutation,
    mn_schubert,
    monk,
    schubert_poly,
)
from mnrules.symfun import mn_classical
import oracles
from oracles import (
    all_perms,
    bjs_schubert,
    compose,
    cycle_perm,
    cycle_type_check,
    divided_difference,
    first_ascent_schubert_poly,
    het,
    hook_partition,
    hook_times_schubert,
    oracle_expand_in_schubert,
    oracle_mn_schubert,
    p_as_hooks,
    partitions_in_box,
    peel_expand_in_schubert,
    peeled_schubert_poly,
    polynomial_route_mn_schubert,
    schubert_poly_in,
    schur_to_monomials,
    swap_variables,
    transition_xi,
    transposition,
    variable,
)

x = [None] + [variable(i) for i in range(1, 9)]

random_polys = st.dictionaries(
    st.tuples(*([st.integers(0, 3)] * 4)),
    st.integers(-5, 5),
    max_size=5,
).map(SparsePoly)


# --- divided differences ---------------------------------------------------


@given(random_polys, st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_divided_difference_definition(f, i):
    # (x_i - x_{i+1}) * d_i(f) == f - s_i(f)
    lhs = (x[i] - x[i + 1]) * divided_difference(f, i)
    assert lhs == f - swap_variables(f, i, i + 1)


@given(random_polys, st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_divided_difference_squares_to_zero(f, i):
    assert divided_difference(divided_difference(f, i), i) == SparsePoly.zero()


@given(random_polys, st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_divided_difference_braid(f, i):
    a = divided_difference(divided_difference(divided_difference(f, i), i + 1), i)
    b = divided_difference(divided_difference(divided_difference(f, i + 1), i), i + 1)
    assert a == b


@given(random_polys, st.integers(1, 2))
@settings(max_examples=40, deadline=None)
def test_divided_difference_commutes_when_far(f, i):
    j = i + 2
    a = divided_difference(divided_difference(f, i), j)
    b = divided_difference(divided_difference(f, j), i)
    assert a == b


# --- Schubert polynomials --------------------------------------------------


def test_schubert_poly_s3_table():
    assert schubert_poly(()) == SparsePoly.constant(1)
    assert schubert_poly((2, 1)) == x[1]
    assert schubert_poly((1, 3, 2)) == x[1] + x[2]
    assert schubert_poly((2, 3, 1)) == x[1] * x[2]
    assert schubert_poly((3, 1, 2)) == x[1] * x[1]
    assert schubert_poly((3, 2, 1)) == x[1] * x[1] * x[2]


def test_schubert_of_adjacent_transposition_is_variable_sum():
    for k in range(1, 5):
        t_k = transposition(k, k + 1)
        expected = sum((x[i] for i in range(1, k + 1)), SparsePoly.zero())
        assert schubert_poly(t_k) == expected


def test_schubert_poly_in_is_stable():
    for w in all_perms(3):
        assert schubert_poly_in(w, 3) == schubert_poly_in(w, 5) == schubert_poly(w)
    w = (2, 4, 1, 3)
    assert schubert_poly_in(w, 4) == schubert_poly_in(w, 6) == schubert_poly(w)


def test_schubert_poly_matches_reduced_word_oracle():
    for w in all_perms(4):
        assert schubert_poly(w) == bjs_schubert(w)
    rng = random.Random(7)
    fives = all_perms(5)
    for w in rng.sample(fives, 20):
        assert schubert_poly(w) == bjs_schubert(w)


def test_grassmannian_schubert_is_schur():
    cases = [((), 2), ((1,), 1), ((2, 1), 2), ((3, 1, 1), 3), ((2, 2), 4)]
    for lam, k in cases:
        w = grassmannian_permutation(lam, k)
        assert schubert_poly(w) == schur_to_monomials(lam, k)
    assert grassmannian_permutation((2, 1), 2) == (2, 4, 1, 3)
    with pytest.raises(ValueError):
        grassmannian_permutation((1, 1, 1), 2)


def test_grassmannian_permutation_refuses_words_over_the_support_limit():
    # The word has k + lam_1 letters: the limit itself is allowed, and past
    # it the call raises before building anything (k = 10**12 would
    # otherwise exhaust memory).
    limit = perm.SUPPORT_LIMIT
    assert len(grassmannian_permutation((1,), limit - 1)) == limit
    for lam, k in [((1,), limit), ((2, 1), limit - 1), ((), limit + 1), ((1,), 10**12)]:
        size = k + (lam[0] if lam else 0)
        with pytest.raises(ValueError, match=f"needs words of {size} letters, over the limit"):
            grassmannian_permutation(lam, k)


# --- expansion in the Schubert basis ---------------------------------------


def test_expand_round_trips_on_s4():
    for w in all_perms(4):
        assert expand_in_schubert(schubert_poly(w)) == {w: 1}


def test_expand_linear_combination():
    f = 3 * schubert_poly((2, 4, 1, 3)) - 2 * schubert_poly((1, 3, 2)) + schubert_poly(())
    assert expand_in_schubert(f) == {(2, 4, 1, 3): 3, (1, 3, 2): -2, (): 1}


def test_expand_edge_cases():
    assert expand_in_schubert(SparsePoly.zero()) == {}
    assert expand_in_schubert(SparsePoly.constant(4)) == {(): 4}
    assert expand_in_schubert(x[2]) == {(1, 3, 2): 1, (2, 1): -1}


def test_one_pass_expansion_matches_the_per_degree_oracle():
    from mnrules.symfun import power_sum_poly

    rng = random.Random(14)
    pool = all_perms(5)
    # integer combinations of S_u across degrees, plus a constant S_()
    for _ in range(1000):
        combo = {u: rng.choice([-3, -2, -1, 1, 2, 3]) for u in rng.sample(pool[1:], rng.randint(1, 6))}
        const = rng.randint(-2, 2)
        f = sum((c * schubert_poly(u) for u, c in combo.items()), SparsePoly.constant(const))
        got = expand_in_schubert(f)
        assert got == oracle_expand_in_schubert(f)
        assert got == {**combo, **({(): const} if const else {})}
    # p_r * S_w, the products mn-schubert --verify expands
    for w in pool:
        for k in range(1, 5):
            for r in range(1, 4):
                f = power_sum_poly(r, k) * schubert_poly(w)
                assert expand_in_schubert(f) == oracle_expand_in_schubert(f), (w, k, r)
    # polynomials that are not Schubert combinations, degrees mixed
    for _ in range(1000):
        f = SparsePoly(
            {tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 4))): rng.randint(-4, 4) for _ in range(5)}
        )
        assert expand_in_schubert(f) == oracle_expand_in_schubert(f), f


def test_expansion_without_progress_raises(monkeypatch):
    # A peel that leaves its leader in place must not loop forever.
    monkeypatch.setattr(oracles, "peeled_schubert_poly", lambda u: SparsePoly.zero())
    with pytest.raises(RuntimeError, match="failed to make progress"):
        peel_expand_in_schubert(x[2] + x[1])
    with pytest.raises(RuntimeError, match="failed to make progress"):
        oracle_expand_in_schubert(x[2] + x[1])


def test_expansion_matches_both_peels():
    # the peels take each S_u from divided differences, not from Monk's rule
    rng = random.Random(1700)
    for _ in range(500):
        f = SparsePoly(
            {tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 5))): rng.randint(-4, 4) for _ in range(6)}
        )
        got = expand_in_schubert(f)
        assert got == peel_expand_in_schubert(f) == oracle_expand_in_schubert(f), f


def test_expansion_of_a_single_variable_power():
    # x_i^d by Horner's rule is d products by x_i: the peel agrees
    for i, d in [(1, 9), (3, 4), (5, 3), (2, 6)]:
        f = SparsePoly({(0,) * (i - 1) + (d,): 1})
        assert expand_in_schubert(f) == peel_expand_in_schubert(f), (i, d)
    assert expand_in_schubert(SparsePoly.parse("x1^3000")) == {(3001, *range(1, 3001)): 1}


# --- Monk's rule for one variable -----------------------------------------


def test_times_x_matches_the_pairwise_transition_oracle():
    for n in range(7):
        for w in all_perms(n):
            for i in range(1, n + 3):
                assert schubert._times_x({w: 1}, i) == transition_xi(w, i), (w, i)


def test_times_x_is_linear_and_cancels():
    # x_2 S_132 - x_2 S_21 = x_2 (x_1 + x_2) - x_1 x_2 = x_2^2
    assert schubert._times_x({(1, 3, 2): 1, (2, 1): -1}, 2) == expand_in_schubert(x[2] * x[2])
    rng = random.Random(23)
    pool = all_perms(5)
    for _ in range(200):
        combo = {u: rng.choice([-2, -1, 1, 3]) for u in rng.sample(pool, 4)}
        i = rng.randint(1, 6)
        f = sum((c * peeled_schubert_poly(u) for u, c in combo.items()), SparsePoly.zero())
        assert schubert._times_x(combo, i) == oracle_expand_in_schubert(x[i] * f), (combo, i)


def test_schubert_poly_matches_divided_differences_and_reduced_words():
    for n in range(7):
        for w in all_perms(n):
            expected = schubert_poly_in(w, max(n, 1))
            assert schubert_poly(w) == expected, w
            if n <= 5:
                assert expected == bjs_schubert(w), w
    rng = random.Random(78)
    # every reduced word of every w in S_6 takes about 15 s: a sample
    for w in rng.sample(all_perms(6), 10):
        assert schubert_poly(w) == bjs_schubert(w), w
    for n, count in ((7, 30), (8, 8)):
        for _ in range(count):
            w = perm.canonical(rng.sample(range(1, n + 1), n))
            got = schubert_poly(w)
            assert got == schubert_poly_in(w, n) == first_ascent_schubert_poly(w), w
    w = perm.canonical(rng.sample(range(1, 8), 7))
    assert schubert_poly(w) == bjs_schubert(w)


def test_verify_route_matches_the_rule():
    # every w in S_0..S_5 with k <= n + 1 and r <= 3, and seeded S_6, S_7
    cases = 0
    for n in range(6):
        for w in all_perms(n):
            for k in range(1, n + 2):
                for r in range(1, 4):
                    assert schubert.power_sum_times(w, k, r) == mn_schubert(w, k, r), (w, k, r)
                    cases += 1
    assert cases == 3 * sum(len(all_perms(n)) * (n + 1) for n in range(6))
    rng = random.Random(67)
    for n, count in ((6, 60), (7, 30)):
        for _ in range(count):
            w = perm.canonical(rng.sample(range(1, n + 1), n))
            k, r = rng.randint(1, n + 1), rng.randint(1, 5)
            assert schubert.power_sum_times(w, k, r) == mn_schubert(w, k, r), (w, k, r)


def test_verify_route_matches_the_polynomial_route():
    # the old --verify route: p_r * S_w as polynomials, peeled back
    for w in all_perms(4):
        for k in (1, 2, 3):
            for r in (1, 2, 3):
                expected = polynomial_route_mn_schubert(w, k, r)
                assert schubert.power_sum_times(w, k, r) == expected == mn_schubert(w, k, r), (w, k, r)


def test_verify_route_does_not_call_the_kernel(refuse):
    # --verify checks mn_schubert, so it must get there without k-Bruhat
    # covers, under any name
    cases = [(W_EXAMPLE, 4, 4), ((2, 4, 1, 3), 2, 3), ((), 3, 2), ((7, 4, 1, 5, 9, 2, 3, 12, 11, 10, 8, 6), 6, 3)]
    expected = [mn_schubert(*case) for case in cases]
    refuse(perm.k_bruhat_covers)
    assert [schubert.power_sum_times(*case) for case in cases] == expected


def test_verify_route_keeps_only_the_running_sum():
    # x_i S_21 has words of about i letters, and the running sum cancels
    # down to p_1 S_21's one term as it goes: p_1(x_1..x_1000) itself would
    # hold about 500,000 exponent entries
    tracemalloc.start()
    try:
        got = schubert.power_sum_times((2, 1), 1000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == monk((2, 1), 1000)
    assert peak < 1 << 20


# --- Monk and transition ---------------------------------------------------


def test_monk_matches_polynomial_product_on_s4():
    for w in all_perms(4):
        for k in (1, 2, 3):
            product = schubert_poly(transposition(k, k + 1)) * schubert_poly(w)
            assert monk(w, k) == expand_in_schubert(product)


def test_transition_examples():
    assert transition_xi((), 1) == {(2, 1): 1}
    assert transition_xi((2, 1), 2) == {(2, 3, 1): 1}
    assert transition_xi((1, 3, 2), 1) == {(3, 1, 2): 1, (2, 3, 1): 1}
    # x_2 * (x_1 + x_2) = x_1 x_2 + x_2^2 picks up a minus term
    assert transition_xi((1, 3, 2), 2) == {(1, 4, 2, 3): 1, (3, 1, 2): -1}


def test_transition_sums_to_monk():
    for w in all_perms(4):
        for k in (1, 2, 3):
            acc: dict = {}
            for i in range(1, k + 1):
                for u, c in transition_xi(w, i).items():
                    acc[u] = acc.get(u, 0) + c
            acc = {u: c for u, c in acc.items() if c}
            assert acc == monk(w, k)


def test_transition_matches_polynomial_product():
    for w in all_perms(3):
        for i in (1, 2, 3):
            assert transition_xi(w, i) == expand_in_schubert(x[i] * schubert_poly(w))


# --- Murnaghan-Nakayama for Schubert polynomials ---------------------------

W_EXAMPLE = (3, 4, 1, 6, 5, 2, 7, 8)

# Every endpoint of the p_4(x_1..x_4) * S_34165278 expansion that stays
# inside S_8, with the 5-cycle eta = w^{-1} u and het(eta, 4).
S8_TERMS = {
    (3, 5, 6, 7, 1, 2, 4, 8): ((3, 4, 7, 2, 5), 3),
    (3, 6, 4, 7, 1, 2, 5, 8): ((2, 4, 7, 5, 3), 3),
    (4, 5, 3, 6, 2, 1, 7, 8): ((1, 2, 5, 6, 3), 3),
    (4, 6, 1, 7, 3, 2, 5, 8): ((1, 2, 4, 7, 5), 3),
    (3, 4, 6, 7, 2, 1, 5, 8): ((3, 4, 7, 5, 6), 2),
    (3, 4, 6, 8, 1, 2, 5, 7): ((3, 4, 8, 7, 5), 2),
    (3, 6, 1, 8, 4, 2, 5, 7): ((2, 4, 8, 7, 5), 2),
}


def test_mn_schubert_worked_example():
    got = mn_schubert(W_EXAMPLE, 4, 4)
    expected = {
        perm.canonical(u): (1 if h % 2 else -1) for u, (_, h) in S8_TERMS.items()
    }
    expected[perm.canonical((3, 4, 1, 10, 5, 2, 6, 7, 8, 9))] = 1
    assert got == expected
    # each listed endpoint really is w * (its cycle)
    for u, (points, h) in S8_TERMS.items():
        eta = cycle_perm(points)
        assert compose(W_EXAMPLE, eta) == perm.canonical(u)
        assert cycle_type_check(eta, 5)
        assert het(eta, 4) == h


def test_mn_schubert_r1_is_monk():
    for w in all_perms(4):
        for k in (1, 2, 3):
            assert mn_schubert(w, k, 1) == monk(w, k)


def test_mn_schubert_identity_case_matches_hook_alternation():
    # p_r(x_1..x_k) * 1 expands over Grassmannian permutations of the
    # hook partitions with at most k rows.
    for k in (2, 3):
        for r in (1, 2, 3, 4):
            expected = {
                grassmannian_permutation(lam, k): c
                for lam, c in p_as_hooks(r).items()
                if len(lam) <= k
            }
            assert mn_schubert((), k, r) == expected


def test_mn_schubert_signs_follow_het_parity():
    rng = random.Random(11)
    perms = rng.sample(all_perms(4), 10)
    for w in perms:
        w_inv = perm.inverse(w)
        for k in (1, 2, 3):
            for r in (1, 2, 3):
                for u, c in mn_schubert(w, k, r).items():
                    eta = compose(w_inv, u)
                    assert cycle_type_check(eta, r + 1)
                    h = het(eta, k)
                    assert c == (1 if h % 2 else -1)


def test_mn_schubert_on_grassmannian_matches_classical_rule():
    # every k <= 5, lam in the k x 5 box and r <= 6: 2,766 cases
    cases = 0
    for k in range(1, 6):
        for lam in partitions_in_box(k, 5):
            w = grassmannian_permutation(lam, k)
            for r in range(1, 7):
                expected = {
                    grassmannian_permutation(mu, k): c
                    for mu, c in mn_classical(lam, r, k).items()
                }
                assert mn_schubert(w, k, r) == expected, (lam, k, r)
                cases += 1
    assert cases == 2766


@given(st.sampled_from(all_perms(4)), st.integers(1, 3), st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_mn_schubert_matches_polynomial_oracle(w, k, r):
    from mnrules.symfun import power_sum_poly

    product = power_sum_poly(r, k) * schubert_poly(w)
    assert mn_schubert(w, k, r) == expand_in_schubert(product)


def test_mn_schubert_matches_polynomial_oracle_on_sampled_s6_s7():
    from mnrules.symfun import power_sum_poly

    rng = random.Random(6507)
    for n, count, max_k, max_r in ((6, 200, 5, 5), (7, 100, 6, 4)):
        perms = all_perms(n)
        for _ in range(count):
            w = rng.choice(perms)
            k = rng.randint(1, max_k)
            r = rng.randint(1, max_r)
            product = power_sum_poly(r, k) * schubert_poly(w)
            assert mn_schubert(w, k, r) == expand_in_schubert(product), (w, k, r)


def test_mn_schubert_matches_compose_oracle():
    # eta = w^{-1} u by table lookup against compose + canonical
    for n in range(7):
        for w in all_perms(n):
            for k in range(1, n + 2):
                for r in range(1, 5):
                    assert mn_schubert(w, k, r) == oracle_mn_schubert(w, k, r), (w, k, r)
    rng = random.Random(1512)
    for _ in range(40):
        w = perm.canonical(rng.sample(range(1, 13), 12))
        k = rng.choice((4, 6, 8))
        r = rng.randint(1, 6)
        assert mn_schubert(w, k, r) == oracle_mn_schubert(w, k, r), (w, k, r)


def test_mn_schubert_matches_compose_oracle_where_eta_can_split():
    # From r = 5 on, eta can move r + 1 points in several cycles; the count
    # of moved points alone would keep those endpoints.
    cases = 0
    for n in range(6):
        for w in all_perms(n):
            for k in range(1, n + 2):
                for r in (5, 6):
                    assert mn_schubert(w, k, r) == oracle_mn_schubert(w, k, r), (w, k, r)
                    cases += 1
    assert cases == 1746


def test_mn_schubert_drops_an_endpoint_whose_eta_is_three_transpositions():
    w, k, r = (1, 3, 4, 2), 3, 5
    u = (2, 5, 6, 1, 3, 4)
    eta = compose(perm.inverse(w), u)
    assert eta == (4, 5, 6, 1, 2, 3)  # (1 4)(2 5)(3 6): r + 1 moved points
    assert u in perm.chain_endpoints(w, k, r)
    got = mn_schubert(w, k, r)
    assert u not in got
    assert got == {
        (3, 4, 6, 1, 2, 5): 1,
        (1, 4, 8, 2, 3, 5, 6, 7): -1,
        (1, 3, 9, 2, 4, 5, 6, 7, 8): 1,
    }


def test_mn_schubert_rejects_non_integer_entries():
    # int() used to truncate (2.9, 1.2) to (2, 1) and answer {(3, 1, 2): 1}
    with pytest.raises(ValueError, match="must be integers"):
        mn_schubert((2.9, 1.2), 1, 1)


# --- hook products ----------------------------------------------------------


def test_hook_times_schubert_column_one_is_monk():
    for w in all_perms(4):
        for k in (1, 2, 3):
            assert hook_times_schubert(w, k, 1, 1) == monk(w, k)


def test_hook_times_schubert_matches_polynomial_oracle():
    cases = [
        ((2, 1), 2, 1, 2),
        ((2, 1), 2, 2, 1),
        ((1, 3, 2), 2, 2, 2),
        ((2, 4, 1, 3), 3, 1, 3),
        ((3, 1, 2), 2, 2, 3),
        ((), 3, 3, 1),
    ]
    for w, k, a, b in cases:
        hook_poly = schur_to_monomials(hook_partition(b, a), k)
        expected = expand_in_schubert(hook_poly * schubert_poly(w))
        assert hook_times_schubert(w, k, a, b) == expected


def test_mn_schubert_is_alternating_sum_of_hooks():
    rng = random.Random(3)
    perms = rng.sample(all_perms(4), 8)
    for w in perms:
        for k in (2, 3):
            for r in (2, 3, 4):
                acc: dict = {}
                for i in range(min(r, k)):
                    sign = -1 if i % 2 else 1
                    for u, c in hook_times_schubert(w, k, i + 1, r - i).items():
                        acc[u] = acc.get(u, 0) + sign * c
                acc = {u: c for u, c in acc.items() if c}
                assert acc == mn_schubert(w, k, r)


# --- JSON -------------------------------------------------------------------


def test_schubert_expansion_json_round_trip():
    exp = {(2, 4, 1, 3): 3, (1, 3, 2): -2, (): 1}
    encoded = cli.render_schubert(exp, as_json=True)
    assert encoded == [
        {"coeff": 1, "perm": []},
        {"coeff": -2, "perm": [1, 3, 2]},
        {"coeff": 3, "perm": [2, 4, 1, 3]},
    ]
