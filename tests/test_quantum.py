import random

import pytest

from mnrules import cli, partitions, quantum, symfun
from mnrules.partitions import box_partition, n_core
from mnrules.poly import _add
from mnrules.quantum import (
    GENERATOR_SAMPLES,
    GrContext,
    ideal_vanishing_check,
    oracle_quantum_mn,
    psi_reduce,
    quantum_mn,
    quantum_mn_extended,
    sampled_max_minus_min_partitions,
)
from mnrules.schubert import grassmannian_permutation
from mnrules.symfun import mn_classical
from oracles import (
    grassmannian_shape,
    is_rim_hook,
    leq,
    partitions_in_box,
    psi_route_quantum_mn,
    rim_hook_height,
    schubert_route_quantum_mn,
    two_route_quantum_mn,
)

WORKED_EXAMPLE = {
    (0, (3, 3, 3, 2)): 1,
    (0, (4, 4, 3)): 1,
    (1, (3,)): 1,
    (1, (1, 1, 1)): 1,
}


def test_context_validation():
    ctx = GrContext(4, 8)
    assert box_partition(ctx.k, ctx.n) == (4, 4, 4, 4)
    with pytest.raises(ValueError):
        GrContext(0, 4)
    with pytest.raises(ValueError):
        GrContext(4, 4)
    with pytest.raises(ValueError):
        GrContext(5, 3)


def test_psi_reduce_fixes_partitions_inside_the_box():
    ctx = GrContext(4, 8)
    for lam in [(), (1,), (3, 2, 1), (4, 4, 4, 4)]:
        assert psi_reduce(lam, ctx) == {(0, lam): 1}


def test_psi_reduce_examples():
    ctx = GrContext(4, 8)
    assert psi_reduce((12, 10, 7, 3), ctx) == {(3, (4, 2, 2)): 1}
    assert psi_reduce((9, 8, 5, 2), ctx) == {}
    assert psi_reduce((6, 4, 1), ctx) == {(1, (3,)): -1}
    assert psi_reduce((8, 2, 1), ctx) == {(1, (1, 1, 1)): 1}
    assert psi_reduce((8,), ctx) == {(1, ()): -1}


def test_psi_reduce_rejects_too_many_rows():
    with pytest.raises(ValueError):
        psi_reduce((1, 1, 1), GrContext(2, 4))


def test_quantum_mn_worked_example():
    assert quantum_mn((3, 2, 1), 5, GrContext(4, 8)) == WORKED_EXAMPLE


def test_quantum_mn_does_not_call_the_schur_rule_or_the_rim_hook_kernels(monkeypatch):
    # oracle_quantum_mn, behind mn-quantum --verify, reads mn_classical, so
    # quantum_mn must find its q**0 terms without it.
    def refuse(*args):
        raise AssertionError("quantum_mn called the Schur rule or a rim-hook kernel")

    for module, name in [
        (partitions, "_bead_moves"),
        (partitions, "add_rim_hooks"),
        (partitions, "remove_rim_hooks"),
        (symfun, "add_rim_hooks"),
        (symfun, "mn_classical"),
        (quantum, "mn_classical"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    ctx = GrContext(4, 8)
    assert quantum_mn((3, 2, 1), 5, ctx) == WORKED_EXAMPLE
    shifted = {(d + 1, mu): c for (d, mu), c in WORKED_EXAMPLE.items()}
    assert quantum_mn_extended((3, 2, 1), 13, ctx) == shifted


def test_quantum_mn_rejects_bad_input():
    cases = [
        ((3, 2, 1), 0, "need 1 <= r < n=8, got r=0"),
        ((3, 2, 1), 8, "need 1 <= r < n=8, got r=8"),
        ((5, 2, 1), 3, "(5, 2, 1) does not fit in the 4 x 4 box"),  # outside the 4x4 box
        ((1, 1, 1, 1, 1), 3, "(1, 1, 1, 1, 1) does not fit in the 4 x 4 box"),  # over k rows
        ((5, 2, 1), 8, "(5, 2, 1) does not fit in the 4 x 4 box"),  # the box is checked first
    ]
    for lam, r, message in cases:
        for rule in (quantum_mn, oracle_quantum_mn, two_route_quantum_mn, schubert_route_quantum_mn):
            with pytest.raises(ValueError) as err:
                rule(lam, r, GrContext(4, 8))
            assert str(err.value) == message, (rule, lam, r)


def test_fit_check_agrees_with_containment_in_the_box():
    # one row and one column past the box on each side: the row-count test
    # and the first-row test each refuse some shape the other lets through
    refused = 0
    for n in range(2, 8):
        for k in range(1, n):
            ctx, box = GrContext(k, n), box_partition(k, n)
            for lam in partitions_in_box(k + 1, n - k + 1):
                if leq(lam, box):
                    assert quantum._require_args(lam, 1, ctx) == lam
                    continue
                refused += 1
                for check in (quantum._require_args, quantum_mn):
                    with pytest.raises(ValueError) as err:
                        check(lam, 1, ctx)
                    assert str(err.value) == f"{lam} does not fit in the {k} x {n - k} box"
    assert refused > 0


def test_quantum_mn_extended_wraps():
    ctx = GrContext(4, 8)
    base = quantum_mn((3, 2, 1), 5, ctx)
    shifted = quantum_mn_extended((3, 2, 1), 13, ctx)
    assert shifted == {(d + 1, mu): c for (d, mu), c in base.items()}

    odd = GrContext(3, 6)
    base = quantum_mn((2, 1), 1, odd)
    shifted = quantum_mn_extended((2, 1), 7, odd)
    assert shifted == {(d + 1, mu): -c for (d, mu), c in base.items()}
    twice = quantum_mn_extended((2, 1), 13, odd)
    assert twice == {(d + 2, mu): c for (d, mu), c in base.items()}


def test_quantum_mn_extended_rejects_multiples_of_n():
    with pytest.raises(ValueError):
        quantum_mn_extended((1,), 8, GrContext(4, 8))
    with pytest.raises(ValueError):
        quantum_mn_extended((1,), 12, GrContext(3, 6))
    with pytest.raises(ValueError):
        quantum_mn_extended((1,), 0, GrContext(3, 6))


# The quantum Pieri rule in qH*(Gr(2, 4)): e_1 = σ[1] and e_2 = σ[1,1]
# times each Schubert class, from the Gromov-Witten count of lines.  e_i
# is 0 for i > 2.
GR24_PIERI = {
    1: {
        (): {(0, (1,)): 1},
        (1,): {(0, (2,)): 1, (0, (1, 1)): 1},
        (2,): {(0, (2, 1)): 1},
        (1, 1): {(0, (2, 1)): 1},
        (2, 1): {(0, (2, 2)): 1, (1, ()): 1},
        (2, 2): {(1, (1,)): 1},
    },
    2: {
        (): {(0, (1, 1)): 1},
        (1,): {(0, (2, 1)): 1},
        (2,): {(1, ()): 1},
        (1, 1): {(0, (2, 2)): 1},
        (2, 1): {(1, (1,)): 1},
        (2, 2): {(1, (2,)): 1},
    },
}


def gr24_times_e(i, cls):
    out = {}
    for (d, mu), c in cls.items():
        _add(out, {(d + e, nu): b for (e, nu), b in GR24_PIERI[i][mu].items()}, c)
    return out


def gr24_newton_power_sums(lam, top):
    """p_r * σ_lam in qH*(Gr(2, 4)) for r = 1..top by Newton's identity
    p_r = e_1 p_(r-1) - e_2 p_(r-2) (+ (-1)**(r-1) r e_r for r <= 2)."""
    sigma = {(0, lam): 1}
    powers = {}
    for r in range(1, top + 1):
        acc = {}
        for i in (1, 2):
            if i < r:
                _add(acc, gr24_times_e(i, powers[r - i]), (-1) ** (i - 1))
            elif i == r:
                _add(acc, gr24_times_e(i, sigma), (-1) ** (r - 1) * r)
        powers[r] = acc
    return powers


def wrap_cases():
    """Every Gr(k, n) with n <= 8, lam in the box and n < r < 3n, n not
    dividing r: 6,040 cases."""
    for n in range(2, 9):
        for k in range(1, n):
            ctx = GrContext(k, n)
            for lam in partitions_in_box(k, n - k):
                for r in range(n + 1, 3 * n):
                    if r % n:
                        yield lam, r, ctx


def test_psi_route_is_newton_on_the_quantum_pieri_table():
    ctx = GrContext(2, 4)
    for lam in partitions_in_box(2, 2):
        for r, want in gr24_newton_power_sums(lam, 11).items():
            assert psi_route_quantum_mn(lam, r, ctx) == want, (lam, r)
    assert psi_route_quantum_mn((), 4, ctx) == {(1, ()): -2}
    assert psi_route_quantum_mn((), 5, ctx) == {(1, (1,)): -1}


def test_psi_route_wraps_with_sign_k_minus_1():
    # p_r acts as (-1)**(k-1) q p_(r-n) for r > n
    cases = 0
    for lam, r, ctx in wrap_cases():
        wraps, base = divmod(r, ctx.n)
        sign = -1 if (ctx.k - 1) * wraps % 2 else 1
        want = {(d + wraps, mu): sign * c for (d, mu), c in quantum_mn(lam, base, ctx).items()}
        assert psi_route_quantum_mn(lam, r, ctx) == want, (lam, r, ctx)
        cases += 1
    assert cases == 6040


@pytest.mark.xfail(
    strict=True,
    reason="wrap_power_sum signs each wrap (-1)**k, not (-1)**(k-1); "
    "the fix re-records the benchmark digests (ROADMAP item 10)",
)
def test_quantum_mn_extended_is_the_psi_route():
    wrong = [
        (lam, r, ctx)
        for lam, r, ctx in wrap_cases()
        if quantum_mn_extended(lam, r, ctx) != psi_route_quantum_mn(lam, r, ctx)
    ]
    # in qH*(P^1), σ[1] * p_3 = σ[1]**4 = q**2
    if quantum_mn_extended((1,), 3, GrContext(1, 2)) != {(2, ()): 1}:
        wrong.append(((1,), 3, GrContext(1, 2)))
    ctx = GrContext(2, 4)
    for lam in partitions_in_box(2, 2):
        for r, want in gr24_newton_power_sums(lam, 11).items():
            if r % 4 and quantum_mn_extended(lam, r, ctx) != want:
                wrong.append((lam, r, ctx))
    assert not wrong


def sweep_cases(shapes=((2, 4), (2, 5), (3, 6), (4, 8))):
    for k, n in shapes:
        ctx = GrContext(k, n)
        for lam in partitions_in_box(k, n - k):
            for r in range(1, n):
                yield ctx, lam, r


def test_quantum_mn_matches_reduction_oracle_everywhere():
    count = 0
    for ctx, lam, r in sweep_cases():
        assert quantum_mn(lam, r, ctx) == oracle_quantum_mn(lam, r, ctx)
        count += 1
    assert count == 648


def test_quantum_mn_matches_reduction_oracle_on_gr_5_10_and_6_12():
    count = 0
    for ctx, lam, r in sweep_cases(((5, 10), (6, 12))):
        assert quantum_mn(lam, r, ctx) == oracle_quantum_mn(lam, r, ctx), (ctx, lam, r)
        count += 1
    assert count == 2268 + 10164


def test_quantum_mn_matches_the_schubert_rule_route():
    # all three rules in one chain: the Schubert rule on Grassmannian
    # permutations, read back as shapes and reduced by psi, against the
    # circle move; the cover kernel runs on every BFS state on the way
    shapes = [(k, 2 * k) for k in range(1, 6)]
    shapes += [(k, n) for n in range(3, 7) for k in (1, n - 1)]
    count = 0
    for ctx, lam, r in sweep_cases(shapes):
        assert schubert_route_quantum_mn(lam, r, ctx) == quantum_mn(lam, r, ctx), (ctx, lam, r)
        count += 1
    assert count == 3014


def test_grassmannian_shape_reads_back_the_partition():
    for k in range(1, 5):
        for lam in partitions_in_box(k, 4):
            assert grassmannian_shape(grassmannian_permutation(lam, k), k) == lam
    with pytest.raises(ValueError, match="descent other than at 1"):
        grassmannian_shape((1, 3, 2), 1)


def test_quantum_mn_matches_both_oracles_for_every_n_up_to_10():
    # the two-route oracle also pins the order of the terms, which the
    # README shows
    count = 0
    shapes = [(k, n) for n in range(2, 11) for k in range(1, n)]
    for ctx, lam, r in sweep_cases(shapes):
        got = quantum_mn(lam, r, ctx)
        assert list(got.items()) == list(two_route_quantum_mn(lam, r, ctx).items()), (ctx, lam, r)
        assert got == oracle_quantum_mn(lam, r, ctx), (ctx, lam, r)
        count += 1
    assert count == 16298


@pytest.mark.parametrize("k, n", [(1, 24), (12, 24), (23, 24), (1, 40), (20, 40), (39, 40)])
def test_quantum_mn_matches_both_oracles_on_seeded_large_grassmannians(k, n):
    rng = random.Random(100 * k + n)
    ctx = GrContext(k, n)
    for _ in range(150):
        lam = tuple(sorted((rng.randint(0, n - k) for _ in range(k)), reverse=True))
        r = rng.randint(1, n - 1)
        got = quantum_mn(lam, r, ctx)
        assert got == two_route_quantum_mn(lam, r, ctx) == oracle_quantum_mn(lam, r, ctx), (
            lam, r,
        )


def test_quantum_mn_grading():
    for ctx, lam, r in sweep_cases():
        for (d, mu), c in quantum_mn(lam, r, ctx).items():
            assert sum(mu) + ctx.n * d == sum(lam) + r
            assert c in (-1, 1)
            assert d in (0, 1)
            assert leq(mu, box_partition(ctx.k, ctx.n))


def test_quantum_terms_certify_as_single_rim_hook_wraps():
    # Every q-term arises from exactly one over-the-box partition mu in the
    # plain Schur expansion: mu is nu plus one rim hook of n cells, its
    # n-core is nu after one removal, and the heights of the removed
    # (n-r)-hook, the added r-hook, and the full n-hook satisfy
    # h_removed + h_added == h_full + 1 (the two hooks share one row).
    checked = 0
    for ctx, lam, r in sweep_cases():
        qm = quantum_mn(lam, r, ctx)
        if not any(d == 1 for (d, _) in qm):
            continue
        cls = mn_classical(lam, r, ctx.k)
        out_of_box = [mu for mu in cls if not leq(mu, box_partition(ctx.k, ctx.n))]
        for (d, nu), c in qm.items():
            if d != 1:
                continue
            matches = [
                mu for mu in out_of_box if psi_reduce(mu, ctx).keys() == {(1, nu)}
            ]
            assert len(matches) == 1
            mu = matches[0]
            assert is_rim_hook(nu, mu)
            assert sum(mu) - sum(nu) == ctx.n
            res = n_core(mu, ctx.n)
            assert res.core == nu and res.hooks_removed == 1
            h_removed = rim_hook_height(nu, lam)
            h_added = rim_hook_height(lam, mu)
            h_full = rim_hook_height(nu, mu)
            assert h_removed + h_added == h_full + 1
            checked += 1
    assert checked > 500


def test_ideal_vanishing_reports():
    for k, n in [(4, 8), (3, 6)]:
        ctx = GrContext(k, n)
        checks = ideal_vanishing_check(ctx)
        assert all(ok for _, ok in checks)
        names = [name for name, _ in checks]
        for j in range(n - k + 1, n):
            assert f"h_{j}" in names
            assert psi_reduce((j,), ctx) == {}
        assert f"h_{n}" in names
        assert psi_reduce((n,), ctx) == {(1, ()): 1 if k % 2 else -1}
        assert len(checks) >= n - (n - k + 1) + 1 + 1


def test_sampled_generators_are_pinned():
    pinned = {
        (1, 3, 5): [],
        (2, 4, 3): [(3,), (4, 1), (5, 2)],
        (3, 5, 7): [(3, 3), (3, 2), (3, 1), (3,), (4, 4, 1), (4, 3, 1), (4, 2, 1)],
        (4, 7, 6): [(4, 4, 4), (4, 4, 3), (4, 4, 2), (4, 4, 1), (4, 4), (4, 3, 3)],
        (5, 6, 4): [(2, 2, 2, 2), (2, 2, 2, 1), (2, 2, 2), (2, 2, 1, 1)],
    }
    for (k, n, count), expected in pinned.items():
        sample = sampled_max_minus_min_partitions(GrContext(k, n))
        assert sample[:count] == expected
        assert len(sample) == (GENERATOR_SAMPLES if k > 1 else 0)


def test_quantum_class_json_round_trip():
    qc = {(0, (3, 1)): 2, (1, ()): -1, (2, (1,)): 3}
    encoded = cli.render_quantum(qc, as_json=True)
    assert encoded == [
        {"coeff": 2, "q": 0, "partition": [3, 1]},
        {"coeff": -1, "q": 1, "partition": []},
        {"coeff": 3, "q": 2, "partition": [1]},
    ]
