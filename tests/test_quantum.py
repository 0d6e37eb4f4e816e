import random

import pytest

from mnrules import cli, partitions, quantum, symfun
from mnrules.partitions import HOOK_LIMIT, box_partition, n_core, part
from mnrules.quantum import (
    GENERATOR_SAMPLES,
    GrContext,
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
    hook_strip_psi_reduce,
    is_rim_hook,
    leq,
    partitions_in_box,
    partitions_of,
    pieri_newton_quantum_mn,
    removal_observables,
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


def test_psi_reduce_fixes_partitions_inside_the_box():
    ctx = GrContext(4, 8)
    for lam in [(), (1,), (3, 2, 1), (4, 4, 4, 4)]:
        assert psi_reduce(lam, ctx) == {(0, lam): 1}


PSI_EXAMPLES = [
    ((12, 10, 7, 3), {(3, (4, 2, 2)): 1}),
    ((9, 8, 5, 2), {}),
    ((6, 4, 1), {(1, (3,)): -1}),
    ((8, 2, 1), {(1, (1, 1, 1)): 1}),
    ((8,), {(1, ()): -1}),
]


def test_psi_reduce_examples():
    ctx = GrContext(4, 8)
    for lam, image in PSI_EXAMPLES:
        assert psi_reduce(lam, ctx) == image, lam


def test_psi_reduce_shares_no_kernel_with_its_oracle(refuse):
    # the runner slide moves no bead: the hook-strip route's kernels stay unused
    refuse(partitions.n_core, partitions.remove_rim_hooks, partitions._bead_moves, partitions._splice)
    ctx = GrContext(4, 8)
    for lam, image in PSI_EXAMPLES:
        assert psi_reduce(lam, ctx) == image, lam


def test_schubert_route_shares_no_kernel_with_quantum_mn(refuse):
    # the Schubert rule pushed through the runner slide: an oracle for the
    # circle move that reaches neither the row splice nor the Schur rule
    refuse(
        partitions._splice,
        partitions._bead_moves,
        partitions.add_rim_hooks,
        partitions.remove_rim_hooks,
        partitions.n_core,
        symfun.mn_classical,
    )
    assert schubert_route_quantum_mn((3, 2, 1), 5, GrContext(4, 8)) == WORKED_EXAMPLE


def test_psi_reduce_matches_the_hook_strip_route():
    # every Gr(k, n) with n <= 9 and every lam of at most k rows and at most
    # 18 cells; where at most 3 hooks come off, also every removal order
    cases = nonzero = orders = 0
    for n in range(2, 10):
        for k in range(1, n):
            ctx = GrContext(k, n)
            for size in range(19):
                for lam in partitions_of(size, max_rows=k):
                    got = psi_reduce(lam, ctx)
                    assert got == hook_strip_psi_reduce(lam, ctx), (lam, k, n)
                    cases, nonzero = cases + 1, nonzero + bool(got)
                    if size // n <= 3:
                        ((core, s, parity),) = removal_observables(lam, n)
                        fits = part(core, 0) <= n - k
                        sign = -1 if (k * s - parity) % 2 else 1
                        assert got == ({(s, core): sign} if fits else {}), (lam, k, n)
                        orders += 1
    assert (cases, nonzero, orders) == (14_802, 5_719, 14_595)


def test_psi_reduce_past_the_hook_limit():
    # the hook-strip route refuses these; a single row of m*n cells is
    # ((-1)**(k-1) q)**m
    ctx = GrContext(4, 8)
    for lam, image in [
        ((800008,), {(100001, ()): -1}),
        ((800000, 500000, 300000, 7), {(200000, (4, 1, 1, 1)): -1}),
    ]:
        assert sum(lam) // ctx.n > HOOK_LIMIT
        assert psi_reduce(lam, ctx) == image, lam
        with pytest.raises(ValueError, match="over the limit of 100000"):
            hook_strip_psi_reduce(lam, ctx)


def test_psi_reduce_rejects_too_many_rows():
    with pytest.raises(ValueError):
        psi_reduce((1, 1, 1), GrContext(2, 4))


def test_quantum_mn_does_not_call_the_schur_rule_or_the_rim_hook_kernels(refuse):
    # oracle_quantum_mn, behind mn-quantum --verify, reads mn_classical, so
    # quantum_mn must find its q**0 terms without it, under any name
    refuse(
        partitions._bead_moves,
        partitions.add_rim_hooks,
        partitions.remove_rim_hooks,
        symfun.mn_classical,
    )
    ctx = GrContext(4, 8)
    assert quantum_mn((3, 2, 1), 5, ctx) == WORKED_EXAMPLE
    shifted = {(d + 1, mu): c for (d, mu), c in WORKED_EXAMPLE.items()}
    assert quantum_mn_extended((3, 2, 1), 13, ctx) == shifted


class Small(int):
    pass


def test_quantum_mn_reads_r_of_any_int_type():
    # off the plain-int fast path, r is read as the plain int it equals
    ctx = GrContext(4, 8)
    assert quantum_mn((3, 2, 1), Small(5), ctx) == WORKED_EXAMPLE
    assert quantum_mn((2, 1), True, ctx) == quantum_mn((2, 1), 1, ctx)
    assert list(map(type, quantum._require_args((1,), Small(3), ctx))) == [tuple, int]


def test_quantum_mn_rejects_bad_input():
    # quantum_mn's message for each of these is a REFUSALS row in
    # test_input_checks.py; both oracle routes refuse with the same one:
    # r out of range, lam past the box or over k rows, and the box first
    for lam, r in [((3, 2, 1), 0), ((3, 2, 1), 8), ((5, 2, 1), 3), ((1, 1, 1, 1, 1), 3), ((5, 2, 1), 8)]:
        messages = []
        for rule in (quantum_mn, two_route_quantum_mn, schubert_route_quantum_mn):
            with pytest.raises(ValueError) as err:
                rule(lam, r, GrContext(4, 8))
            messages.append(str(err.value))
        assert len(set(messages)) == 1, (lam, r, messages)
    # the reduction oracle is psi(p_r * s_lam), defined for every r >= 1 and
    # every lam of at most k rows: it answers past n and past the box (its
    # refusals are REFUSALS rows too)
    ctx = GrContext(4, 8)
    assert oracle_quantum_mn((3, 2, 1), 8, ctx) == {(1, (3, 2, 1)): -4}  # p_n acts as k (-1)**(k-1) q
    assert oracle_quantum_mn((5, 2, 1), 8, ctx) == {}  # psi(s_521) = 0
    shifted = {(d + 1, mu): -c for (d, mu), c in quantum_mn((3,), 3, ctx).items()}
    assert oracle_quantum_mn((6, 4, 1), 3, ctx) == shifted  # psi(s_641) = -q sigma_3


def test_fit_check_agrees_with_containment_in_the_box():
    # one row and one column past the box on each side: the row-count test
    # and the first-row test each refuse some shape the other lets through
    refused = 0
    for n in range(2, 8):
        for k in range(1, n):
            ctx, box = GrContext(k, n), box_partition(k, n)
            for lam in partitions_in_box(k + 1, n - k + 1):
                if leq(lam, box):
                    assert quantum._require_args(lam, 1, ctx) == (lam, 1)
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


def box_cases():
    """Every Gr(k, n) with n <= 8, lam in the box and 1 <= r < 3n: 10,048
    cases."""
    for n in range(2, 9):
        for k in range(1, n):
            ctx = GrContext(k, n)
            for lam in partitions_in_box(k, n - k):
                for r in range(1, 3 * n):
                    yield lam, r, ctx


def wrap_cases():
    """The box cases with n < r and n not dividing r: 6,040 cases."""
    return ((lam, r, ctx) for lam, r, ctx in box_cases() if r > ctx.n and r % ctx.n)


def test_psi_route_is_newton_on_the_quantum_pieri_table():
    # the psi route against Newton's identity on Bertram's quantum Pieri
    # rule, which reaches no rim hook, no abacus and no psi; below n also
    # the rule itself
    cases = below_n = 0
    for lam, r, ctx in box_cases():
        want = pieri_newton_quantum_mn(lam, r, ctx)
        assert oracle_quantum_mn(lam, r, ctx) == want, (lam, r, ctx)
        if r < ctx.n:
            assert quantum_mn(lam, r, ctx) == want, (lam, r, ctx)
            below_n += 1
        cases += 1
    assert (cases, below_n) == (10_048, 3_020)
    ctx = GrContext(2, 4)
    assert pieri_newton_quantum_mn((), 4, ctx) == {(1, ()): -2}
    assert pieri_newton_quantum_mn((), 5, ctx) == {(1, (1,)): -1}


def test_psi_route_wraps_with_sign_k_minus_1():
    # p_r acts as (-1)**(k-1) q p_(r-n) for r > n
    cases = 0
    for lam, r, ctx in wrap_cases():
        wraps, base = divmod(r, ctx.n)
        sign = -1 if (ctx.k - 1) * wraps % 2 else 1
        want = {(d + wraps, mu): sign * c for (d, mu), c in quantum_mn(lam, base, ctx).items()}
        assert oracle_quantum_mn(lam, r, ctx) == want, (lam, r, ctx)
        cases += 1
    assert cases == 6040


def test_quantum_mn_extended_is_the_wrapped_rule():
    # the bead pass signs and shifts its whole turns itself; it must give
    # what wrap_power_sum builds from quantum_mn on r mod n, and in the same
    # term order, which the docstrings print
    cases = 0
    for lam, r, ctx in wrap_cases():
        want = quantum.wrap_power_sum(quantum_mn, lam, r, ctx)
        assert list(quantum_mn_extended(lam, r, ctx).items()) == list(want.items()), (lam, r, ctx)
        cases += 1
    assert cases == 6040


@pytest.mark.xfail(
    strict=True,
    reason="quantum_mn_extended signs each wrap (-1)**k, not (-1)**(k-1); "
    "the fix re-records the benchmark digests (ROADMAP item 10)",
)
def test_quantum_mn_extended_is_the_psi_route():
    wrong = [
        (lam, r, ctx, route.__name__)
        for lam, r, ctx in wrap_cases()
        for route in (oracle_quantum_mn, pieri_newton_quantum_mn)
        if quantum_mn_extended(lam, r, ctx) != route(lam, r, ctx)
    ]
    # in qH*(P^1), σ[1] * p_3 = σ[1]**4 = q**2
    if quantum_mn_extended((1,), 3, GrContext(1, 2)) != {(2, ()): 1}:
        wrong.append(((1,), 3, GrContext(1, 2), "sigma_1**4 = q**2"))
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
