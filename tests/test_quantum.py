import pytest

from mnrules import cli
from mnrules.partitions import leq, n_core
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
from mnrules.symfun import mn_classical
from oracles import is_rim_hook, partitions_in_box, rim_hook_height


def test_context_validation():
    ctx = GrContext(4, 8)
    assert ctx.box == (4, 4, 4, 4)
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
    ctx = GrContext(4, 8)
    assert quantum_mn((3, 2, 1), 5, ctx) == {
        (0, (3, 3, 3, 2)): 1,
        (0, (4, 4, 3)): 1,
        (1, (3,)): 1,
        (1, (1, 1, 1)): 1,
    }


def test_quantum_mn_rejects_bad_input():
    ctx = GrContext(4, 8)
    with pytest.raises(ValueError):
        quantum_mn((3, 2, 1), 0, ctx)
    with pytest.raises(ValueError):
        quantum_mn((3, 2, 1), 8, ctx)
    with pytest.raises(ValueError):
        quantum_mn((5, 2, 1), 3, ctx)  # outside the 4x4 box


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


def test_quantum_mn_grading():
    for ctx, lam, r in sweep_cases():
        for (d, mu), c in quantum_mn(lam, r, ctx).items():
            assert sum(mu) + ctx.n * d == sum(lam) + r
            assert c in (-1, 1)
            assert d in (0, 1)
            assert leq(mu, ctx.box)


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
        out_of_box = [mu for mu in cls if not leq(mu, ctx.box)]
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
