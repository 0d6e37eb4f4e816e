"""Acceptance gate: ten end-to-end criteria, every comparison integer-exact.

Each test prints one ``ACCEPTANCE <n> PASS`` line (with its runtime) with
capture suspended, so the line shows up in the live pytest output.
"""

import json
import random
import time

from mnrules import cli, perm, schubert, symfun
from mnrules.partitions import box_partition, n_core
from mnrules.poly import SparsePoly
from mnrules.quantum import (
    GrContext,
    ideal_vanishing_check,
    oracle_quantum_mn,
    psi_reduce,
    quantum_mn,
)
from mnrules.schubert import (
    expand_in_schubert,
    mn_schubert,
    monk,
    schubert_poly,
)
from mnrules.symfun import mn_classical, power_sum_poly
from oracles import (
    all_perms,
    compose,
    cycle_perm,
    cycle_type_check,
    divided_difference,
    expansion_poly,
    het,
    hook_times_schur,
    is_rim_hook,
    leq,
    partitions_in_box,
    partitions_of,
    removal_observables,
    rim_hook_height,
    schur_to_monomials,
    transposition,
)


def report(capsys, number: int, limit: float, started: float, description: str) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"criterion {number} took {elapsed:.1f}s, limit {limit}s"
    with capsys.disabled():
        print(
            f"ACCEPTANCE {number} PASS ({elapsed:.2f}s < {limit:g}s): {description}",
            flush=True,
        )


def test_acceptance_01_power_sum_times_schubert_worked_example(capsys):
    started = time.perf_counter()
    w = perm.canonical((3, 4, 1, 6, 5, 2, 7, 8))
    full = mn_schubert(w, 4, 4)

    # The product itself, checked against plain polynomial arithmetic.
    oracle = expand_in_schubert(power_sum_poly(4, 4) * schubert_poly(w))
    assert full == oracle

    # The seven terms supported inside S_8, with their cycle factorizations
    # u = w * eta and heights: 3, 3, 3, 3 give +, and 2, 2, 2 give -.
    listed = [
        ((3, 5, 6, 7, 1, 2, 4, 8), (3, 4, 7, 2, 5), 3),
        ((3, 6, 4, 7, 1, 2, 5, 8), (2, 4, 7, 5, 3), 3),
        ((4, 5, 3, 6, 2, 1, 7, 8), (1, 2, 5, 6, 3), 3),
        ((4, 6, 1, 7, 3, 2, 5, 8), (1, 2, 4, 7, 5), 3),
        ((3, 4, 6, 7, 2, 1, 5, 8), (3, 4, 7, 5, 6), 2),
        ((3, 4, 6, 8, 1, 2, 5, 7), (3, 4, 8, 7, 5), 2),
        ((3, 6, 1, 8, 4, 2, 5, 7), (2, 4, 8, 7, 5), 2),
    ]
    expected_in_s8 = {}
    for word, points, height in listed:
        u = perm.canonical(word)
        eta = cycle_perm(points)
        assert compose(w, eta) == u
        assert cycle_type_check(eta, 5)
        assert het(eta, 4) == height
        expected_in_s8[u] = 1 if height % 2 else -1

    in_s8 = {u: c for u, c in full.items() if len(u) <= 8}
    assert in_s8 == expected_in_s8

    # One more endpoint needs a value above 8; it completes the product.
    outside = {u: c for u, c in full.items() if len(u) > 8}
    assert outside == {perm.canonical((3, 4, 1, 10, 5, 2, 6, 7, 8, 9)): 1}
    report(capsys, 1, 5, started, "p_4(x1..x4) * S[3,4,1,6,5,2,7,8], terms and cycles")


def test_acceptance_02_quantum_worked_example(capsys):
    started = time.perf_counter()
    got = quantum_mn((3, 2, 1), 5, GrContext(4, 8))
    assert got == {
        (0, (3, 3, 3, 2)): 1,
        (0, (4, 4, 3)): 1,
        (1, (3,)): 1,
        (1, (1, 1, 1)): 1,
    }
    report(capsys, 2, 1, started, "p_5 * sigma[3,2,1] in qH*(Gr(4,8))")


def test_acceptance_03_core_worked_examples(capsys):
    started = time.perf_counter()
    ctx = GrContext(4, 8)

    res = n_core((12, 10, 7, 3), 8)
    assert res.core == (4, 2, 2)
    assert res.hooks_removed == 3
    assert psi_reduce((12, 10, 7, 3), ctx) == {(3, (4, 2, 2)): 1}

    res = n_core((3, 2, 1), 8)
    assert res.core == (3, 2, 1) and res.hooks_removed == 0

    res = n_core((9, 8, 5, 2), 8)
    assert res.core == (7, 4, 3, 2)
    assert psi_reduce((9, 8, 5, 2), ctx) == {}
    report(capsys, 3, 1, started, "8-core reductions and their images")


def test_acceptance_04_schubert_rule_oracle_sweep(capsys):
    started = time.perf_counter()
    count = 0
    for w in all_perms(4):
        for k in (1, 2, 3):
            for r in (1, 2, 3, 4):
                product = power_sum_poly(r, k) * schubert_poly(w)
                assert mn_schubert(w, k, r) == expand_in_schubert(product)
                count += 1
    assert count == 288

    rng = random.Random(20240816)
    fives = all_perms(5)
    for _ in range(100):
        w = rng.choice(fives)
        k = rng.randint(1, 4)
        r = rng.randint(1, 4)
        product = power_sum_poly(r, k) * schubert_poly(w)
        assert mn_schubert(w, k, r) == expand_in_schubert(product)
    report(capsys, 4, 300, started, "288 cases in S_4 plus 100 random cases in S_5")


def test_acceptance_05_quantum_rule_oracle_sweep(capsys):
    started = time.perf_counter()
    count = 0
    certified = 0
    for k, n in [(2, 4), (2, 5), (3, 6), (4, 8)]:
        ctx, box = GrContext(k, n), box_partition(k, n)
        for lam in partitions_in_box(k, n - k):
            for r in range(1, n):
                got = quantum_mn(lam, r, ctx)
                assert got == oracle_quantum_mn(lam, r, ctx)
                count += 1
                q_terms = [nu for (d, nu) in got if d == 1]
                if not q_terms:
                    continue
                over_the_box = [
                    mu for mu in mn_classical(lam, r, k) if not leq(mu, box)
                ]
                for nu in q_terms:
                    # exactly one over-the-box Schur term wraps onto nu ...
                    matches = [
                        mu
                        for mu in over_the_box
                        if psi_reduce(mu, ctx).keys() == {(1, nu)}
                    ]
                    assert len(matches) == 1
                    mu = matches[0]
                    # ... by one rim hook of n cells: the removed (n-r)-hook
                    # and the added r-hook concatenate, sharing one row.
                    assert is_rim_hook(nu, mu) and sum(mu) - sum(nu) == n
                    assert rim_hook_height(nu, lam) + rim_hook_height(lam, mu) == (
                        rim_hook_height(nu, mu) + 1
                    )
                    certified += 1
    assert count == 648
    assert certified > 500
    report(capsys, 5, 120, started, f"{count} quantum cases, {certified} hook-wrap certificates")


def test_acceptance_06_classical_rule_property_suite(capsys):
    started = time.perf_counter()
    k = 4
    lams = [
        lam
        for size in range(0, 9)
        for lam in partitions_of(size, max_rows=4)
    ]
    assert len(lams) == 53
    count = 0
    for lam in lams:
        s_lam = schur_to_monomials(lam, k)
        for r in range(1, 7):
            got = mn_classical(lam, r, k)
            assert expansion_poly(got, k) == power_sum_poly(r, k) * s_lam
            acc = {}
            for i in range(min(r, k)):
                sign = -1 if i % 2 else 1
                for mu, c in hook_times_schur(lam, i + 1, r - i, k).items():
                    acc[mu] = acc.get(mu, 0) + sign * c
            assert {mu: c for mu, c in acc.items() if c} == got
            count += 1
    report(capsys, 6, 300, started, f"{count} cases: monomial identity and hook alternation")


def test_acceptance_07_operator_algebra_suite(capsys):
    started = time.perf_counter()
    rng = random.Random(4096)

    def random_poly():
        terms = {}
        for _ in range(rng.randint(1, 6)):
            exps = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 5)))
            terms[exps] = rng.randint(-9, 9)
        return SparsePoly(terms)

    zero = SparsePoly.zero()
    for _ in range(220):
        f = random_poly()
        for i in (1, 2, 3, 4):
            assert divided_difference(divided_difference(f, i), i) == zero
        i = rng.randint(1, 3)
        a = divided_difference(divided_difference(divided_difference(f, i), i + 1), i)
        b = divided_difference(divided_difference(divided_difference(f, i + 1), i), i + 1)
        assert a == b

    for w in all_perms(4):
        assert expand_in_schubert(schubert_poly(w)) == {w: 1}
        for k in (1, 2, 3):
            product = schubert_poly(transposition(k, k + 1)) * schubert_poly(w)
            assert monk(w, k) == expand_in_schubert(product)
    report(capsys, 7, 120, started, "220 random polynomials, S_4 round trips, Monk products")


def test_acceptance_08_core_removal_order_independence(capsys):
    started = time.perf_counter()
    rng = random.Random(88)
    lams = []
    while len(lams) < 200:
        rows = rng.randint(1, 5)
        lams.append(tuple(sorted((rng.randint(1, 12) for _ in range(rows)), reverse=True)))
    for lam in lams:
        for n in range(5, 10):
            observed = removal_observables(lam, n)
            assert len(observed) == 1, (lam, n, observed)
            res = n_core(lam, n)
            assert observed == {(res.core, res.hooks_removed, res.height_sum % 2)}
            ((core, hooks, parity),) = observed
            for k in range(1, 6):
                sign = -1 if (k * hooks - parity) % 2 else 1
                lib_sign = -1 if (k * res.hooks_removed - res.height_sum) % 2 else 1
                assert sign == lib_sign
    report(capsys, 8, 120, started, "200 partitions x n in 5..9, every removal order agrees")


def test_acceptance_09_ideal_vanishing(capsys):
    started = time.perf_counter()
    for k, n in [(4, 8), (3, 6)]:
        ctx = GrContext(k, n)
        checks = ideal_vanishing_check(ctx)
        assert all(ok for _, ok in checks)
        names = [name for name, _ in checks]
        for j in range(n - k + 1, n):
            assert f"h_{j}" in names
            assert psi_reduce((j,), ctx) == {}
        assert psi_reduce((n,), ctx) == {(1, ()): 1 if k % 2 else -1}
        sampled = [name for name in names if name.startswith("s_")]
        assert len(sampled) == 20
    report(capsys, 9, 60, started, "quotient generators vanish for Gr(4,8) and Gr(3,6)")


def test_acceptance_10_selfcheck_and_negative_control(capsys, monkeypatch):
    started = time.perf_counter()
    assert cli.main(["selfcheck"]) == 0
    out = capsys.readouterr().out
    assert "selfcheck: ok" in out and "FAIL" not in out

    assert cli.main(["selfcheck", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is True

    # Negative control: break the sign rule and the checks must notice.
    sign = schubert._cycle_sign
    monkeypatch.setattr(schubert, "_cycle_sign", lambda *args: -sign(*args))
    assert cli.main(["selfcheck"]) == 1
    assert "FAIL" in capsys.readouterr().out
    monkeypatch.undo()

    assert cli.main(["selfcheck"]) == 0
    capsys.readouterr()
    report(capsys, 10, 60, started, "selfcheck passes; sign-flip mutation is caught")
