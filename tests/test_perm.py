import functools
import inspect
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mnrules import perm
from mnrules.perm import (
    canonical,
    chain_endpoints,
    default_max_support,
    inverse,
    k_bruhat_covers,
    length,
)
from oracles import (
    all_perms,
    apply,
    compose,
    cycle_type_check,
    from_lehmer_code,
    het,
    hook_times_schubert,
    is_cover_transposition,
    lehmer_code,
    oracle_canonical,
    oracle_chain_endpoints,
    oracle_inverse,
    oracle_k_bruhat_covers,
    oracle_length,
    oracle_mn_schubert,
    padded_scan_covers,
    peakless_endpoints,
    right_transposed,
    transition_xi,
    transposition,
)

random_perms = st.permutations(range(1, 7)).map(lambda p: canonical(tuple(p)))

W_EXAMPLE = canonical((3, 4, 1, 6, 5, 2, 7, 8))


def oracle_ends(w, k, bound):
    """The pairwise oracle's cover endpoints, in its (i, j) order."""
    return [end for end, _ in oracle_k_bruhat_covers(w, k, bound)]


def moved_by_compose(w):
    """u -> the number of points eta = w^{-1} u moves, eta built by compose."""
    w_inv = inverse(w)
    return functools.cache(lambda u: sum(x != i for i, x in enumerate(compose(w_inv, u), 1)))


def live_levels(w, r, covers, moved):
    """Levels 0..r of the chain search from w, each level after the first
    cut to the states v with t < moved(v) <= r + 1."""
    levels = [{w}]
    for t in range(1, r + 1):
        levels.append({u for v in levels[-1] for u in covers(v) if t < moved(u) <= r + 1})
    return levels


def test_canonical_trims_fixed_tail():
    assert canonical((3, 4, 1, 6, 5, 2, 7, 8)) == (3, 4, 1, 6, 5, 2)
    assert canonical((1, 2, 3)) == ()
    assert canonical((2, 1)) == (2, 1)
    with pytest.raises(ValueError):
        canonical((1, 1, 2))
    with pytest.raises(ValueError):
        canonical((2, 3))


class Small(int):
    pass


def test_canonical_rejects_non_integer_entries():
    # int() used to truncate these: [2.7, 1] and '21' both read as (2, 1)
    for bad in ([2.7, 1], "21", [Fraction(2), 1], [2, 1.0]):
        with pytest.raises(ValueError, match="must be integers"):
            canonical(bad)
    with pytest.raises(ValueError, match="must be integers"):
        from_lehmer_code([1.5])

    for ints in ([Small(2), Small(1)], (2, True), (v for v in (2, 1, 3))):
        w = canonical(ints)
        assert w == (2, 1) and list(map(type, w)) == [int, int]
    assert from_lehmer_code([Small(1), Small(2)]) == (2, 4, 1, 3)


def canonical_outcome(f, word):
    """What ``f`` makes of ``word``: the value with the type of each entry,
    or the ValueError message."""
    try:
        got = f(word)
    except ValueError as err:
        return "ValueError", str(err)
    return type(got), got, tuple(map(type, got))


def corrupted(word):
    """Copies of ``word`` with its first or last letter a float, 0, negated,
    True or another int subclass, with a gap at its top letter, and with a
    letter repeated."""
    m = len(word)
    yield word + (word[0] if word else 1,)
    yield tuple(v + (v == m) for v in word)
    for p in {0, m - 1} if word else ():
        for bad in (float(word[p]), 0, -word[p], True, Small(word[p])):
            yield word[:p] + (bad,) + word[p + 1 :]


class Letter:
    """A letter that is no int but reads as one through ``__index__``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_canonical_is_the_oracle():
    words = [
        p + tuple(range(n + 1, n + 1 + fixed))
        for n in range(8)
        for p in itertools.permutations(range(1, n + 1))
        for fixed in range(3)
    ]
    words += [bad for word in words for bad in corrupted(word)]
    rng = random.Random(27)
    for m in (31, 32, 33, 200, 254, 255, 256, 257, 300):
        # valid, with a fixed last letter, and with a gap, on both sides of
        # the byte check's limits: 256 letters, and a letter of 256
        long = tuple(rng.sample(range(1, m + 1), m))
        words += [long, long + (m + 1,), tuple(v + (v == m) for v in long)]
    # letters outside 0..255 in short words, alone and before or after a
    # non-integer, and letters read through __index__
    words += [(256, 1), (2, 1, 300), (2**70, 1), (-1,), (1, -2), (300, 2.5), (2.5, 300)]
    words += [(Letter(2), Letter(1)), (Letter(300), 1), (1, Letter(-1)), (Letter(1), 1)]
    # 300 byte-sized letters that cover 1..255 but are no permutation
    words.append(tuple(range(1, 256)) + (1,) * 45)
    for word in words:
        want = canonical_outcome(oracle_canonical, word)
        assert canonical_outcome(canonical, word) == want, word
        assert canonical_outcome(canonical, list(word)) == want, word
        assert canonical_outcome(canonical, (v for v in word)) == want, word


def test_length_examples():
    assert length(()) == 0
    assert length(transposition(3, 4)) == 1
    assert length(W_EXAMPLE) == 7
    assert length((3, 5, 6, 7, 1, 2, 4)) == 11  # 7 + 4, as in the p_4 product


@given(random_perms)
@settings(max_examples=60, deadline=None)
def test_length_is_inversion_count(w):
    padded = w + tuple(range(len(w) + 1, len(w) + 1))
    brute = sum(
        1
        for i in range(len(w))
        for j in range(i + 1, len(w))
        if w[i] > w[j]
    )
    assert length(w) == brute


def test_length_matches_pairwise_oracle():
    for n in range(8):
        for word in itertools.permutations(range(1, n + 1)):
            assert length(word) == oracle_length(word), word
    rng = random.Random(2000)
    for m in (10, 100, 500, 1999, 2000):
        word = tuple(rng.sample(range(1, m + 1), m))
        assert length(word) == oracle_length(word), m
    assert length(tuple(range(2000, 0, -1))) == 2000 * 1999 // 2


def test_compose_convention():
    u, v = (2, 3, 1), (1, 3, 2)
    w = compose(u, v)
    assert all(
        apply(w, i) == apply(u, apply(v, i)) for i in range(1, 5)
    )
    assert w == (2, 1, 3)[:2]  # u(v(1))=2, u(v(2))=1, u(v(3))=3 trims away


@given(random_perms)
@settings(max_examples=60, deadline=None)
def test_inverse_and_compose(w):
    assert compose(w, inverse(w)) == ()
    assert compose(inverse(w), w) == ()
    assert inverse(inverse(w)) == w
    assert inverse(w) == oracle_inverse(w)


@given(random_perms)
@settings(max_examples=60, deadline=None)
def test_lehmer_code_round_trip(w):
    assert from_lehmer_code(lehmer_code(w)) == w
    assert sum(lehmer_code(w)) == length(w)


def test_from_lehmer_code_examples():
    assert from_lehmer_code((1, 2)) == (2, 4, 1, 3)
    assert from_lehmer_code(()) == ()
    assert from_lehmer_code((2, 0, 1)) == (3, 1, 4, 2)


def test_from_lehmer_code_refuses_pools_over_the_support_limit():
    # the pool has len(code) + max(code) + 1 letters: the limit itself is
    # allowed, and canonical() then trims the pool's last letter
    limit = perm.SUPPORT_LIMIT
    assert from_lehmer_code((limit - 2,)) == (limit - 1, *range(1, limit - 1))
    for code, size in [((limit - 1,), limit + 1), ((0,) * limit, limit + 1), ((10**20,), 10**20 + 2)]:
        with pytest.raises(ValueError, match=f"needs words of {size} letters, over the limit"):
            from_lehmer_code(code)


def test_transpositions():
    assert transposition(1, 3) == (3, 2, 1)
    assert right_transposed((3, 4, 1, 6, 5, 2), 4, 7) == (3, 4, 1, 7, 5, 2, 6)
    assert is_cover_transposition((3, 4, 1, 6, 5, 2), 4, 7)
    assert not is_cover_transposition((2, 1), 1, 2)  # w(1) > w(2)
    assert not is_cover_transposition((), 1, 3)  # the value 2 lies in between


@given(random_perms, st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_covers_raise_length_by_one(w, k):
    bound = default_max_support(w, k, 1)
    for end in k_bruhat_covers(w, k, bound):
        assert length(end) == length(w) + 1
        assert isinstance(end, tuple) and end == canonical(end)
        eta = compose(inverse(w), end)
        moved = [i for i in range(1, len(eta) + 1) if eta[i - 1] != i]
        assert len(moved) == 2 and min(moved) <= k < max(moved)


def test_covers_small_frozen():
    assert k_bruhat_covers((), 1, 3) == [(2, 1)]
    got = k_bruhat_covers((2, 1), 1, 3)
    assert got == [(3, 1, 2)]
    got2 = k_bruhat_covers((2, 1), 2, 4)
    assert set(got2) == {(3, 1, 2), (2, 3, 1)}
    # a list or a generator is read as the tuple it holds
    assert k_bruhat_covers([2, 1], 2, 4) == k_bruhat_covers((v for v in (2, 1)), 2, 4) == got2


def test_covers_match_pairwise_oracle_exhaustively():
    # every bound from 1 up: below max(len(w), k) + 1 the kernel refuses,
    # from there on it equals the oracle list for list
    compared = refused = 0
    for n in range(7):
        for word in itertools.permutations(range(1, n + 1)):
            for k in range(1, n + 3):
                need = max(len(canonical(word)), k) + 1
                for bound in range(1, n + 4):
                    if bound < need:
                        with pytest.raises(ValueError, match="is below max"):
                            k_bruhat_covers(word, k, bound)
                        refused += 1
                    else:
                        got = k_bruhat_covers(word, k, bound)
                        assert got == oracle_ends(word, k, bound), (word, k, bound)
                        compared += 1
    assert (compared, refused) == (18606, 41200)


def test_covers_match_pairwise_oracle_on_s12_chain_states():
    # every state of the full search, not only those chain_endpoints keeps
    rng = random.Random(1507)
    k, r = 6, 5
    for _ in range(2):
        w = canonical(rng.sample(range(1, 13), 12))
        bound = default_max_support(w, k, r)
        level = {w}
        for _ in range(r):
            nxt = set()
            for v in sorted(level):
                got = k_bruhat_covers(v, k, bound)
                assert got == oracle_ends(v, k, bound), v
                nxt.update(got)
            level = nxt
        assert level == oracle_chain_endpoints(w, k, r)


def test_covers_match_the_padded_scan():
    # List for list, so the (i, j) order is compared too.  Words come as
    # given and with two trailing fixed points; k runs past len(w), where
    # only the cover (k, k + 1) is left, and bounds below max(len(w), k) + 1
    # must be refused.  S7 is sampled to keep this test near two seconds.
    rng = random.Random(1601)
    compared = refused = 0
    for n in range(8):
        words = list(itertools.permutations(range(1, n + 1)))
        if n == 7:
            words = rng.sample(words, 300)
        for word in words:
            for given_word in (word, word + (n + 1, n + 2)):
                for k in range(1, n + 3):
                    need = max(len(canonical(word)), k) + 1
                    for bound in range(1, n + 4):
                        if bound < need:
                            with pytest.raises(ValueError, match="is below max"):
                                k_bruhat_covers(given_word, k, bound)
                            refused += 1
                        else:
                            got = k_bruhat_covers(given_word, k, bound)
                            assert got == padded_scan_covers(given_word, k, bound), (given_word, k, bound)
                            compared += 1
    # every BFS state of seeded S12 walks
    for k in (4, 6, 8):
        w = canonical(rng.sample(range(1, 13), 12))
        bound = default_max_support(w, k, 5)
        level = {w}
        for _ in range(5):
            nxt = set()
            for v in level:
                got = k_bruhat_covers(v, k, bound)
                assert got == padded_scan_covers(v, k, bound), (v, k)
                nxt.update(got)
                compared += 1
            level = nxt
    assert (compared, refused) == (52631, 121538)


LIMIT = perm.SUPPORT_LIMIT


@pytest.mark.parametrize(
    "w, k, bound",
    [
        # the rows of test_input_checks.py::REFUSALS that pin each message
        # and the order of the checks: the word, then k, then the support
        # limit, then the bound
        ((1.0, 2), LIMIT, 1),
        ((1, 1), 0, 1),
        ((2, 1), 0, 1),
        ((2, 1), LIMIT, 1),
        ((2, 1), 1, 2),
        ((3, 4, 1, 2), 2, 4),
        ((), 3, 3),
        ((2, 1, 3, 4), 1, 0),
    ],
    ids=[
        "non-integer",
        "non-permutation",
        "k-below-1",
        "over-support-limit",
        "bound-below-len",
        "bound-at-len",
        "bound-below-k",
        "bound-zero",
    ],
)
def test_covers_keep_their_input_checks(w, k, bound):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            k_bruhat_covers(w, k, bound)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a word of LIMIT letters alone takes 800 kB of pointers
    assert peak < 100_000


def test_chain_endpoints_calls_the_kernel_once_per_live_state(monkeypatch):
    # The benchmark's traced run times the BFS through this module-global
    # call, so chain_endpoints must make it once for every state it expands:
    # the states of levels 0..r-1 that can still close an (r+1)-cycle.
    rng = random.Random(1512)
    cases = [((), 3, 4), ((2, 1), 1, 3), (W_EXAMPLE, 4, 4)] + [
        (canonical(rng.sample(range(1, 13), 12)), k, 4) for k in (4, 6, 8)
    ]
    # one fixed S12 case, where the full search expands 508 states
    cases.append(((3, 6, 2, 1, 9, 8, 10, 11, 5, 12, 4, 7), 6, 5))
    expected = []
    for w, k, r in cases:
        bound = default_max_support(w, k, r)
        levels = live_levels(w, r, lambda v: oracle_ends(v, k, bound), moved_by_compose(w))
        expected.append((levels[-1], sorted(v for level in levels[:-1] for v in level)))
    calls = []
    kernel = perm.k_bruhat_covers

    def counting(v, k, max_support):
        calls.append(v)
        return kernel(v, k, max_support)

    monkeypatch.setattr(perm, "k_bruhat_covers", counting)
    for (w, k, r), (ends, states) in zip(cases, expected):
        calls.clear()
        assert chain_endpoints(w, k, r) == ends
        assert sorted(calls) == states, (w, k, r)
    assert [len(states) for _, states in expected] == [7, 3, 25, 161, 56, 85, 431]


def test_chain_endpoints_is_the_windowed_oracle_search():
    # Exhaustive S0..S6 (k <= n + 1; r <= 6, r <= 4 on S6): chain_endpoints
    # equals the plain search cut level by level to t < #moved(eta) <= r + 1,
    # with eta built by compose.  On S0..S5, where r reaches the values at
    # which eta can split, it holds every term of the compose oracle, which
    # walks every chain.
    cases = 0
    for n in range(7):
        for w in all_perms(n):
            moved = moved_by_compose(w)
            for k in range(1, n + 2):
                bound = default_max_support(w, k, 6)
                covers = functools.cache(lambda v: k_bruhat_covers(v, k, bound))
                for r in range(1, 5 if n == 6 else 7):
                    ends = chain_endpoints(w, k, r)
                    assert ends == live_levels(w, r, covers, moved)[-1], (w, k, r)
                    if n < 6:
                        assert set(oracle_mn_schubert(w, k, r)) <= ends, (w, k, r)
                    cases += 1
    assert cases == 6 * sum(len(all_perms(n)) * (n + 1) for n in range(6)) + 4 * 720 * 7


def test_chain_endpoints_and_saturated_chains_agree():
    # saturated chains grown level by level from the pairwise oracle covers,
    # with a support bound above the proven one
    w = canonical((2, 1))
    for k in (1, 2):
        for r in (1, 2, 3):
            bound = len(w) + k + r + 2
            level = {w}
            for _ in range(r):
                level = {u for v in level for u in oracle_ends(v, k, bound)}
            assert chain_endpoints(w, k, r) == level


def test_cycle_type_check():
    assert cycle_type_check((2, 3, 1), 3)
    assert cycle_type_check(transposition(2, 5), 2)
    assert not cycle_type_check((), 2)
    assert not cycle_type_check((2, 1, 4, 3), 2)  # two 2-cycles
    assert not cycle_type_check((2, 3, 1), 2)
    assert not cycle_type_check((2, 1), 1)


def test_het_and_up_set():
    eta = (2, 4, 1, 7, 3, 6, 5)  # cycle (1,2,4,7,5,3)
    assert het(eta, 4) == 4
    assert het(transposition(2, 6), 4) == 1
    assert het((), 3) == 0
    # cycle taken from the worked p_4 product
    zeta = compose(inverse(W_EXAMPLE), (3, 5, 6, 7, 1, 2, 4))
    assert het(zeta, 4) == 3


def test_het_values_from_worked_product():
    w = W_EXAMPLE
    cases = [
        ((3, 5, 6, 7, 1, 2, 4), 3),
        ((3, 6, 4, 7, 1, 2, 5), 3),
        ((4, 5, 3, 6, 2, 1), 3),
        ((4, 6, 1, 7, 3, 2, 5), 3),
        ((3, 4, 6, 7, 2, 1, 5), 2),
        ((3, 4, 6, 8, 1, 2, 5, 7), 2),
        ((3, 6, 1, 8, 4, 2, 5, 7), 2),
        ((3, 4, 1, 10, 5, 2, 6, 7, 8, 9), 1),
    ]
    for u, expected_het in cases:
        eta = compose(inverse(w), canonical(u))
        assert cycle_type_check(eta, 5)
        assert het(eta, 4) == expected_het


def test_default_max_support_covers_identity_case():
    # growing from the identity with k=3 needs support beyond len(w)+r
    assert default_max_support((), 3, 1) == 4
    ends = chain_endpoints((), 3, 1)
    assert ends == {(1, 2, 4, 3)}  # covers need i <= 3 < j, so only t_3


def test_support_bound_parameter_is_gone():
    # Below the proven bound the chains were cut off without an error:
    # chain_endpoints((2, 1), 1, 3, 2) gave set() and transition_xi((2, 1), 1, 1) {}.
    for fn in (chain_endpoints, peakless_endpoints, transition_xi):
        assert "max_support" not in inspect.signature(fn).parameters, fn.__name__
    assert chain_endpoints((2, 1), 1, 3) == {(5, 1, 2, 3, 4)}
    assert transition_xi((2, 1), 1) == {(3, 1, 2): 1}


def test_peakless_endpoints_validation():
    with pytest.raises(ValueError):
        peakless_endpoints((), 2, 3, 1)
    with pytest.raises(ValueError):
        peakless_endpoints((), 2, 0, 1)


def test_peakless_endpoints_match_single_variable_schur_products():
    # h_2(x1,x2) * S_id = S_(1,4,2,3) and e_2(x1,x2) * S_id = S_(2,3,1)
    assert dict(peakless_endpoints((), 2, 1, 2)) == {(1, 4, 2, 3): 1}
    assert dict(peakless_endpoints((), 2, 2, 1)) == {(2, 3, 1): 1}


def test_hook_route_does_not_call_the_kernel(refuse):
    # The peakless-chain oracle checks the cover kernel, so it must find its
    # covers and labels without it.
    cases = [(W_EXAMPLE, 4, a, 5 - a) for a in range(1, 5)] + [
        ((2, 1), 2, 1, 2),
        ((), 2, 2, 1),
        ((3, 1, 2), 3, 2, 2),
    ]
    expected = [(peakless_endpoints(*case), hook_times_schubert(*case)) for case in cases]

    refuse(perm.k_bruhat_covers)
    got = [(peakless_endpoints(*case), hook_times_schubert(*case)) for case in cases]
    assert got == expected


def test_peakless_uniqueness_on_worked_product():
    w = W_EXAMPLE
    r = 4
    endpoints = [
        (3, 5, 6, 7, 1, 2, 4),
        (3, 6, 4, 7, 1, 2, 5),
        (4, 5, 3, 6, 2, 1),
        (4, 6, 1, 7, 3, 2, 5),
        (3, 4, 6, 7, 2, 1, 5),
        (3, 4, 6, 8, 1, 2, 5, 7),
        (3, 6, 1, 8, 4, 2, 5, 7),
        (3, 4, 1, 10, 5, 2, 6, 7, 8, 9),
    ]
    for u in map(canonical, endpoints):
        eta = compose(inverse(w), u)
        a = het(eta, 4)
        b = r + 1 - a
        counts = dict(peakless_endpoints(w, 4, a, b))
        assert counts.get(u) == 1
        # a minimal cycle shows up for its own hook shape only
        for other_a in range(1, min(4, r) + 1):
            if other_a == a:
                continue
            other = dict(peakless_endpoints(w, 4, other_a, r + 1 - other_a))
            assert u not in other
