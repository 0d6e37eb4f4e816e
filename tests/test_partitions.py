import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mnrules import partitions
from mnrules.partitions import (
    add_rim_hooks,
    box_partition,
    n_core,
    part,
    remove_rim_hooks,
    strips,
    validate_partition,
)
from oracles import (
    abacus_core,
    hook_at_a_time_n_core,
    is_rim_hook,
    leq,
    oracle_add_rim_hooks,
    oracle_bead_moves,
    oracle_is_rim_hook,
    oracle_n_core,
    oracle_remove_rim_hooks,
    partitions_in_box,
    partitions_of,
    per_term_bead_moves,
    removal_observables,
    rim_hook_height,
    skew_cell_set,
)

small_partitions = st.integers(0, 8).flatmap(
    lambda n: st.sampled_from(sorted(partitions_of(n)) or [()])
)
tall_partitions = st.lists(st.integers(1, 30), max_size=40).map(
    lambda parts: tuple(sorted(parts, reverse=True))
)


def test_validate_partition_rejects_non_integer_parts():
    # int() used to truncate (2.5, 1) to (2, 1)
    for bad in ((2.5, 1), "21", (Fraction(5, 2), 1), (2, 1.0)):
        with pytest.raises(ValueError, match="positive integers"):
            validate_partition(bad)

    class Small(int):
        pass

    assert validate_partition((Small(2), Small(1))) == (2, 1)


def test_validate_partition_trims_and_rejects():
    assert validate_partition([3, 2, 1, 0, 0]) == (3, 2, 1)
    assert validate_partition(()) == ()
    with pytest.raises(ValueError):
        validate_partition((2, 3))
    with pytest.raises(ValueError):
        validate_partition((3, -1))


def test_part_and_leq():
    assert part((3, 2, 1), 0) == 3
    assert part((3, 2, 1), 1) == 2
    assert part((3, 2, 1), 9) == 0
    assert leq((3, 1), (5, 4, 3, 1))
    assert leq((), (4,))
    assert leq((3, 2, 1), box_partition(4, 8))
    assert not leq((5, 1), (4, 4))


def test_box_partition():
    assert box_partition(4, 8) == (4, 4, 4, 4)
    assert box_partition(1, 2) == (1,)
    assert box_partition(3, 6) == (3, 3, 3)
    with pytest.raises(ValueError):
        box_partition(3, 3)


def test_is_rim_hook_examples():
    assert is_rim_hook((1,), (3,))
    assert not is_rim_hook((1,), (2, 1))  # diagonals +1 and -1, disconnected
    assert is_rim_hook((3, 2, 1), (3, 3, 3, 2))
    assert is_rim_hook((3,), (6, 4, 1))
    assert not is_rim_hook((3, 2, 1), (3, 2, 1))  # empty skew
    assert not is_rim_hook((2,), (4, 4))  # contains a 2x2 block


def test_rim_hook_height_examples():
    assert rim_hook_height((3, 2, 1), (3, 3, 3, 2)) == 3
    assert rim_hook_height((3, 2, 1), (4, 4, 3)) == 3
    assert rim_hook_height((3, 2, 1), (6, 4, 1)) == 2
    assert rim_hook_height((3, 2, 1), (8, 2, 1)) == 1
    assert rim_hook_height((3,), (6, 4, 1)) == 3


def test_is_rim_hook_matches_border_strip_oracle_exhaustively():
    outers = [lam for n in range(1, 9) for lam in partitions_of(n, max_rows=4)]
    for outer in outers:
        inners = {
            nu
            for m in range(sum(outer))
            for nu in partitions_of(m, max_rows=len(outer))
            if leq(nu, outer)
        }
        for inner in inners:
            assert is_rim_hook(inner, outer) == oracle_is_rim_hook(inner, outer)


def test_add_rim_hooks_four_ways_onto_staircase():
    got = add_rim_hooks((3, 2, 1), 5, 4)
    assert got == [
        ((3, 3, 3, 2), 3),
        ((4, 4, 3), 3),
        ((6, 4, 1), 2),
        ((8, 2, 1), 1),
    ]


def test_add_rim_hooks_to_empty_partition_gives_hooks():
    got = add_rim_hooks((), 3, 3)
    assert got == [((1, 1, 1), 3), ((2, 1), 2), ((3,), 1)]

    class Small(int):
        pass

    # r and max_rows of any int type read as the plain ints they equal, and
    # max_rows may be as large as ROW_LIMIT
    assert add_rim_hooks((), Small(3), Small(3)) == got
    assert add_rim_hooks((), True, True) == add_rim_hooks((), 1, 1) == [((1,), 1)]
    assert add_rim_hooks((), 1, partitions.ROW_LIMIT) == [((1,), 1)]


def test_add_rim_hooks_respects_connectivity():
    got = add_rim_hooks((1,), 2, 3)
    assert got == [((1, 1, 1), 2), ((3,), 1)]  # (2,1) is not a rim hook over (1)


def test_remove_rim_hooks_examples():
    assert remove_rim_hooks((3, 2, 1), 8) == []
    # (3,3,3,2) and (4,4,3) have maximal hook length 6, so they are 8-cores
    assert remove_rim_hooks((3, 3, 3, 2), 8) == []
    assert remove_rim_hooks((4, 4, 3), 8) == []
    assert remove_rim_hooks((6, 4, 1), 8) == [((3,), 3)]
    assert remove_rim_hooks((8, 2, 1), 8) == [
        ((1, 1, 1), 2)
    ]
    assert remove_rim_hooks((3, 2, 1), 3) == [
        ((1, 1, 1), 2),
        ((3,), 2),
    ]
    assert remove_rim_hooks((12, 10, 7, 3), 8) == [
        ((9, 6, 6, 3), 3),
        ((12, 6, 3, 3), 2),
        ((12, 10, 2), 2),
    ]


@given(small_partitions, st.integers(1, 6), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_rim_hook_record_invariants(lam, r, max_rows):
    added = add_rim_hooks(lam, r, max_rows)
    removed = remove_rim_hooks(lam, r)
    for hooks in (added, removed):
        # the rules key a dict by shape, which would drop a repeat silently
        assert len({shape for shape, _ in hooks}) == len(hooks)
    pairs = [(lam, mu, h) for mu, h in added] + [(nu, lam, h) for nu, h in removed]
    for mu, _ in added:
        assert len(mu) <= max_rows
    for inner, outer, height in pairs:
        assert leq(inner, outer)
        assert sum(outer) - sum(inner) == r
        assert 1 <= height <= r
        assert is_rim_hook(inner, outer)
        assert height == rim_hook_height(inner, outer)


@given(small_partitions, st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_add_and_remove_are_inverse(lam, r):
    max_rows = len(lam) + r
    added = {mu for mu, _ in add_rim_hooks(lam, r, max_rows)}
    for mu in added:
        assert lam in {nu for nu, _ in remove_rim_hooks(mu, r)}
    for nu, _ in remove_rim_hooks(lam, r):
        assert lam in {back for back, _ in add_rim_hooks(nu, r, len(lam))}


def test_n_core_known_values():
    res = n_core((12, 10, 7, 3), 8)
    assert res.core == (4, 2, 2)
    assert res.hooks_removed == 3
    assert sum((12, 10, 7, 3)) == sum(res.core) + 8 * res.hooks_removed

    res = n_core((9, 8, 5, 2), 8)
    assert res.core == (7, 4, 3, 2)
    assert res.hooks_removed == 1  # (24 - 16) / 8

    res = n_core((3, 2, 1), 8)
    assert res.core == (3, 2, 1) and res.hooks_removed == 0 and res.height_sum == 0


def test_n_core_is_bounded_by_hooks_times_rows():
    # each hook may shift up to one list slot per row, so the hook bound
    # times the rows is capped at HOOK_LIMIT * ROW_LIMIT; 5000 hooks over
    # 10001 rows is just over it
    limit = partitions.HOOK_LIMIT * partitions.ROW_LIMIT
    assert 5000 * 10001 > limit >= 5000 * 10000
    with pytest.raises(ValueError) as err:
        n_core((1,) * 10001, 2)
    assert str(err.value) == (
        f"may strip up to 5000 hooks over 10001 rows, 50005000 row steps, over the limit of {limit}"
    )
    # the 500-row staircase is a 2-core: under the bound, and answered at once
    staircase = tuple(range(500, 0, -1))
    assert (sum(staircase) // 2) * len(staircase) <= limit
    assert n_core(staircase, 2) == partitions.CoreResult(staircase, 0, 0)


@given(small_partitions, st.integers(2, 9))
@settings(max_examples=100, deadline=None)
def test_n_core_matches_abacus(lam, n):
    res = n_core(lam, n)
    core, hooks = abacus_core(lam, n)
    assert (res.core, res.hooks_removed) == (core, hooks)
    assert remove_rim_hooks(res.core, n) == []


@given(small_partitions, st.integers(2, 9))
@settings(max_examples=60, deadline=None)
def test_n_core_idempotent(lam, n):
    res = n_core(lam, n)
    again = n_core(res.core, n)
    assert again.core == res.core
    assert again.hooks_removed == 0 and again.height_sum == 0


@given(small_partitions, st.integers(2, 7))
@settings(max_examples=40, deadline=None)
def test_core_observables_are_order_independent(lam, n):
    obs = removal_observables(lam, n)
    assert len(obs) == 1
    (core, s, parity) = next(iter(obs))
    res = n_core(lam, n)
    assert (core, s, parity) == (res.core, res.hooks_removed, res.height_sum % 2)


def test_bead_kernel_matches_diagonal_oracles_on_5x5_box():
    compared = 0
    for lam in partitions_in_box(5, 5):
        for r in range(1, 12):
            for max_rows in range(len(lam), 8):
                got = add_rim_hooks(lam, r, max_rows)
                assert got == oracle_add_rim_hooks(lam, r, max_rows), (lam, r, max_rows)
                compared += 1
            assert remove_rim_hooks(lam, r) == oracle_remove_rim_hooks(lam, r), (lam, r)
            compared += 1
        for n in range(2, 12):
            assert n_core(lam, n) == oracle_n_core(lam, n), (lam, n)
            compared += 1
    assert compared == 15918


def test_bead_moves_match_resorting_oracle_move_for_move():
    # add_rim_hooks and remove_rim_hooks return the moves unsorted, so the
    # order must match as well as the set
    rng = random.Random(1105)
    tall = [
        tuple(sorted((rng.randint(1, 80) for _ in range(rng.randint(30, 60))), reverse=True))
        for _ in range(20)
    ]
    lams = [lam for size in range(13) for lam in partitions_of(size)] + tall
    compared = 0
    for lam in lams:
        for shift in (*range(-9, 0), *range(1, 10)):
            for beads in range(len(lam), len(lam) + 4):
                got = list(partitions._bead_moves(lam, shift, beads))
                assert got == list(oracle_bead_moves(lam, shift, beads)), (lam, shift, beads)
                compared += 1
    assert compared == 18 * 4 * (272 + 20)


def test_bead_moves_match_the_per_term_kernel():
    # the shifted-row tables must give the shapes the per-term splice gave,
    # in the same order, on the partitions, shifts and bead counts above
    rng = random.Random(1105)
    tall = [
        tuple(sorted((rng.randint(1, 80) for _ in range(rng.randint(30, 60))), reverse=True))
        for _ in range(20)
    ]
    lams = [lam for size in range(13) for lam in partitions_of(size)] + tall
    compared = 0
    for lam in lams:
        for shift in (*range(-9, 0), *range(1, 10)):
            for beads in range(len(lam), len(lam) + 4):
                got = partitions._bead_moves(lam, shift, beads)
                assert got == list(per_term_bead_moves(lam, shift, beads)), (lam, shift, beads)
                compared += 1
    assert compared == 18 * 4 * (272 + 20)


def test_bead_moves_come_in_lex_order():
    # add_rim_hooks and remove_rim_hooks return the moves unsorted: adds
    # must come in strictly decreasing order of shape, removals in strictly
    # increasing order
    compared = 0
    for size in range(16):
        for lam in partitions_of(size):
            for r in range(1, 10):
                for beads in range(len(lam), len(lam) + 3):
                    added = [shape for shape, _ in partitions._bead_moves(lam, r, beads)]
                    removed = [shape for shape, _ in partitions._bead_moves(lam, -r, beads)]
                    assert all(a > b for a, b in zip(added, added[1:])), (lam, r, beads)
                    assert all(a < b for a, b in zip(removed, removed[1:])), (lam, r, beads)
                    compared += 1
    assert compared == 684 * 9 * 3


@given(tall_partitions, st.integers(1, 15), st.integers(0, 5))
@settings(max_examples=100, deadline=None)
def test_rim_hooks_match_diagonal_oracles_on_tall_partitions(lam, r, extra_rows):
    max_rows = len(lam) + extra_rows
    assert add_rim_hooks(lam, r, max_rows) == oracle_add_rim_hooks(lam, r, max_rows)
    assert remove_rim_hooks(lam, r) == oracle_remove_rim_hooks(lam, r)


def test_rim_hooks_on_450_row_staircase_take_linear_time_per_hook():
    # Each of the ~450 moves per call is one O(rows) splice.  Re-sorting
    # every bead per move made these 40 calls about 14 times slower, well
    # over the bound.
    stair = tuple(range(450, 0, -1))
    start = time.perf_counter()
    for _ in range(20):
        added = add_rim_hooks(stair, 7, 500)
        removed = remove_rim_hooks(stair, 7)
    elapsed = time.perf_counter() - start
    assert (len(added), len(removed)) == (454, 447)
    assert elapsed < 0.6, f"40 rim-hook calls on the staircase took {elapsed:.2f} s"


def test_n_core_matches_abacus_on_tall_partitions():
    rng = random.Random(3060)
    for _ in range(40):
        lam = tuple(sorted((rng.randint(1, 80) for _ in range(rng.randint(30, 60))), reverse=True))
        n = rng.randint(2, 15)
        res = n_core(lam, n)
        assert (res.core, res.hooks_removed) == abacus_core(lam, n), (lam, n)
        assert remove_rim_hooks(res.core, n) == []


def test_n_core_matches_hook_at_a_time_stripping():
    # the same removal order, so height_sum must match as well as the core
    lams = [lam for size in range(19) for lam in partitions_of(size)]
    rng = random.Random(2818)
    tall = [
        tuple(sorted((rng.randint(1, 80) for _ in range(rng.randint(30, 120))), reverse=True))
        for _ in range(40)
    ]
    compared = 0
    for lam in lams:
        for n in range(2, 9):
            assert n_core(lam, n) == hook_at_a_time_n_core(lam, n), (lam, n)
            compared += 1
    for lam in tall:
        n = rng.randint(2, 15)
        assert n_core(lam, n) == hook_at_a_time_n_core(lam, n), (lam, n)
        compared += 1
    assert compared == 11179 + 40


def test_n_core_strips_a_run_of_hooks_per_step():
    # One hook per step, each rebuilding the rows, took seconds on each of
    # these; 10000 one-box rows sit exactly at HOOK_LIMIT * ROW_LIMIT.
    staircase, ones = tuple(range(600, 0, -1)), (1,) * 10000
    start = time.perf_counter()
    stair_core, ones_core = n_core(staircase, 3), n_core(ones, 2)
    elapsed = time.perf_counter() - start
    assert stair_core == partitions.CoreResult((), 60100, 180100)
    assert ones_core == partitions.CoreResult((), 5000, 10000)
    assert elapsed < 0.5, f"n_core on the staircase and the one-box rows took {elapsed:.2f} s"


@pytest.mark.parametrize("k,n", [(2, 5), (3, 6), (4, 8)])
def test_no_n_hook_fits_inside_the_box(k, n):
    for lam in partitions_in_box(k, n - k):
        assert remove_rim_hooks(lam, n) == []


def test_strips_examples():
    assert strips((), 2, "horizontal", 4) == [(2,)]
    assert strips((), 2, "vertical", 4) == [(1, 1)]
    assert strips((1,), 1, "horizontal", 2) == [(1, 1), (2,)]
    with pytest.raises(ValueError):
        strips((1,), 1, "diagonal", 2)


@given(small_partitions, st.integers(1, 4), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_strips_against_brute_force(lam, size, max_rows):
    def is_horizontal(nu, mu):
        cells = skew_cell_set(nu, mu)
        cols = [c for (_, c) in cells]
        return len(cols) == len(set(cols))

    def is_vertical(nu, mu):
        cells = skew_cell_set(nu, mu)
        rows = [r for (r, _) in cells]
        return len(rows) == len(set(rows))

    candidates = [
        mu
        for mu in partitions_of(sum(lam) + size, max_rows=max_rows)
        if leq(lam, mu)
    ]
    assert strips(lam, size, "horizontal", max_rows) == sorted(
        mu for mu in candidates if is_horizontal(lam, mu)
    )
    assert strips(lam, size, "vertical", max_rows) == sorted(
        mu for mu in candidates if is_vertical(lam, mu)
    )
