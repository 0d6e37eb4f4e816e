"""Independent brute-force constructions used to cross-check the library.

Everything here is deliberately written from different definitions than the
code under test: rim hooks via edge connectivity instead of diagonals;
adding and removing rim hooks row by row along the diagonals, and n-cores by
stripping one such hook at a time, instead of moving beads on an abacus;
n-cores also by sliding every bead down its runner at once; Schubert
polynomials via reduced words instead of divided differences; Schur
polynomials via a Jacobi-Trudi determinant instead of tableaux; k-Bruhat
covers via one interval scan per pair instead of a running minimum.
"""

from __future__ import annotations

import functools
from itertools import combinations_with_replacement

from mnrules import perm
from mnrules.partitions import (
    CoreResult,
    Partition,
    RimHookRecord,
    is_rim_hook,
    leq,
    part,
    validate_partition,
)
from mnrules.poly import SparsePoly

Cell = tuple[int, int]


def row_len(lam: Partition, i: int) -> int:
    """Length of row i, 1-based, zero beyond the last row."""
    return lam[i - 1] if 1 <= i <= len(lam) else 0


def skew_cell_set(inner: Partition, outer: Partition) -> set[Cell]:
    return {
        (row, col)
        for row in range(1, len(outer) + 1)
        for col in range(row_len(inner, row) + 1, row_len(outer, row) + 1)
    }


def oracle_is_rim_hook(inner: Partition, outer: Partition) -> bool:
    """Border-strip test: edge-connected skew shape with no 2x2 square."""
    inner, outer = validate_partition(inner), validate_partition(outer)
    if any(row_len(inner, i) > row_len(outer, i) for i in range(1, len(inner) + 1)):
        return False
    cells = skew_cell_set(inner, outer)
    if not cells:
        return False
    for (r, c) in cells:
        if {(r + 1, c), (r, c + 1), (r + 1, c + 1)} <= cells:
            return False
    seen = {min(cells)}
    frontier = [min(cells)]
    while frontier:
        r, c = frontier.pop()
        for nbr in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
            if nbr in cells and nbr not in seen:
                seen.add(nbr)
                frontier.append(nbr)
    return seen == cells


def partitions_of(total: int, max_rows: int | None = None, max_part: int | None = None):
    """Yield all partitions of `total` within the given bounds."""
    max_rows = total if max_rows is None else max_rows
    max_part = total if max_part is None else max_part

    def rec(remaining: int, rows_left: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        if rows_left == 0:
            return
        for p in range(min(cap, remaining), 0, -1):
            yield from rec(remaining - p, rows_left - 1, p, prefix + (p,))

    yield from rec(total, max_rows, max_part, ())


def partitions_in_box(rows: int, cols: int) -> list[Partition]:
    """All partitions fitting in a rows x cols rectangle."""
    out: set[Partition] = set()

    def rec(prefix: list[int], rows_left: int, cap: int) -> None:
        out.add(tuple(prefix))
        if rows_left == 0:
            return
        for p in range(1, cap + 1):
            rec(prefix + [p], rows_left - 1, p)

    rec([], rows, cols)
    return sorted(out)


def abacus_core(lam: Partition, n: int) -> tuple[Partition, int]:
    """n-core and hook count via bead positions, no hook removal at all.

    Beads sit at lam_i + m - i; sliding every bead as far down its runner
    (residue class mod n) as possible performs all n-hook removals at once.
    """
    lam = validate_partition(lam)
    m = max(len(lam), 1)
    beads = [row_len(lam, i) + m - i for i in range(1, m + 1)]
    runners: dict[int, int] = {}
    for b in beads:
        runners[b % n] = runners.get(b % n, 0) + 1
    packed = sorted(
        (j + t * n for j, c in runners.items() for t in range(c)), reverse=True
    )
    core = tuple(b - (m - i) for i, b in enumerate(packed, start=1))
    core = tuple(p for p in core if p)
    hooks = (sum(lam) - sum(core)) // n
    return core, hooks


def _hook_candidate_valid(inner: Partition, mu: list[int], r: int) -> Partition | None:
    """Canonicalize ``mu`` and accept it only if mu/inner is an r-cell rim hook."""
    while mu and mu[-1] == 0:
        mu.pop()
    if any(mu[i] < mu[i + 1] for i in range(len(mu) - 1)):
        return None
    outer = tuple(mu)
    if min(mu, default=1) < 1 or not leq(inner, outer):
        return None
    if sum(outer) - sum(inner) != r or not is_rim_hook(inner, outer):
        return None
    return outer


def oracle_add_rim_hooks(lam: Partition, r: int, max_rows: int) -> list[RimHookRecord]:
    """add_rim_hooks by choosing the hook's top and bottom rows.

    A rim hook is determined by the rows it occupies: below its top row it
    hugs the old boundary (row a gains the cells from one past row a-1's old
    end down to row a's old end), and the top row absorbs whatever cells are
    left over.  Each candidate is re-checked with the diagonal test.
    """
    lam = validate_partition(lam)
    if r < 1:
        raise ValueError(f"rim hook size must be positive, got {r}")
    if max_rows < 0:
        raise ValueError(f"max_rows must be nonnegative, got {max_rows}")
    if len(lam) > max_rows:
        return []
    found = []
    for top in range(max_rows):
        for bottom in range(top, max_rows):
            lower = sum(
                part(lam, a - 1) + 1 - part(lam, a) for a in range(top + 1, bottom + 1)
            )
            head = r - lower
            if head < 1:
                continue
            mu = [part(lam, i) for i in range(max(len(lam), bottom + 1))]
            mu[top] += head
            for a in range(top + 1, bottom + 1):
                mu[a] = part(lam, a - 1) + 1
            outer = _hook_candidate_valid(lam, mu, r)
            if outer is not None:
                found.append(RimHookRecord(lam, outer, r, bottom - top + 1))
    found.sort(key=lambda rec: rec.outer)
    return found


def oracle_remove_rim_hooks(lam: Partition, r: int) -> list[RimHookRecord]:
    """remove_rim_hooks as the mirror image of oracle_add_rim_hooks.

    Above its bottom row the hook hugs the boundary (row a keeps one cell
    fewer than row a+1's old end), and the bottom row gives up the remaining
    cells.  Each candidate is re-checked with the diagonal test.
    """
    lam = validate_partition(lam)
    if r < 1:
        raise ValueError(f"rim hook size must be positive, got {r}")
    found = []
    for top in range(len(lam)):
        for bottom in range(top, len(lam)):
            upper = sum(lam[a] - (lam[a + 1] - 1) for a in range(top, bottom))
            tail = r - upper
            if tail < 1:
                continue
            nu = list(lam)
            for a in range(top, bottom):
                nu[a] = lam[a + 1] - 1
            nu[bottom] = lam[bottom] - tail
            if nu[bottom] < 0:
                continue
            inner_list = nu
            while inner_list and inner_list[-1] == 0:
                inner_list.pop()
            if any(inner_list[i] < inner_list[i + 1] for i in range(len(inner_list) - 1)):
                continue
            inner = tuple(inner_list)
            if not leq(inner, lam) or sum(lam) - sum(inner) != r:
                continue
            if not is_rim_hook(inner, lam):
                continue
            found.append(RimHookRecord(inner, lam, r, bottom - top + 1))
    found.sort(key=lambda rec: rec.inner)
    return found


def _top_row_of_hook(rec: RimHookRecord) -> int:
    return next(r for r in range(len(rec.outer)) if part(rec.inner, r) < rec.outer[r])


def oracle_n_core(lam: Partition, n: int) -> CoreResult:
    """n_core by stripping one n-hook at a time, highest top row first."""
    lam = validate_partition(lam)
    if n < 2:
        raise ValueError(f"hook size must be at least 2, got {n}")
    cur, hooks, heights = lam, 0, 0
    while True:
        recs = oracle_remove_rim_hooks(cur, n)
        if not recs:
            return CoreResult(cur, hooks, heights)
        rec = min(recs, key=_top_row_of_hook)
        cur, hooks, heights = rec.inner, hooks + 1, heights + rec.height


@functools.cache
def removal_observables(lam: Partition, n: int) -> frozenset[tuple[Partition, int, int]]:
    """All (core, hook count, height-sum parity) over every maximal removal order."""
    records = oracle_remove_rim_hooks(lam, n)
    if not records:
        return frozenset({(validate_partition(lam), 0, 0)})
    out: set[tuple[Partition, int, int]] = set()
    for rec in records:
        for core, s, parity in removal_observables(rec.inner, n):
            out.add((core, s + 1, (parity + rec.height) % 2))
    return frozenset(out)


def oracle_k_bruhat_covers(
    w: perm.Permutation, k: int, max_support: int
) -> list[perm.LabeledCover]:
    """k-Bruhat covers by testing every pair (i, j) on its own.

    Each pair rescans the positions between i and j, and each endpoint is
    rebuilt and re-validated, so a state costs O(k * m^2).
    """
    w = perm.canonical(w)
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    covers = []
    for i in range(1, k + 1):
        label = perm.apply(w, i)
        for j in range(k + 1, max_support + 1):
            if i < j and perm.is_cover_transposition(w, i, j):
                covers.append(perm.LabeledCover(w, perm.right_transposed(w, i, j), label))
    return covers


@functools.cache
def reduced_words(v: perm.Permutation) -> tuple[tuple[int, ...], ...]:
    """All reduced words for v, by peeling a descent from the right."""
    v = perm.canonical(v)
    if not v:
        return ((),)
    padded = v + tuple(range(len(v) + 1, len(v) + 2))
    words = []
    for a in range(1, len(padded)):
        if padded[a - 1] > padded[a]:
            shorter = list(padded)
            shorter[a - 1], shorter[a] = shorter[a], shorter[a - 1]
            for word in reduced_words(perm.canonical(shorter)):
                words.append(word + (a,))
    return tuple(words)


def bjs_schubert(w: perm.Permutation) -> SparsePoly:
    """Schubert polynomial as a sum over reduced words and compatible sequences.

    A sequence i_1 <= ... <= i_l is compatible with the word a_1 ... a_l when
    i_j <= a_j everywhere and i_j < i_{j+1} whenever a_j < a_{j+1}.
    """
    total = SparsePoly.zero()
    for word in reduced_words(perm.canonical(w)):
        length = len(word)

        def go(j: int, prev: int):
            if j == length:
                yield ()
                return
            lo = prev if (j > 0 and word[j - 1] >= word[j]) else prev + 1
            for i in range(max(lo, 1), word[j] + 1):
                for rest in go(j + 1, i):
                    yield (i,) + rest

        for seq in go(0, 0):
            mono = SparsePoly.one()
            for i in seq:
                mono = mono * SparsePoly.variable(i)
            total = total + mono
    return total


def complete_homogeneous_poly(degree: int, k: int) -> SparsePoly:
    """h_degree(x_1..x_k); zero for negative degree, one for degree zero."""
    if degree < 0:
        return SparsePoly.zero()
    total = SparsePoly.zero()
    for combo in combinations_with_replacement(range(1, k + 1), degree):
        mono = SparsePoly.one()
        for i in combo:
            mono = mono * SparsePoly.variable(i)
        total = total + mono
    return total


def jacobi_trudi_schur_poly(lam: Partition, k: int) -> SparsePoly:
    """s_lam(x_1..x_k) as det(h_{lam_i - i + j}), expanded over permutations."""
    from itertools import permutations as iperms

    lam = validate_partition(lam)
    size = len(lam)
    if size == 0:
        return SparsePoly.one()
    total = SparsePoly.zero()
    for sigma in iperms(range(1, size + 1)):
        entry = SparsePoly.one()
        for i in range(1, size + 1):
            entry = entry * complete_homogeneous_poly(lam[i - 1] - i + sigma[i - 1], k)
            if not entry:
                break
        sign = 1 if perm.length(sigma) % 2 == 0 else -1
        total = total + sign * entry
    return total


def hook_times_schur(lam: Partition, a: int, b: int, k: int):
    """s_(b,1^(a-1)) * s_lam in at most k rows, via h and e Pieri steps only.

    Uses h_b e_(a-1) = s_(b,1^(a-1)) + s_(b+1,1^(a-2)) to peel one leg cell
    at a time; no rim hooks involved.
    """
    from mnrules import symfun

    if a == 1:
        return symfun.pieri_h(lam, b, k)
    he: dict[Partition, int] = {}
    for mu, c1 in symfun.pieri_h(lam, b, k).items():
        for nu, c2 in symfun.pieri_e(mu, a - 1, k).items():
            he[nu] = he.get(nu, 0) + c1 * c2
    for nu, c in hook_times_schur(lam, a - 1, b + 1, k).items():
        he[nu] = he.get(nu, 0) - c
    return {nu: c for nu, c in he.items() if c}
