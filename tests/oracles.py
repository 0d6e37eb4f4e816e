"""Independent brute-force constructions used to cross-check the library.

Everything here is deliberately written from different definitions than the
code under test: rim hooks and their heights from the cells, by diagonals
(``is_rim_hook``, ``rim_hook_height``) and by edge connectivity, instead of
bead moves; adding and removing rim hooks row by row along the diagonals,
and n-cores by stripping one such hook at a time, instead of moving beads on
an abacus; n-cores also by sliding every bead down its runner at once, and
the reduction map psi by stripping n-hooks one at a time through the library's
n_core (``hook_strip_psi_reduce``, its route before the runner slide); one
abacus move by re-sorting every bead instead of splicing the rows; k-Bruhat
covers via one interval scan per pair instead of a running minimum, and by
the running minimum over a word padded with fixed points
(``padded_scan_covers``) instead of over the stored word alone;
permutation lengths by comparing every pair instead of counting on
insertion; and the (r+1)-cycle test of mn_schubert by ``compose``, a set of
moved points and ``het`` instead of one moved-point count and one cycle walk
over padded tables.

The paper's other routes to its rules live here too:

- Schubert polynomials via reduced words and compatible sequences, and top
  down from w_0 by divided differences: along one reduced word of
  w^{-1} w_0 in any S_n, and along the first-ascent chain
  (``first_ascent_schubert_poly``, the library's route before Monk's rule
  solved for its top term);
- hook products s_(b,1^(a-1)) * S_w via peakless k-Bruhat chains, instead of
  the (r+1)-cycle rule of mn_schubert;
- Monk's rule via the transition formula, one variable x_i at a time,
  instead of k-Bruhat covers;
- the quantum rule as the Schur rule's terms that fit in the box plus the
  (n-r)-hooks removed (``two_route_quantum_mn``), and as mn_schubert on a
  Grassmannian permutation pushed through psi_reduce
  (``schubert_route_quantum_mn``), instead of one pass of the beads around
  a circle; and for r past n, as the Schur rule for the full r pushed
  through psi_reduce (``psi_route_quantum_mn``), instead of a wrap of the
  rule for r mod n;
- Schur polynomials via semistandard tableaux and via a Jacobi-Trudi
  determinant, and p_r as an alternating sum of hooks.

``variable`` and ``swap_variables`` are the polynomial helpers the tests
build with; the swap is the s_i in the defining identity
(x_i - x_{i+1}) d_i f = f - s_i f of the divided difference.  Expansion in
the Schubert basis is peeled by leading monomials instead of folded one
variable at a time: in one pass (``peel_expand_in_schubert``) and one
homogeneous component at a time (``oracle_expand_in_schubert``, under a
colex order that pads exponent vectors instead of ranking trimmed ones by
length), both with each S_u from divided differences, so they share no
code with the library's Monk kernel; ``polynomial_route_mn_schubert`` peels
p_r * S_w, the route ``mn-schubert --verify`` took before.  ``apply``,
``compose``, ``oracle_inverse``, ``lehmer_code`` and ``from_lehmer_code``
do the same for permutations, and ``grassmannian_project`` cuts a Schur
expansion down to a k x (n-k) box.
"""

from __future__ import annotations

import functools
import operator
from itertools import combinations_with_replacement, permutations
from typing import Iterator

from mnrules import perm, schubert
from mnrules.partitions import (
    CoreResult,
    Partition,
    box_partition,
    n_core,
    part,
    remove_rim_hooks,
    require_fits,
    validate_partition,
)
from mnrules.poly import SparsePoly, _add, _trim
from mnrules.quantum import GrContext, QuantumClass, _require_args, psi_reduce
from mnrules.symfun import mn_classical, power_sum_poly

Cell = tuple[int, int]


def leq(a: Partition, b: Partition) -> bool:
    """Containment of Young diagrams: every row of ``a`` fits inside ``b``.

    >>> leq((3, 1), (5, 4, 3, 1))
    True
    >>> leq((1, 1), (2,))
    False
    """
    return len(a) <= len(b) and all(x <= y for x, y in zip(a, b))


def row_len(lam: Partition, i: int) -> int:
    """Length of row i, 1-based, zero beyond the last row."""
    return lam[i - 1] if 1 <= i <= len(lam) else 0


def skew_cell_set(inner: Partition, outer: Partition) -> set[Cell]:
    return {
        (row, col)
        for row in range(1, len(outer) + 1)
        for col in range(row_len(inner, row) + 1, row_len(outer, row) + 1)
    }


def is_rim_hook(inner: Partition, outer: Partition) -> bool:
    """True when outer/inner is a nonempty rim hook.

    A rim hook meets a consecutive run of diagonals, one cell on each.

    >>> is_rim_hook((1,), (2, 1))
    False
    >>> is_rim_hook((1,), (1, 1, 1))
    True
    """
    if not leq(inner, outer):
        raise ValueError(f"{inner} is not contained in {outer}")
    cells = skew_cell_set(inner, outer)
    diags = {c - r for r, c in cells}
    return bool(cells) and len(diags) == len(cells) == max(diags) - min(diags) + 1


def rim_hook_height(inner: Partition, outer: Partition) -> int:
    """Number of rows the rim hook outer/inner occupies."""
    if not is_rim_hook(inner, outer):
        raise ValueError(f"{outer}/{inner} is not a rim hook")
    return len({r for r, _ in skew_cell_set(inner, outer)})


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


def oracle_bead_moves(lam: Partition, shift: int, beads: int) -> Iterator[tuple[Partition, int]]:
    """partitions._bead_moves by re-sorting the beads after every move.

    Bead i sits at lam_i + beads - 1 - i.  Each bead, largest first, that
    can move by ``shift`` to an empty position >= 0 yields (new shape,
    1 + the beads strictly between its old and new positions), the shape
    read back from the whole re-sorted bead set.
    """
    pos = [part(lam, i) + beads - 1 - i for i in range(beads)]
    taken = set(pos)
    for b in pos:
        c = b + shift
        if c < 0 or c in taken:
            continue
        lo, hi = min(b, c), max(b, c)
        moved = sorted(taken - {b} | {c}, reverse=True)
        shape = tuple(x - (beads - 1 - i) for i, x in enumerate(moved))
        yield tuple(p for p in shape if p), 1 + sum(lo < x < hi for x in pos)


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


def oracle_add_rim_hooks(lam: Partition, r: int, max_rows: int) -> list[tuple[Partition, int]]:
    """add_rim_hooks by choosing the hook's top and bottom rows.

    A rim hook is determined by the rows it occupies: below its top row it
    hugs the old boundary (row a gains the cells from one past row a-1's old
    end down to row a's old end), and the top row absorbs whatever cells are
    left over.  Each candidate is re-checked with the diagonal test.
    Returns (outer shape, height) pairs sorted by shape.
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
                found.append((outer, bottom - top + 1))
    found.sort(key=lambda hook: hook[0])
    return found


def oracle_remove_rim_hooks(lam: Partition, r: int) -> list[tuple[Partition, int]]:
    """remove_rim_hooks as the mirror image of oracle_add_rim_hooks.

    Above its bottom row the hook hugs the boundary (row a keeps one cell
    fewer than row a+1's old end), and the bottom row gives up the remaining
    cells.  Each candidate is re-checked with the diagonal test.
    Returns (inner shape, height) pairs sorted by shape.
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
            found.append((inner, bottom - top + 1))
    found.sort(key=lambda hook: hook[0])
    return found


def _top_row_of_hook(inner: Partition, outer: Partition) -> int:
    return next(r for r in range(len(outer)) if part(inner, r) < outer[r])


def oracle_n_core(lam: Partition, n: int) -> CoreResult:
    """n_core by stripping one n-hook at a time, highest top row first."""
    lam = validate_partition(lam)
    if n < 2:
        raise ValueError(f"hook size must be at least 2, got {n}")
    cur, hooks, heights = lam, 0, 0
    while True:
        hooks_off = oracle_remove_rim_hooks(cur, n)
        if not hooks_off:
            return CoreResult(cur, hooks, heights)
        nu, height = min(hooks_off, key=lambda hook: _top_row_of_hook(hook[0], cur))
        cur, hooks, heights = nu, hooks + 1, heights + height


def hook_strip_psi_reduce(lam: Partition, ctx: GrContext) -> QuantumClass:
    """psi_reduce by stripping n-hooks one at a time with n_core: the n-core
    if it fits in the box, with q**s for its s hooks and the sign
    (-1)**(k*s - height_sum)."""
    lam = require_fits(lam, ctx.k)
    res = n_core(lam, ctx.n)
    if part(res.core, 0) > ctx.n - ctx.k:  # the core has no more rows than lam
        return {}
    return {(res.hooks_removed, res.core): -1 if (ctx.k * res.hooks_removed - res.height_sum) % 2 else 1}


@functools.cache
def removal_observables(lam: Partition, n: int) -> frozenset[tuple[Partition, int, int]]:
    """All (core, hook count, height-sum parity) over every maximal removal order."""
    hooks_off = oracle_remove_rim_hooks(lam, n)
    if not hooks_off:
        return frozenset({(validate_partition(lam), 0, 0)})
    out: set[tuple[Partition, int, int]] = set()
    for nu, height in hooks_off:
        for core, s, parity in removal_observables(nu, n):
            out.add((core, s + 1, (parity + height) % 2))
    return frozenset(out)


def apply(w: perm.Permutation, i: int) -> int:
    """The image w(i), with w fixing everything beyond its stored word."""
    if i < 1:
        raise ValueError(f"positions are 1-indexed, got {i}")
    return w[i - 1] if i <= len(w) else i


def compose(u: perm.Permutation, v: perm.Permutation) -> perm.Permutation:
    """(u * v)(i) = u(v(i)), canonicalized."""
    m = max(len(u), len(v))
    return perm.canonical(apply(u, apply(v, i)) for i in range(1, m + 1))


def all_perms(n: int) -> list[perm.Permutation]:
    """Every permutation of S_n, canonicalized."""
    return [perm.canonical(p) for p in permutations(range(1, n + 1))]


def cycle_perm(points: tuple[int, ...]) -> perm.Permutation:
    """The permutation mapping points[0] -> points[1] -> ... -> points[0]."""
    n = max(points)
    images = list(range(1, n + 1))
    for a, b in zip(points, points[1:] + (points[0],)):
        images[a - 1] = b
    return perm.canonical(images)


def oracle_inverse(w: perm.Permutation) -> perm.Permutation:
    """w^{-1}(v) is the position of the value v in w, found by search."""
    return tuple(w.index(v) + 1 for v in range(1, len(w) + 1))


def lehmer_code(w: perm.Permutation) -> tuple[int, ...]:
    """code(w)_i = #{j > i : w(j) < w(i)}, trimmed of trailing zeros."""
    code = [
        sum(1 for b in range(a + 1, len(w)) if w[b] < w[a]) for a in range(len(w))
    ]
    while code and code[-1] == 0:
        code.pop()
    return tuple(code)


def het(eta: perm.Permutation, k: int) -> int:
    """Number of positions i <= k that ``eta`` moves."""
    return sum(1 for i in range(1, min(k, len(eta)) + 1) if eta[i - 1] != i)


def cycle_type_check(eta: perm.Permutation, c: int) -> bool:
    """True iff ``eta`` is one cycle on exactly ``c`` points (rest fixed).

    >>> cycle_type_check((1, 5, 3, 4, 2), 2)
    True
    >>> cycle_type_check((), 2)
    False
    """
    if c < 2:
        return False
    moved = {i for i in range(1, len(eta) + 1) if eta[i - 1] != i}
    if len(moved) != c:
        return False
    start = min(moved)
    seen = {start}
    cur = apply(eta, start)
    while cur != start:
        seen.add(cur)
        cur = apply(eta, cur)
    return seen == moved


def transposition(i: int, j: int) -> perm.Permutation:
    if i == j or i < 1 or j < 1:
        raise ValueError(f"need distinct positive i, j, got {i}, {j}")
    i, j = min(i, j), max(i, j)
    word = list(range(1, j + 1))
    word[i - 1], word[j - 1] = j, i
    return tuple(word)


def right_transposed(w: perm.Permutation, i: int, j: int) -> perm.Permutation:
    """w * (i, j): the values in positions i and j change places."""
    m = max(len(w), i, j)
    word = [apply(w, t) for t in range(1, m + 1)]
    word[i - 1], word[j - 1] = word[j - 1], word[i - 1]
    return perm.canonical(word)


def is_cover_transposition(w: perm.Permutation, i: int, j: int) -> bool:
    """True when l(w * (i,j)) = l(w) + 1 for i < j.

    Equivalent to: w(i) < w(j) and no position strictly between i and j
    carries a value strictly between w(i) and w(j).
    """
    if not i < j:
        raise ValueError(f"need i < j, got {i}, {j}")
    wi, wj = apply(w, i), apply(w, j)
    if wi > wj:
        return False
    return all(not wi < apply(w, t) < wj for t in range(i + 1, j))


def oracle_k_bruhat_covers(
    w: perm.Permutation, k: int, max_support: int
) -> list[tuple[perm.Permutation, int]]:
    """k-Bruhat covers w -> w(i, j) by testing every pair (i, j) on its own.

    Returns (endpoint, label) pairs ordered by (i, j); the label of a cover
    is w(i), the value that moves up.  Each pair rescans the positions
    between i and j, and each endpoint is rebuilt and re-validated, so a
    state costs O(k * m^2).
    """
    w = perm.canonical(w)
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    covers = []
    for i in range(1, k + 1):
        label = apply(w, i)
        for j in range(k + 1, max_support + 1):
            if i < j and is_cover_transposition(w, i, j):
                covers.append((right_transposed(w, i, j), label))
    return covers


def padded_scan_covers(w: perm.Permutation, k: int, max_support: int) -> list[perm.Permutation]:
    """k-Bruhat cover endpoints by a running-minimum scan over w padded with
    fixed points to max(len(w), k) + 1 letters.

    Each row recomputes its last position, at most one past the stored word
    or past i, and each endpoint is a slice of the padded word cut back to
    canonical length.  ``k_bruhat_covers`` scans only the stored word and
    treats the first fixed point, and the rows past the word, on their own.
    """
    w = perm.canonical(w)
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    size = len(w)
    word = list(w) + list(range(size + 1, perm.default_max_support(w, k, 1) + 1))
    top = len(word) + 1
    ends: list[perm.Permutation] = []
    for i in range(k):
        wi = word[i]
        best = top
        for j in range(i + 1, min(size if size > i else i + 1, max_support - 1) + 1):
            wj = word[j]
            if wi < wj < best:
                best = wj
                if j >= k:
                    word[i], word[j] = wj, wi
                    ends.append(tuple(word[: size if size > j else j + 1]))
                    word[i], word[j] = wi, wj
                if wj == wi + 1:
                    break
    return ends


def oracle_length(w: perm.Permutation) -> int:
    """Number of inversions, by comparing every pair of positions."""
    return sum(
        1
        for a in range(len(w))
        for b in range(a + 1, len(w))
        if w[a] > w[b]
    )


def oracle_mn_schubert(w: perm.Permutation, k: int, r: int) -> dict:
    """mn_schubert with eta = w^{-1} u built by ``compose`` and canonicalized."""
    w = perm.canonical(w)
    if k < 1 or r < 1:
        raise ValueError(f"need k, r >= 1, got k={k}, r={r}")
    w_inv = perm.inverse(w)
    out: schubert.SchubertExpansion = {}
    for u in perm.chain_endpoints(w, k, r):
        eta = compose(w_inv, u)
        if cycle_type_check(eta, r + 1):
            out[u] = 1 if het(eta, k) % 2 else -1
    return out


def peakless_endpoints(
    w: perm.Permutation, k: int, a: int, b: int
) -> list[tuple[perm.Permutation, int]]:
    """Endpoints of peakless chains of shape (a, b), with multiplicities.

    A chain of length a + b - 1 is peakless when its labels strictly
    decrease through the first a steps and strictly increase from step a on.
    a = 1 means strictly increasing labels, b = 1 strictly decreasing.
    The covers and their labels come from the pairwise
    :func:`oracle_k_bruhat_covers`, not from the library's scan.
    Returns (endpoint, number of such chains), sorted by endpoint word.
    """
    w = perm.canonical(w)
    if a < 1 or b < 1:
        raise ValueError(f"need a, b >= 1, got a={a}, b={b}")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if a > k:
        raise ValueError(f"a cannot exceed k: a={a}, k={k}")
    r = a + b - 1
    bound = perm.default_max_support(w, k, r)
    # states: (current permutation, last label) -> chain count
    states: dict[tuple[perm.Permutation, int], int] = {(w, 0): 1}
    for step in range(1, r + 1):
        nxt: dict[tuple[perm.Permutation, int], int] = {}
        for (v, last), count in states.items():
            for end, label in oracle_k_bruhat_covers(v, k, bound):
                if step > 1:
                    if step <= a and not label < last:
                        continue
                    if step > a and not label > last:
                        continue
                key = (end, label)
                nxt[key] = nxt.get(key, 0) + count
        states = nxt
    totals: dict[perm.Permutation, int] = {}
    for (v, _), count in states.items():
        totals[v] = totals.get(v, 0) + count
    return sorted(totals.items())


def hook_times_schubert(w: perm.Permutation, k: int, a: int, b: int) -> dict:
    """Multiply the Schubert polynomial of w by s_(b, 1^(a-1))(x_1..x_k).

    The coefficient of S_u is the number of peakless chains of shape (a, b)
    from w to u: labels strictly decreasing for a steps, then strictly
    increasing.
    """
    return dict(peakless_endpoints(w, k, a, b))


def transition_xi(w: perm.Permutation, i: int) -> dict:
    """Multiply the Schubert polynomial of w by the single variable x_i.

    Plus terms w(i, b) for b > i, minus terms w(a, i) for a < i, in both
    cases only where the length goes up by exactly one.  b runs up to
    max(len(w), i) + 1: past it the fixed value b - 1 sits between w(i) and
    w(b) = b, so no cover is lost.
    """
    w = perm.canonical(w)
    if i < 1:
        raise ValueError(f"positions are 1-indexed, got {i}")
    out = {}
    for b in range(i + 1, max(len(w), i) + 2):
        if is_cover_transposition(w, i, b):
            out[right_transposed(w, i, b)] = 1
    for a in range(1, i):
        if is_cover_transposition(w, a, i):
            out[right_transposed(w, a, i)] = -1
    return out


def variable(i: int) -> SparsePoly:
    """The variable x_i (1-indexed)."""
    return SparsePoly({(0,) * (i - 1) + (1,): 1})


def swap_variables(f: SparsePoly, i: int, j: int) -> SparsePoly:
    """Exchange x_i and x_j (1-indexed) in every monomial of f: the swap that
    defines the divided difference (f - s_i f) / (x_i - x_{i+1})."""
    if i < 1 or j < 1:
        raise ValueError("variables are 1-indexed")
    data: dict[tuple[int, ...], int] = {}
    hi = max(i, j)
    for e, c in f.terms.items():
        ee = list(e) + [0] * (hi - len(e))
        ee[i - 1], ee[j - 1] = ee[j - 1], ee[i - 1]
        data[tuple(ee)] = c
    return SparsePoly(data)


def homogeneous_components(f: SparsePoly) -> dict[int, SparsePoly]:
    """f split by total degree, in increasing degree."""
    comps: dict[int, dict[tuple[int, ...], int]] = {}
    for e, c in f.terms.items():
        comps.setdefault(sum(e), {})[e] = c
    return {d: SparsePoly(t) for d, t in sorted(comps.items())}


def leading_term(f: SparsePoly) -> tuple[tuple[int, ...], int]:
    """The colexicographically greatest monomial of f and its coefficient.

    Colex compares exponent vectors at the rightmost position where they
    differ; here every vector is padded with zeros to the widest one and
    reversed, instead of ranking trimmed tuples by length first.
    """
    if not f.terms:
        raise ValueError("zero polynomial has no leading term")
    width = max(len(e) for e in f.terms)

    def colex(e: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(reversed(e + (0,) * (width - len(e))))

    e = max(f.terms, key=colex)
    return e, f.terms[e]


def _colex_less(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Compare two reversed exponent tuples, padding the shorter in front."""
    width = max(len(a), len(b))
    return (0,) * (width - len(a)) + a < (0,) * (width - len(b)) + b


def from_lehmer_code(code) -> perm.Permutation:
    """The unique permutation with the given Lehmer code.

    It is built from a pool of len(code) + max(code) + 1 letters, so a pool
    over ``perm.SUPPORT_LIMIT`` raises ValueError before it is built.

    >>> from_lehmer_code((1, 2))
    (2, 4, 1, 3)
    """
    try:
        c = tuple(map(operator.index, code))
    except TypeError:
        raise ValueError(f"code entries must be integers, got {code}") from None
    if any(x < 0 for x in c):
        raise ValueError(f"code entries must be nonnegative: {c}")
    size = perm.require_support(len(c) + max(c, default=0) + 1)
    pool = list(range(1, size + 1))
    word = []
    for x in c:
        word.append(pool.pop(x))
    word.extend(pool)
    return perm.canonical(word)


def colex_key(e: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Sort key of the colexicographic order on trimmed exponent tuples,
    which compares at the rightmost position where two tuples differ.

    A longer trimmed tuple has a nonzero exponent in a later variable, so it
    is the greater one, and no padding is needed: x2 > x1^5.
    """
    return len(e), e[::-1]


@functools.cache
def peeled_schubert_poly(u: perm.Permutation) -> SparsePoly:
    """S_u for the peels below, by divided differences (``schubert_poly_in``),
    so no peel shares code with the library's Monk kernel."""
    return schubert_poly_in(u, max(len(u), 1))


def peel_expand_in_schubert(f: SparsePoly) -> dict[perm.Permutation, int]:
    """Write f in the Schubert basis by peeling leading monomials.

    The colexicographically greatest monomial of a Schubert polynomial S_u
    is x raised to the Lehmer code of u, and distinct permutations have
    distinct codes.  So the colex-greatest monomial of any integer
    combination, whatever mix of degrees it holds, is the code of exactly
    one of its support permutations, carrying that permutation's
    coefficient.  Peeling it off strictly lowers the leading monomial, and a
    zero remainder is itself the reconstruction identity.  Raises
    RuntimeError if a peel ever fails to make progress.
    """
    out: dict[perm.Permutation, int] = {}
    rem = f
    last_key = None
    while rem:
        exps = max(rem.terms, key=colex_key)
        key = colex_key(exps)
        if last_key is not None and key >= last_key:
            raise RuntimeError(f"Schubert expansion failed to make progress at {exps}")
        last_key = key
        coeff = rem.terms[exps]
        u = from_lehmer_code(exps)
        out[u] = coeff
        rem = rem - coeff * peeled_schubert_poly(u)
    return out


def polynomial_route_mn_schubert(w: perm.Permutation, k: int, r: int) -> dict:
    """p_r(x_1..x_k) S_w as a polynomial product, peeled back into the
    Schubert basis: the route ``mn-schubert --verify`` took before Monk's
    rule."""
    w = perm.canonical(w)
    return peel_expand_in_schubert(power_sum_poly(r, k) * peeled_schubert_poly(w))


def oracle_expand_in_schubert(f: SparsePoly) -> dict[perm.Permutation, int]:
    """``peel_expand_in_schubert`` one homogeneous component at a time:
    the colex leader is peeled within each degree, not across all of f."""
    out: dict[perm.Permutation, int] = {}
    for _deg, component in homogeneous_components(f).items():
        rem = component
        last_key = None
        while rem:
            exps, coeff = leading_term(rem)
            key = tuple(reversed(exps))
            if last_key is not None and not _colex_less(key, last_key):
                raise RuntimeError(
                    f"Schubert expansion failed to make progress at {exps}"
                )
            last_key = key
            u = from_lehmer_code(exps)
            out[u] = coeff
            rem = rem - coeff * peeled_schubert_poly(u)
    return out


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
            mono = SparsePoly.constant(1)
            for i in seq:
                mono = mono * variable(i)
            total = total + mono
    return total


def reduced_word(v: perm.Permutation) -> tuple[int, ...]:
    """One reduced word (a_1, ..., a_m) with v = t_{a_1} * ... * t_{a_m}.

    Peels simple transpositions off the left: a is a valid first letter
    whenever the value a sits to the right of a + 1 in one-line notation.
    """
    v = perm.canonical(v)
    word = []
    inv = list(oracle_inverse(v))
    while inv:
        for a in range(1, len(inv)):
            if inv[a - 1] > inv[a]:
                word.append(a)
                inv[a - 1], inv[a] = inv[a], inv[a - 1]
                break
        while inv and inv[-1] == len(inv):
            inv.pop()
    return tuple(word)


def apply_divided_word(f: SparsePoly, word: tuple[int, ...]) -> SparsePoly:
    """Apply the composite divided difference along a reduced word.

    The last letter acts first, matching the convention that the operator of
    v = t_{a_1} * ... * t_{a_m} is the composition of the operators of its
    letters in the same order.
    """
    for a in reversed(word):
        f = divided_difference(f, a)
    return f


def schubert_poly_in(w: perm.Permutation, n: int) -> SparsePoly:
    """Schubert polynomial of w computed inside S_n, straight from the definition.

    Applies the divided differences of w^{-1} * w0 to the staircase monomial.
    The result does not depend on n (stability), which the tests exercise.
    """
    w = perm.canonical(w)
    if len(w) > n:
        raise ValueError(f"{w} does not lie in S_{n}")
    w0 = tuple(range(n, 0, -1))
    v = compose(oracle_inverse(w), w0)
    return apply_divided_word(staircase_monomial(n), reduced_word(v))


def divided_difference(f: SparsePoly, i: int) -> SparsePoly:
    """The i-th divided difference: (f - f with x_i, x_{i+1} swapped) / (x_i - x_{i+1}).

    The quotient of each monomial is expanded in closed form, so the division
    is exact by construction: x^p y^q maps to the geometric sum
    sign * (x^(hi-1) y^lo + ... + x^lo y^(hi-1)) in the two affected slots.
    """
    if i < 1:
        raise ValueError(f"divided differences are 1-indexed, got {i}")
    data: dict[tuple[int, ...], int] = {}
    for exps, coeff in f.terms.items():
        p = exps[i - 1] if len(exps) >= i else 0
        q = exps[i] if len(exps) >= i + 1 else 0
        if p == q:
            continue
        sign = 1 if p > q else -1
        lo, hi = min(p, q), max(p, q)
        base = list(exps) + [0] * (i + 1 - len(exps))
        for t in range(hi - lo):
            base[i - 1] = hi - 1 - t
            base[i] = lo + t
            e = _trim(base)
            s = data.get(e, 0) + sign * coeff
            if s:
                data[e] = s
            else:
                data.pop(e, None)
    return SparsePoly._from_clean(data)


def staircase_monomial(n: int) -> SparsePoly:
    """x_1^(n-1) x_2^(n-2) ... x_{n-1}, the top Schubert polynomial of S_n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return SparsePoly({tuple(range(n - 1, 0, -1)): 1})


def first_ascent_swap(w: perm.Permutation) -> tuple[int, perm.Permutation]:
    """(i, w with positions i and i + 1 swapped) for the first ascent i of w.

    Swapping keeps the word canonical: the last letter either stays or
    becomes w(n - 1) < w(n) <= n, not a fixed point.
    """
    i = next(i for i in range(1, len(w)) if w[i - 1] < w[i])
    return i, w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :]


def first_ascent_schubert_poly(w: perm.Permutation) -> SparsePoly:
    """Schubert polynomial of w by divided differences down from the
    staircase of S_n, n = len(w), along the first-ascent chain from w up to
    w_0: the route the library took before Monk's rule, as a loop."""
    w = perm.canonical(w)
    n = len(w)
    steps = []
    u = w
    while u != tuple(range(n, 0, -1)):
        i, u = first_ascent_swap(u)
        steps.append(i)
    f = staircase_monomial(n) if n else SparsePoly.constant(1)
    for i in reversed(steps):
        f = divided_difference(f, i)
    return f


def complete_homogeneous_poly(degree: int, k: int) -> SparsePoly:
    """h_degree(x_1..x_k); zero for negative degree, one for degree zero."""
    if degree < 0:
        return SparsePoly.zero()
    total = SparsePoly.zero()
    for combo in combinations_with_replacement(range(1, k + 1), degree):
        mono = SparsePoly.constant(1)
        for i in combo:
            mono = mono * variable(i)
        total = total + mono
    return total


def jacobi_trudi_schur_poly(lam: Partition, k: int) -> SparsePoly:
    """s_lam(x_1..x_k) as det(h_{lam_i - i + j}), expanded over permutations."""
    lam = validate_partition(lam)
    size = len(lam)
    if size == 0:
        return SparsePoly.constant(1)
    total = SparsePoly.zero()
    for sigma in permutations(range(1, size + 1)):
        entry = SparsePoly.constant(1)
        for i in range(1, size + 1):
            entry = entry * complete_homogeneous_poly(lam[i - 1] - i + sigma[i - 1], k)
            if not entry:
                break
        sign = 1 if perm.length(sigma) % 2 == 0 else -1
        total = total + sign * entry
    return total


def schur_to_monomials(lam: Partition, k: int) -> SparsePoly:
    """The Schur polynomial s_lam(x_1..x_k) as an explicit sparse polynomial.

    Computed straight from the definition: one monomial per semistandard
    tableau of shape lam with entries at most k (rows weakly increase,
    columns strictly increase).
    """
    lam = validate_partition(lam)
    if len(lam) > k:
        raise ValueError(f"{lam} has more than {k} rows")
    terms: dict[tuple[int, ...], int] = {}
    weight = [0] * k
    row: list[list[int]] = [[0] * w for w in lam]

    def fill_row(r: int, c: int, min_val: int) -> None:
        if r == len(lam):
            e = tuple(weight)
            while e and e[-1] == 0:
                e = e[:-1]
            terms[e] = terms.get(e, 0) + 1
            return
        if c == lam[r]:
            fill_row(r + 1, 0, 1)
            return
        lo = min_val
        if r:
            lo = max(lo, row[r - 1][c] + 1)
        for v in range(lo, k + 1):
            row[r][c] = v
            weight[v - 1] += 1
            fill_row(r, c + 1, v)
            weight[v - 1] -= 1

    fill_row(0, 0, 1)
    return SparsePoly(terms)


def expansion_poly(expansion: dict[Partition, int], k: int) -> SparsePoly:
    """A Schur expansion as a polynomial in x_1..x_k, term by term."""
    total = SparsePoly.zero()
    for lam, coeff in expansion.items():
        total = total + coeff * schur_to_monomials(lam, k)
    return total


def grassmannian_project(expansion: dict[Partition, int], k: int, n: int) -> dict[Partition, int]:
    """Drop every term whose partition does not fit in the k x (n-k) box."""
    box = box_partition(k, n)
    return {
        lam: c
        for lam, c in expansion.items()
        if c and leq(validate_partition(lam), box)
    }


def two_route_quantum_mn(lam: Partition, r: int, ctx: GrContext) -> QuantumClass:
    """quantum_mn from two rules instead of one pass around the abacus.

    The q**0 terms are the terms of mn_classical in k variables that fit in
    the box; the q**1 terms are the rim hooks of n - r cells removed from
    lam, each with sign -(-1)**k * (-1)**(height + 1).
    """
    lam, box = _require_args(lam, r, ctx), box_partition(ctx.k, ctx.n)
    out: QuantumClass = {
        (0, mu): c for mu, c in mn_classical(lam, r, ctx.k).items() if leq(mu, box)
    }
    for nu, height in remove_rim_hooks(lam, ctx.n - r):
        out[(1, nu)] = 1 if (ctx.k + height) % 2 == 0 else -1
    return out


def psi_route_quantum_mn(lam: Partition, r: int, ctx: GrContext) -> QuantumClass:
    """p_r * sigma_lam for any r >= 1 and lam with at most k rows: the terms
    of mn_classical in k variables for the full r, each pushed through
    psi_reduce and collected.  psi is a ring map, so no r needs a wrap."""
    out: QuantumClass = {}
    for mu, coeff in mn_classical(lam, r, ctx.k).items():
        _add(out, psi_reduce(mu, ctx), coeff)
    return out


def grassmannian_shape(u: perm.Permutation, k: int) -> Partition:
    """The partition lam with ``grassmannian_permutation(lam, k) == u``:
    lam_i = u(k + 1 - i) - (k + 1 - i).  Raises ValueError when u has a
    descent other than at k."""
    word = u + tuple(range(len(u) + 1, k + 1))
    lam = validate_partition(tuple(word[k - 1 - t] - (k - t) for t in range(k)))
    if schubert.grassmannian_permutation(lam, k) != u:
        raise ValueError(f"{u} has a descent other than at {k}")
    return lam


def schubert_route_quantum_mn(lam: Partition, r: int, ctx: GrContext) -> QuantumClass:
    """quantum_mn through the Schubert rule: s_lam(x_1..x_k) is the Schubert
    polynomial of ``grassmannian_permutation(lam, k)``, so ``mn_schubert``
    gives p_r * s_lam in k variables.  Each term's shape is read back off its
    permutation, pushed through psi_reduce and collected.  Shares no code
    with the circle move of quantum_mn or with mn_classical."""
    lam = _require_args(lam, r, ctx)
    k = ctx.k
    out: QuantumClass = {}
    for u, coeff in schubert.mn_schubert(schubert.grassmannian_permutation(lam, k), k, r).items():
        for key, sign in psi_reduce(grassmannian_shape(u, k), ctx).items():
            c = out.get(key, 0) + coeff * sign
            if c:
                out[key] = c
            else:
                out.pop(key, None)
    return out


def hook_partition(b: int, a: int) -> Partition:
    """The hook with arm b and leg a - 1: one row of b, then a - 1 rows of 1."""
    if b < 1 or a < 1:
        raise ValueError(f"need arm >= 1 and height >= 1, got b={b}, a={a}")
    return (b,) + (1,) * (a - 1)


def p_as_hooks(r: int) -> dict[Partition, int]:
    """The power sum p_r as an alternating sum of hook Schur functions.

    p_r = sum over i of (-1)**i s_(r-i, 1^i).
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    return {hook_partition(r - i, i + 1): (-1) ** i for i in range(r)}


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
