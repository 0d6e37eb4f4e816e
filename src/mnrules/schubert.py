"""Schubert polynomials, Monk's rule, and power-sum products.

The Schubert layer has one kernel, ``_times_x``: x_i times a Schubert
expansion, by Monk's rule for one variable.  A Schubert polynomial is that
rule solved for its top term, an expansion folds a polynomial onto the
identity one variable at a time, and ``mn-schubert --verify`` adds up
x_i^r S_w over i <= k.  Expansions in the Schubert basis are dicts mapping
canonical permutations to nonzero integers, summed with ``poly._add``.
"""

from __future__ import annotations

from operator import indexOf, ne

from .partitions import Partition, part, require_fits, require_int
from .perm import (
    Permutation,
    canonical,
    chain_endpoints,
    default_max_support,
    inverse,
    k_bruhat_covers,
    require_support,
)
from .poly import Exponents, SparsePoly, _add

SchubertExpansion = dict[Permutation, int]

# Most letters of words one call of the Schubert layer may build up front
# (``expand_in_schubert``, ``power_sum_times``) or keep (``schubert_poly``).
LETTER_LIMIT = 10_000_000


def _require_letters(letters: int, what: str) -> None:
    if letters > LETTER_LIMIT:
        raise ValueError(f"{what} needs {letters} letters, over the limit of {LETTER_LIMIT}")


def _times_x(expansion: SchubertExpansion, i: int) -> SchubertExpansion:
    """x_i times a Schubert expansion, by Monk's rule for one variable:
    x_i S_w sums +S_w(i,b) over b > i and -S_w(a,i) over a < i where the
    length goes up by one (Lascoux-Schützenberger).  (i, b) is such a cover
    when w(i) < w(b) < each value above w(i) between them (Bergeron-Sottile),
    so one running bound on each side of i finds the terms.  Past the word,
    padded to i letters, only its first fixed point can cover.
    """
    out: SchubertExpansion = {}
    for w, c in expansion.items():
        word = [*w, *range(len(w) + 1, i + 1)]
        top = len(word) + 1
        wi = word[i - 1]
        ends = {}
        best = top
        for b in range(i, len(word)):
            wb = word[b]
            if wi < wb < best:
                best = wb
                word[i - 1], word[b] = wb, wi
                ends[tuple(word)] = c
                word[i - 1], word[b] = wi, wb
                if wb == wi + 1:
                    break
        if best == top:
            ends[(*word[: i - 1], top, *word[i:], wi)] = c
        low = 0
        for a in range(i - 2, -1, -1):
            wa = word[a]
            if low < wa < wi:
                low = wa
                word[a], word[i - 1] = wi, wa
                ends[tuple(word)] = -c
                word[a], word[i - 1] = wa, wi
                if wa == wi - 1:
                    break
        _add(out, ends)
    return out


def schubert_poly(w: Permutation) -> SparsePoly:
    """Schubert polynomial of w, by Monk's rule solved for its top term.

    With r the last descent of w and v = w(r, s) for the last s > r with
    w(s) < w(r), S_w = x_r S_v minus the other terms of x_r S_v, which are as
    long as w and lexicographically greater: every word needed lies in
    S_len(w).  One loop over an explicit stack fills a memo scoped to the
    call; over ``LETTER_LIMIT`` letters of words it raises ValueError.
    """
    w = canonical(w)
    memo = {(): SparsePoly.constant(1)}
    letters = 0
    stack = [w]
    while stack:
        u = stack[-1]
        if u in memo:
            stack.pop()
            continue
        r = max(a for a in range(1, len(u)) if u[a - 1] > u[a])
        s = max(b for b in range(r + 1, len(u) + 1) if u[b - 1] < u[r - 1])
        v = canonical((*u[: r - 1], u[s - 1], *u[r : s - 1], u[r - 1], *u[s:]))
        others = _times_x({v: 1}, r)
        del others[u]
        missing = [t for t in (v, *others) if t not in memo]
        if missing:
            stack += missing
            continue
        letters += len(u)
        _require_letters(letters, f"the Schubert polynomial of a word of {len(w)} letters")
        data = {}  # x_r S_v: each exponent of x_r one higher
        for e, c in memo[v].terms.items():
            e += (0,) * (r - len(e))
            data[e[: r - 1] + (e[r - 1] + 1,) + e[r:]] = c
        for t, c in others.items():
            _add(data, memo[t].terms, -c)
        memo[u] = SparsePoly._from_clean(data)
        stack.pop()
    return memo[w]


def expand_in_schubert(f: SparsePoly) -> SchubertExpansion:
    """Write an integer polynomial in the Schubert basis: f folded onto
    S_() = 1 by Horner's rule from x_1 up.  With n variables and largest
    degree d, words of n + d letters over ``perm.SUPPORT_LIMIT``, or d (n + d)
    letters in all over ``LETTER_LIMIT``, raise ValueError before any word is
    built.

    ``rows`` maps each exponent tuple of f, folded variables set to 0, to the
    expansion it multiplies.  Folding x_i merges the rows that agree past x_i
    into E_0 + x_i (E_1 + x_i (E_2 + ...)), so terms cancel before the next
    product.
    """
    n = max(map(len, f.terms), default=0)
    d = max(map(sum, f.terms), default=0)
    require_support(n + d)
    _require_letters(d * (n + d), f"expanding degree {d} with words of {n + d} letters")
    rows = {e: {(): c} for e, c in f.terms.items()}
    for i in sorted({i for e in f.terms for i, p in enumerate(e, 1) if p}):
        groups: dict[Exponents, dict[int, SchubertExpansion]] = {}
        for e in [e for e in rows if len(e) >= i and e[i - 1]]:
            rest = (0,) * i + e[i:] if len(e) > i else ()
            groups.setdefault(rest, {})[e[i - 1]] = rows.pop(e)
        for rest, powers in groups.items():
            acc: SchubertExpansion = {}
            for p in range(max(powers), 0, -1):
                acc = _times_x(_add(acc, powers.get(p, {})), i)
            rows[rest] = _add(acc, rows.get(rest, {}))
    return rows.get((), {})


def power_sum_times(w: Permutation, k: int, r: int) -> SchubertExpansion:
    """p_r(x_1..x_k) S_w, the sum of x_i^r S_w over i <= k by Monk's rule:
    the ``mn-schubert --verify`` route.  k r (max(len(w), k) + r) letters
    over ``LETTER_LIMIT`` raise ValueError before any word is built.
    """
    w = canonical(w)
    k, r = require_int(k, "k", 1), require_int(r, "r", 1)
    _require_letters(k * r * default_max_support(w, k, r), f"p_{r}(x_1..x_{k}) times S_w")
    out: SchubertExpansion = {}
    for i in range(1, k + 1):
        term = {w: 1}
        for _ in range(r):
            term = _times_x(term, i)
        _add(out, term)
    return out


def monk(w: Permutation, k: int) -> SchubertExpansion:
    """Multiply the Schubert polynomial of w by x_1 + ... + x_k.

    One term S_u for every k-Bruhat cover w -> u; all coefficients are 1.
    """
    w, k = canonical(w), require_int(k, "k", 1)
    return dict.fromkeys(k_bruhat_covers(w, k, default_max_support(w, k, 1)), 1)


def _cycle_sign(
    u: Permutation, w_pad: Permutation, w_inv: Permutation, k: int, c: int
) -> int:
    """The coefficient of S_u in ``mn_schubert``, for an endpoint u whose
    eta = w^{-1} u moves exactly c points: (-1)**(het + 1) when eta is one
    c-cycle, het being the number of moved points at most k, and 0 otherwise.

    ``w_pad`` is w padded with fixed points to at least len(u) letters and
    ``w_inv`` its inverse as a table indexed from 1, so eta(i) is
    ``w_inv[u[i - 1]]``.  The walk starts at the first point eta moves; the
    cycle through it holds all c moved points exactly when the walk takes c
    steps to close.  With w = 1342, k = 3 and c = 6:

    >>> w_pad, w_inv = (1, 3, 4, 2, 5, 6, 7, 8), (0, 1, 4, 2, 3, 5, 6, 7, 8)
    >>> _cycle_sign((3, 4, 6, 1, 2, 5), w_pad, w_inv, 3, 6)  # (1 2 3 6 5 4)
    1
    >>> _cycle_sign((1, 4, 8, 2, 3, 5, 6, 7), w_pad, w_inv, 3, 6)  # (2 3 8 7 6 5)
    -1
    >>> _cycle_sign((2, 5, 6, 1, 3, 4), w_pad, w_inv, 3, 6)  # (1 4)(2 5)(3 6)
    0
    """
    start = i = indexOf(map(ne, u, w_pad), True) + 1
    steps = low = 0
    while True:
        low += i <= k
        i = w_inv[u[i - 1]]
        steps += 1
        if i == start:
            break
    if steps != c:
        return 0
    return 1 if low % 2 else -1


def mn_schubert(w: Permutation, k: int, r: int) -> SchubertExpansion:
    """Multiply the Schubert polynomial of w by the power sum p_r(x_1..x_k).

    Endpoints u of length-r saturated k-Bruhat chains from w contribute
    exactly when eta = w^{-1} u is a single (r+1)-cycle; the coefficient is
    (-1)**(het(eta, k) + 1) where het counts moved points at most k.  The
    expansion is multiplicity-free.
    """
    w = canonical(w)
    k, r = require_int(k, "k", 1), require_int(r, "r", 1)
    # Every endpoint is at least as long as w and fits in the support bound,
    # so w and its inverse are padded once.  chain_endpoints returns only
    # endpoints whose eta moves r + 1 points, and each is walked once.
    bound = default_max_support(w, k, r)
    w_pad = w + tuple(range(len(w) + 1, bound + 1))
    w_inv = (0,) + inverse(w) + w_pad[len(w) :]
    out: SchubertExpansion = {}
    for u in chain_endpoints(w, k, r):
        sign = _cycle_sign(u, w_pad, w_inv, k, r + 1)
        if sign:
            out[u] = sign
    return out


def grassmannian_permutation(lam: Partition, k: int) -> Permutation:
    """The permutation with descent only at k whose Schubert polynomial is
    the Schur polynomial s_lam(x_1..x_k).

    The word has k + lam_1 letters; over ``perm.SUPPORT_LIMIT`` raises
    ValueError before it is built.
    """
    lam, k = require_fits(lam, k)
    require_support(k + part(lam, 0))
    if not lam:
        return ()
    head = [part(lam, k - i) + i for i in range(1, k + 1)]
    tail = sorted(set(range(1, k + lam[0] + 1)) - set(head))
    return canonical(head + tail)
