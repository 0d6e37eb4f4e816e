"""Schubert polynomials, divided differences, and power-sum products.

The Schubert polynomial of the longest element of S_n is the staircase
monomial x_1^(n-1) x_2^(n-2) ... x_{n-1}; every other one is reached by
divided differences, which lower degree by one.  Expansions in the Schubert
basis are dicts mapping canonical permutations to nonzero integers.
"""

from __future__ import annotations

from functools import cache
from operator import indexOf, ne

from .partitions import Partition, part, require_fits
from .perm import (
    Permutation,
    canonical,
    chain_endpoints,
    default_max_support,
    from_lehmer_code,
    inverse,
    k_bruhat_covers,
    length,
    require_support,
)
from .poly import Exponents, SparsePoly, _trim

SchubertExpansion = dict[Permutation, int]

# Most letters schubert_poly's first-ascent chain may hold in the cache:
# --poly x1^e walks about e^2 / 2 steps of e + 1 letters, and x1^1000 would
# keep about 4 GB of words.
CHAIN_LIMIT = 10_000_000
# Most first-ascent steps one schubert_poly call lets _schubert_cached
# recurse: about 200 frames, well under the interpreter's default limit of
# 1000, and chains this short need no walk.
RECURSION_STEPS = 100


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
    return SparsePoly.monomial(tuple(range(n - 1, 0, -1)))


def _first_ascent_swap(w: Permutation) -> tuple[int, Permutation]:
    """(i, w with positions i and i + 1 swapped) for the first ascent i of w.

    Swapping keeps the word canonical: the last letter either stays or
    becomes w(n - 1) < w(n) <= n, not a fixed point.
    """
    i = next(i for i in range(1, len(w)) if w[i - 1] < w[i])
    return i, w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :]


@cache
def _schubert_cached(w: Permutation) -> SparsePoly:
    n = len(w)
    if n == 0:
        return SparsePoly.one()
    if w == tuple(range(n, 0, -1)):
        return staircase_monomial(n)
    i, swapped = _first_ascent_swap(w)
    return divided_difference(_schubert_cached(swapped), i)


def schubert_poly(w: Permutation) -> SparsePoly:
    """Schubert polynomial of w (cached; computed in the smallest S_n).

    ``_schubert_cached`` recurses once per first-ascent step from w up to
    w_0.  So a chain of ``RECURSION_STEPS`` steps or more is walked first,
    and every ``RECURSION_STEPS``-th word on it is cached from the top down:
    each call then finds a cached word within that many steps, however
    long the chain is.  The cache keeps one word of n = len(w) letters per
    step, and there are n(n-1)/2 - length(w) steps: over ``CHAIN_LIMIT``
    letters in all raises ValueError before the walk.
    """
    w = canonical(w)
    n = len(w)
    steps = n * (n - 1) // 2 - length(w)
    if steps * n > CHAIN_LIMIT:
        raise ValueError(
            f"needs {steps} steps of {n} letters up to the longest word, "
            f"over the limit of {CHAIN_LIMIT} letters"
        )
    marks = []
    u = w
    for _ in range(steps // RECURSION_STEPS):
        for _ in range(RECURSION_STEPS):
            u = _first_ascent_swap(u)[1]
        marks.append(u)
    for u in reversed(marks):
        _schubert_cached(u)
    return _schubert_cached(w)


def _colex_key(e: Exponents) -> tuple[int, Exponents]:
    """Sort key of the colexicographic order on trimmed exponent tuples,
    which compares at the rightmost position where two tuples differ.

    A longer trimmed tuple has a nonzero exponent in a later variable, so it
    is the greater one, and no padding is needed: x2 > x1^5.
    """
    return len(e), e[::-1]


def expand_in_schubert(f: SparsePoly) -> SchubertExpansion:
    """Write an integer polynomial in the Schubert basis.

    The colexicographically greatest monomial of a Schubert polynomial S_u
    is x raised to the Lehmer code of u, and distinct permutations have
    distinct codes.  So the colex-greatest monomial of any integer
    combination, whatever mix of degrees it holds, is the code of exactly
    one of its support permutations, carrying that permutation's
    coefficient.  Peeling it off strictly lowers the leading monomial, which
    forces termination, and a zero remainder is itself the reconstruction
    identity: the result needs no separate verification pass.  Raises
    RuntimeError if a peel ever fails to make progress (impossible for
    honest input, i.e. any integer polynomial, since the Schubert
    polynomials are a basis).
    """
    out: SchubertExpansion = {}
    rem = f
    last_key = None
    while rem:
        exps = max(rem.terms, key=_colex_key)
        key = _colex_key(exps)
        if last_key is not None and key >= last_key:
            raise RuntimeError(f"Schubert expansion failed to make progress at {exps}")
        last_key = key
        coeff = rem.terms[exps]
        u = from_lehmer_code(exps)
        # Leading monomials strictly decrease, so u is peeled only once.
        out[u] = coeff
        rem = rem - coeff * schubert_poly(u)
    return out


def monk(w: Permutation, k: int) -> SchubertExpansion:
    """Multiply the Schubert polynomial of w by x_1 + ... + x_k.

    One term S_u for every k-Bruhat cover w -> u; all coefficients are 1.
    """
    w = canonical(w)
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
    if k < 1 or r < 1:
        raise ValueError(f"need k, r >= 1, got k={k}, r={r}")
    # Every endpoint is at least as long as w and fits in the support bound,
    # so w and its inverse are padded once.  eta moves i exactly when
    # u(i) != w(i), so one C-level count finds the endpoints that move r + 1
    # points, and only those are walked.
    bound = default_max_support(w, k, r)
    w_pad = w + tuple(range(len(w) + 1, bound + 1))
    w_inv = (0,) + inverse(w) + w_pad[len(w) :]
    c = r + 1
    out: SchubertExpansion = {}
    for u in chain_endpoints(w, k, r):
        if sum(map(ne, u, w_pad)) == c:
            sign = _cycle_sign(u, w_pad, w_inv, k, c)
            if sign:
                out[u] = sign
    return out


def grassmannian_permutation(lam: Partition, k: int) -> Permutation:
    """The permutation with descent only at k whose Schubert polynomial is
    the Schur polynomial s_lam(x_1..x_k).

    The word has k + lam_1 letters; over ``perm.SUPPORT_LIMIT`` raises
    ValueError before it is built.
    """
    lam = require_fits(lam, k)
    require_support(k + part(lam, 0))
    if not lam:
        return ()
    head = [((lam[k - i] if k - i < len(lam) else 0) + i) for i in range(1, k + 1)]
    tail = sorted(set(range(1, k + lam[0] + 1)) - set(head))
    return canonical(head + tail)
