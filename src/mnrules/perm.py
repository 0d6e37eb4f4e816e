"""Permutations of {1, 2, ...} with finite support; k-Bruhat covers and the
endpoints of saturated k-Bruhat chains.

A permutation is stored in one-line notation as a tuple (w(1), ..., w(m)),
trimmed so that either the tuple is empty (the identity) or its last entry is
not a fixed point.  Values beyond the stored word are fixed.  w(i, j), w
followed by the transposition (i, j) on the right, is w with the values in
positions i and j swapped.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, insort
from typing import Iterable

Permutation = tuple[int, ...]

# Largest support bound a call may use.  k and r come from the command line,
# and the padded word and inverse table grow with max(len(w), k) + r:
# k = 10**10 would ask for about 80 GB of fixed points.
SUPPORT_LIMIT = 100_000


def require_support(letters: int) -> int:
    """Return ``letters``, the length of a word about to be built, or raise
    ValueError when it is over ``SUPPORT_LIMIT``."""
    if letters > SUPPORT_LIMIT:
        raise ValueError(f"needs words of {letters} letters, over the limit of {SUPPORT_LIMIT}")
    return letters


def canonical(word: Iterable[int]) -> Permutation:
    """Validate one-line notation and trim trailing fixed points.

    Entries must be integers (``operator.index``); floats, strings and
    fractions raise ValueError instead of being truncated.

    >>> canonical([3, 4, 1, 6, 5, 2, 7, 8])
    (3, 4, 1, 6, 5, 2)
    >>> canonical([1, 2])
    ()
    """
    word = tuple(word)
    try:
        w = tuple(map(operator.index, word))
    except TypeError:
        raise ValueError(f"entries must be integers, got {word}") from None
    if sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f"not a permutation of 1..{len(w)}: {w}")
    m = len(w)
    while m and w[m - 1] == m:
        m -= 1
    return w[:m]


def inverse(w: Permutation) -> Permutation:
    inv = [0] * len(w)
    for i, v in enumerate(w):
        inv[v - 1] = i + 1
    return tuple(inv)


def length(w: Permutation) -> int:
    """Number of inversions.

    Reads the word right to left, keeping the values seen in a sorted list:
    each value is above exactly ``bisect_left`` of them.  With m = len(w)
    that is O(m log m) comparisons, and the ``insort`` shifts are C memmoves.

    >>> length((3, 4, 1, 6, 5, 2))
    7
    """
    seen: list[int] = []
    count = 0
    for v in reversed(w):
        count += bisect_left(seen, v)
        insort(seen, v)
    return count


def default_max_support(w: Permutation, k: int, steps: int) -> int:
    """Support bound for ``steps`` cover steps above w.

    A cover w -> w(i, j) with i <= k < j forces j at most one past
    max(support, k): for larger j the fixed value j - 1 would sit strictly
    between w(i) and w(j) = j.  So every endpoint fits in this bound.
    A bound over ``SUPPORT_LIMIT`` raises ValueError before anything of
    that length is built.
    """
    return require_support(max(len(w), k) + steps)


def k_bruhat_covers(w: Permutation, k: int, max_support: int) -> list[Permutation]:
    """Endpoints of the covers w -> w(i, j) with i <= k < j and length up by
    1: canonical words, ordered by (i, j).

    For each i the scan keeps ``best``, the smallest value above w(i) at
    positions i+1..j-1; (i, j) is a cover exactly when w(i) < w(j) < best
    (Bergeron-Sottile, Duke 1998).  With m = len(w), the scan reads only the
    stored word and ends early at w(j) = w(i) + 1.  Past the word each
    position holds its own index, above every earlier value, so the first
    fixed point m + 1 is the only candidate there, and a cover exactly when
    the scan saw nothing above w(i).  When k > m, every j > k is past that
    fixed point, which leaves the one cover (k, k + 1).  A call costs
    O(k * m) scan steps plus O(m) to build each endpoint, and no padded copy
    of w is made.  Validating w costs O(m log m).

    Every endpoint has at most need = max(m, k) + 1 letters.  ``max_support``
    must be at least need, and the whole cover set is returned: a smaller
    bound raises ValueError and never truncates the result.  The checks run
    in order: the word, then k, then need against ``SUPPORT_LIMIT``, then
    ``max_support`` against need.

    >>> k_bruhat_covers((2, 1), 2, 4)
    [(3, 1, 2), (2, 3, 1)]
    """
    w = canonical(w)
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    need = default_max_support(w, k, 1)
    if max_support < need:
        raise ValueError(f"max_support={max_support} is below max(len(w), k) + 1 = {need}")
    size = len(w)
    if k > size:
        return [w + tuple(range(size + 1, k)) + (k + 1, k)]
    ends: list[Permutation] = []
    add = ends.append
    word = list(w)
    top = size + 1
    for i in range(k):
        wi = word[i]
        best = top
        for j in range(i + 1, size):
            wj = word[j]
            if wi < wj < best:
                best = wj
                if j >= k:
                    # Swapping keeps a permutation, and its last letter is
                    # still a moved point: no canonical().
                    word[i], word[j] = wj, wi
                    add(tuple(word))
                    word[i], word[j] = wi, wj
                if wj == wi + 1:
                    break
        if best == top:
            word[i] = top
            add(tuple(word) + (wi,))
            word[i] = wi
    return ends


def chain_endpoints(w: Permutation, k: int, r: int) -> set[Permutation]:
    """Endpoints of all length-r saturated k-Bruhat chains starting at w.

    Level by level, with one call of the module-level ``k_bruhat_covers``
    per state: tracing that call accounts for the whole search.
    """
    w = canonical(w)
    if r < 0:
        raise ValueError(f"need r >= 0, got {r}")
    bound = default_max_support(w, k, r)
    level = {w}
    for _ in range(r):
        level = {u for v in level for u in k_bruhat_covers(v, k, bound)}
    return level
