"""Permutations of {1, 2, ...} with finite support; k-Bruhat covers and the
endpoints of saturated k-Bruhat chains.

A permutation is stored in one-line notation as a tuple (w(1), ..., w(m)),
trimmed so that either the tuple is empty (the identity) or its last entry is
not a fixed point.  Values beyond the stored word are fixed.  w(i, j), w
followed by the transposition (i, j) on the right, is w with the values in
positions i and j swapped.
"""

from __future__ import annotations

from operator import index, ne
from typing import Iterable

from .partitions import _inversions, require_int

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


# The bytes 1..255.  A word of m < 256 byte-sized letters is a permutation
# of 1..m exactly when deleting its bytes from _LETTERS[:m] leaves nothing.
# From 256 letters on this fails: 300 letters can cover 1..255.
_LETTERS = bytes(range(1, 256))


def canonical(word: Iterable[int]) -> Permutation:
    """Validate one-line notation and trim trailing fixed points.

    Entries must be integers (``operator.index``); floats, strings and
    fractions raise ValueError instead of being truncated.  A word of m < 256
    letters, each in 0..255, is read and checked in C, O(m); any other word
    is sorted, O(m log m).  A word whose last letter is moved comes back as
    it is, with no trim.

    >>> canonical([3, 4, 1, 6, 5, 2, 7, 8])
    (3, 4, 1, 6, 5, 2)
    >>> canonical([1, 2])
    ()
    """
    if type(word) is not tuple:
        word = tuple(word)
    m = len(word)
    try:
        # bytes() reads each letter through __index__, as index() does
        letters = bytes(word) if m < 256 else None
    except ValueError:  # a letter outside 0..255
        letters = None
    except TypeError:
        raise ValueError(f"entries must be integers, got {word}") from None
    if letters is not None:
        w = tuple(letters)
        bad = _LETTERS[:m].translate(None, letters)
    else:
        try:
            w = tuple(map(index, word))
        except TypeError:
            raise ValueError(f"entries must be integers, got {word}") from None
        bad = sorted(w) != list(range(1, m + 1))
    if bad:
        raise ValueError(f"not a permutation of 1..{m}: {w}")
    if not m or w[-1] != m:
        return w
    while m and w[m - 1] == m:
        m -= 1
    return w[:m]


def inverse(w: Permutation) -> Permutation:
    """The inverse permutation, read through :func:`canonical`.

    >>> inverse((3, 1, 2))
    (2, 3, 1)
    """
    w = canonical(w)
    inv = [0] * len(w)
    for i, v in enumerate(w):
        inv[v - 1] = i + 1
    return tuple(inv)


def length(w: Permutation) -> int:
    """Number of inversions of w, read through :func:`canonical`.

    >>> length((3, 4, 1, 6, 5, 2))
    7
    """
    return _inversions(canonical(w))


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
    of w is made.  Validating w costs O(m) below 256 letters and
    O(m log m) from there on (see :func:`canonical`).

    Every endpoint has at most need = max(m, k) + 1 letters.  ``max_support``
    must be at least need, and the whole cover set is returned: a smaller
    bound raises ValueError and never truncates the result.  The checks run
    in order: the word, then k and ``max_support``, then need against
    ``SUPPORT_LIMIT``, then ``max_support`` against need.

    >>> k_bruhat_covers((2, 1), 2, 4)
    [(3, 1, 2), (2, 3, 1)]
    """
    w = canonical(w)
    # called once per search state, so require_int reads only a k or bound off this fast path
    if type(k) is not int or k < 1 or type(max_support) is not int:
        k, max_support = require_int(k, "k", 1), require_int(max_support, "max_support")
    size = len(w)
    need = require_support((size if size > k else k) + 1)
    if max_support < need:
        raise ValueError(f"max_support={max_support} is below max(len(w), k) + 1 = {need}")
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
    """Endpoints u of the length-r saturated k-Bruhat chains from w along
    which eta = w^{-1} u can still close into one (r+1)-cycle.  They hold
    every endpoint ``mn_schubert`` keeps, and for r >= 1 each moves exactly
    r + 1 points.

    Step t of a chain multiplies eta_t = w^{-1} v_t on the right by a
    transposition.  An (r+1)-cycle has reflection length r, so on a chain
    whose endpoint counts every one of the r steps joins two cycles of eta:
    the set of moved points only grows, and t < #moved(eta_t) <= r + 1.
    Level by level, each deduplicated level keeps only the states in that
    window; eta moves i exactly when v(i) != w(i), so the window is one
    C-level count against w padded with fixed points.  A state outside it
    lies on no counting chain, and at t = r the window is #moved = r + 1.

    Each state the search expands costs one call of the module-level
    ``k_bruhat_covers``: tracing that call accounts for the whole search.
    """
    w = canonical(w)
    k, r = require_int(k, "k", 1), require_int(r, "r", 0)
    bound = default_max_support(w, k, r)
    w_pad = w + tuple(range(len(w) + 1, bound + 1))
    level = {w}
    for t in range(1, r + 1):
        level = {u for v in level for u in k_bruhat_covers(v, k, bound)}
        level = {u for u in level if t < sum(map(ne, u, w_pad)) <= r + 1}
    return level
