"""Partition and skew-shape combinatorics: strips, rim hooks, n-cores.

Partitions are tuples of weakly decreasing positive integers; the empty tuple
is the empty partition, and rows are numbered from 0.  Everything here is a
pure function on immutable values.

Adding a rim hook, removing one, and stripping down to the n-core all run on
one beta-number (abacus) kernel, :func:`_bead_moves`: with m beads, row i of
lam sits at lam_i + m - 1 - i, and an r-hook is one bead moving r places to
an empty position (James-Kerber, The Representation Theory of the Symmetric
Group, ch. 2).  The bead moving from row i to row j shifts the rows between
by one place, so each move is one O(m) splice of the rows, and the hook's
height is the index difference |i - j| + 1.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from typing import Iterable, Iterator, Literal

Partition = tuple[int, ...]

# Size limits on what a call may build from its integer arguments, which come
# from the command line: an abacus or a strip search of more than ROW_LIMIT
# rows (a strip search recurses once per row), and an n-core search that may
# strip more than HOOK_LIMIT hooks, or more than HOOK_LIMIT * ROW_LIMIT hooks
# times rows.
ROW_LIMIT = 500
HOOK_LIMIT = 100_000


def _require_rows(rows: int) -> None:
    if rows > ROW_LIMIT:
        raise ValueError(f"{rows} rows is over the limit of {ROW_LIMIT}")


def validate_partition(parts: Iterable[int]) -> Partition:
    """Return ``parts`` as a canonical partition tuple.

    Trailing zeros are dropped; negative or increasing entries, and entries
    that are not integers (floats, strings, fractions), raise ValueError.

    >>> validate_partition([3, 2, 1, 0, 0])
    (3, 2, 1)
    >>> validate_partition([])
    ()
    """
    parts = tuple(parts)
    try:
        lam = tuple(map(operator.index, parts))
    except TypeError:
        raise ValueError(f"parts must be positive integers, got {parts}") from None
    n = len(lam)
    while n and lam[n - 1] == 0:
        n -= 1
    lam = lam[:n]
    for i, p in enumerate(lam):
        if p < 1:
            raise ValueError(f"parts must be positive integers, got {lam}")
        if i and lam[i - 1] < p:
            raise ValueError(f"parts must be weakly decreasing, got {lam}")
    return lam


def require_fits(lam: Iterable[int], k: int) -> Partition:
    """Validate ``lam``; a partition of more than k rows raises ValueError."""
    lam = validate_partition(lam)
    if len(lam) > k:
        raise ValueError(f"{lam} has more than {k} rows")
    return lam


def part(lam: Partition, i: int) -> int:
    """Row ``i`` (0-based) of ``lam``, reading 0 beyond the last row."""
    return lam[i] if 0 <= i < len(lam) else 0


def box_partition(k: int, n: int) -> Partition:
    """The k-row rectangle with rows of length n - k (k at most ``ROW_LIMIT``).

    >>> box_partition(2, 5)
    (3, 3)
    """
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    _require_rows(k)
    return (n - k,) * k


class _Record(tuple):
    """Base of the library's records, ``class R(_Record, namedtuple("R",
    "a b")): __slots__ = ()``.  The named tuple gives construction, the
    repr, ``match``, pickling, copying, read-only fields, no ``__dict__``,
    and a tuple's indexing, unpacking and order, ``_asdict`` and
    ``_replace``.  This base makes a record equal only to a record of its
    own class, never to a plain tuple, and hashes it by its fields.  Both
    comparisons answer outright: a NotImplemented would let tuple's
    reflected one match.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return other.__class__ is not self.__class__ or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__


def _splice(lam: Partition, rows: Partition, beads: int, i: int, j: int, c: int) -> Partition:
    """The shape after the bead of row i moves to the empty position c and
    lands in row j (see :func:`_bead_moves`).

    ``rows`` is lam padded with zeros to ``beads`` rows.  A bead moving up
    (j < i) passes rows j..i-1, which each grow by one cell and move down a
    row; a bead moving down (j >= i) passes rows i+1..j, which each lose a
    cell and move up a row.  Either way row j becomes c - beads + 1 + j.
    The padding beads fill 0..beads-1-len(lam) and c is empty, so j <=
    len(lam) and moving down also j < len(lam): slicing lam instead of rows
    drops the padding, and only a move down can leave trailing zeros.
    """
    if j < i:
        return lam[:j] + (c - beads + 1 + j,) + tuple([p + 1 for p in rows[j:i]]) + lam[i + 1:]
    shape = lam[:i] + tuple([p - 1 for p in lam[i + 1:j + 1]]) + (c - beads + 1 + j,) + lam[j + 1:]
    n = len(shape)
    while n and not shape[n - 1]:
        n -= 1
    return shape[:n]


def _bead_moves(lam: Partition, shift: int, beads: int) -> Iterator[tuple[Partition, int]]:
    """Move one bead of lam's abacus by ``shift``: yield (new shape, hook height).

    With m = ``beads`` >= len(lam), row i of lam puts a bead at
    lam_i + m - 1 - i, so the positions fall as i rises.  A bead of row i
    moving to an empty c = lam_i + m - 1 - i + shift >= 0 adds (shift > 0)
    or removes (shift < 0) a rim hook of |shift| cells.  The bead lands in
    row j, the number of other beads above c, and the rows it passes each
    shift by one place, so the new shape is one splice of the rows
    (:func:`_splice`).  The hook's height is the number of rows it spans,
    |i - j| + 1, and each move costs O(m).

    Moves come largest bead first, which is the hook whose top row is
    highest.  Adds come in strictly decreasing lexicographic order of shape
    and removals in strictly increasing order.  The move of row i leaves the
    rows above min(i, j) alone and strictly raises (add) or lowers (remove)
    row min(i, j), and min(i, j) does not fall as i rises; two adds landing
    in the same row j set it to c - m + 1 + j, which falls with c.
    """
    rows = lam + (0,) * (beads - len(lam))
    pos = [p + beads - 1 - i for i, p in enumerate(rows)]
    above = 0  # beads strictly above c; c falls as i rises, so this only grows
    down = shift < 0  # moving down, the bead itself is one of the beads above c
    for i, b in enumerate(pos):
        c = b + shift
        if c < 0:
            return
        while above < beads and pos[above] > c:
            above += 1
        if above < beads and pos[above] == c:
            continue
        j = above - down
        yield _splice(lam, rows, beads, i, j, c), abs(i - j) + 1


def add_rim_hooks(lam: Partition, r: int, max_rows: int) -> list[tuple[Partition, int]]:
    """All ways to grow ``lam`` by a rim hook of ``r`` cells within ``max_rows`` rows.

    On the abacus of ``max_rows`` beads, each bead that can move up by r to
    an empty position gives one hook (see :func:`_bead_moves`).  Returns
    (outer shape, hook height) pairs sorted lexicographically by shape (the
    bead order reversed); the shapes are distinct.  ``max_rows`` over
    ``ROW_LIMIT`` raises ValueError.

    >>> add_rim_hooks((1,), 2, 3)
    [((1, 1, 1), 2), ((3,), 1)]
    """
    lam = validate_partition(lam)
    if r < 1:
        raise ValueError(f"rim hook size must be positive, got {r}")
    if max_rows < 0:
        raise ValueError(f"max_rows must be nonnegative, got {max_rows}")
    _require_rows(max_rows)
    if len(lam) > max_rows:
        return []
    return list(_bead_moves(lam, r, max_rows))[::-1]


def remove_rim_hooks(lam: Partition, r: int) -> list[tuple[Partition, int]]:
    """All ways to strip a rim hook of ``r`` cells from ``lam``.

    On the abacus of len(lam) beads, each bead that can move down by r to an
    empty position >= 0 gives one hook.  Returns (inner shape, hook height)
    pairs sorted lexicographically by shape (the bead order); the shapes are
    distinct.  The inverse of :func:`add_rim_hooks`.

    >>> remove_rim_hooks((2, 2), 3)
    [((1,), 2)]
    """
    lam = validate_partition(lam)
    if r < 1:
        raise ValueError(f"rim hook size must be positive, got {r}")
    return list(_bead_moves(lam, -r, len(lam)))


class CoreResult(_Record, namedtuple("CoreResult", "core hooks_removed height_sum")):
    """Outcome of stripping rim hooks of a fixed size until stuck."""

    __slots__ = ()


def n_core(lam: Partition, n: int) -> CoreResult:
    """Strip rim hooks of ``n`` cells from ``lam`` until none remains.

    Each step moves the largest bead that can drop by n, which removes the
    hook whose top row is highest.  The resulting core, the number of hooks,
    and the parity of the total height do not depend on the removal order;
    only this policy's height_sum is reported.  At most |lam| / n hooks
    come off, at O(len(lam)) each: a hook bound over ``HOOK_LIMIT``, or a
    bound times len(lam) over ``HOOK_LIMIT * ROW_LIMIT``, raises ValueError.

    >>> n_core((2, 1, 1), 4)
    CoreResult(core=(), hooks_removed=1, height_sum=3)
    >>> n_core((2, 2), 4).core  # the full rim holds a 2x2 square: no 4-hook
    (2, 2)
    """
    lam = validate_partition(lam)
    if n < 2:
        raise ValueError(f"hook size must be at least 2, got {n}")
    hooks = sum(lam) // n
    if hooks > HOOK_LIMIT:
        raise ValueError(f"may strip up to {hooks} hooks, over the limit of {HOOK_LIMIT}")
    if hooks * len(lam) > HOOK_LIMIT * ROW_LIMIT:
        raise ValueError(
            f"may strip up to {hooks} hooks over {len(lam)} rows, {hooks * len(lam)} row steps,"
            f" over the limit of {HOOK_LIMIT * ROW_LIMIT}"
        )
    cur, hooks, heights = lam, 0, 0
    while (move := next(_bead_moves(cur, -n, len(cur)), None)) is not None:
        cur, height = move
        hooks, heights = hooks + 1, heights + height
    return CoreResult(cur, hooks, heights)


StripKind = Literal["horizontal", "vertical"]


def strips(lam: Partition, size: int, kind: StripKind, max_rows: int) -> list[Partition]:
    """Partitions obtained by adding a strip of ``size`` cells to ``lam``.

    A horizontal strip has at most one new cell per column, a vertical strip
    at most one per row.  Only results with at most ``max_rows`` rows are
    returned, sorted lexicographically.  ``max_rows`` over ``ROW_LIMIT``
    raises ValueError.

    >>> strips((1,), 2, "horizontal", 3)
    [(2, 1), (3,)]
    """
    lam = validate_partition(lam)
    if size < 1:
        raise ValueError(f"strip size must be positive, got {size}")
    if kind not in ("horizontal", "vertical"):
        raise ValueError(f"kind must be 'horizontal' or 'vertical', got {kind!r}")
    _require_rows(max_rows)
    if len(lam) > max_rows:
        return []
    horizontal = kind == "horizontal"
    found: list[Partition] = []

    def grow(i: int, budget: int, mu: list[int]) -> None:
        # Row i grows from lam_i by up to ``budget`` cells and stays within
        # lam_(i-1) (horizontal), or by up to one cell and stays within
        # mu_(i-1) (vertical).  With no budget left the rest of lam stays.
        if budget == 0:
            found.append(tuple(mu) + lam[i:])
            return
        if i == max_rows:
            return
        lo = part(lam, i)
        hi = lo + (budget if horizontal else 1)
        if i:
            hi = min(hi, part(lam, i - 1) if horizontal else mu[i - 1])
        for v in range(lo, hi + 1):
            mu.append(v)
            grow(i + 1, budget - (v - lo), mu)
            mu.pop()

    grow(0, size, [])
    return sorted(found)
