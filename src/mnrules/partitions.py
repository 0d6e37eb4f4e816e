"""Partition and skew-shape combinatorics: strips, rim hooks, n-cores.

Partitions are tuples of weakly decreasing positive integers; the empty tuple
is the empty partition, and rows are numbered from 0.  Everything here is a
pure function on immutable values.

Adding a rim hook and removing one run on one beta-number (abacus) kernel,
:func:`_bead_moves`: with m beads, row i of lam sits at lam_i + m - 1 - i,
and an r-hook is one bead moving r places to an empty position (James-Kerber,
The Representation Theory of the Symmetric Group, ch. 2).  The bead moving
from row i to row j shifts the rows between by one place, and the hook's
height is the index difference |i - j| + 1.  An add or a removal builds
the one shifted-row table its moves read, once in O(m), so each move is a
few C-level slices of O(m) entries.  :func:`n_core` strips down to the
n-core on a bead list of its own, a run of hooks at a time.

Every layer imports this module, for ``require_int`` and the size limits,
so it also holds the three helpers that belong to no one layer: ``_add``,
the one accumulator of signed sums; ``join_signed``, the one writer of
their text; and ``_inversions``, the inversion count of a word, which
``perm.length`` and ``quantum.psi_reduce`` share.  A command then runs
only the layers it computes with.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, insort
from collections import namedtuple
from typing import Iterable, Literal, Sequence

Partition = tuple[int, ...]

# Size limits on what a call may build from its integer arguments, which come
# from the command line: an abacus or a strip search of more than ROW_LIMIT
# rows (a strip search recurses once per row), and an n-core search that may
# strip more than HOOK_LIMIT hooks, or more than HOOK_LIMIT * ROW_LIMIT hooks
# times rows.
ROW_LIMIT = 500
HOOK_LIMIT = 100_000


def _require_rows(rows: int) -> int:
    if rows > ROW_LIMIT:
        raise ValueError(f"{rows} rows is over the limit of {ROW_LIMIT}")
    return rows


def require_int(value: int, name: str, least: int | None = None) -> int:
    """The argument ``name`` as a plain int, read with ``operator.index``: a
    float, string or fraction raises ValueError, and so does a value below
    ``least``.  Every integer argument is read here, after the partition or
    word and before the checks that relate two arguments."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise ValueError(f"need {name} >= {least}, got {value}")
    return value


def _add(a: dict, b: dict, scale: int = 1) -> dict:
    """a + scale * b for dicts of nonzero ints, written into a.  A zero
    addend is safe: a key it would leave at 0 is dropped whether or not a
    held it.  Every expansion in the package is such a dict, whatever its
    keys, and this is the one place that adds into one."""
    for u, c in b.items():
        c = a.get(u, 0) + scale * c
        if c:
            a[u] = c
        else:
            a.pop(u, None)
    return a


def join_signed(items: list[tuple[int, str]], mag_sep: str = "*") -> str:
    """Write (coefficient, body) terms as a signed sum: the leading term
    unsigned when positive, a magnitude other than 1 before its body."""
    if not items:
        return "0"
    bits = []
    for idx, (coeff, body) in enumerate(items):
        mag = abs(coeff)
        text = body if mag == 1 else f"{mag}{mag_sep}{body}"
        if idx == 0:
            bits.append(text if coeff > 0 else f"-{text}")
        else:
            bits.append(f"+ {text}" if coeff > 0 else f"- {text}")
    return " ".join(bits)


def _inversions(word: Sequence[int]) -> int:
    """Number of pairs i < j with word[i] > word[j], for distinct values;
    unchecked, so ``perm.length`` counts permutations with it and
    ``psi_reduce`` bead residues.

    Reads the word right to left, keeping the values seen in a sorted list:
    each value is above exactly ``bisect_left`` of them.  With m letters
    that is O(m log m) comparisons, and the ``insort`` shifts are C memmoves.
    """
    seen: list[int] = []
    count = 0
    for v in reversed(word):
        count += bisect_left(seen, v)
        insort(seen, v)
    return count


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


def require_fits(lam: Iterable[int], k: int) -> tuple[Partition, int]:
    """Validate ``lam``, then read ``k`` >= 0, and return both; a partition
    of more than k rows raises ValueError."""
    lam, k = validate_partition(lam), require_int(k, "k", 0)
    if len(lam) > k:
        raise ValueError(f"{lam} has more than {k} rows")
    return lam, k


def part(lam: Partition, i: int) -> int:
    """Row ``i`` (0-based) of ``lam``, reading 0 beyond the last row."""
    return lam[i] if 0 <= i < len(lam) else 0


def box_partition(k: int, n: int) -> Partition:
    """The k-row rectangle with rows of length n - k (k at most ``ROW_LIMIT``).

    >>> box_partition(2, 5)
    (3, 3)
    """
    k, n = require_int(k, "k"), require_int(n, "n")
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    return (n - k,) * _require_rows(k)


def _splice(
    lam: Partition, shifted: Partition, beads: int, i: int, j: int, c: int
) -> Partition:
    """The shape after the bead of row i moves to the empty position c and
    lands in row j (see :func:`_bead_moves`).

    A bead moving up (j < i) passes rows j..i-1, which each grow by one cell
    and move down a row, so ``shifted`` is lam padded with zeros to ``beads``
    rows, each one longer.  A bead moving down (j >= i) passes rows i+1..j,
    which each lose a cell and move up a row, so ``shifted`` is lam, each row
    one shorter, unread at j = i.  Row j becomes x = c - beads + 1 + j, and
    the shape is four slices, O(beads) C-level work.  The padding beads fill
    0..beads-1-len(lam) and c is empty, so j <= len(lam) and moving down also
    j < len(lam): slicing lam instead of the padded rows drops the padding,
    and only a move down with x = 0 leaves trailing zeros.
    """
    x = c - beads + 1 + j
    if j < i:
        return lam[:j] + (x,) + shifted[j:i] + lam[i + 1:]
    shape = lam[:i] + shifted[i + 1:j + 1] + (x,) + lam[j + 1:]
    if x:
        return shape
    n = len(shape) - 1
    while n and not shape[n - 1]:
        n -= 1
    return shape[:n]


def _bead_moves(lam: Partition, shift: int, beads: int) -> list[tuple[Partition, int]]:
    """Move one bead of lam's abacus by ``shift``: the list of (new shape,
    hook height), one per move.

    With m = ``beads`` >= len(lam), row i of lam puts a bead at
    lam_i + m - 1 - i, so the positions fall as i rises.  A bead of row i
    moving to an empty c = lam_i + m - 1 - i + shift >= 0 adds (shift > 0)
    or removes (shift < 0) a rim hook of |shift| cells.  The bead lands in
    row j, the number of other beads above c, and the rows it passes each
    shift by one place, so the new shape is one splice (:func:`_splice`)
    from the one table its direction reads, built once here in O(m).  The
    hook's height is the number of rows it spans, |i - j| + 1.

    Moves come largest bead first, which is the hook whose top row is
    highest, so :func:`add_rim_hooks` and :func:`remove_rim_hooks` need no
    sort: adds come in strictly decreasing lexicographic order of shape and
    removals in strictly increasing order.  The move of row i leaves the
    rows above min(i, j) alone and strictly raises (add) or lowers (remove)
    row min(i, j), and min(i, j) does not fall as i rises; two adds landing
    in the same row j set it to c - m + 1 + j, which falls with c.
    """
    rows = lam + (0,) * (beads - len(lam))
    down = shift < 0  # moving down, the bead itself is one of the beads above c
    shifted = tuple([p - 1 for p in lam]) if down else tuple([p + 1 for p in rows])
    pos = [p + beads - 1 - i for i, p in enumerate(rows)]
    moves = []
    above = 0  # beads strictly above c; c falls as i rises, so this only grows
    for i, b in enumerate(pos):
        c = b + shift
        if c < 0:
            break
        while above < beads and pos[above] > c:
            above += 1
        if above < beads and pos[above] == c:
            continue
        j = above - down
        moves.append((_splice(lam, shifted, beads, i, j, c), abs(i - j) + 1))
    return moves


def add_rim_hooks(lam: Partition, r: int, max_rows: int) -> list[tuple[Partition, int]]:
    """All ways to grow ``lam`` by a rim hook of ``r`` cells within ``max_rows`` rows.

    On the abacus of ``max_rows`` beads, each bead that can move up by r to
    an empty position gives one hook (see :func:`_bead_moves`).  Returns
    (outer shape, hook height) pairs sorted lexicographically by shape (the
    bead order reversed); the shapes are distinct.  ``max_rows`` over
    ``ROW_LIMIT`` raises ValueError.  Plain ints r >= 1 and 0 <= max_rows
    <= ``ROW_LIMIT`` are not read again; anything else goes through
    ``require_int`` and ``_require_rows``, which own every message.

    >>> add_rim_hooks((1,), 2, 3)
    [((1, 1, 1), 2), ((3,), 1)]
    """
    lam = validate_partition(lam)
    # called once per mn_classical call, so the readers run only off this fast path
    if type(r) is not int or r < 1 or type(max_rows) is not int or not 0 <= max_rows <= ROW_LIMIT:
        r = require_int(r, "r", 1)
        max_rows = _require_rows(require_int(max_rows, "max_rows", 0))
    if len(lam) > max_rows:
        return []
    return _bead_moves(lam, r, max_rows)[::-1]


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
    r = require_int(r, "r", 1)
    return _bead_moves(lam, -r, len(lam))


# Outcome of stripping rim hooks of a fixed size until stuck.
CoreResult = namedtuple("CoreResult", "core hooks_removed height_sum")


def n_core(lam: Partition, n: int) -> CoreResult:
    """Strip rim hooks of ``n`` cells from ``lam`` until none remains.

    Each step moves the largest bead that can drop by n, which removes the
    hook whose top row is highest.  The resulting core, the number of hooks,
    and the parity of the total height do not depend on the removal order;
    only this policy's height_sum is reported.

    The beads sit in one rising list that a cursor walks down.  Once bead b
    can drop, so can its run b + n, ..., top, each into the place the last
    one left: one step takes off (top - b) / n + 1 hooks, whose heights add
    up to 1 + the beads strictly between b - n and top.  A step shifts up
    to len(lam) list slots, so a call at most hooks times len(lam): a hook
    bound |lam| // n over ``HOOK_LIMIT``, or that bound times len(lam) over
    ``HOOK_LIMIT * ROW_LIMIT``, raises ValueError.

    >>> n_core((2, 1, 1), 4)
    CoreResult(core=(), hooks_removed=1, height_sum=3)
    >>> n_core((2, 2), 4).core  # the full rim holds a 2x2 square: no 4-hook
    (2, 2)
    """
    lam = validate_partition(lam)
    n = require_int(n, "n", 2)
    hooks = sum(lam) // n
    if hooks > HOOK_LIMIT:
        raise ValueError(f"may strip up to {hooks} hooks, over the limit of {HOOK_LIMIT}")
    if hooks * len(lam) > HOOK_LIMIT * ROW_LIMIT:
        raise ValueError(
            f"may strip up to {hooks} hooks over {len(lam)} rows, {hooks * len(lam)} row steps,"
            f" over the limit of {HOOK_LIMIT * ROW_LIMIT}"
        )
    beads = [p + i for i, p in enumerate(reversed(lam))]
    held, hooks, heights, i = set(beads), 0, 0, len(beads) - 1
    while i >= 0:
        b = beads[i]
        if b < n or b - n in held:
            i -= 1
            continue
        top = b
        while top + n in held:
            top += n
        lo, hi = bisect_left(beads, b - n), bisect_left(beads, top)
        hooks, heights = hooks + (top - b) // n + 1, heights + hi - lo + 1
        del beads[hi]
        beads.insert(lo, b - n)
        held.remove(top)
        held.add(b - n)
        i = bisect_left(beads, b) - 1
    return CoreResult(tuple(p - j for j, p in enumerate(beads) if p > j)[::-1], hooks, heights)


StripKind = Literal["horizontal", "vertical"]


def strips(lam: Partition, size: int, kind: StripKind, max_rows: int) -> list[Partition]:
    """Partitions obtained by adding a strip of ``size`` cells to ``lam``.

    A horizontal strip has at most one new cell per column, a vertical strip
    at most one per row.  Results have at most ``max_rows`` rows (at most
    ``ROW_LIMIT``, else ValueError) and are found in lexicographic order.  The
    search enters only rows that can still finish a strip, so its work grows
    with the strips returned, times the rows for a vertical strip.

    >>> strips((1,), 2, "horizontal", 3)
    [(2, 1), (3,)]
    """
    lam = validate_partition(lam)
    size = require_int(size, "size", 1)
    if kind not in ("horizontal", "vertical"):
        raise ValueError(f"kind must be 'horizontal' or 'vertical', got {kind!r}")
    max_rows = _require_rows(require_int(max_rows, "max_rows", 0))
    if max_rows < max(len(lam), 1):
        return []
    horizontal = kind == "horizontal"
    found: list[Partition] = []

    def grow(i: int, budget: int, mu: list[int]) -> None:
        # Row i grows from lam_i by up to ``budget`` cells within lam_(i-1)
        # (horizontal) or one within mu_(i-1) (vertical), to at least what the
        # rows below cannot hold (lam_i - lam_(max_rows-1), or one each).
        if budget == 0:
            found.append(tuple(mu) + lam[i:])
            return
        lo = part(lam, i)
        hi = lo + (budget if horizontal else 1)
        least = budget + part(lam, max_rows - 1) if horizontal else lo + budget + i + 1 - max_rows
        if i:
            hi = min(hi, part(lam, i - 1) if horizontal else mu[i - 1])
        for v in range(max(lo, least), hi + 1):
            mu.append(v)
            grow(i + 1, budget - (v - lo), mu)
            mu.pop()

    grow(0, size, [])
    return found
