"""Partition and skew-shape combinatorics: strips, rim hooks, n-cores.

Partitions are tuples of weakly decreasing positive integers; the empty tuple
is the empty partition.  Cells of the Young diagram are (row, col) pairs with
0-based indices, and the diagonal of a cell is col - row.  Everything here is
a pure function on immutable values.

Adding a rim hook, removing one, and stripping down to the n-core all run on
one beta-number (abacus) kernel, :func:`_bead_moves`: with m beads, row i of
lam sits at lam_i + m - 1 - i, and an r-hook is one bead moving r places to
an empty position (James-Kerber, The Representation Theory of the Symmetric
Group, ch. 2).  :func:`is_rim_hook` and :func:`rim_hook_height` work from the
cells instead, so tests can use them as certificates.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, Literal

Partition = tuple[int, ...]

# Size limits on what a call may build from its integer arguments, which come
# from the command line: an abacus or a strip search of more than ROW_LIMIT
# rows (a strip search recurses once per row), and an n-core search that may
# strip more than HOOK_LIMIT hooks.
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
    while lam and lam[-1] == 0:
        lam = lam[:-1]
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


def leq(a: Partition, b: Partition) -> bool:
    """Containment of Young diagrams: every row of ``a`` fits inside ``b``.

    >>> leq((3, 1), (5, 4, 3, 1))
    True
    >>> leq((1, 1), (2,))
    False
    """
    return len(a) <= len(b) and all(x <= y for x, y in zip(a, b))


def box_partition(k: int, n: int) -> Partition:
    """The k-row rectangle with rows of length n - k (k at most ``ROW_LIMIT``).

    >>> box_partition(2, 5)
    (3, 3)
    """
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    _require_rows(k)
    return (n - k,) * k


def skew_cells(inner: Partition, outer: Partition) -> list[tuple[int, int]]:
    """Cells of outer/inner as (row, col) pairs in row-major order."""
    if not leq(inner, outer):
        raise ValueError(f"{inner} is not contained in {outer}")
    return [
        (r, c)
        for r in range(len(outer))
        for c in range(part(inner, r), outer[r])
    ]


def is_rim_hook(inner: Partition, outer: Partition) -> bool:
    """True when outer/inner is a nonempty rim hook.

    A rim hook meets a consecutive run of diagonals, one cell on each.

    >>> is_rim_hook((1,), (2, 1))
    False
    >>> is_rim_hook((1,), (1, 1, 1))
    True
    """
    cells = skew_cells(inner, outer)
    if not cells:
        return False
    diags = [c - r for r, c in cells]
    return len(set(diags)) == len(diags) and max(diags) - min(diags) + 1 == len(diags)


def rim_hook_height(inner: Partition, outer: Partition) -> int:
    """Number of rows the rim hook outer/inner occupies."""
    if not is_rim_hook(inner, outer):
        raise ValueError(f"{outer}/{inner} is not a rim hook")
    return len({r for r, _ in skew_cells(inner, outer)})


class _Record:
    """Base of the library's immutable records, driven by a subclass's
    ``__slots__``: compared (only with a record of the same class), hashed,
    printed, copied and pickled by its fields, in slot order.

    A subclass's ``__init__`` fills each field once through ``_setters``, the
    slot descriptors' setters; after that, assigning or deleting a field
    raises AttributeError.  This is what a frozen dataclass gives, without
    importing ``dataclasses`` (and ``inspect``) on every CLI start.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._setters = tuple(getattr(cls, f).__set__ for f in cls.__slots__)
        cls.__match_args__ = cls.__slots__

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class RimHookRecord(_Record):
    """One way of adding (or removing) a rim hook: inner <= outer."""

    __slots__ = ("inner", "outer", "size", "height")

    def __init__(self, inner: Partition, outer: Partition, size: int, height: int) -> None:
        set_inner, set_outer, set_size, set_height = self._setters
        set_inner(self, inner)
        set_outer(self, outer)
        set_size(self, size)
        set_height(self, height)


def _bead_moves(lam: Partition, shift: int, beads: int) -> Iterator[tuple[Partition, int]]:
    """Move one bead of lam's abacus by ``shift``: yield (new shape, hook height).

    With m = ``beads`` >= len(lam), row i of lam puts a bead at
    lam_i + m - 1 - i.  A bead at b moving to an empty b + shift >= 0 adds
    (shift > 0) or removes (shift < 0) a rim hook of |shift| cells, and the
    hook's height is 1 + the number of beads strictly between b and
    b + shift.  Moves come largest bead first, which is the hook whose top
    row is highest.
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


def add_rim_hooks(lam: Partition, r: int, max_rows: int) -> list[RimHookRecord]:
    """All ways to grow ``lam`` by a rim hook of ``r`` cells within ``max_rows`` rows.

    On the abacus of ``max_rows`` beads, each bead that can move up by r to
    an empty position gives one hook (see :func:`_bead_moves`).  Records are
    sorted lexicographically by outer shape.  ``max_rows`` over
    ``ROW_LIMIT`` raises ValueError.

    >>> [(rec.outer, rec.height) for rec in add_rim_hooks((1,), 2, 3)]
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
    found = [RimHookRecord(lam, mu, r, h) for mu, h in _bead_moves(lam, r, max_rows)]
    found.sort(key=lambda rec: rec.outer)
    return found


def remove_rim_hooks(lam: Partition, r: int) -> list[RimHookRecord]:
    """All ways to strip a rim hook of ``r`` cells from ``lam``.

    On the abacus of len(lam) beads, each bead that can move down by r to an
    empty position >= 0 gives one hook.  Records are sorted
    lexicographically by inner shape.

    >>> [(rec.inner, rec.height) for rec in remove_rim_hooks((2, 2), 3)]
    [((1,), 2)]
    """
    lam = validate_partition(lam)
    if r < 1:
        raise ValueError(f"rim hook size must be positive, got {r}")
    found = [RimHookRecord(nu, lam, r, h) for nu, h in _bead_moves(lam, -r, len(lam))]
    found.sort(key=lambda rec: rec.inner)
    return found


class CoreResult(_Record):
    """Outcome of stripping rim hooks of a fixed size until stuck."""

    __slots__ = ("core", "hooks_removed", "height_sum")

    def __init__(self, core: Partition, hooks_removed: int, height_sum: int) -> None:
        set_core, set_hooks_removed, set_height_sum = self._setters
        set_core(self, core)
        set_hooks_removed(self, hooks_removed)
        set_height_sum(self, height_sum)


def n_core(lam: Partition, n: int) -> CoreResult:
    """Strip rim hooks of ``n`` cells from ``lam`` until none remains.

    Each step moves the largest bead that can drop by n, which removes the
    hook whose top row is highest.  The resulting core, the number of hooks,
    and the parity of the total height do not depend on the removal order;
    only this policy's height_sum is reported.  At most |lam| / n hooks
    come off, and a bound over ``HOOK_LIMIT`` raises ValueError.

    >>> n_core((2, 1, 1), 4)
    CoreResult(core=(), hooks_removed=1, height_sum=3)
    >>> n_core((2, 2), 4).core  # the full rim holds a 2x2 square: no 4-hook
    (2, 2)
    """
    lam = validate_partition(lam)
    if n < 2:
        raise ValueError(f"hook size must be at least 2, got {n}")
    if sum(lam) // n > HOOK_LIMIT:
        raise ValueError(
            f"may strip up to {sum(lam) // n} hooks, over the limit of {HOOK_LIMIT}"
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


if __name__ == "__main__":
    import doctest

    doctest.testmod()
