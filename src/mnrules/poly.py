"""Sparse multivariate polynomials with exact integer coefficients.

A polynomial is a dict from exponent tuples to nonzero ints.  Exponent tuples
never carry trailing zeros, so each monomial has a single stored form no
matter how many variables its polynomial mentions.  Variables are 1-indexed
in the textual form: x1, x2, x3, ...

Every expansion in the package is such a dict of nonzero ints, whatever its
keys, and ``_add`` is the one place that adds into one and drops the zeros.
"""

from __future__ import annotations

import operator
import re
from typing import Iterable, Mapping

from .partitions import require_int
from .perm import SUPPORT_LIMIT

Exponents = tuple[int, ...]


def _trim(exps: Iterable[int]) -> Exponents:
    e = tuple(exps)
    n = len(e)
    while n and e[n - 1] == 0:
        n -= 1
    return e[:n]


def _add(a: dict, b: dict, scale: int = 1) -> dict:
    """a + scale * b for dicts of nonzero ints, written into a.  A zero
    addend is safe: a key it would leave at 0 is dropped whether or not a
    held it."""
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


class SparsePoly:
    """Immutable-by-convention sparse polynomial over the integers.

    The constructor reads exponents and coefficients with ``operator.index``:
    floats, strings and fractions raise ValueError instead of being
    truncated.  Instances compare by value and, holding a dict, are
    unhashable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Iterable[int], int] | None = None):
        data: dict[Exponents, int] = {}
        for exps, coeff in (terms or {}).items():
            try:
                e = _trim(map(operator.index, exps))
                if any(x < 0 for x in e):
                    raise ValueError(f"negative exponent in {e}")
                coeff = operator.index(coeff)
            except TypeError:
                raise ValueError(
                    f"exponents and coefficients must be integers, got {exps}: {coeff!r}"
                ) from None
            _add(data, {e: coeff})
        self.terms = data

    @classmethod
    def _from_clean(cls, data: dict[Exponents, int]) -> "SparsePoly":
        """Wrap a dict that is already trimmed and zero-free."""
        p = object.__new__(cls)
        p.terms = data
        return p

    @classmethod
    def zero(cls) -> "SparsePoly":
        return cls._from_clean({})

    @classmethod
    def constant(cls, c: int) -> "SparsePoly":
        c = require_int(c, "c")
        return cls._from_clean({(): c} if c else {})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.terms == ({(): other} if other else {})
        if isinstance(other, SparsePoly):
            return self.terms == other.terms
        return NotImplemented

    def __neg__(self) -> "SparsePoly":
        return SparsePoly._from_clean({e: -c for e, c in self.terms.items()})

    def __add__(self, other: "SparsePoly | int") -> "SparsePoly":
        if isinstance(other, int):
            other = SparsePoly.constant(other)
        elif not isinstance(other, SparsePoly):
            return NotImplemented
        return SparsePoly._from_clean(_add(dict(self.terms), other.terms))

    def __sub__(self, other: "SparsePoly | int") -> "SparsePoly":
        if not isinstance(other, (int, SparsePoly)):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "SparsePoly | int") -> "SparsePoly":
        if isinstance(other, int):
            if other == 0:
                return SparsePoly.zero()
            return SparsePoly._from_clean({e: c * other for e, c in self.terms.items()})
        if not isinstance(other, SparsePoly):
            return NotImplemented
        data: dict[Exponents, int] = {}
        for ea, ca in self.terms.items():
            row = {}  # x^ea times other: distinct eb give distinct products
            for eb, cb in other.terms.items():
                tail = ea[len(eb):] if len(ea) >= len(eb) else eb[len(ea):]
                row[tuple(x + y for x, y in zip(ea, eb)) + tail] = cb
            _add(data, row, ca)
        return SparsePoly._from_clean(data)

    __rmul__ = __mul__

    def __str__(self) -> str:
        items = []
        for e in sorted(self.terms, key=lambda e: (-sum(e), tuple(-x for x in e))):
            c = self.terms[e]
            body = "*".join(f"x{i + 1}" if p == 1 else f"x{i + 1}^{p}" for i, p in enumerate(e) if p)
            # a constant term carries its magnitude in the body
            items.append((c, body) if body else (1 if c > 0 else -1, str(abs(c))))
        return join_signed(items)

    def __repr__(self) -> str:
        return f'SparsePoly("{self}")'

    _FACTOR_RE = re.compile(r"x(\d+)(?:\^(\d+))?$")

    @classmethod
    def parse(cls, text: str) -> "SparsePoly":
        """Inverse of ``str``: accepts forms like ``3*x1^2*x3 - x2 + 7``.

        A variable index over ``perm.SUPPORT_LIMIT`` raises ValueError
        before its exponent tuple is built.
        """
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty polynomial text")
        if "^-" in s:
            raise ValueError(f"negative exponent in {text!r}")
        s = s.replace("-", "+-")
        if s.startswith("+"):
            s = s[1:]
        terms: dict[Exponents, int] = {}
        for chunk in s.split("+"):
            if not chunk:
                raise ValueError(f"malformed polynomial: {text!r}")
            sign = 1
            if chunk.startswith("-"):
                sign, chunk = -1, chunk[1:]
            coeff = sign
            exps: dict[int, int] = {}
            for factor in chunk.split("*"):
                m = cls._FACTOR_RE.match(factor)
                if m:
                    i = int(m.group(1))
                    if i < 1:
                        raise ValueError(f"variables are 1-indexed: {factor!r}")
                    if i > SUPPORT_LIMIT:
                        raise ValueError(f"variable x{i} is over the limit of {SUPPORT_LIMIT}")
                    exps[i - 1] = exps.get(i - 1, 0) + int(m.group(2) or 1)
                elif factor.isdigit():
                    coeff *= int(factor)
                elif not factor:
                    raise ValueError(f"malformed polynomial: {text!r}")
                else:
                    raise ValueError(f"bad factor {factor!r} in {text!r}")
            vec = [0] * (max(exps) + 1 if exps else 0)
            for i, p in exps.items():
                vec[i] = p
            _add(terms, {_trim(vec): coeff})
        return cls._from_clean(terms)
