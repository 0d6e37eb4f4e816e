"""Power-sum multiplication in the quantum cohomology of the Grassmannian.

Classes in qH*(Gr(k, n)) are written in the Schubert-cycle basis indexed by
partitions inside the k x (n-k) box, with an extra grading variable q of
degree n.  A quantum class is a dict mapping (q_power, partition) to a
nonzero integer.
"""

from __future__ import annotations

import itertools
import operator
from typing import Callable

from .partitions import (
    CoreResult,
    Partition,
    _Record,
    add_rim_hooks,
    box_partition,
    leq,
    n_core,
    remove_rim_hooks,
    require_fits,
    validate_partition,
)
from .symfun import mn_classical

QuantumClass = dict[tuple[int, Partition], int]

# How many s_lam generators ideal_vanishing_check samples.
GENERATOR_SAMPLES = 20


class GrContext(_Record):
    """The Grassmannian Gr(k, n) of k-planes in n-space, 0 < k < n.

    k and n are read with ``operator.index``: integers (int subclasses
    included) pass, anything else raises ValueError.
    """

    __slots__ = ("k", "n")

    def __init__(self, k: int, n: int) -> None:
        try:
            k, n = operator.index(k), operator.index(n)
        except TypeError:
            raise ValueError(f"k and n must be integers, got k={k!r}, n={n!r}") from None
        if not 0 < k < n:
            raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
        set_k, set_n = self._setters
        set_k(self, k)
        set_n(self, n)

    @property
    def box(self) -> Partition:
        return box_partition(self.k, self.n)


def _require_in_box(lam: Partition, ctx: GrContext) -> Partition:
    lam = validate_partition(lam)
    if not leq(lam, ctx.box):
        raise ValueError(f"{lam} does not fit in the {ctx.k} x {ctx.n - ctx.k} box")
    return lam


def psi_sign(res: CoreResult, k: int) -> int:
    """The sign (-1)**(k*s - total height) that psi attaches to an n-core
    reached by s hooks (see :func:`psi_reduce`)."""
    return -1 if (k * res.hooks_removed - res.height_sum) % 2 else 1


def psi_reduce(lam: Partition, ctx: GrContext) -> QuantumClass:
    """Image of the Schur function s_lam (at most k rows) in qH*(Gr(k, n)).

    Strip rim hooks of size n down to the n-core.  If the core fits in the
    box the image is (-1)**(k*s - total height) q**s times that core's
    Schubert cycle, where s is the number of hooks removed; otherwise zero.
    """
    lam = require_fits(lam, ctx.k)
    res = n_core(lam, ctx.n)
    if not leq(res.core, ctx.box):
        return {}
    return {(res.hooks_removed, res.core): psi_sign(res, ctx.k)}


def quantum_mn(lam: Partition, r: int, ctx: GrContext) -> QuantumClass:
    """Multiply the Schubert cycle of lam by the power sum p_r in qH*(Gr(k, n)).

    Classical part: rim hooks of r cells added to lam inside the box, signed
    by (-1)**(height + 1).  Quantum part: rim hooks of n - r cells removed
    from lam, each contributing q with sign -(-1)**k * (-1)**(height + 1).
    Requires 1 <= r < n.
    """
    lam = _require_in_box(lam, ctx)
    if not 1 <= r < ctx.n:
        raise ValueError(f"need 1 <= r < n={ctx.n}, got r={r}")
    out: QuantumClass = {}
    for rec in add_rim_hooks(lam, r, ctx.k):
        if leq(rec.outer, ctx.box):
            out[(0, rec.outer)] = 1 if rec.height % 2 else -1
    for rec in remove_rim_hooks(lam, ctx.n - r):
        out[(1, rec.inner)] = 1 if (ctx.k + rec.height) % 2 == 0 else -1
    return out


def wrap_power_sum(
    rule: Callable[[Partition, int, GrContext], QuantumClass],
    lam: Partition,
    r: int,
    ctx: GrContext,
) -> QuantumClass:
    """Extend a p_r ``rule`` for 1 <= r < n to any r >= 1 not divisible by n.

    The power sum p_r acts as (-1)**k q times p_(r-n) whenever r > n, so the
    result is the base case shifted in q with a sign per full wrap.  r
    divisible by n is rejected: the recursion would bottom out at p_0, which
    is not a power sum.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    if r % ctx.n == 0:
        raise ValueError(f"r divisible by n={ctx.n} is not supported")
    wraps, base = divmod(r, ctx.n)
    sign = 1 if (ctx.k * wraps) % 2 == 0 else -1
    return {
        (d + wraps, mu): sign * c
        for (d, mu), c in rule(lam, base, ctx).items()
    }


def quantum_mn_extended(lam: Partition, r: int, ctx: GrContext) -> QuantumClass:
    """quantum_mn extended to any r >= 1 not divisible by n (see
    :func:`wrap_power_sum`)."""
    return wrap_power_sum(quantum_mn, lam, r, ctx)


def oracle_quantum_mn(lam: Partition, r: int, ctx: GrContext) -> QuantumClass:
    """Independent route to quantum_mn: multiply in the symmetric-function
    ring with k rows allowed to run past the box, then push every term
    through psi_reduce and collect."""
    lam = _require_in_box(lam, ctx)
    if not 1 <= r < ctx.n:
        raise ValueError(f"need 1 <= r < n={ctx.n}, got r={r}")
    out: QuantumClass = {}
    for mu, coeff in mn_classical(lam, r, ctx.k).items():
        for (d, core), sign in psi_reduce(mu, ctx).items():
            key = (d, core)
            c = out.get(key, 0) + coeff * sign
            if c:
                out[key] = c
            else:
                out.pop(key, None)
    return out


class GeneratorCheck(_Record):
    """One generator of the defining ideal, its expected and actual image."""

    __slots__ = ("name", "expected", "actual", "ok")

    def __init__(
        self, name: str, expected: QuantumClass, actual: QuantumClass, ok: bool
    ) -> None:
        set_name, set_expected, set_actual, set_ok = self._setters
        set_name(self, name)
        set_expected(self, expected)
        set_actual(self, actual)
        set_ok(self, ok)


def sampled_max_minus_min_partitions(ctx: GrContext, count: int) -> list[Partition]:
    """Deterministic sample of partitions with at most k rows whose first and
    k-th parts differ by exactly n - k + 1 (the quotient-ring generators)."""
    if ctx.k == 1:
        return []  # a single row has first part equal to last part
    gap = ctx.n - ctx.k + 1
    shapes = (
        (base + gap, *middle, base)
        for base in itertools.count()
        for middle in itertools.combinations_with_replacement(
            range(base + gap, base - 1, -1), ctx.k - 2
        )
    )
    return [validate_partition(lam) for lam in itertools.islice(shapes, max(count, 0))]


def ideal_vanishing_check(ctx: GrContext) -> list[GeneratorCheck]:
    """Check the quotient presentations of qH*(Gr(k, n)) on generators.

    h_j must map to zero for n - k < j < n, h_n must map to (-1)**(k+1) q,
    and the first ``GENERATOR_SAMPLES`` s_lam with lam_1 - lam_k = n - k + 1
    must map to zero.
    """
    checks: list[GeneratorCheck] = []
    for j in range(ctx.n - ctx.k + 1, ctx.n):
        got = psi_reduce((j,), ctx)
        checks.append(GeneratorCheck(f"h_{j}", {}, got, got == {}))
    got = psi_reduce((ctx.n,), ctx)
    expected: QuantumClass = {(1, ()): 1 if ctx.k % 2 else -1}
    checks.append(GeneratorCheck(f"h_{ctx.n}", expected, got, got == expected))
    for lam in sampled_max_minus_min_partitions(ctx, GENERATOR_SAMPLES):
        got = psi_reduce(lam, ctx)
        checks.append(GeneratorCheck(f"s_{list(lam)}", {}, got, got == {}))
    return checks


def quantum_class_to_json(qc: QuantumClass) -> list[dict]:
    return [
        {"coeff": qc[key], "q": key[0], "partition": list(key[1])}
        for key in sorted(qc)
    ]

