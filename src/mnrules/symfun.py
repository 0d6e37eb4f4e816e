"""Schur expansions in k variables: Pieri rules and power-sum products.

A Schur expansion is a dict mapping partitions to nonzero integer
coefficients.  All products here live in the ring of symmetric polynomials in
x_1..x_k, so partitions with more than k rows never appear.
"""

from __future__ import annotations

from . import poly
from .partitions import (
    Partition,
    _require_rows,
    add_rim_hooks,
    require_fits,
    require_int,
    strips,
    validate_partition,
)

SchurExpansion = dict[Partition, int]


def pieri_e(lam: Partition, a: int, k: int) -> SchurExpansion:
    """Multiply s_lam by the elementary e_a in k variables.

    The result sums s_mu over mu obtained by adding a vertical strip of a
    cells, truncated to partitions with at most k rows.
    """
    lam, a = validate_partition(lam), require_int(a, "a", 1)
    lam, k = require_fits(lam, k)
    return {mu: 1 for mu in strips(lam, a, "vertical", k)}


def pieri_h(lam: Partition, b: int, k: int) -> SchurExpansion:
    """Multiply s_lam by the complete homogeneous h_b in k variables."""
    lam, b = validate_partition(lam), require_int(b, "b", 1)
    lam, k = require_fits(lam, k)
    return {mu: 1 for mu in strips(lam, b, "horizontal", k)}


def mn_classical(lam: Partition, r: int, k: int) -> SchurExpansion:
    """Multiply s_lam by the power sum p_r in k variables.

    Each mu that adds a rim hook of r cells to lam (within k rows)
    contributes sign (-1)**(height + 1).  Multiplicity-free by construction.
    With an int k >= 0, ``add_rim_hooks`` is the one check of lam and r,
    and it finds no hook only when lam has more than k rows or k is 0.
    """
    if type(k) is not int or k < 0:  # add_rim_hooks would name k max_rows
        lam, r = validate_partition(lam), require_int(r, "r", 1)
        k = require_int(k, "k", 0)
    hooks = add_rim_hooks(lam, r, k)
    if not hooks:
        require_fits(lam, k)
    return {mu: 1 if height % 2 else -1 for mu, height in hooks}


def power_sum_poly(r: int, k: int) -> poly.SparsePoly:
    """p_r(x_1..x_k) = x_1^r + ... + x_k^r, for k at most ``ROW_LIMIT``."""
    r, k = require_int(r, "r", 1), _require_rows(require_int(k, "k", 1))
    return poly.SparsePoly._from_clean({(0,) * i + (r,): 1 for i in range(k)})
