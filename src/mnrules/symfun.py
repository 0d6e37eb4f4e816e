"""Schur expansions in k variables: Pieri rules and power-sum products.

A Schur expansion is a dict mapping partitions to nonzero integer
coefficients.  All products here live in the ring of symmetric polynomials in
x_1..x_k, so partitions with more than k rows never appear.
"""

from __future__ import annotations

from .partitions import (
    ROW_LIMIT,
    Partition,
    add_rim_hooks,
    require_fits,
    strips,
)
from .poly import SparsePoly

SchurExpansion = dict[Partition, int]


def pieri_e(lam: Partition, a: int, k: int) -> SchurExpansion:
    """Multiply s_lam by the elementary e_a in k variables.

    The result sums s_mu over mu obtained by adding a vertical strip of a
    cells, truncated to partitions with at most k rows.
    """
    lam = require_fits(lam, k)
    if a < 1:
        raise ValueError(f"need a >= 1, got {a}")
    return {mu: 1 for mu in strips(lam, a, "vertical", k)}


def pieri_h(lam: Partition, b: int, k: int) -> SchurExpansion:
    """Multiply s_lam by the complete homogeneous h_b in k variables."""
    lam = require_fits(lam, k)
    if b < 1:
        raise ValueError(f"need b >= 1, got {b}")
    return {mu: 1 for mu in strips(lam, b, "horizontal", k)}


def mn_classical(lam: Partition, r: int, k: int) -> SchurExpansion:
    """Multiply s_lam by the power sum p_r in k variables.

    Each mu that adds a rim hook of r cells to lam (within k rows)
    contributes sign (-1)**(height + 1).  Multiplicity-free by construction.
    With r and k in range, ``add_rim_hooks`` is the one check of lam, and it
    finds no hook only when lam has more than k rows or k is 0.
    """
    if r < 1 or not 0 <= k <= ROW_LIMIT:
        lam = require_fits(lam, k)  # lam's own errors come first
        if r < 1:
            raise ValueError(f"need r >= 1, got {r}")
    hooks = add_rim_hooks(lam, r, k)
    if not hooks:
        require_fits(lam, k)
    return {mu: 1 if height % 2 else -1 for mu, height in hooks}


def power_sum_poly(r: int, k: int) -> SparsePoly:
    """p_r(x_1..x_k) = x_1^r + ... + x_k^r."""
    if r < 1 or k < 1:
        raise ValueError(f"need r, k >= 1, got r={r}, k={k}")
    return SparsePoly({(0,) * i + (r,): 1 for i in range(k)})
