"""Exact Murnaghan–Nakayama rules in the Schur, Schubert, and quantum Schubert bases.

The package computes power-sum products three ways and lets each check the
others:

- ``symfun.mn_classical``: p_r * s_lambda by signed rim-hook additions,
  truncated to k variables.
- ``schubert.mn_schubert``: p_r(x_1..x_k) * S_w as a signed sum of Schubert
  polynomials indexed by (r+1)-cycles, found by walking saturated chains in
  the k-Bruhat order.
- ``quantum.quantum_mn``: p_r * sigma_lambda in the quantum cohomology of a
  Grassmannian, each bead of lambda's abacus stepping r places around a
  circle of n positions: a bead that wraps past n removes an (n-r)-rim
  hook and gives a q-term.

Supporting layers: ``partitions`` (rim hooks, strips, n-cores),
``poly`` (exact sparse integer polynomials), ``perm`` (permutations, k-Bruhat
covers), and the ``mnrules`` command-line tool (see ``cli``), whose
``--verify`` flags recompute a product by a second route: Monk's rule for
one variable for Schubert products, the reduction map psi for quantum ones.
The package holds no code that only tests call; the brute-force oracles the
test suite checks against live in ``tests/oracles.py``.
"""

from .partitions import (
    CoreResult,
    Partition,
    add_rim_hooks,
    box_partition,
    n_core,
    remove_rim_hooks,
    strips,
    validate_partition,
)
from .perm import (
    Permutation,
    canonical,
    inverse,
    k_bruhat_covers,
    length,
)
from .poly import SparsePoly
from .quantum import GrContext, psi_reduce, quantum_mn, quantum_mn_extended
from .schubert import (
    expand_in_schubert,
    grassmannian_permutation,
    mn_schubert,
    monk,
    schubert_poly,
)
from .symfun import mn_classical, pieri_e, pieri_h, power_sum_poly

__version__ = "0.1.0"

__all__ = [
    "CoreResult",
    "GrContext",
    "Partition",
    "Permutation",
    "SparsePoly",
    "add_rim_hooks",
    "box_partition",
    "canonical",
    "expand_in_schubert",
    "grassmannian_permutation",
    "inverse",
    "k_bruhat_covers",
    "length",
    "mn_classical",
    "mn_schubert",
    "monk",
    "n_core",
    "pieri_e",
    "pieri_h",
    "power_sum_poly",
    "psi_reduce",
    "quantum_mn",
    "quantum_mn_extended",
    "remove_rim_hooks",
    "schubert_poly",
    "strips",
    "validate_partition",
    "__version__",
]
