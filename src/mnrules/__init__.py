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

Supporting layers: ``partitions`` (rim hooks, strips, n-cores, and the
helpers every layer shares), ``poly`` (exact sparse integer polynomials),
``perm`` (permutations, k-Bruhat covers), and the ``mnrules`` command-line
tool (see ``cli``), whose ``--verify`` flags recompute a product by a
second route: Monk's rule for one variable for Schubert products, the
reduction map psi for quantum ones.
The package holds no code that only tests call; the brute-force oracles the
test suite checks against live in ``tests/oracles.py``.

Submodules load on first use.  ``import mnrules`` runs none of them: it puts
a lazy module for each in ``sys.modules["mnrules.<name>"]`` and on the
package, and the first attribute read on that module, or on one of its
exports such as ``mnrules.quantum_mn``, runs it.  Until then ``type()`` of
the lazy module is not ``types.ModuleType``.  A first touch from several
threads at once is safe only where ``importlib.util.LazyLoader`` takes a
lock around the load.  CPython added that lock for 3.13 (gh-114763); 3.10.13,
3.11.7 and 3.12.1 lack it, and a later patch release of 3.11 or 3.12 may
carry it.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# Each library submodule and the names the package exports from it.
_EXPORTS = {
    "partitions": (
        "CoreResult",
        "Partition",
        "add_rim_hooks",
        "box_partition",
        "n_core",
        "remove_rim_hooks",
        "strips",
        "validate_partition",
    ),
    "perm": ("Permutation", "canonical", "inverse", "k_bruhat_covers", "length"),
    "poly": ("SparsePoly",),
    "quantum": ("GrContext", "psi_reduce", "quantum_mn", "quantum_mn_extended"),
    "schubert": (
        "expand_in_schubert",
        "grassmannian_permutation",
        "mn_schubert",
        "monk",
        "schubert_poly",
    ),
    "symfun": ("mn_classical", "pieri_e", "pieri_h", "power_sum_poly"),
}

__all__ = [*sorted(name for names in _EXPORTS.values() for name in names), "__version__"]


class _ExportingLoader:
    """Runs a submodule through its own loader, then binds the module's
    exports in the package namespace.  Bound there, not cached by
    ``__getattr__``, each export is a plain attribute: a tracer that rebinds
    one and later restores it leaves no copy of its wrapper behind."""

    def __init__(self, loader, names: tuple[str, ...]) -> None:
        self.loader, self.names = loader, names

    def exec_module(self, module) -> None:
        self.loader.exec_module(module)
        space = vars(module)
        globals().update((name, space[name]) for name in self.names)


def _lazy(name: str):
    """The submodule ``name``, registered in ``sys.modules`` but not yet run."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    importlib.util.LazyLoader(_ExportingLoader(spec.loader, _EXPORTS[name])).exec_module(module)
    return module


globals().update((name, _lazy(name)) for name in _EXPORTS)


def __getattr__(name: str):
    """An export not bound yet: load its submodule, which binds it here."""
    for module, names in _EXPORTS.items():
        if name in names:
            return getattr(globals()[module], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
