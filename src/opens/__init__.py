"""Entanglement diagnostics of observable-projected ensembles.

Three mutually validating computational routes:

- ``cft_boson``: closed-form compact-boson results for charge measurements
  (replica covariance matrix, charged moments, Renyi ratios, Holevo bound,
  real-time decay),
- ``cft_operator``: fixed tensor Gauss rules and a closed-form flat
  add-back for generic Gaussian scalar/vector operators (q-resolved
  purities, measurement-induced entanglement, UV-finite overlap ratios),
- ``lattice``: exact free-fermion Pfaffian formulas for tight-binding
  and critical Ising chains, gated by a brute-force exact-diagonalization
  oracle on small systems.

Shared linear-algebra and geometry contracts live in ``core``; the
replica-index continuation to n -> 1 lives in ``continuation``.
"""

from opens.core import (
    Geometry,
    SymmetricCirculant,
    circulant_determinant,
    circulant_inverse_row_sum,
    quadratic_form_cn,
)

__all__ = [
    "Geometry",
    "SymmetricCirculant",
    "circulant_determinant",
    "circulant_inverse_row_sum",
    "quadratic_form_cn",
]

__version__ = "0.1.0"
