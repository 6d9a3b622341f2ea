"""Entanglement diagnostics of observable-projected ensembles.

Three mutually validating computational routes:

- ``cft_boson``: closed-form compact-boson results for charge measurements
  (replica covariance matrix, charged moments, Renyi ratios, Holevo bound,
  real-time decay),
- ``cft_operator``: fixed tensor Gauss rules and a closed-form flat
  add-back for generic Gaussian scalar/vector operators
  (measurement-induced entanglement, averaged purities, UV-finite
  overlap ratios),
- ``lattice``: exact free-fermion formulas for tight-binding and critical
  Ising chains, determinants on the charge block of number-conserving
  states and Pfaffians for paired ones, gated by a brute-force
  exact-diagonalization oracle on small systems.

Shared linear-algebra and geometry contracts live in ``core``; the
replica-index continuation to n -> 1 lives in ``continuation``; ``cli``
drives all of it. The package holds only what a command, another module
or the benchmark uses, down to the methods of its classes. The
independent checks that the tests compare the routes against (circulant
eigenvalues by one FFT of the row and determinants from them, closed-form C_n, the regularized flat integrals, ring
momentum sums, dense Fock operators, the per-point boson rows, the
Gaussian Renyi entropy from the occupations, and the ED Renyi entropy and
outcome-averaged entropy from the post-measurement states) live in
``tests/oracles.py``.
"""

from opens.core import Geometry, SymmetricCirculant, quadratic_form_cn

__all__ = ["Geometry", "SymmetricCirculant", "quadratic_form_cn"]

__version__ = "0.1.0"
