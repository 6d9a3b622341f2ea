"""Geometry validation and circulant/dense linear-algebra primitives.

Everything downstream (the boson closed forms, the operator quadrature and
the lattice determinants) goes through the small set of contracts defined
here: a validated interval layout, a palindromic symmetric circulant with
eigenvalue-product determinants, a solve-based quadratic form
``v M^{-1} v^T``, and the two cancellation-free logarithms that the
uniformization map's cross ratios are built from.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from opens.errors import GeometryError, RegimeWarning, SingularMatrixError

#: imaginary residue tolerated when a complex intermediate must be real
IMAG_TOL = 1e-10


@dataclass(frozen=True)
class Geometry:
    """Interval layout: A = [0, L] is probed, B = [a, b] is measured.

    Lengths are dimensionless (lattice units for the free-fermion checks).
    ``eps`` is the UV cutoff regularizing coincident insertions and ``n``
    the replica count.
    """

    L: float
    a: float
    b: float
    eps: float
    n: int = 1

    def __post_init__(self):
        if not (0.0 < self.L < self.a < self.b):
            raise GeometryError(
                f"need 0 < L < a < b, got L={self.L}, a={self.a}, b={self.b}"
            )
        if self.eps <= 0.0:
            raise GeometryError(f"UV cutoff must be positive, got eps={self.eps}")
        if int(self.n) != self.n or self.n < 1:
            raise GeometryError(f"replica count must be an integer >= 1, got {self.n}")
        if self.ell2 / (2.0 * self.eps) <= 1.0:
            warnings.warn(
                f"(b-a)/(2 eps) = {self.ell2 / (2 * self.eps):.3g} <= 1: "
                "logarithms change sign, cutoff-dominated regime",
                RegimeWarning,
                stacklevel=2,
            )

    @property
    def ell2(self) -> float:
        """Length of the measured interval B."""
        return self.b - self.a

    @property
    def d(self) -> float:
        """Gap between A and B."""
        return self.a - self.L

    def with_n(self, n: int) -> "Geometry":
        return Geometry(self.L, self.a, self.b, self.eps, n)


@dataclass(frozen=True)
class SymmetricCirculant:
    """Symmetric circulant matrix stored as its first row.

    The row must be palindromic, ``row[j] == row[n-j]`` for j = 1..n-1,
    which makes the dense expansion ``M[j, k] = row[(j-k) % n]`` symmetric.
    """

    row: tuple

    def __init__(self, row):
        row = tuple(float(x) for x in row)
        n = len(row)
        if n == 0:
            raise ValueError("empty circulant row")
        r = np.array(row)
        bad = np.flatnonzero(~np.isclose(r[1:], r[:0:-1], rtol=1e-12, atol=1e-12))
        if bad.size:
            j = bad[0] + 1
            raise ValueError(f"first row is not palindromic at j={j}: {row[j]!r} != {row[n - j]!r}")
        object.__setattr__(self, "row", row)

    @property
    def n(self) -> int:
        return len(self.row)

    def dense(self) -> np.ndarray:
        n = self.n
        r = np.asarray(self.row)
        idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
        return r[idx]

    def eigenvalues(self) -> np.ndarray:
        """Real circulant eigenvalues sum_j row[j] e^{2 pi i j k / n}."""
        lam = np.fft.fft(np.asarray(self.row))
        resid = np.abs(lam.imag).max()
        if resid > IMAG_TOL * max(1.0, np.abs(lam.real).max()):
            raise ValueError(f"circulant eigenvalues not real, residue {resid:.3e}")
        return lam.real


def circulant_determinant(c: SymmetricCirculant) -> float:
    """Determinant as the product of circulant eigenvalues.

    Accumulated in log space (sum of log |eigenvalue| plus a sign) so that
    rows with entries of order log(1/eps^2) do not overflow.
    """
    lam = c.eigenvalues()
    if np.any(lam == 0.0):
        return 0.0
    sign = 1.0 if np.count_nonzero(lam < 0) % 2 == 0 else -1.0
    return sign * float(np.exp(np.sum(np.log(np.abs(lam)))))


def circulant_inverse_row_sum(c: SymmetricCirculant) -> float:
    """Row sum of the inverse, sum_j (M^{-1})_{jl} = 1 / sum_m row[m].

    Column-independent because every row of a circulant sums identically.
    """
    s = float(np.sum(c.row))
    if s == 0.0:
        raise SingularMatrixError("circulant row sums to zero, inverse row sum undefined")
    return 1.0 / s


def quadratic_form_cn(M: np.ndarray) -> float:
    """v M^{-1} v^T with v = (1, ..., 1), via a linear solve.

    The quantity controls the width of the measured-charge distribution in
    every replica computation. Complex input is accepted; the result must
    be real up to ``IMAG_TOL``.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"square matrix required, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix contains non-finite entries")
    v = np.ones(M.shape[0], dtype=M.dtype)
    try:
        x = np.linalg.solve(M, v)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(
            f"singular matrix in quadratic form (cond ~ {np.linalg.cond(M):.3e})"
        ) from exc
    cond = np.linalg.cond(M)
    if cond > 1e14:
        raise SingularMatrixError(f"matrix numerically singular, cond = {cond:.3e}")
    val = complex(v @ x)
    if abs(val.imag) > IMAG_TOL * max(1.0, abs(val.real)):
        raise ValueError(f"quadratic form not real: {val!r}")
    return val.real



# log(sinh y / y) = sum_k (-1)^(k+1) zeta(2k) / (k pi^(2k)) y^(2k), highest
# power first; the twelve terms kept reach double precision for |y| < 1/2.
# Written out so that importing opens needs no special-function library; a test
# rebuilds them from scipy's zeta bit for bit.
_LOG_SINHC = (
    -9.754877841593711e-14,
    1.0502923908637565e-12,
    -1.1402575602296098e-11,
    1.2504359176005007e-10,
    -1.3884130493737307e-09,
    1.5661391322766993e-08,
    -1.803670234005332e-07,
    2.137779915557694e-06,
    -2.6455026455026466e-05,
    0.00035273368606701953,
    -0.005555555555555557,
    0.16666666666666669,
)


def log_sinhc(y):
    """log(sinh(y) / y) for real or complex y, accurate to a few units in
    the last place at every y."""
    z = y * y
    series = 0.0
    for c in _LOG_SINHC:
        series = (series + c) * z
    if np.ndim(y) == 0:  # per point only in the adaptive test oracle, matrix_entry_remainder
        return series if abs(y) < 0.5 else np.log(np.sinh(y) / y)
    small = np.abs(y) < 0.5
    safe = np.where(small, 1.0, y)
    return np.where(small, series, np.log(np.sinh(safe) / safe))


def log_ratio(w, q):
    """log q for a ratio q = 1 + w supplied in both forms.

    It is log1p(w) while |w| <= 1/2, which keeps the relative accuracy of a
    small w, and log q beyond, where 1 + w would lose that of a small q.
    Complex w takes log1p as 1/2 log1p(2x + x^2 + y^2) + i atan2(y, 1 + x):
    numpy's complex log1p forms log(1 + w) and loses a small w's digits.
    """
    far = np.abs(w) > 0.5
    w = np.where(far, 0.0, w)
    if np.iscomplexobj(w):
        x, y = w.real, w.imag
        near = 0.5 * np.log1p(x * (2.0 + x) + y * y) + 1j * np.arctan2(y, 1.0 + x)
    else:
        near = np.log1p(w)
    return np.where(far, np.log(q), near)[()]
