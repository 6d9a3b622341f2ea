"""Geometry validation and circulant/dense linear-algebra primitives.

Everything downstream (the boson closed forms, the operator quadrature and
the lattice determinants) goes through the small set of contracts defined
here: a validated interval layout, a palindromic symmetric circulant, the
replica-determinant kernel and base entropy of both entropy routes, the
boson's and the operator's, the reference quadratic form ``v M^{-1} v^T``
by a dense solve, the two cancellation-free logarithms that the
uniformization map's cross ratios are built from, and the two helpers by
which a batch of points carries a failed point as the exception in its slot.
``log_sinhc`` sums a complex batch over its numpy complex scalars, entry by
entry, so that each entry keeps the bits of a point-by-point call.
"""

from __future__ import annotations

import math
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
        # nan fails every comparison, and with L < a < b only b can be infinite
        if not (0.0 < self.L < self.a < self.b):
            raise GeometryError(
                f"need 0 < L < a < b, got L={self.L}, a={self.a}, b={self.b}"
            )
        if self.b == math.inf:
            raise GeometryError(f"the measured interval must end at a finite b, got b={self.b}")
        if not 0.0 < self.eps < math.inf:
            raise GeometryError(f"UV cutoff must be positive and finite, got eps={self.eps}")
        if int(self.n) != self.n or self.n < 1:
            raise GeometryError(f"replica count must be an integer >= 1, got {self.n}")
        if self.ell2 / (2.0 * self.eps) <= 1.0:
            warnings.warn(
                f"(b-a)/(2 eps) = {self.ell2 / (2 * self.eps):.3g} <= 1: "
                "logarithms change sign, cutoff-dominated regime",
                RegimeWarning,
                stacklevel=3,  # past the dataclass's generated __init__
            )

    @property
    def ell2(self) -> float:
        """Length of the measured interval B."""
        return self.b - self.a

    @property
    def d(self) -> float:
        """Gap between A and B."""
        return self.a - self.L


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


def replica_log_det(rows, m1):
    """log(det M / m1^n) and C_n - n C_1 for M = m1 + the circulant of each row.

    ``rows`` is a (B, n) stack of palindromic first rows with diagonal
    D = M_00 - m1, and ``m1`` holds the B single-copy diagonals. One FFT
    gives the row eigenvalues m1 delta_k, those of M being m1 (1 + delta_k).
    As the delta_k sum to n D / m1, the form
    n D / m1 + sum_k (log1p delta_k - delta_k) keeps full relative accuracy
    however small the log is, and -n s / (m1 (m1 + s)), s the row sum, keeps
    the digits of C_n - n C_1 at m1 ~ 1e10. A row's numbers do not depend on
    its stack. Returns both arrays and, per row, None or its exception: the
    palindrome error for a nan entry, complex eigenvalues, or an eigenvalue
    of M <= 0.
    """
    n = rows.shape[1]
    lam = np.fft.fft(rows)
    # a failing row may overflow on the way; it gets its exception instead
    with np.errstate(all="ignore"):
        delta = lam.real / m1[:, None]
        top, resid = np.abs(lam.real).max(axis=1), np.abs(lam.imag).max(axis=1)
        not_real = resid > IMAG_TOL * np.where(top > 1.0, top, 1.0)
        bad = np.isnan(rows[:, 1:]).any(axis=1) | not_real | (delta <= -1.0).any(axis=1)
        log_det = n * rows[:, 0] / m1 + np.sum(np.log1p(delta) - delta, axis=1)
        cn_excess = -n * lam[:, 0].real / (m1 * (m1 + lam[:, 0].real))
    failures = [None] * len(rows)
    for i in np.flatnonzero(bad):
        try:
            SymmetricCirculant(rows[i])  # a nan entry fails its palindrome check
            failures[i] = (ValueError(f"circulant eigenvalues not real, residue {resid[i]:.3e}")
                           if not_real[i] else
                           SingularMatrixError(f"non-positive replica eigenvalue at n = {n}"))
        except ValueError as exc:
            failures[i] = exc
    return log_det, cn_excess, failures


def renyi_entropy_base(g: Geometry, n: float) -> float:
    """Renyi entropy of A before any measurement, (1/6)(n+1)/n log(L/eps).

    The additive constant is non-universal and set to zero.
    """
    return (n + 1.0) / (6.0 * n) * np.log(g.L / g.eps)


def quadratic_form_cn(M: np.ndarray) -> float:
    """v M^{-1} v^T with v = (1, ..., 1), via a linear solve.

    The quantity controls the width of the measured-charge distribution in
    every replica computation, where it is n over a circulant's row sum; this
    solve is the reference. Complex input must give a real result up to ``IMAG_TOL``.
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


def _one(outcomes):
    """The single entry of a one-point batch, raising it if it is an exception."""
    (out,) = outcomes
    if isinstance(out, Exception):
        raise out
    return out


def _where_ok(outcomes, batch):
    """``batch`` applied, in one call, to the entries that are not exceptions."""
    ok = [i for i, x in enumerate(outcomes) if not isinstance(x, Exception)]
    out = list(outcomes)
    for i, y in zip(ok, batch([outcomes[i] for i in ok])):
        out[i] = y
    return out


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
    the last place at every y.

    A complex array sums the series entry by entry over its numpy complex
    scalars, as a point-by-point call does: its array loops use fused
    multiply-add and would round differently. The closed form runs only on
    the entries with |y| >= 1/2; the series serves the rest.
    """
    def series(z):
        out = 0.0
        for c in _LOG_SINHC:
            out = (out + c) * z
        return out

    if np.ndim(y) == 0:  # per point only in the adaptive test oracle, matrix_entry_remainder
        return series(y * y) if abs(y) < 0.5 else np.log(np.sinh(y) / y)
    if np.iscomplexobj(y):
        small = np.hypot(y.real, y.imag) < 0.5  # np.abs rounds unlike the scalar abs
        values = np.array([series(v * v) for v in y.ravel()], dtype=complex).reshape(y.shape)
    else:
        small, values = np.abs(y) < 0.5, series(y * y)
    far = ~small
    if far.any():
        values[far] = np.log(np.sinh(y[far]) / y[far])
    return values


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
