"""Replica covariances for generic Gaussian operators by fixed Gauss rules.

When the measured observable is not the conserved charge but a scalar
primary of dimension (h_s/2, h_s/2) or a Hermitian vector built from
weights (1 + h_v/2, h_v/2), the replica covariance matrix M no longer has
a closed form: its entries are double integrals of the mapped two-point
function over B = [a, b] on each pair of replica branches. Off-diagonal
entries are finite; the diagonal carries the flat two-point divergence,
removed by subtracting the plane correlator and re-adding its regularized
interval integral in closed form (``flat_integral_exact``).

``build_M_operator`` evaluates every entry in one numpy pass with a fixed
tensor Gauss rule in y = log(x - L), which sends the branch point x = L to
-inf, so a small gap costs no extra nodes. Off-diagonal entries use
Gauss-Legendre on the (y1, y2) square. The subtracted diagonal uses
Gauss-Jacobi in sigma = y1 - y2 with the weight sigma^beta of its
coincident-point behaviour and Gauss-Legendre in y2; its kernel is formed
from log r, r = j1 j2 (x1 - x2)^2 / (u1 - u2)^2, with no cancellation. The
rule runs at N and 2N nodes per axis and their difference is the error
estimate. Nothing on this path calls adaptive quadrature: the nested
``quad`` entries ``matrix_entry_offdiag`` and ``matrix_entry_remainder``
are kept only as the independent check that the tests compare against.
Gauss-Jacobi rules come from an in-repo Golub-Welsch eigensolve
(``_gauss_jacobi``), so the route loads no scipy special functions.

One ``OperatorMatrix`` per (geometry, n) feeds every ensemble diagnostic:
C_n as n over the row sum of M, the entropy correction by
``core.replica_log_det`` as the boson's, overlap generating functions, the
averaged purity and the UV-finite ratios, all read from M's first row,
with no dense solve. Only its add-back ``m11`` reads the cutoff
``eps_reg``, so ``dataclasses.replace(om, eps_reg=...)`` is the same
matrix at another eps.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from opens.core import (Geometry, SymmetricCirculant, _one, log_ratio, log_sinhc,
                        renyi_entropy_base, replica_log_det)
from opens.core import quadratic_form_cn  # noqa: F401 - perfbench's traced run looks it up here
from opens.errors import QuadratureError, SingularMatrixError

#: nodes per axis of the coarse tensor rule; the fine rule doubles it
GAUSS_NODES = 32


@dataclass(frozen=True)
class OperatorSpec:
    """Measured observable: ``scalar`` with total dimension h_s in (0, 3/2),
    or ``vector`` with h_v in [0, 1/2).

    Correlators are normalized to unit coefficient; a global prefactor
    would only rescale the outcome distribution. Above the stated bounds
    the operator is too irrelevant and the interval integrals stop being
    regularizable by a single flat subtraction.
    """

    kind: str
    weight: float

    def __post_init__(self):
        if self.kind not in ("scalar", "vector"):
            raise ValueError(f"kind must be 'scalar' or 'vector', got {self.kind!r}")
        if self.kind == "scalar" and not (0.0 < self.weight < 1.5):
            raise ValueError(f"scalar weight must lie in (0, 3/2), got {self.weight}")
        if self.kind == "vector" and not (0.0 <= self.weight < 0.5):
            raise ValueError(f"vector weight must lie in [0, 1/2), got {self.weight}")


@dataclass(frozen=True)
class QuadratureConfig:
    """Point-splitting cutoff and the bound ``_check_converged`` puts on the
    tensor rule's N-vs-2N difference (the test oracles' ``quad`` tolerance)."""

    eps_reg: float = 1e-4
    tol: float = 1e-10

    def __post_init__(self):
        # nan fails both checks: a nan tol would switch _check_converged off
        if not 0.0 < self.eps_reg < math.inf:
            raise ValueError(f"eps_reg must be positive and finite, got eps_reg={self.eps_reg}")
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tolerance must be positive and finite, got tol={self.tol}")


# ---------------------------------------------------------------------------
# uniformization map helpers


def _u(x, L, n):
    return (x / (x - L)) ** (1.0 / n)


def _du_abs(x, L, n):
    # |dw/dx|; the derivative itself is negative on (L, inf)
    return _u(x, L, n) * L / (n * x * (x - L))


def _log_r(x2, x2_off, s, L, n):
    """log r for r = j1 j2 s^2 / (u1 - u2)^2 at x1 = x2 + s, s >= 0.

    ``x2_off`` is x2 - L, passed in because each caller has it more
    accurately than x2 - L would give near the branch point. With
    q = (x1 / x2) ((x2 - L) / (x1 - L)), so that 1 - q = L s / (x2 (x1 - L)),
    and lam = log q, taken as log1p(-(1 - q)) unless q < 1/2, the ratio
    is (sinhc(lam / 2) / sinhc(lam / 2n))^2. So log r is a difference of two
    log sinhc values, with no cancellation at small s, and exactly 0 at
    n = 1, where the map is Mobius. Its leading term is the Schwarzian
    (1 - 1/n^2) L^2 s^2 / (12 x^2 (x - L)^2).
    """
    x1_off = x2_off + s
    lam = log_ratio(-L * s / (x2 * x1_off), ((x2 + s) / x2) * (x2_off / x1_off))
    return 2.0 * (log_sinhc(0.5 * lam) - log_sinhc(0.5 * lam / n))


def _remainder_power(spec: OperatorSpec):
    """(p, c) with diagonal kernel c (j1 j2)^p |u1 - u2|^(-2p) and flat limit
    c |x1 - x2|^(-2p)."""
    if spec.kind == "scalar":
        return spec.weight, 1.0
    return 1.0 + spec.weight, -2.0


# ---------------------------------------------------------------------------
# flat-interval integrals


def __getattr__(name):
    # scipy.integrate, and the scipy.optimize it imports, load on first use:
    # only the test oracles below call quad
    if name == "integrate":
        global integrate
        from scipy import integrate
        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _quad(func, lo, hi, cfg: QuadratureConfig, points=None, what=""):
    # full output returns QUADPACK's message instead of warning, so the
    # check below decides whatever the warning filters; the attribute
    # lookup goes through __getattr__ and sees any replacement of it
    val, abserr = sys.modules[__name__].integrate.quad(
        func,
        lo,
        hi,
        epsabs=cfg.tol,
        epsrel=cfg.tol,
        limit=400,
        points=points,
        full_output=1,
    )[:2]
    _check_converged(val, abserr, cfg, what)
    return val


def _check_converged(val, abserr, cfg: QuadratureConfig, what: str):
    if not (np.isfinite(val) and np.isfinite(abserr)):
        raise QuadratureError(f"non-finite quadrature result for {what}")
    # the reported estimate is often conservative on peaked kernels; only a
    # result whose error rivals its magnitude counts as non-convergence
    if abserr > max(200.0 * cfg.tol, 1e-5 * abs(val)):
        raise QuadratureError(
            f"quadrature for {what} did not converge: value {val:.6e}, "
            f"error estimate {abserr:.2e}"
        )


def _exprel(x) -> float:
    """(e^x - 1) / x, with its limit 1 for |x| < 1e-16 and inf where e^x overflows:
    scipy's definition of exprel, which this matches to 1 ulp."""
    if abs(x) < 1e-16:
        return 1.0
    try:
        return math.expm1(x) / x
    except OverflowError:
        return math.inf


def _jacobi_integral(f, a, beta):
    """int_0^a t^beta f(t) dt for f smooth on [0, a], by the Gauss-Jacobi rule."""
    z, w = _gauss_jacobi(GAUSS_NODES, beta)
    half = 0.5 * a
    return half ** (beta + 1.0) * (w @ f(half * (1.0 + z)))


def _split_integral(head, head_beta, tail, tail_beta, pole, X):
    """int_0^X of an integrand split at x = 1, with no adaptive quadrature.

    Below x1 = min(X, 1) the integrand is x^head_beta head(x). Beyond 1 it is
    x^pole plus a rest with rest(1/t) / t^2 = t^tail_beta tail(t), so the
    pole part integrates to log(X) exprel((pole + 1) log X) and the rest is
    taken on [1/X, 1] in t. At X <= 1 both vanish identically.
    """
    x1, xt = min(X, 1.0), max(X, 1.0)
    lx = np.log(xt)
    return (_jacobi_integral(head, x1, head_beta)
            + lx * _exprel((pole + 1.0) * lx)
            + _jacobi_integral(tail, 1.0, tail_beta)
            - _jacobi_integral(tail, 1.0 / xt, tail_beta))


def flat_integral_exact(spec: OperatorSpec, length: float, eps: float) -> float:
    """Regularized flat integral evaluated exactly at finite eps.

    Scalar: kernel (s^2 + eps^2)^{-h}; vector: the chirality-preserving
    kernel -2 Re (s + i eps)^{-2} |s|^{-2 h}. Used as the analytic
    add-back on the diagonal of the replica matrix so that the only cutoff
    dependence of M is this closed one-dimensional integral.

    With X = length / eps the scalar integral is
    2 eps^(2-2h) [X J0 - J1], J0 = int_0^X (1 + x^2)^(-h) dx and
    J1 = ((1 + X^2)^(1-h) - 1) / (2 (1 - h)); the vector integral, after
    integrating by parts, is 4 eps^(-2h) [(1 - 2h) K(1 - 2h) + 2h X K(-2h)]
    with K(c) = int_0^X x^c / (1 + x^2) dx. Each piece is an exprel closed
    form or a Gauss-Jacobi sum with exponent >= 0, accurate to a few ulps at
    every weight, h_s = 1/2, 1 and h_v = 0 included.
    """
    X, h = float(length) / eps, spec.weight
    if spec.kind == "scalar":
        # (1 + t^2)^(-h) - 1 = t^2 g(t), g smooth with g(0) = -h
        g = lambda t: np.expm1(-h * np.log1p(t * t)) / (t * t)
        j0 = _split_integral(lambda x: np.exp(-h * np.log1p(x * x)), 0.0, g, 2.0 * h, -2.0 * h, X)
        l1 = np.log1p(X * X)
        j1 = 0.5 * l1 * _exprel((1.0 - h) * l1)
        return float(2.0 * eps ** (2.0 - 2.0 * h) * (X * j0 - j1))

    # x^c / (1 + x^2) is x^c - x^(c+2) / (1 + x^2) below 1 and
    # x^(c-2) - x^(c-4) / (1 + x^-2) beyond
    neg_lorentz = lambda x: -1.0 / (1.0 + x * x)
    K = lambda c: (min(X, 1.0) ** (c + 1.0) / (c + 1.0)
                   + _split_integral(neg_lorentz, c + 2.0, neg_lorentz, 2.0 - c, c - 2.0, X))
    return float(4.0 * eps ** (-2.0 * h) * ((1.0 - 2.0 * h) * K(1.0 - 2.0 * h)
                                           + 2.0 * h * X * K(-2.0 * h)))


# ---------------------------------------------------------------------------
# replica matrix entries


def _offdiag_integrand(s, mm, m, g: Geometry, spec: OperatorSpec):
    x1, x2 = mm + s / 2.0, mm - s / 2.0
    n, L = g.n, g.L
    u1, u2 = _u(x1, L, n), _u(x2, L, n)
    j1, j2 = _du_abs(x1, L, n), _du_abs(x2, L, n)
    if spec.kind == "scalar":
        h = spec.weight
        den = u1 * u1 + u2 * u2 - 2.0 * u1 * u2 * np.cos(2.0 * np.pi * m / n)
        return (j1 * j2) ** h / den**h
    h = spec.weight
    ph = np.exp(1j * np.pi * m / n)
    d = ph * u1 - u2 / ph
    return 2.0 * np.real(-(j1 * j2) / d**2) * (j1 * j2) ** h / np.abs(d) ** (2.0 * h)


def _remainder_integrand(s, mm, g: Geometry, spec: OperatorSpec):
    """Diagonal integrand minus its flat limit, c |s|^(-2p) (r^p - 1)."""
    p, c = _remainder_power(spec)
    s = abs(s)  # r is symmetric in x1 <-> x2
    log_r = _log_r(mm - s / 2.0, (mm - g.L) - s / 2.0, s, g.L, g.n)
    return c * s ** (-2.0 * p) * np.expm1(p * log_r)


def _nested_quad(inner, g: Geometry, cfg: QuadratureConfig, what: str) -> float:
    """int over s in [-(b - a), b - a] and midpoints mm of inner(s, mm), both by
    adaptive quad; the outer rule splits at s = 0 and never evaluates there."""
    a, b = g.a, g.b
    inner_cfg = replace(cfg, tol=cfg.tol / 10.0)

    def outer(s):
        return _quad(lambda mm: inner(s, mm), a + abs(s) / 2.0, b - abs(s) / 2.0, inner_cfg,
                     what=f"{what} (inner)")

    return _quad(outer, -(b - a), b - a, cfg, points=[0.0], what=what)


def matrix_entry_remainder(g: Geometry, spec: OperatorSpec, cfg: QuadratureConfig) -> float:
    """Diagonal entry with the flat kernel subtracted (cutoff-independent)."""
    return _nested_quad(lambda s, mm: _remainder_integrand(s, mm, g, spec), g, cfg,
                        "diagonal remainder")


def matrix_entry_offdiag(g: Geometry, spec: OperatorSpec, m: int, cfg: QuadratureConfig) -> float:
    """Entry at branch offset m != 0 (finite, no regulator needed)."""
    return _nested_quad(lambda s, mm: _offdiag_integrand(s, mm, m, g, spec), g, cfg,
                        f"entry m={m}")


# ---------------------------------------------------------------------------
# tensor Gauss rule in y = log(x - L)


@lru_cache(maxsize=64)
def _gauss_jacobi(N: int, beta: float):
    """Read-only nodes and weights on [-1, 1] for the weight (1 + z)^beta.

    Golub-Welsch (Math. Comp. 23, 221 (1969)): the nodes are the
    eigenvalues of the symmetric Jacobi matrix of the Jacobi polynomials
    P^(0, beta), and the weights are mu0 v0^2, with v0 the first components
    of its unit eigenvectors and mu0 = 2^(beta + 1) / (beta + 1) the mass of
    the weight. At N = 32 to 128 and beta in (-1, 3) the rule integrates
    (1 + z)^(beta + j), j < 60, to about 1e-14 relative, the rounding of the
    top node's eigenvector component; its nodes agree with scipy's
    ``roots_jacobi`` to 1e-15, whose moments are up to 3.6e-10 off at
    beta = -0.9.
    """
    k = np.arange(N, dtype=float)
    s = 2.0 * k + beta
    diag = np.empty(N)
    diag[0] = beta / (beta + 2.0)
    diag[1:] = beta * beta / (s[1:] * (s[1:] + 2.0))
    k, s = k[1:], s[1:]
    off = np.sqrt(4.0 * k * k * (k + beta) * (k + beta) / (s * s * (s + 1.0) * (s - 1.0)))
    z, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    w = 2.0 ** (beta + 1.0) / (beta + 1.0) * v[0] ** 2
    z.setflags(write=False)
    w.setflags(write=False)
    return z, w


def _log_span(g: Geometry):
    return np.log(g.d), np.log(g.b - g.L)


def _offdiag_rule(g: Geometry, spec: OperatorSpec, N: int) -> np.ndarray:
    """Entries at offsets m = 1..n//2 from the N x N Gauss-Legendre rule."""
    L, n, h = g.L, g.n, spec.weight
    ya, yb = _log_span(g)
    z, w = _gauss_jacobi(N, 0.0)
    t = np.exp(ya + 0.5 * (yb - ya) * (1.0 + z))  # x - L
    wt = 0.5 * (yb - ya) * w * t  # dx = (x - L) dy
    u = np.exp(np.log1p(L / t) / n)
    j = u * L / (n * (L + t) * t)
    u1, u2 = u[:, None], u[None, :]
    jj = j[:, None] * j[None, :]
    theta = np.pi * np.arange(1, n // 2 + 1)[:, None, None] / n
    if spec.kind == "scalar":
        k = (jj / ((u1 - u2) ** 2 + 4.0 * u1 * u2 * np.sin(theta) ** 2)) ** h
    else:
        d = np.exp(1j * theta) * u1 - np.exp(-1j * theta) * u2
        k = 2.0 * np.real(-jj / d**2) * (jj / np.abs(d) ** 2) ** h
    return (k @ wt) @ wt


def _remainder_rule(g: Geometry, spec: OperatorSpec, N: int) -> float:
    """Subtracted diagonal over y1 > y2, doubled by symmetry.

    Gauss-Jacobi in sigma = y1 - y2 carries the sigma^(2 - 2p) coincident
    behaviour of the kernel; Gauss-Legendre runs over y2 in [ya, yb - sigma].
    """
    p, c = _remainder_power(spec)
    beta = 2.0 - 2.0 * p
    ya, yb = _log_span(g)
    span = yb - ya
    zs, ws = _gauss_jacobi(N, beta)
    sig = 0.5 * span * (1.0 + zs)
    z, w = _gauss_jacobi(N, 0.0)
    half = 0.5 * (span - sig)  # half-length of the y2 range
    t2 = np.exp(ya + half[:, None] * (1.0 + z))  # x2 - L
    s = t2 * np.expm1(sig)[:, None]
    log_r = _log_r(g.L + t2, t2, s, g.L, g.n)
    f = c * s ** (-2.0 * p) * np.expm1(p * log_r) * (t2 + s) * t2 / sig[:, None] ** beta
    return 2.0 * (0.5 * span) ** (beta + 1.0) * (ws @ (half * (f @ w)))


@dataclass(frozen=True)
class OperatorMatrix:
    """Replica covariance with its cutoff dependence kept analytic.

    ``off_row[m]`` holds the (cutoff-free) entries at branch offset m and
    ``diag_remainder`` the subtracted diagonal, so the point-splitting
    ``eps_reg`` enters only through the closed-form add-back ``m11``.
    ``error_estimate`` is the largest N-vs-2N difference of the tensor rule
    over the entries it computed.
    """

    geometry: Geometry
    spec: OperatorSpec
    diag_remainder: float
    off_row: tuple
    eps_reg: float
    error_estimate: float

    @property
    def m11(self) -> float:
        """One-replica diagonal and add-back of ``row``: the flat integral at
        ``eps_reg`` exactly, since the n = 1 map is Mobius."""
        return flat_integral_exact(self.spec, self.geometry.ell2, self.eps_reg)

    def subtracted(self) -> SymmetricCirculant:
        """M minus the flat add-back times the identity: the cutoff-free part."""
        n = self.geometry.n
        return SymmetricCirculant(
            [self.diag_remainder] + [self.off_row[min(m, n - m) - 1] for m in range(1, n)])

    def row(self) -> tuple:
        """First row of M: ``m11 + diag_remainder``, then the off-diagonal entries."""
        return (self.m11 + self.diag_remainder,) + self.subtracted().row[1:]

    def cn(self) -> float:
        """v M^{-1} v^T, v = (1, ..., 1), as n over M's row sum; singular unless that is > 0."""
        n, total = self.geometry.n, self.m11 + math.fsum(self.subtracted().row)
        if not total > 0.0:
            raise SingularMatrixError(f"replica row sum {total:.3e} <= 0 at n = {n}")
        return n / total


def build_M_operator(g: Geometry, spec: OperatorSpec, cfg: QuadratureConfig) -> OperatorMatrix:
    """Replica covariance matrix of a scalar or vector observable.

    Entries depend only on the branch offset (i - j) mod n and are
    palindromic in it, so only floor(n/2) off-diagonal integrals are
    computed, together with the subtracted diagonal, by the tensor Gauss
    rule at GAUSS_NODES and twice as many nodes per axis. An entry whose
    two values differ by more than the ``cfg.tol`` bound of
    ``_check_converged`` raises ``QuadratureError``. The cutoff enters only
    through the closed-form flat add-back, so the matrix is exact in its
    eps dependence.
    """
    n = g.n
    coarse, fine = (np.append(_offdiag_rule(g, spec, N), _remainder_rule(g, spec, N))
                    for N in (GAUSS_NODES, 2 * GAUSS_NODES))
    err = np.abs(fine - coarse)
    names = [f"entry m={m}" for m in range(1, n // 2 + 1)] + ["diagonal remainder"]
    for what, val, e in zip(names, fine, err):
        _check_converged(val, e, cfg, f"{what} (tensor rule)")
    off = tuple(float(v) for v in fine[: n // 2])
    return OperatorMatrix(g, spec, float(fine[-1]), off, cfg.eps_reg, float(err.max()))


def single_copy_m11_operator(g: Geometry, spec: OperatorSpec, cfg: QuadratureConfig) -> float:
    """``OperatorMatrix.m11`` without a build: the flat integral at ``cfg.eps_reg``."""
    return flat_integral_exact(spec, g.ell2, cfg.eps_reg)


# ---------------------------------------------------------------------------
# ensemble diagnostics


def _exp(x) -> float:
    """e^x, inf past the float range without an overflow warning: the UV-finite
    ratios leave that range at light weights, where their logs are reported."""
    with np.errstate(over="ignore"):
        return float(np.exp(x))


def _two_replica(om: OperatorMatrix) -> OperatorMatrix:
    if om.geometry.n != 2:
        raise ValueError(f"need the n = 2 replica matrix, got n = {om.geometry.n}")
    return om


def mie_general(om: OperatorMatrix) -> dict:
    """Outcome-averaged Renyi entropy of A for a generic Gaussian observable.

    Returns the pieces separately: the measurement-free base entropy
    (additive constant set to 0, non-universal), the determinant
    correction (1/(2(1-n))) log(m11^n / det M), and the q-variance term
    -(C_n - n C_1) <q^2> / (2 (1 - n)) in both variance conventions
    (``gaussian``: <q^2> = 1/C_1 from the normalized outcome density;
    ``saddle``: <q^2> = (2 pi C_1^3 m11)^{-1/2}, the saddle-normalized
    bookkeeping). ``total`` uses the gaussian convention, which matches
    direct summation over outcomes. n is ``om.geometry.n``.
    """
    g, n = om.geometry, om.geometry.n
    if n < 2:
        raise ValueError("need n >= 2 replicas")
    m11 = om.m11
    (log_det_ratio,), (cn_excess,), failure = replica_log_det(
        np.array([om.subtracted().row]), np.array([m11]))
    _one(failure)  # raises the exception of a failed row
    det_corr = -log_det_ratio / (2.0 * (1 - n))
    c1 = 1.0 / m11
    q2_saddle = 1.0 / np.sqrt(2.0 * np.pi * c1**3 * m11)
    qterm_gauss = -cn_excess * m11 / (2.0 * (1 - n))  # <q^2> = m11
    qterm_saddle = -cn_excess * q2_saddle / (2.0 * (1 - n))
    base = renyi_entropy_base(g, n)
    return {
        "base_entropy": base,
        "det_correction": float(det_corr),
        "q_correction_gaussian": float(qterm_gauss),
        "q_correction_saddle": float(qterm_saddle),
        "total": float(base + det_corr + qterm_gauss),
        "error_estimate": om.error_estimate,
    }


def overlap_generating(om: OperatorMatrix, gamma1: float, gamma2: float) -> dict:
    """Two-flux overlap generating function, as a ratio to the purity.

    Weighted sum of pairwise post-measurement overlaps over both outcomes,
    equal to exp(-1/2 sum_{ij} gamma_i gamma_j M_ij) Tr rho_A^2 for the
    n = 2 matrix; the absolute purity is non-universal, so the exponential
    ratio is returned, as ``value`` and as its ``log_value``.
    """
    M11, M12 = _two_replica(om).row()
    log_value = -0.5 * (gamma1 * gamma1 + gamma2 * gamma2) * M11 - gamma1 * gamma2 * M12
    return {"value": _exp(log_value), "log_value": float(log_value)}


def uv_finite_overlap_ratio(om: OperatorMatrix, gamma1: float, gamma2: float) -> dict:
    """Overlap generating function over the single-flux generating functions.

    Dividing by <e^{i gamma_1 Q_B}> <e^{i gamma_2 Q_B}> cancels the
    replica-diagonal cutoff divergence: the log reduces to
    -gamma_1 gamma_2 M_12 - (gamma_i^2 / 2)(M_ii - m11), every piece
    finite as eps -> 0 and free of ``eps_reg``. Reported as a ratio to
    Tr rho_A^2, as ``value`` and ``log_value``.

    M_ii - m11 is the subtracted diagonal itself, taken as such: formed as
    a difference of the two cutoff-divergent numbers it loses every digit
    at heavy weights.
    """
    _two_replica(om)
    log_value = (-gamma1 * gamma2 * om.off_row[0]
                 - 0.5 * (gamma1**2 + gamma2**2) * om.diag_remainder)
    return {"value": _exp(log_value), "log_value": float(log_value)}


def averaged_purity(om: OperatorMatrix, gamma: float) -> dict:
    """Flux-weighted average of the post-measurement purities.

    sum_q p_q e^{i gamma q} Tr rho_{A,q}^2 =
    sqrt(pi / gap) exp(-gamma^2 gap / 4), gap = M11 - M12 of the n = 2
    matrix. ``normalized`` divides by the single-copy generating function
    exp(-gamma^2 m11 / 4) at gamma / sqrt(2), and ``uv_finite`` by the
    gamma = 0 value too, leaving exp(-gamma^2 (gap - m11) / 4), where
    gap - m11 is the subtracted diagonal minus M12. So ``normalized`` is
    sqrt(pi / gap) uv_finite, finite where both exponentials underflow.
    ``log_value`` and ``log_uv_finite`` are the logs of ``value`` and
    ``uv_finite`` formed before exponentiating, finite where those leave
    the float range.
    """
    M11, M12 = _two_replica(om).row()
    gap = M11 - M12
    if gap <= 0.0:
        raise ValueError(f"M11 - M12 = {gap:.3e} <= 0: not a valid covariance")
    root = np.sqrt(np.pi / gap)
    log_value = 0.5 * np.log(np.pi / gap) - 0.25 * gamma**2 * gap
    log_uv_finite = -0.25 * gamma**2 * (om.diag_remainder - om.off_row[0])
    uv_finite = _exp(log_uv_finite)
    return {
        "value": float(root * np.exp(-0.25 * gamma**2 * gap)),
        "normalized": float(root * uv_finite),
        "uv_finite": float(uv_finite),
        "log_value": float(log_value),
        "log_uv_finite": float(log_uv_finite),
    }
