"""Closed-form compact-boson engine for charge measurements.

Measuring the U(1) charge of an interval B = [a, b] in the ground state of
a free compact boson projects the state of A = [0, L] into charge sectors.
All replica traces reduce to Gaussian integrals governed by an n x n
symmetric circulant covariance matrix M of the flux insertions; this
module builds M, evaluates the charged moments, the q-resolved Renyi
ratio, the entropy correction of the outcome-averaged ensemble, the Holevo
bound on the extractable charge information, and the real-time decay of
that bound.

Every route reads M's first row from one closed-form builder in double
precision, at real endpoints for the static quantities and at
time-shifted complex endpoints for the real-time decay. The entries are
logs of sinh^2(ell / 2n), ell = log(u(a) / u(b)) for the uniformizing map
u(z) = z / (z - L), formed without cancellation; the entropy corrections
chi_n come from one kernel that keeps their full relative accuracy down to
the t^{-4} tail, far below double-precision rounding of M itself.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from opens.continuation import ContinuationProblem, continue_to_one
from opens.core import Geometry, SymmetricCirculant, log_ratio, log_sinhc, quadratic_form_cn
from opens.errors import ContinuationError as _ContinuationError
from opens.errors import DomainError, RegimeWarning, SingularMatrixError

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class BosonParams:
    """Luttinger parameter K > 0 of the compact boson.

    K sets the current-current normalization <j0 j0> = -K / (4 pi^2 w^2)
    and hence the width of the measured-charge distribution; the
    compactification radius scales as K^{-1/2}.
    """

    K: float = 1.0

    def __post_init__(self):
        if self.K <= 0.0:
            raise ValueError(f"Luttinger parameter must be positive, got {self.K}")


@dataclass(frozen=True)
class TimeParams:
    """Real measurement time t >= 0 with regulator eps_prime > 0."""

    t: float
    eps_prime: float = 1e-6

    def __post_init__(self):
        if self.t < 0.0:
            raise ValueError(f"time must be non-negative, got {self.t}")
        if self.eps_prime <= 0.0:
            raise ValueError(f"eps_prime must be positive, got {self.eps_prime}")


@dataclass(frozen=True)
class ReplicaMatrix:
    """Replica covariance of flux insertions on an n-sheeted geometry."""

    geometry: Geometry
    circulant: SymmetricCirculant

    @property
    def m11(self) -> float:
        return self.circulant.row[0]

    def dense(self) -> np.ndarray:
        return self.circulant.dense()

    def cn_numeric(self) -> float:
        return quadratic_form_cn(self.dense())


def _log_u_ratio(L, z1, z2, dz):
    """log(u(z1) / u(z2)) for u(z) = z / (z - L), given dz = z2 - z1 exactly.

    The ratio q = z1 (z2 - L) / ((z1 - L) z2) has q - 1 = L dz / (z2 (z1 - L)),
    so the log keeps full relative accuracy when the two points are close on
    the scale of their distance to A; past |q - 1| = 1/2, for instance in the
    A = B limit where q ~ -eps^2 / L^2, it is log q itself.
    """
    return log_ratio(L * dz / (z2 * (z1 - L)), z1 * (z2 - L) / ((z1 - L) * z2))


def _endpoints(L, a, b, shift=0.0):
    """Endpoints za = a - shift, zb = b - shift and ell = log(u(za) / u(zb))."""
    za, zb = complex(a) - shift, complex(b) - shift
    return za, zb, _log_u_ratio(L, za, zb, b - a)


def _row(L, a, b, eps, n, shift=0.0, exact_reg=False):
    """First row of M: 2 Re of -log of the branch-point images' cross ratios.

    The images of za = a - shift and zb = b - shift on sheet 0 have ratio
    e^{ell / n}, so with s = sinh^2(ell / 2n) the cross ratio of sheets 0
    and j is -sin^2(pi j / n) / (s + sin^2(pi j / n)) and entry j is
    2 Re log1p(s / sin^2(pi j / n)). The diagonal replaces the coincident
    images by their point-split width: at leading order in eps it is
    2 Re log(n^2 s za (za - L) zb (zb - L) / (eps L)^2); with ``exact_reg``
    each image difference at z +- eps is u(z)^{1/n} times
    expm1(ell_+ / n) - expm1(ell_- / n), ell_+- = log(u(z +- eps) / u(z)).
    The row is palindromic, so only j <= n // 2 is evaluated.
    """
    za, zb, ell = _endpoints(L, a, b, shift)
    s = np.sinh(ell / (2 * n)) ** 2
    w = s / np.sin(np.pi * np.arange(1, n // 2 + 1) / n) ** 2
    half = np.log1p(w.real * (2.0 + w.real) + w.imag * w.imag)  # log |1 + w|^2
    if exact_reg:
        width = [np.expm1(_log_u_ratio(L, z + eps, z, -eps) / n)
                 - np.expm1(_log_u_ratio(L, z - eps, z, eps) / n) for z in (za, zb)]
        diag = 2.0 * np.log(abs(4.0 * s / (width[0] * width[1])))
    else:
        diag = 2.0 * np.log(abs(n * n * s * (za * (za - L) / (eps * L)) * (zb * (zb - L) / (eps * L))))
    return np.concatenate(([diag], half, half[:(n - 1) // 2][::-1]))


def _warn_unless_dominant(row):
    if len(row) > 1 and row[0] <= np.abs(row[1:]).max():
        warnings.warn(
            "diagonal entry does not dominate the circulant row; the "
            "weak-coupling expansion of the determinant is unreliable here",
            RegimeWarning,
            stacklevel=3,
        )


def build_M_boson(g: Geometry, exact_reg: bool = False) -> ReplicaMatrix:
    """Replica covariance matrix for the compact-boson charge.

    Off-diagonal entries are the cross-ratio logs of the branch-point
    images; the diagonal carries the UV regularization. By default the
    point splitting enters at leading order in eps (which makes the row
    sum equal 4 log((b-a)/(2 eps)) exactly); ``exact_reg=True`` keeps the
    exact split-point difference for eps-convergence studies.
    """
    row = _row(g.L, g.a, g.b, g.eps, g.n, exact_reg=exact_reg)
    _warn_unless_dominant(row)
    return ReplicaMatrix(g, SymmetricCirculant(row))


def coincident_interval_row(L: float, eps: float, n: int) -> np.ndarray:
    """Row of M in the A = B limit, a = eps and b = L + eps.

    This layout violates the B-right-of-A validation on purpose (it is the
    sanity limit where the measured and probed intervals coincide), so it
    bypasses ``Geometry``; u(a) < 0 there, and ell = log(u(a) / u(b)) is
    complex. Every element grows as (4/n) log(L/eps).
    """
    return _row(L, eps, L + eps, eps, n)


def charged_moments_ratio(g: Geometry, p: BosonParams, gammas) -> float:
    """Flux-dressed replica trace over the plain one.

    ``exp(-K/(8 pi^2) sum_{kl} gamma_k gamma_l M_kl)``; equals 1 at zero
    flux and stays in (0, 1] while M is positive semidefinite.
    """
    gam = np.asarray(gammas, dtype=float)
    if gam.shape != (g.n,):
        raise ValueError(f"need {g.n} flux angles, got shape {gam.shape}")
    M = build_M_boson(g).dense()
    return float(np.exp(-p.K / (8.0 * np.pi**2) * gam @ M @ gam))


def cn_closed_form(g: Geometry) -> float:
    """C_n = n / (4 log((b-a)/(2 eps))), independent of L.

    The numeric route ``build_M_boson(g).cn_numeric()`` agrees to machine
    precision in the default (leading-order) regularization and converges
    as eps -> 0 in the exact-difference mode.
    """
    arg = g.ell2 / (2.0 * g.eps)
    if arg <= 1.0:
        raise DomainError(f"(b-a)/(2 eps) = {arg:.3g} <= 1: closed form undefined")
    return g.n / (4.0 * np.log(arg))


def single_copy_m11(g: Geometry) -> float:
    """Diagonal of the one-replica matrix, 4 log((b-a)/(2 eps)) at leading eps."""
    return float(_row(g.L, g.a, g.b, g.eps, 1)[0])


def correction_from_parts(log_m11: float, log_det: float, n: int) -> float:
    """Entropy correction (1/(2(1-n))) log(m11^n / det M) from its pieces."""
    if n < 2:
        raise ValueError("correction is defined for integer n >= 2")
    return (n * log_m11 - log_det) / (2.0 * (1 - n))


def _chi(g: Geometry, ns, shift=0.0):
    """chi_n = (n log m1 - log det M(n)) / (2(n - 1)) for every n in ``ns``.

    m1 is the single-copy (n = 1) diagonal. The diagonal difference
    D = M_00(n) - m1 = -4 Re[F(ell / 2) - F(ell / 2n)], F = log sinhc, has no
    cancellation, and the eigenvalues of M(n) are m1 (1 + delta_k), with
    m1 delta_k those of the row whose diagonal is D. Since the delta_k sum
    to n D / m1,
    chi_n = -[n D / m1 + sum_k (log1p delta_k - delta_k)] / (2(n - 1)),
    which keeps full relative accuracy however small chi_n is. Endpoints
    sit at a - shift and b - shift.
    """
    ell = _endpoints(g.L, g.a, g.b, shift)[2]
    m1 = _row(g.L, g.a, g.b, g.eps, 1, shift)[0]
    if not m1 > 0.0:
        raise DomainError(f"single-copy diagonal m1 = {m1:.3g} <= 0: cutoff-dominated layout")
    out = []
    for n in ns:
        row = _row(g.L, g.a, g.b, g.eps, n, shift)
        _warn_unless_dominant(row)
        D = -4.0 * (log_sinhc(ell / 2.0) - log_sinhc(ell / (2.0 * n))).real
        delta = SymmetricCirculant((D, *row[1:])).eigenvalues() / m1
        if np.any(delta <= -1.0):
            raise SingularMatrixError(f"non-positive replica eigenvalue at n = {n}")
        out.append(-float(n * D / m1 + np.sum(np.log1p(delta) - delta)) / (2.0 * (n - 1)))
    return out


def renyi_ratio_and_mie(g: Geometry, n: int):
    """Charge-averaged Renyi ratio and the induced entropy correction.

    Returns ``(ratio, correction)`` with ratio = sqrt(m1^n / det M(n)) and
    correction = (1/(2(1-n))) log(m1^n / det M(n)) <= 0, where m1 is the
    single-copy (n = 1) diagonal that normalizes each charge projector.
    The q-dependence cancels exactly for the conserved charge because C_n
    is linear in n, so the ratio is the same in every charge sector.
    """
    if n < 2:
        raise ValueError("need n >= 2 replicas")
    chi, = _chi(g, [n])
    return float(np.exp((n - 1) * chi)), -chi


def renyi_entropy_base(g: Geometry, n: float) -> float:
    """Renyi entropy of A before any measurement, (1/6)(n+1)/n log(L/eps).

    The additive constant is non-universal and set to zero.
    """
    return (n + 1.0) / (6.0 * n) * np.log(g.L / g.eps)


def chi_samples(g: Geometry, n_max: int = 8):
    """Positive continuation samples chi_n = -(correction) at n = 2..n_max."""
    ns = range(2, n_max + 1)
    return list(zip(ns, _chi(g, ns)))


def _continue_with_fallback(samples):
    """Rational continuation, lowering the degree when a fit grows a pole.

    Nearly flat sample sets occasionally seed a spurious pole next to the
    target; a lower-degree fit is then both stable and accurate.
    """
    last = None
    for degree in (4, 3, 2):
        try:
            return continue_to_one(ContinuationProblem(samples, max_degree=degree))
        except _ContinuationError as exc:
            last = exc
    raise last


def holevo_chi(g: Geometry, n_max: int = 8) -> float:
    """Holevo bound on the charge information recoverable from A.

    Continues the (sign-flipped) entropy corrections at n = 2..n_max to
    n = 1 with the rational-fit module. The result is non-negative: the
    measurement can only lower the average entropy of A.
    """
    return holevo_chi_detailed(g, n_max).value


def holevo_chi_detailed(g: Geometry, n_max: int = 8):
    """Holevo bound together with the continuation diagnostics."""
    if n_max < 4:
        raise ValueError("need n_max >= 4 for a stable continuation")
    return _continue_with_fallback(chi_samples(g, n_max))


def _chi_approx_raw(g: Geometry) -> float:
    """Closed approximation exactly as published.

    Kept verbatim for reference: it equals -2 times the n -> 1 limit of
    the expansion it was derived from (verified symbolically against the
    derivative of the diagonal entry), so ``holevo_chi_approx`` rescales
    it before use.
    """
    L, a, b = g.L, g.a, g.b
    lg = np.log(g.ell2 / (2.0 * g.eps))
    if lg <= 0.0:
        raise DomainError("(b-a)/(2 eps) <= 1: approximation undefined")
    second = (2 * a * b - L * (a + b)) * np.log(a * (b - L) / (b * (a - L)))
    return 1.0 / lg - second / (2.0 * L * (b - a) * lg)


def holevo_chi_approx(g: Geometry) -> float:
    """Closed-form approximation to the Holevo bound, valid for b-a >> eps.

    Obtained from the n-derivative of the dominant diagonal entry of M;
    agrees with the numerical continuation to a few percent once B is far
    from A, and vanishes as L -> 0 (an unmeasured point cannot inform).
    """
    return -0.5 * _chi_approx_raw(g)


def charge_variances(g: Geometry, p: BosonParams) -> dict:
    """Second moment of the measured-charge distribution, both conventions.

    ``gaussian`` follows from Fourier transforming the single-flux
    generating function exp(-K gamma^2 m11 / (8 pi^2)), giving
    K m11 / (4 pi^2). ``saddle`` keeps the saddle-point prefactor
    bookkeeping of the replica computation and is smaller by sqrt(2 pi).
    Both are reported because the two normalizations appear side by side
    in the source analysis of the generic-operator case.
    """
    m11 = single_copy_m11(g)
    gaussian = p.K * m11 / (4.0 * np.pi**2)
    return {"gaussian": gaussian, "saddle": gaussian / np.sqrt(TWO_PI)}


def charge_distribution(g: Geometry, p: BosonParams, q) -> np.ndarray:
    """Normalized Gaussian outcome density p(q) of the measured charge.

    Uses the ``gaussian`` variance convention; symmetric in q -> -q and
    integrates to 1.
    """
    var = charge_variances(g, p)["gaussian"]
    q = np.asarray(q, dtype=float)
    return np.exp(-q * q / (2.0 * var)) / np.sqrt(TWO_PI * var)


# ---------------------------------------------------------------------------
# real-time generalization


def time_correction_samples(g: Geometry, tp: TimeParams, n_max: int = 8):
    """chi_n(t) samples at n = 2..n_max.

    Both chiral halves translate by -t. The holomorphic half carries a
    -i eps' displacement and the anti-holomorphic half its conjugate, so
    the anti-holomorphic row is the conjugate of the holomorphic one and
    the effective covariance row is 2 Re of the holomorphic row. The
    samples decay like t^{-4} and keep full relative accuracy (see
    ``_chi``). For a - L <= t <= b a shifted endpoint meets or straddles
    the probed interval, where the principal images no longer follow the
    branch points, so that window is rejected.
    """
    if g.a - g.L <= tp.t <= g.b:
        raise DomainError(
            f"t = {tp.t:g} lies in the light-cone window [a - L, b] = "
            f"[{g.a - g.L:g}, {g.b:g}], where a shifted endpoint crosses A"
        )
    ns = range(2, n_max + 1)
    return list(zip(ns, _chi(g, ns, complex(tp.t, tp.eps_prime))))


def holevo_chi_time(g: Geometry, tp: TimeParams, n_max: int = 8) -> float:
    """Time-dependent Holevo bound by continuation of chi_n(t) to n = 1.

    Decays as (b-a)^2 L^2 / (24 log((b-a)/(2 eps)) t^4) once t exceeds
    every geometric scale.
    """
    return holevo_chi_time_detailed(g, tp, n_max).value


def holevo_chi_time_detailed(g: Geometry, tp: TimeParams, n_max: int = 8):
    """Time-dependent Holevo bound together with the continuation diagnostics."""
    return _continue_with_fallback(time_correction_samples(g, tp, n_max))


def chi_time_asymptote(g: Geometry, t: float) -> float:
    """Large-time closed form of the Holevo bound decay."""
    lg = np.log(g.ell2 / (2.0 * g.eps))
    if lg <= 0.0:
        raise DomainError("(b-a)/(2 eps) <= 1")
    return g.ell2**2 * g.L**2 / (24.0 * lg * t**4)
