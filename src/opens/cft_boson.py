"""Closed-form compact-boson engine for charge measurements.

Measuring the U(1) charge of an interval B = [a, b] in the ground state of
a free compact boson projects the state of A = [0, L] into charge sectors.
All replica traces reduce to Gaussian integrals governed by an n x n
symmetric circulant covariance matrix M of the flux insertions; this
module builds M, evaluates the charged moments, the q-resolved Renyi
ratio, the entropy correction of the outcome-averaged ensemble, the Holevo
bound on the extractable charge information, and the real-time decay of
that bound.

Every route reads M's first row from one cross-ratio builder: in double
precision at real endpoints for the closed forms, and in a private
mpmath context at time-shifted complex endpoints for the late-time tail.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from opens.continuation import ContinuationProblem, continue_to_one
from opens.errors import ContinuationError as _ContinuationError
from opens.core import (
    Geometry,
    SymmetricCirculant,
    circulant_log_determinant,
    quadratic_form_cn,
)
from opens.errors import DomainError, RegimeWarning

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

    def log_det(self) -> float:
        return circulant_log_determinant(self.circulant)

    def cn_numeric(self) -> float:
        return quadratic_form_cn(self.dense())


def _image(ctx, z, L, n):
    """Principal image (z / (z - L))^{1/n} of z under the uniformizing map.

    It is real and positive for real z > L; sheet k carries the extra
    phase e^{2 pi i k / n}. The exponent is formed in ``ctx`` so that an
    mpmath context keeps its full precision.
    """
    return (z / (z - L)) ** (ctx.mpf(1) / n)


def branch_points(g: Geometry):
    """Images of the endpoints of B on the uniformized plane.

    The map w = (z / (z - L))^{1/n} sends each endpoint to n points
    ``root * e^{2 pi i k / n}``; the principal (real positive for real
    z > L) root is used and the replica phases are explicit.
    """
    n = g.n
    a_root = _image(mp.fp, complex(g.a), float(g.L), n)
    b_root = _image(mp.fp, complex(g.b), float(g.L), n)
    zeta = np.exp(2j * np.pi * np.arange(n) / n)
    return list(zip(a_root * zeta, b_root * zeta))


def _holo_row(ctx, L, za, zb, eps, n, exact_reg=False):
    """Holomorphic half of the circulant row at endpoints za, zb.

    Entry j is -log of the cross ratio of the branch-point images on
    sheets 0 and j; the diagonal replaces the coincident images by their
    point-split width, at leading order in eps or, with ``exact_reg``, as
    the exact difference of the images at z +- eps. ``ctx`` supplies the
    arithmetic: ``mpmath.fp`` for doubles or a private ``mpmath.MPContext``.
    The row is palindromic (sheet j and sheet n - j give the same cross
    ratio), so only j <= n // 2 is evaluated. At real endpoints 2 Re of
    the row is the boson covariance row.
    """
    # numpy scalars would send mpmath.fp down its real-only path, which
    # drops imaginary parts with no more than a ComplexWarning
    L, eps = ctx.mpf(L), ctx.mpf(eps)
    za, zb = ctx.mpc(za), ctx.mpc(zb)
    a, b = _image(ctx, za, L, n), _image(ctx, zb, L, n)
    if exact_reg:
        areg = _image(ctx, za + eps, L, n) - _image(ctx, za - eps, L, n)
        breg = _image(ctx, zb + eps, L, n) - _image(ctx, zb - eps, L, n)
    else:
        areg = -2 * eps * L / (za * za * n - za * L * n) * a
        breg = -2 * eps * L / (zb * zb * n - zb * L * n) * b
    row = [-ctx.log(areg * breg / (a - b) ** 2)]
    for j in range(1, n // 2 + 1):
        zeta = ctx.exp(2j * ctx.pi * j / n)
        row.append(-ctx.log((a - a * zeta) * (b - b * zeta) / ((a - b * zeta) * (a * zeta - b))))
    return row + row[1:(n + 1) // 2][::-1]


def _boson_row(L, a, b, eps, n, exact_reg=False):
    """First row of M: -log | cross ratio |^2 of the branch-point images."""
    return np.array([2.0 * x.real for x in _holo_row(mp.fp, L, a, b, eps, n, exact_reg)])


def build_M_boson(g: Geometry, exact_reg: bool = False) -> ReplicaMatrix:
    """Replica covariance matrix for the compact-boson charge.

    Off-diagonal entries are the cross-ratio logs of the branch-point
    images; the diagonal carries the UV regularization. By default the
    point splitting enters at leading order in eps (which makes the row
    sum equal 4 log((b-a)/(2 eps)) exactly); ``exact_reg=True`` keeps the
    exact split-point difference for eps-convergence studies.
    """
    row = _boson_row(g.L, g.a, g.b, g.eps, g.n, exact_reg)
    if g.n > 1 and row[0] <= np.abs(row[1:]).max():
        warnings.warn(
            "diagonal entry does not dominate the circulant row; the "
            "weak-coupling expansion of the determinant is unreliable here",
            RegimeWarning,
            stacklevel=2,
        )
    return ReplicaMatrix(g, SymmetricCirculant(row))


def coincident_interval_row(L: float, eps: float, n: int) -> np.ndarray:
    """Row of M in the A = B limit, a = eps and b = L + eps.

    This layout violates the B-right-of-A validation on purpose (it is the
    sanity limit where the measured and probed intervals coincide), so it
    bypasses ``Geometry`` and evaluates the complex branch points directly.
    Every element grows as (4/n) log(L/eps).
    """
    return _boson_row(L, eps, L + eps, eps, n)


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
    return float(_boson_row(g.L, g.a, g.b, g.eps, 1)[0])


def correction_from_parts(log_m11: float, log_det: float, n: int) -> float:
    """Entropy correction (1/(2(1-n))) log(m11^n / det M) from its pieces."""
    if n < 2:
        raise ValueError("correction is defined for integer n >= 2")
    return (n * log_m11 - log_det) / (2.0 * (1 - n))


def renyi_ratio_and_mie(g: Geometry, n: int, exact_reg: bool = False):
    """Charge-averaged Renyi ratio and the induced entropy correction.

    Returns ``(ratio, correction)`` with ratio = sqrt(m1^n / det M(n)) and
    correction = (1/(2(1-n))) log(m1^n / det M(n)) <= 0, where m1 is the
    single-copy (n = 1) diagonal that normalizes each charge projector.
    The q-dependence cancels exactly for the conserved charge because C_n
    is linear in n, so the ratio is the same in every charge sector.
    """
    if n < 2:
        raise ValueError("need n >= 2 replicas")
    rm = build_M_boson(g.with_n(n), exact_reg)
    log_det = rm.log_det()
    m1 = single_copy_m11(g)
    log_ratio = 0.5 * (n * np.log(m1) - log_det)
    correction = correction_from_parts(np.log(m1), log_det, n)
    return float(np.exp(log_ratio)), float(correction)


def renyi_entropy_base(g: Geometry, n: float) -> float:
    """Renyi entropy of A before any measurement, (1/6)(n+1)/n log(L/eps).

    The additive constant is non-universal and set to zero.
    """
    return (n + 1.0) / (6.0 * n) * np.log(g.L / g.eps)


def chi_samples(g: Geometry, n_max: int = 8):
    """Positive continuation samples chi_n = -(correction) at n = 2..n_max."""
    out = []
    for n in range(2, n_max + 1):
        _, corr = renyi_ratio_and_mie(g, n)
        out.append((n, -corr))
    return out


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


def time_correction_samples(g: Geometry, tp: TimeParams, n_max: int = 8, dps: int = 50):
    """chi_n(t) samples computed in arbitrary precision.

    At large t the correction decays like t^{-4} and falls below double
    precision long before the asymptote is reached, so the circulant row,
    its eigenvalue products and the n = 1 normalization are evaluated with
    mpmath and only the final samples are returned as floats. The work
    runs in a private mpmath context, so concurrent calls at different
    precisions never share (or change) mpmath's global precision.

    Both chiral halves translate by -t. The holomorphic half carries a
    -i eps' displacement and the anti-holomorphic half its conjugate, so
    the anti-holomorphic row is the conjugate of the holomorphic one and
    the effective covariance row is 2 Re of the holomorphic row.
    """
    ctx = mp.MPContext()
    ctx.dps = dps
    za = ctx.mpf(g.a) - ctx.mpf(tp.t) - 1j * ctx.mpf(tp.eps_prime)
    zb = ctx.mpf(g.b) - ctx.mpf(tp.t) - 1j * ctx.mpf(tp.eps_prime)

    def eff_row(n):
        return [2 * ctx.re(x) for x in _holo_row(ctx, g.L, za, zb, g.eps, n)]

    log_m1 = ctx.log(eff_row(1)[0])
    samples = []
    for n in range(2, n_max + 1):
        row = eff_row(n)
        cos = [ctx.cos(2 * ctx.pi * m / n) for m in range(n)]
        # the row is palindromic, so entries j and n - j pair up in each
        # eigenvalue and lambda_k = lambda_{n-k}: only k <= n/2 is summed
        logdet = ctx.mpf(0)
        for k in range(n // 2 + 1):
            lam = row[0]
            for j in range(1, (n + 1) // 2):
                lam += 2 * row[j] * cos[j * k % n]
            if n % 2 == 0:
                lam += row[n // 2] * cos[n // 2 * k % n]
            logdet += ctx.log(lam) if k == 0 or 2 * k == n else 2 * ctx.log(lam)
        val = (n * log_m1 - logdet) / (2 * (n - 1))
        samples.append((n, float(val)))
    return samples


def holevo_chi_time(g: Geometry, tp: TimeParams, n_max: int = 8, dps: int = 50) -> float:
    """Time-dependent Holevo bound by continuation of chi_n(t) to n = 1.

    Decays as (b-a)^2 L^2 / (24 log((b-a)/(2 eps)) t^4) once t exceeds
    every geometric scale.
    """
    return holevo_chi_time_detailed(g, tp, n_max, dps).value


def holevo_chi_time_detailed(g: Geometry, tp: TimeParams, n_max: int = 8, dps: int = 50):
    """Time-dependent Holevo bound together with the continuation diagnostics."""
    return _continue_with_fallback(time_correction_samples(g, tp, n_max, dps))


def chi_time_asymptote(g: Geometry, t: float) -> float:
    """Large-time closed form of the Holevo bound decay."""
    lg = np.log(g.ell2 / (2.0 * g.eps))
    if lg <= 0.0:
        raise DomainError("(b-a)/(2 eps) <= 1")
    return g.ell2**2 * g.L**2 / (24.0 * lg * t**4)
