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
chi_n come from ``core.replica_log_det``, the replica-determinant kernel
that the operator route shares, which keeps their full relative accuracy
down to the t^{-4} tail, far below double-precision rounding of M itself.

A sweep is one batch: the samples of every point come from one vectorized
pass, and their continuations share stacked fits across the sweep's
points. A point's numbers do not depend on which points share its batch,
and a point that fails gets the exception it raises on its own.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from opens.continuation import continue_stack
from opens.continuation import continue_to_one  # noqa: F401 - perfbench's traced run looks it up here
from opens.core import (Geometry, SymmetricCirculant, _one, _where_ok, log_ratio, log_sinhc,
                        replica_log_det)
from opens.core import quadratic_form_cn  # noqa: F401 - perfbench's traced run looks it up here
from opens.errors import DomainError, RegimeWarning


@dataclass(frozen=True)
class BosonParams:
    """Luttinger parameter K > 0 of the compact boson.

    K sets the current-current normalization <j0 j0> = -K / (4 pi^2 w^2)
    and hence the width of the measured-charge distribution; the
    compactification radius scales as K^{-1/2}.
    """

    K: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.K < math.inf:
            raise ValueError(f"Luttinger parameter must be positive and finite, got K={self.K}")


# the samples decay like t^-4, which leaves the normal float range past this t;
# ``_time_samples`` also refuses a layout whose samples get there first
_TINY = np.finfo(float).tiny
_T_MAX = _TINY ** -0.25


@dataclass(frozen=True)
class TimeParams:
    """Real measurement time 0 <= t <= ``_T_MAX`` with regulator eps_prime > 0."""

    t: float
    eps_prime: float = 1e-6

    def __post_init__(self):
        if not 0.0 <= self.t <= _T_MAX:
            raise ValueError(f"time must lie in [0, {_T_MAX:.6g}], where t^-4 is a normal float, "
                             f"got t={self.t}")
        if not 0.0 < self.eps_prime < math.inf:
            raise ValueError(
                f"eps_prime must be positive and finite, got eps_prime={self.eps_prime}")


def _u_ratio(L, z1, z2, dz):
    """(q - 1, q) for q = u(z1) / u(z2), u(z) = z / (z - L), given dz = z2 - z1 exactly.

    q - 1 = L dz / (z2 (z1 - L)) keeps full relative accuracy when the two
    points are close on the scale of their distance to A; ``log_ratio``
    takes log1p of it there and log q itself past |q - 1| = 1/2, for
    instance in the A = B limit where q ~ -eps^2 / L^2.
    """
    return L * dz / (z2 * (z1 - L)), z1 * (z2 - L) / ((z1 - L) * z2)


def _endpoints(layouts):
    """ell = log(u(za) / u(zb)) and p = z (z - L) / (eps L) at za and zb.

    One entry per layout (L, a, b, eps, shift), with za = a - shift and
    zb = b - shift. The endpoint arithmetic runs in Python complex numbers
    per layout; the logs are one vectorized call.
    """
    w, q, pa, pb = np.empty((4, len(layouts)), dtype=complex)
    for i, (L, a, b, eps, shift) in enumerate(layouts):
        za, zb = complex(a) - shift, complex(b) - shift
        w[i], q[i] = _u_ratio(L, za, zb, b - a)
        pa[i], pb[i] = za * (za - L) / (eps * L), zb * (zb - L) / (eps * L)
    return log_ratio(w, q), pa, pb


def _rows(ell, pa, pb, n):
    """First rows of M(n), one per layout, from s = sinh^2(ell / 2n).

    The images of za and zb on sheet 0 have ratio e^{ell / n}, so the
    cross ratio of sheets 0 and j is -sin^2(pi j / n) / (s + sin^2(pi j / n))
    and entry j is 2 Re log1p(s / sin^2(pi j / n)). The diagonal replaces
    the coincident images by their point-split width at leading order in
    eps, 2 Re log(n^2 s pa pb). Rows are palindromic, so only j <= n // 2
    is evaluated. Per layout, s and n^2 s pa pb are numpy complex scalar
    products and moduli the hypot of their parts, as a point-by-point
    evaluation takes them, so each row keeps its bits.
    """
    y = np.sinh(ell / (2 * n))
    s = np.array([v * v for v in y])
    w = s[:, None] / np.sin(np.pi * np.arange(1, n // 2 + 1) / n) ** 2
    half = np.log1p(w.real * (2.0 + w.real) + w.imag * w.imag)  # log |1 + w|^2
    prod = np.array([n * n * v * a * b for v, a, b in zip(s, pa, pb)])
    diag = 2.0 * np.log(np.hypot(prod.real, prod.imag))
    return np.concatenate((diag[:, None], half, half[:, :(n - 1) // 2][:, ::-1]), axis=1)


def _row(L, a, b, eps, n, shift=0.0):
    """First row of M for one layout (see ``_rows``)."""
    return _rows(*_endpoints([(L, a, b, eps, shift)]), n)[0]


def _warn_unless_dominant(rows):
    if rows.shape[1] > 1 and np.any(rows[:, 0] <= np.abs(rows[:, 1:]).max(axis=1)):
        warnings.warn(
            "diagonal entry does not dominate the circulant row; the "
            "weak-coupling expansion of the determinant is unreliable here",
            RegimeWarning,
            stacklevel=3,
        )


def build_M_boson(g: Geometry) -> SymmetricCirculant:
    """Replica covariance matrix for the compact-boson charge, as its circulant.

    Off-diagonal entries are the cross-ratio logs of the branch-point
    images; the diagonal carries the UV regularization, with the point
    splitting at leading order in eps, which makes the row sum equal
    4 log((b-a)/(2 eps)) exactly. ``.dense()`` expands it; at n = 1,
    ``.row[0]`` is the single-copy diagonal m1.
    """
    row = _row(g.L, g.a, g.b, g.eps, g.n)
    _warn_unless_dominant(row[None])
    return SymmetricCirculant(row)


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


def _chi(points, ns):
    """chi_n = (n log m1 - log det M(n)) / (2(n - 1)) at every (g, shift) point.

    m1 is the single-copy (n = 1) diagonal. The diagonal difference
    D = M_00(n) - m1 = -4 Re[F(ell / 2) - F(ell / 2n)], F = log sinhc, has no
    cancellation, and ``replica_log_det`` takes log(det M(n) / m1^n) from
    the row whose diagonal is D, with full relative accuracy however small
    chi_n is. Endpoints sit at a - shift and b - shift.

    All points are evaluated together, as one stack of rows per n, with the
    bits of a point-by-point evaluation: moving the samples by 1e-15 moves
    the continued Holevo bound by up to 3e-10 relative. Returns per point
    its list of chi_n for n in ``ns``, or the exception that point raises,
    from its first failing check.
    """
    if not points:
        return []
    ell, pa, pb = _endpoints([(g.L, g.a, g.b, g.eps, shift) for g, shift in points])
    failure = [None] * len(points)
    chi = np.empty((len(points), len(ns)))
    # a point that fails may overflow on the way; it gets its exception instead
    with np.errstate(all="ignore"):
        m1 = _rows(ell, pa, pb, 1)[:, 0]
        for i in np.flatnonzero(~(m1 > 0.0)):
            failure[i] = DomainError(
                f"single-copy diagonal m1 = {m1[i]:.3g} <= 0: cutoff-dominated layout")
        f1 = log_sinhc(ell / 2.0).real
        for k, n in enumerate(ns):
            row = _rows(ell, pa, pb, n)
            _warn_unless_dominant(row[[f is None for f in failure]])
            row[:, 0] = -4.0 * (f1 - log_sinhc(ell / (2.0 * n)).real)
            log_det, _, fails = replica_log_det(row, m1)
            failure = [f if f is not None else e for f, e in zip(failure, fails)]
            chi[:, k] = -log_det / (2.0 * (n - 1))
    return [f if f is not None else c for f, c in zip(failure, chi.tolist())]


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
    chi, = _one(_chi([(g, 0.0)], [n]))
    return float(np.exp((n - 1) * chi)), -chi


def _samples(points, n_max):
    """(n, chi_n) at n = 2..n_max for every (g, shift) point, or its exception."""
    ns = range(2, n_max + 1)
    return _where_ok(_chi(points, ns), lambda chis: [list(zip(ns, c)) for c in chis])


def chi_samples(g: Geometry, n_max: int = 8):
    """Positive continuation samples chi_n = -(correction) at n = 2..n_max."""
    return _one(_samples([(g, 0.0)], n_max))


def _check_n_max(n_max):
    """The continued routes need n_max >= 6.

    A degree-4 fit takes 5 samples (n = 2..6), and each leave-one-out
    refit must still carry that degree; with n_max = 5 a fit fails on
    spurious poles, and with n_max = 4 there is no refit to give an error
    estimate.
    """
    if n_max < 6:
        raise ValueError(f"need n_max >= 6 for a degree-4 continuation with a "
                         f"leave-one-out error estimate, got n_max = {n_max}")


def _continued(sample_sets):
    """Rational continuation of every sample set, lowering the degree when a fit grows a pole.

    Nearly flat sample sets occasionally seed a spurious pole next to the
    target; a lower-degree fit is then both stable and accurate.
    """
    return continue_stack(sample_sets, max_degree=4, fallback=(3, 2))


def holevo_chi(g: Geometry, n_max: int = 8) -> float:
    """Holevo bound on the charge information recoverable from A.

    Continues the (sign-flipped) entropy corrections at n = 2..n_max to
    n = 1 with the rational-fit module. The result is non-negative: the
    measurement can only lower the average entropy of A.
    """
    return _one(holevo_chi_sweep([g], n_max)).value


def holevo_chi_sweep(geometries, n_max: int = 8) -> list:
    """``holevo_chi`` at every geometry, as one batch.

    The samples of all geometries come from one vectorized pass and are
    continued in shared stacks; each entry is that geometry's
    ``ContinuationResult``, or the exception evaluating it alone raises.
    ``n_max`` is checked before any point is computed.
    """
    _check_n_max(n_max)
    return _where_ok(_samples([(g, 0.0) for g in geometries], n_max), _continued)


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


# ---------------------------------------------------------------------------
# real-time generalization


def _time_samples(points, n_max):
    """``_samples`` at the time-shifted endpoints of every (g, tp) point.

    A point whose t lies in the light-cone window gets its DomainError. So
    does a point whose samples leave the normal floats: they scale like
    ell2^2 L^2 / t^4, so a small layout gets there below ``_T_MAX``, and a
    subnormal sample has lost digits that the continuation needs.
    """
    def shifted(g, tp):
        if g.a - g.L <= tp.t <= g.b:
            return DomainError(
                f"t = {tp.t:g} lies in the light-cone window [a - L, b] = "
                f"[{g.a - g.L:g}, {g.b:g}], where a shifted endpoint crosses A"
            )
        return g, complex(tp.t, tp.eps_prime)

    def normal(samples, t):
        low = min(abs(chi) for _, chi in samples)
        if low < _TINY:
            return DomainError(
                f"t = {t:g} is too late for this layout: its chi_n(t) samples fall to "
                f"{low:.3g}, below the normal floats; they decay like t^-4, so t must stay "
                f"below about {t * (low / _TINY) ** 0.25:.3g}")
        return samples

    samples = _where_ok([shifted(g, tp) for g, tp in points], lambda pts: _samples(pts, n_max))
    return [s if isinstance(s, Exception) else normal(s, tp.t)
            for s, (_, tp) in zip(samples, points)]


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
    return _one(_time_samples([(g, tp)], n_max))


def holevo_chi_time(g: Geometry, tp: TimeParams, n_max: int = 8) -> float:
    """Time-dependent Holevo bound by continuation of chi_n(t) to n = 1.

    Decays as (b-a)^2 L^2 / (24 log((b-a)/(2 eps)) t^4) once t exceeds
    every geometric scale.
    """
    return _one(holevo_chi_time_sweep([(g, tp)], n_max)).value


def holevo_chi_time_sweep(points, n_max: int = 8) -> list:
    """``holevo_chi_time`` at every (g, tp) point, as one batch.

    Batched and checked as ``holevo_chi_sweep``.
    """
    _check_n_max(n_max)
    return _where_ok(_time_samples(points, n_max), _continued)


def chi_time_asymptote(g: Geometry, t: float) -> float:
    """Large-time closed form of the Holevo bound decay."""
    lg = np.log(g.ell2 / (2.0 * g.eps))
    if lg <= 0.0:
        raise DomainError("(b-a)/(2 eps) <= 1")
    return g.ell2**2 * g.L**2 / (24.0 * lg) / t**4  # t**4 stays finite up to _T_MAX
