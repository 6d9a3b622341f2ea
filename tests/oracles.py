"""Independent checks that the tests hold the package's routes against.

None of these serves a command. Each derives again, by other algebra or a
slower method, something the pipeline computes, and uses only the public
API of ``opens``, so that a change to a pipeline helper cannot move its
own reference with it:

- circulant algebra: the eigenvalues as one FFT of the row, the
  determinant as their product and the inverse row sum;
- boson closed forms: C_n = n / (4 log((b-a)/(2 eps))), the outcome
  density and its variances, and the per-point first row of M in the
  arithmetic of numpy complex scalars, with the exact point-split
  diagonal as an option;
- operator integrals: the replica matrix expanded densely, the branch images of the uniformization map, the
  eps -> 0 closed forms of the flat interval integral with their
  divergent and universal parts, its finite-width value by mpmath
  quadrature, the q-resolved purity ratio and the interaction bound on
  UV-finiteness;
- lattice: momentum sums on an antiperiodic ring, dense Fock-space
  operators and the two-point matrix measured on an ED ground state; the
  Renyi entropy of a Gaussian state from its occupations, and on the ED
  oracle's post-measurement states the Renyi entropy of A and the
  outcome-averaged one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import mpmath
import numpy as np

from opens.cft_boson import BosonParams, build_M_boson
from opens.cft_operator import OperatorMatrix, OperatorSpec
from opens.core import IMAG_TOL, Geometry, SymmetricCirculant, log_ratio
from opens.errors import DomainError, SingularMatrixError
from opens.lattice import CorrelationMatrix, EDOracle, LatticeModel, NambuCorrelationMatrix

# ---------------------------------------------------------------------------
# circulant algebra


def circulant_eigenvalues(c: SymmetricCirculant) -> np.ndarray:
    """Real circulant eigenvalues sum_j row[j] e^{2 pi i j k / n}, one FFT of the row."""
    lam = np.fft.fft(np.asarray(c.row))
    resid = np.abs(lam.imag).max()
    if resid > IMAG_TOL * max(1.0, np.abs(lam.real).max()):
        raise ValueError(f"circulant eigenvalues not real, residue {resid:.3e}")
    return lam.real


def circulant_determinant(c: SymmetricCirculant) -> float:
    """Determinant as the product of circulant eigenvalues.

    Accumulated in log space (sum of log |eigenvalue| plus a sign) so that
    rows with entries of order log(1/eps^2) do not overflow.
    """
    lam = circulant_eigenvalues(c)
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


# ---------------------------------------------------------------------------
# boson closed forms


def cn_closed_form(g: Geometry) -> float:
    """C_n = n / (4 log((b-a)/(2 eps))), independent of L.

    ``quadratic_form_cn(build_M_boson(g).dense())`` agrees to machine
    precision; with the exact point-split diagonal of ``loop_row`` it
    converges as eps -> 0.
    """
    arg = g.ell2 / (2.0 * g.eps)
    if arg <= 1.0:
        raise DomainError(f"(b-a)/(2 eps) = {arg:.3g} <= 1: closed form undefined")
    return g.n / (4.0 * np.log(arg))


def charge_variances(g: Geometry, p: BosonParams) -> dict:
    """Second moment of the measured-charge distribution, both conventions.

    ``gaussian`` follows from Fourier transforming the single-flux
    generating function exp(-K gamma^2 m11 / (8 pi^2)), giving
    K m11 / (4 pi^2), with m11 the one-replica diagonal. ``saddle`` keeps
    the saddle-point prefactor bookkeeping of the replica computation and
    is smaller by sqrt(2 pi).
    """
    m11 = build_M_boson(replace(g, n=1)).row[0]
    gaussian = p.K * m11 / (4.0 * np.pi**2)
    return {"gaussian": gaussian, "saddle": gaussian / np.sqrt(2.0 * np.pi)}


def charge_distribution(g: Geometry, p: BosonParams, q) -> np.ndarray:
    """Normalized Gaussian outcome density p(q) of the measured charge, in
    the ``gaussian`` variance convention."""
    var = charge_variances(g, p)["gaussian"]
    q = np.asarray(q, dtype=float)
    return np.exp(-q * q / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)


# the per-point row that the batched one replaced: numpy complex scalars and
# Python complex numbers, one layout and one n at a time


def loop_log_u_ratio(L, z1, z2, dz):
    """log(u(z1) / u(z2)), u(z) = z / (z - L), given dz = z2 - z1 exactly."""
    return log_ratio(L * dz / (z2 * (z1 - L)), z1 * (z2 - L) / ((z1 - L) * z2))


def loop_endpoints(L, a, b, shift=0.0):
    """The shifted endpoints za, zb and ell = log(u(za) / u(zb))."""
    za, zb = complex(a) - shift, complex(b) - shift
    return za, zb, loop_log_u_ratio(L, za, zb, b - a)


def loop_row(L, a, b, eps, n, shift=0.0, exact_reg=False):
    """First row of the boson M at endpoints a - shift and b - shift.

    The layout is not validated, so a = eps, b = L + eps gives the A = B
    limit. The diagonal takes the point splitting at leading order in eps,
    as ``build_M_boson`` does; with ``exact_reg`` it keeps each image
    difference at z +- eps exactly: u(z)^{1/n} times
    expm1(ell_+ / n) - expm1(ell_- / n), ell_+- = log(u(z +- eps) / u(z)).
    """
    za, zb, ell = loop_endpoints(L, a, b, shift)
    s = np.sinh(ell / (2 * n)) ** 2
    w = s / np.sin(np.pi * np.arange(1, n // 2 + 1) / n) ** 2
    half = np.log1p(w.real * (2.0 + w.real) + w.imag * w.imag)
    if exact_reg:
        width = [np.expm1(loop_log_u_ratio(L, z + eps, z, -eps) / n)
                 - np.expm1(loop_log_u_ratio(L, z - eps, z, eps) / n) for z in (za, zb)]
        diag = 2.0 * np.log(abs(4.0 * s / (width[0] * width[1])))
    else:
        diag = 2.0 * np.log(abs(n * n * s * (za * (za - L) / (eps * L)) * (zb * (zb - L) / (eps * L))))
    return np.concatenate(([diag], half, half[:(n - 1) // 2][::-1]))


# ---------------------------------------------------------------------------
# operator integrals


def operator_dense(om: OperatorMatrix) -> np.ndarray:
    """The operator replica matrix M expanded densely: the subtracted
    circulant plus the flat add-back m11 on the diagonal, for the checks
    that solve, invert or contract it as a matrix."""
    return om.subtracted().dense() + om.m11 * np.eye(om.geometry.n)


def replica_map(x: float, k: int, g: Geometry):
    """Branch-k image w_k(x) of a real point and its derivative.

    w_k = e^{2 pi i k / n} (x / (x - L))^{1/n}, defined for x outside the
    probed interval [0, L]; dw_k/dx = -w_k L / (n x (x - L)).
    """
    if 0.0 <= x <= g.L:
        raise DomainError(f"x = {x} lies inside the probed interval [0, {g.L}]")
    w = np.exp(2j * np.pi * k / g.n) * (x / (x - g.L)) ** (1.0 / g.n)
    return w, -w * g.L / (g.n * x * (x - g.L))


@dataclass(frozen=True)
class FlatIntegral:
    """Regularized flat-interval integral split into its pieces."""

    value: float
    divergent: float
    universal: float


def flat_interval_integral(spec: OperatorSpec, length: float, eps: float) -> FlatIntegral:
    """Closed form of the regularized plane-correlator interval integral.

    The two-point function of the observable integrated twice over one
    interval, split into its cutoff-dependent and universal parts. Scalar
    h_s = 1/2 and h_s = 1 replace the generic expression, whose rational
    coefficients develop poles there. For the vector the universal term is
    -4 length^{-2 h_v} / (2 h_v (1 + 2 h_v)); a positive-exponent variant
    of that term sometimes quoted for this integral is dimensionally
    inconsistent and disagrees with direct quadrature.
    """
    if length <= 0.0 or eps <= 0.0:
        raise DomainError("need length > 0 and eps > 0")
    ell, h = float(length), spec.weight
    if spec.kind == "scalar":
        if np.isclose(h, 0.5):
            div = 2.0 * ell * np.log(1.0 / eps)
            uni = 2.0 * ell * (np.log(ell) - 1.0)
            return FlatIntegral(2.0 * ell * (np.log(ell / eps) - 1.0), div, uni)
        if np.isclose(h, 1.0):
            div = np.pi * ell / eps + 2.0 * np.log(eps)
            uni = -2.0 * (1.0 + np.log(ell))
            return FlatIntegral(np.pi * ell / eps - 2.0 * (1.0 + np.log(ell / eps)), div, uni)
        div = ell * eps ** (1.0 - 2.0 * h) / (2.0 * h - 1.0)
        uni = ell ** (2.0 - 2.0 * h) / (1.0 - 3.0 * h + 2.0 * h * h)
        return FlatIntegral(div + uni, div, uni)
    if h == 0.0:
        val = 2.0 * np.log1p(ell * ell / (eps * eps))
        return FlatIntegral(val, 4.0 * np.log(1.0 / eps), 4.0 * np.log(ell))
    div = (
        4.0 * np.pi * h / np.cos(np.pi * h) * ell * eps ** (-1.0 - 2.0 * h)
        + 2.0 * np.pi * (1.0 - 2.0 * h) / np.sin(np.pi * h) * eps ** (-2.0 * h)
    )
    uni = -4.0 * ell ** (-2.0 * h) / (2.0 * h * (1.0 + 2.0 * h))
    return FlatIntegral(div + uni, div, uni)


def mp_flat_integral(h: float, ell: float, width: float, dps: int = 30) -> float:
    """2 int_0^ell (ell - s) (s^2 + width^2)^(-h) ds by mpmath quadrature.

    The scalar flat integral at a finite kernel width, or at width 0, where
    it converges for h < 1/2, its cutoff-free value. The range splits at
    width 4^k, so that every piece sees a smooth integrand.
    """
    with mpmath.workdps(dps):
        ell, width, h = mpmath.mpf(ell), mpmath.mpf(width), mpmath.mpf(h)
        cuts = [0] + [width * 4**k for k in range(64) if 0 < width * 4**k < ell] + [ell]
        return float(mpmath.quad(lambda s: 2 * (ell - s) * (s * s + width * width) ** (-h), cuts))


def log_purity_ratio_q(om: OperatorMatrix, q: float) -> float:
    """log(Tr rho_{A,q}^n / Tr rho_A^n) for outcome q, n = om.geometry.n.

    e^{-q^2 C_n / 2} / sqrt(det M) divided by the n-th power of the
    single-copy normalization e^{-q^2 C_1 / 2} / sqrt(m11), C_1 = 1/m11.
    With delta_k the eigenvalues of the subtracted circulant and delta_0 its
    row sum, log(det M / m11^n) = sum_k log1p(delta_k / m11) and
    C_n - n C_1 = -n delta_0 / (m11 (m11 + delta_0)), both free of the
    cancellation a dense M would suffer at m11 ~ 1e10. The log is returned
    because the ratio itself is 1 - O(1e-12) at heavy weights.
    """
    delta, m11 = circulant_eigenvalues(om.subtracted()), om.m11
    log_det_ratio = np.sum(np.log1p(delta / m11))
    cn_excess = -len(delta) * delta[0] / (m11 * (m11 + delta[0]))
    return float(-0.5 * q * q * cn_excess - 0.5 * log_det_ratio)


def interaction_convergence_check(spec: OperatorSpec, k: int) -> bool:
    """Whether UV-finiteness of the overlap ratio survives interactions.

    For vertices coupling up to k copies of the observable the ratio stays
    finite iff h_s <= 1/2 + 1/(2k) (scalar) or h_v <= 1/(2k) (vector).
    Both bounds tighten with k, so passing at k covers every smaller degree.
    """
    if k < 1:
        raise ValueError("vertex degree must be at least 1")
    if spec.kind == "scalar":
        return spec.weight <= 0.5 + 0.5 / k
    return spec.weight <= 0.5 / k


# ---------------------------------------------------------------------------
# lattice


def ring_correlations(model: LatticeModel, n_sites: int, rmax: int):
    """(C(r), F(r)) for r = 0..rmax on an antiperiodic ring of n_sites.

    Momentum sums over k = pi (2m + 1) / N converge to the infinite-chain
    kernels like 1/N^2.
    """
    N = n_sites
    ks = np.pi * (2 * np.arange(N) + 1 - N) / N
    eps = -(np.cos(ks) + model.h_field)
    delta = model.kappa * np.sin(ks)  # sign anchored to the open-chain ED
    E = np.hypot(eps, delta)
    nk = 0.5 * (1.0 - eps / E)            # <c+_k c_k>
    fk = -1j * delta / (2.0 * E)          # <c_k c_{-k}>
    phase = np.exp(-1j * np.outer(np.arange(rmax + 1), ks))
    return np.real(phase @ nk) / N, np.real(phase @ fk) / N


def fock_operators(n_sites: int):
    """Dense annihilation matrices with Jordan-Wigner signs, up to the oracle's size."""
    dim = 1 << n_sites
    if dim > EDOracle.MAX_DIM:
        raise ValueError(f"Fock dimension 2^{n_sites} exceeds {EDOracle.MAX_DIM}")
    s = np.arange(dim)
    occ = (s[:, None] >> np.arange(n_sites)) & 1
    below = np.cumsum(occ, axis=1) - occ  # the Jordan-Wigner string of c_j
    ops = []
    for j in range(n_sites):
        on = occ[:, j] == 1
        m = np.zeros((dim, dim))
        m[s[on] ^ (1 << j), s[on]] = np.where(below[on, j] & 1, -1.0, 1.0)
        ops.append(m)
    return ops


def quadratic_fock_operator(H: np.ndarray) -> np.ndarray:
    """(1/2) psi+ H psi as a dense Fock-space matrix."""
    H = np.asarray(H, dtype=complex)
    m = H.shape[0] // 2
    cs = fock_operators(m)
    ops = cs + [c.conj().T for c in cs]
    out = np.zeros((1 << m, 1 << m), dtype=complex)
    for a in range(2 * m):
        for b in range(2 * m):
            if H[a, b] != 0:
                out += 0.5 * H[a, b] * (ops[a].conj().T @ ops[b])
    return out


def correlation_matrix(oracle: EDOracle) -> NambuCorrelationMatrix:
    """Doubled two-point matrix measured directly on the oracle's ground state."""
    cs = fock_operators(oracle.n)
    ops = cs + [c.conj().T for c in cs]
    m2 = 2 * oracle.n
    P = np.zeros((m2, m2), dtype=complex)
    for a in range(m2):
        va = ops[a] @ oracle.psi
        for b in range(m2):
            P[a, b] = np.vdot(va, ops[b] @ oracle.psi)
    return NambuCorrelationMatrix(2 * P - np.eye(m2))


# ---------------------------------------------------------------------------
# lattice entropies


def gaussian_renyi_entropy(corr: CorrelationMatrix, n: float) -> float:
    """Renyi entropy of a Gaussian state from its mode occupations (1 +- nu) / 2.

    nu runs over the eigenvalues of Gamma, each standing for
    ``corr.modes_per_eigenvalue`` modes.
    """
    nu = np.linalg.eigvalsh(corr.gamma)
    p = np.clip((1.0 + nu) / 2.0, 1e-300, 1.0)
    q = np.clip((1.0 - nu) / 2.0, 1e-300, 1.0)
    if n == 1:
        s = -(p * np.log(p) + q * np.log(q))
    else:
        s = np.log(p**n + q**n) / (1.0 - n)
    return corr.modes_per_eigenvalue * float(np.sum(s))


def _spectral_renyi(rho: np.ndarray, n: float) -> float:
    """Renyi entropy of a normalized density matrix from its eigenvalues above 1e-14."""
    lam = np.linalg.eigvalsh(rho)
    lam = lam[lam > 1e-14]
    if n == 1:
        return float(-np.sum(lam * np.log(lam)))
    return float(np.log(np.sum(lam**n)) / (1.0 - n))


def ed_renyi_entropy(oracle: EDOracle, a_sites, b_sites, n: float = 1) -> float:
    """Renyi entropy of rho_A = sum_q rho~_{A,q}: the post-measurement states
    of any measured B sum back to the reduced state of A."""
    return _spectral_renyi(oracle.sector_states(a_sites, b_sites).sum(0), n)


def ed_mie(oracle: EDOracle, a_sites, b_sites, n: float = 1) -> float:
    """Outcome-probability-weighted Renyi entropy sum_q p_q S_A^(n)(q).

    Sectors with p_q below 1e-14 carry no state and are skipped.
    """
    total = 0.0
    for rho in oracle.sector_states(a_sites, b_sites):
        p = np.trace(rho).real
        if p >= 1e-14:
            total += p * _spectral_renyi(rho / p, n)
    return float(total)
