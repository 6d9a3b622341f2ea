"""Exact free-fermion engine for charge measurements on the lattice.

Ground states of the quadratic chain

    H = -1/2 sum_j (c+_j c_{j+1} + kappa c+_j c+_{j+1} + h.c. + 2 h c+_j c_j)

are Gaussian, so every flux-dressed replica trace reduces to Pfaffians
of Majorana correlation matrices, whose signs are exact. Two presets are
wired to infinite-chain kernels: the half-filled tight-binding chain
(kappa = h = 0, the U(1) lattice realization of the compact boson at
K = 1) and the critical Ising chain (kappa = h = 1). Arbitrary couplings
are supported through finite open chains, which also feed the brute-force
exact-diagonalization oracle used to gate every formula on <= 12 sites.

Conventions: doubled operators are stacked particle-first,
psi = (c_0 .. c_{m-1}, c+_0 .. c+_{m-1}); the correlation matrix is
Gamma[a, b] = 2 <psi+_a psi_b> - delta, and the dressed-state algebra is
phrased in D = Gamma^T so that kernels multiply in operator order.
Division-free Mobius forms are used throughout, so Gamma is used as
given: exactly occupied or empty modes (Majorana dimers of the paired
presets, or modes the traced sites cannot purify) never hit a singular
inverse. Traces use Majoranas a_{2j} = c_j + c+_j,
a_{2j+1} = i (c+_j - c_j) and M_kl = (i/2) <[a_k, a_l]>: the flux trace
over B and the pair trace of two states on A are each one Pfaffian
(Fagotti & Calabrese, J. Stat. Mech. (2010) P04016).

The route follows the state's type. Number-conserving states (the xx
preset and every kappa = 0 chain) are built as the m x m particle block
alone (``ParticleCorrelationMatrix``) and take a charge-block route, where
traces factorize over occupations and pair traces are determinants
(``ChargeBlockWindow``). Paired states are built doubled
(``NambuCorrelationMatrix``) and take the Pfaffians; so does a conserving
Gamma passed in doubled form. Where |cos(gamma/2)| > 0.1, away from trace
zeros, the two agree to 1e-13 relative (7.6e-14 at worst over the README
xx grid, odd and pure windows and kappa = 0 chains).

Costs per window. Pfaffian route: one ``eigvalsh`` of Gamma to validate
it; M in O(m^2) from sums and differences of the Gamma blocks;
one Pfaffian and one ``np.linalg.solve`` with the 2 ell2 x 2 ell2 B block
of the dressing denominator per distinct flux, whose solved columns also
bound its condition number. The Pfaffian kernel eliminates a whole stack
of matrices at once, each with its own pivots, so a charge-sector table
evaluates all its pair traces in a few stacked calls. Charge-block route:
one ``eigvalsh`` of the m x m particle block (validation) and one ``eigh``
of the ell2 x ell2 D_BB, whose eigenvalues give every flux trace and whose
eigenbasis every dressing; per flux O(ell1^2 ell2) for the dressed state
of A, and one ell1 x ell1 determinant per pair trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from opens.errors import ConvergenceError, DomainError, SingularMatrixError

# reciprocal condition number below which the dressing denominator S counts
# as singular, i.e. the flux trace vanishes and no normalized dressed state
# exists; |trace| itself is no test, exact Ising traces fall below 1e-13.
# The Pfaffian route reads an upper bound on it off its solve (within 10x)
SINGULAR_RCOND = 1e-13
PANEL = 32  # Pfaffian elimination steps per deferred trailing update
STACK = 128  # pair traces per stacked call in a sector table
LANCZOS_STEPS = 400  # steps per parity before the ED oracle gives up


@dataclass(frozen=True)
class LatticeModel:
    """Pairing strength kappa and field h of the quadratic chain."""

    kappa: float = 0.0
    h_field: float = 0.0

    @property
    def is_tight_binding(self) -> bool:
        return self.kappa == 0.0 and self.h_field == 0.0

    @property
    def is_ising(self) -> bool:
        return self.kappa == 1.0 and self.h_field == 1.0

    @property
    def is_preset(self) -> bool:
        return self.is_tight_binding or self.is_ising


TIGHT_BINDING = LatticeModel(0.0, 0.0)
ISING = LatticeModel(1.0, 1.0)


@dataclass(frozen=True)
class SubsystemLayout:
    """ell1 probed sites, d traced gap sites, ell2 measured sites."""

    ell1: int
    d: int
    ell2: int

    def __post_init__(self):
        if self.ell1 < 1 or self.ell2 < 1 or self.d < 0:
            raise ValueError("need ell1 >= 1, ell2 >= 1, d >= 0")

    @property
    def window(self) -> int:
        return self.ell1 + self.d + self.ell2

    @property
    def sites_A(self):
        return list(range(self.ell1))

    @property
    def sites_B(self):
        return list(range(self.ell1 + self.d, self.ell1 + self.d + self.ell2))


class CorrelationMatrix:
    """Validated two-point matrix Gamma of a Gaussian fermion state.

    Each mode of the m-site window holds ``blocks`` rows of Gamma. One
    ``eigvalsh`` checks the spectrum against [-1, 1] to 1e-10; the windows
    read D = Gamma^T as given, exactly pure modes included.
    """

    blocks = 1

    def __init__(self, gamma: np.ndarray):
        gamma = np.asarray(gamma)
        size = gamma.shape[0]
        if gamma.ndim != 2 or gamma.shape[1] != size or size % self.blocks:
            raise ValueError(f"need a square matrix of {self.blocks} rows per site, "
                             f"got shape {gamma.shape}")
        herm = np.abs(gamma - gamma.conj().T).max()
        if herm > 1e-10:
            raise ValueError(f"correlation matrix not Hermitian, residue {herm:.2e}")
        ev = self.spectrum = np.linalg.eigvalsh(gamma)  # ascending, those of Gamma^T too
        if ev[0] < -1.0 - 1e-10 or ev[-1] > 1.0 + 1e-10:
            raise ValueError(f"eigenvalues outside [-1, 1]: [{ev[0]}, {ev[-1]}]")
        self.gamma = gamma
        self.m = size // self.blocks

    @property
    def modes_per_eigenvalue(self) -> float:
        """Fermion modes per eigenvalue of Gamma: doubled indices count each twice."""
        return 1.0 / self.blocks

    def restrict(self, sites) -> "CorrelationMatrix":
        """Correlations of the subsystem on the given window positions."""
        sites = np.asarray(sites)
        idx = np.concatenate([sites + k * self.m for k in range(self.blocks)])
        return type(self)(self.gamma[np.ix_(idx, idx)])


class NambuCorrelationMatrix(CorrelationMatrix):
    """2m x 2m Gamma over the doubled indices (c, c+), pairing allowed.

    Its windows take the Pfaffian route (``GaussianWindow``). That holds
    for a number-conserving state given in this form too; the module
    docstring gives how closely it agrees with the charge-block route.
    """

    blocks = 2


class ParticleCorrelationMatrix(CorrelationMatrix):
    """m x m G = 2 C - 1, C_jl = <c+_j c_l>, of a number-conserving state.

    Without pairing the doubled matrix is diag(G, -G^T), so G carries the
    whole state and each of its eigenvalues stands for one mode (Peschel,
    J. Phys. A 36, L205 (2003)). Its windows take the charge-block route
    (``ChargeBlockWindow``).
    """


# ---------------------------------------------------------------------------
# correlation kernels


def tight_binding_c(r: int) -> float:
    """<c+_j c_{j+r}> of the half-filled infinite chain, sin(pi r/2)/(pi r)."""
    r = abs(int(r))
    if r == 0:
        return 0.5
    if r % 2 == 0:
        return 0.0
    return (-1.0) ** ((r - 1) // 2) / (np.pi * r)


def ising_c(r: int) -> float:
    """<c+_j c_{j+r}> of the critical Ising chain (kappa = h = 1)."""
    base = 0.5 if r == 0 else 0.0
    return base + (-1.0) ** (abs(r) + 1) / (np.pi * (4.0 * r * r - 1.0))


def ising_f(r: int) -> float:
    """<c_j c_{j+r}> of the critical Ising chain; odd in r."""
    if r == 0:
        return 0.0
    return (-1.0) ** r * 2.0 * r / (np.pi * (4.0 * r * r - 1.0))


def _gamma_from_cf(C: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Assemble the doubled matrix from <c+c> and <cc> blocks (real case)."""
    m = C.shape[0]
    Fdag = -F  # <c+_j c+_l> = F[l, j] = -F[j, l] for real antisymmetric F
    return np.block(
        [[2 * C - np.eye(m), 2 * Fdag], [2 * F, np.eye(m) - 2 * C.T]]
    )


def ground_state_correlations(model: LatticeModel, layout: SubsystemLayout) -> CorrelationMatrix:
    """Infinite-chain ground-state correlations on the A u B window.

    The gap between A and B is traced out, which for Gaussian states just
    means its rows and columns are dropped. Only the two preset models
    carry infinite-volume kernels; other couplings go through
    ``finite_chain_correlations``. xx gives a ``ParticleCorrelationMatrix``,
    Ising a ``NambuCorrelationMatrix``.
    """
    if not model.is_preset:
        raise DomainError(
            "infinite-chain kernels exist only for the tight-binding and "
            "critical Ising presets; use finite_chain_correlations instead"
        )
    sites = np.array(layout.sites_A + layout.sites_B)
    span = layout.window - 1
    idx = sites[None, :] - sites[:, None] + span  # each kernel once per distance

    def table(kernel):
        return np.array([kernel(r) for r in range(-span, span + 1)])[idx]

    if model.is_tight_binding:
        return ParticleCorrelationMatrix(2 * table(tight_binding_c) - np.eye(len(sites)))
    return NambuCorrelationMatrix(_gamma_from_cf(table(ising_c), table(ising_f)))


def finite_chain_correlations(model: LatticeModel, n_sites: int) -> CorrelationMatrix:
    """Ground-state correlations of the open chain from its BdG modes.

    Works for any (kappa, h); the correlation matrix is 2 P - 1 with P the
    projector onto negative-energy quasiparticle eigenvectors. With pairing
    that is the doubled (c, c+) basis, a ``NambuCorrelationMatrix``.
    Without it (kappa = 0) P comes from the hopping matrix alone and
    projects onto the occupied orbitals, a ``ParticleCorrelationMatrix``.
    """
    N = n_sites
    T = np.zeros((N, N))
    D = np.zeros((N, N))
    for j in range(N - 1):
        T[j, j + 1] = T[j + 1, j] = -0.5
        D[j, j + 1] = -0.5 * model.kappa
        D[j + 1, j] = 0.5 * model.kappa
    T -= model.h_field * np.eye(N)
    pairs = model.kappa != 0.0
    # without pairing the BdG spectrum is that of T and of -T
    w, V = np.linalg.eigh(np.block([[T, D], [-D, -T]]) if pairs else T)
    if np.any(np.abs(w) < 1e-12):
        raise SingularMatrixError(
            "zero mode in the single-particle spectrum: ground state degenerate"
        )
    occ = V[:, w < 0]
    P = occ @ occ.T
    kind = NambuCorrelationMatrix if pairs else ParticleCorrelationMatrix
    return kind(2 * P - np.eye(len(P)))


# ---------------------------------------------------------------------------
# exact-sign Gaussian traces


def pfaffian(A: np.ndarray):
    """Pfaffian of a complex antisymmetric matrix, or of each matrix in a stack.

    Parlett-Reid elimination with partial pivoting, which keeps the
    trailing block antisymmetric (Wimmer, ACM TOMS 38 (2012), Alg. 923).
    Each member of an (..., n, n) stack picks its own pivots, and one numpy
    call advances every member by a step, so a member's value does not
    depend on the stack around it. Up to PANEL rank-2 updates are held as
    A + U V^T - V U^T, applied to each pivot column as it is needed and to
    the trailing block in one matrix product. A member that meets a zero
    pivot runs on as inf/nan and gets exactly 0. Pf(A)^2 = det(A), with
    the sign fixed exactly. A 2-D input gives a complex scalar.
    """
    A = np.array(A, dtype=complex)
    n = A.shape[-1]
    if A.ndim < 2 or A.shape[-2] != n or n % 2:
        raise ValueError(f"need even square matrices, got shape {A.shape}")
    lead = A.shape[:-2]
    if lead:
        A = A.reshape(-1, n, n)
    at = (np.arange(A.shape[0])[:, None],) if lead else ()  # member of each swap
    UV = np.empty(A.shape[:-1] + (2, min(PANEL, n // 2)), dtype=complex)
    U, V = UV[..., 0, :], UV[..., 1, :]  # one swap moves a row of both
    pivots = np.empty(A.shape[:-2] + (n // 2,), dtype=complex)
    flips = np.zeros(A.shape[:-2], dtype=bool)
    j = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(0, n, 2):
            col = A[..., k + 1:, k] + (U[..., k + 1:, :j] @ V[..., k, :j, None])[..., 0]
            col -= (V[..., k + 1:, :j] @ U[..., k, :j, None])[..., 0]
            i = np.abs(col).argmax(-1, keepdims=True)
            if np.count_nonzero(i):  # swap rows and columns k+1 and k+1+i
                c = i * np.array([0, 1])
                p, q = c + (k + 1), c[..., ::-1] + (k + 1)
                A[at + (p, slice(k, None))] = A[at + (q, slice(k, None))]
                A[at + (slice(k, None), p)] = A[at + (slice(k, None), q)]
                UV[at + (p,)] = UV[at + (q,)]
                col[at + (c,)] = col[at + (c[..., ::-1],)]
                flips ^= i[..., 0] != 0
            pivots[..., k // 2] = col[..., 0]
            s = k + 2
            if s == n:
                break
            U[..., s:, j] = col[..., 1:] / col[..., :1]  # row k past the pivot, over it
            v = V[..., s:, j]
            np.add(A[..., s:, k + 1], (U[..., s:, :j] @ V[..., k + 1, :j, None])[..., 0], out=v)
            v -= (V[..., s:, :j] @ U[..., k + 1, :j, None])[..., 0]
            j += 1
            if j == PANEL:
                Us, Vs = U[..., s:, :], V[..., s:, :]
                update = Us @ Vs.swapaxes(-1, -2)
                update -= Vs @ Us.swapaxes(-1, -2)
                A[..., s:, s:] += update
                j = 0
    # pivots holds -A[k, k+1]: one sign per pivot on top of the swaps
    pf = (-1.0) ** (n // 2) * np.where(flips, -1.0, 1.0) * np.prod(pivots, axis=-1)
    pf = np.where((pivots == 0.0).any(axis=-1), 0.0, pf)
    return pf.reshape(lead) if lead else complex(pf)


def majorana_matrix(gamma: np.ndarray) -> np.ndarray:
    """M_kl = (i/2) <[a_k, a_l]> from the particle-first doubled matrix Gamma.

    Majoranas a_{2j} = c_j + c+_j, a_{2j+1} = i (c+_j - c_j); M is real
    for Hermitian states and complex antisymmetric for flux-dressed ones.
    M = (i/2) W* Gamma W^T, where row 2j of W is e_j + e_{j+m} and row
    2j+1 is i (e_{j+m} - e_j): every entry is a sum or difference of one
    entry from each Gamma block, formed here in O(m^2).
    """
    g = np.asarray(gamma, dtype=complex)
    m = g.shape[0] // 2
    s, d = g[:m] + g[m:], g[:m] - g[m:]  # rows of W* Gamma, up to the factor i on d
    maj = np.empty((2 * m, 2 * m), dtype=complex)
    maj[0::2, 0::2] = 0.5j * (s[:, :m] + s[:, m:])
    maj[0::2, 1::2] = 0.5 * (s[:, :m] - s[:, m:])
    maj[1::2, 0::2] = -0.5 * (d[:, :m] + d[:, m:])
    maj[1::2, 1::2] = 0.5j * (d[:, :m] - d[:, m:])
    return maj


def flux_trace(maj: np.ndarray, gamma: float) -> complex:
    """Tr(rho e^{i gamma Q}) of a normalized Gaussian state, Q counting every mode.

    e^{i gamma m / 2} Pf(cos(gamma/2) J + i sin(gamma/2) M), with
    J = (+) [[0, 1], [-1, 0]] the Majorana matrix of the empty state.
    """
    m = maj.shape[0] // 2
    A = 1j * np.sin(gamma / 2) * maj
    k = np.arange(0, 2 * m, 2)
    A[k, k + 1] += np.cos(gamma / 2)  # cos(gamma/2) J, added on its 2m entries
    A[k + 1, k] -= np.cos(gamma / 2)
    return np.exp(0.5j * gamma * m) * pfaffian(A)


def pair_trace(maj1: np.ndarray, maj2: np.ndarray):
    """Tr(rho1 rho2) of two normalized Gaussian states on m modes.

    (-1)^m 2^{-m} Pf([[M1, -1], [1, -M2]]); its square is the familiar
    det((1 - M1 M2) / 4), but the Pfaffian also fixes the sign. Two
    (..., 2m, 2m) stacks give one trace per pair from a single stacked
    Pfaffian.
    """
    m2 = maj1.shape[-1]
    one = np.eye(m2)
    blk = np.empty(maj1.shape[:-2] + (2 * m2, 2 * m2), dtype=complex)
    blk[..., :m2, :m2] = maj1
    blk[..., :m2, m2:] = -one
    blk[..., m2:, :m2] = one
    blk[..., m2:, m2:] = -maj2
    return (-0.5) ** (m2 // 2) * pfaffian(blk)


class GaussianWindow:
    """Flux traces and replica products on an A u B window of a Gaussian state.

    Flux traces are single Pfaffians over the Majorana matrix of B, since
    e^{i gamma Q_B} leaves A untouched. Each distinct flux dresses A once
    and keeps the normalized dressed state, whose pair traces are again
    Pfaffians. Every sign is exact, so no value is continued along a path.

    The dressed window is the Mobius form
    U^{-1} [U(1+D) - (1-D)] [U(1+D) + (1-D)]^{-1} U on D = Gamma^T, with U
    the kernel of e^{i gamma Q_B}. The A rows of its denominator are 2, so
    one Schur identity leaves the dressed state of A as

        D_AA - D_AB S^{-1} (U_B - 1) D_BA,  S = U_B (1 + D_BB) + (1 - D_BB),

    with U_B = diag(e^{i gamma}, e^{-i gamma}) on the particle and hole
    rows of B: one solve with the 2 ell2 x 2 ell2 block S per flux. S stays
    well conditioned even at exactly pure modes, and is singular where the
    flux trace vanishes; there the dressed state cannot be normalized and
    ``SingularMatrixError`` names the flux. The same solve takes Higham's
    alternating probe as one more column, and each solved column x = S^-1 b
    gives ||S^-1||_1 >= ||x||_1 / ||b||_1, so the rcond check needs no
    factorization of its own; on Ising windows the bound it gives is
    within a factor 8 below the exact kappa_1(S).

    The public methods memoize and compose; ``_prepare``, ``_flux_trace``,
    ``_dress_a``, ``pair_operand`` and ``pair_traces`` carry the algebra,
    which ``ChargeBlockWindow`` replaces for a ``ParticleCorrelationMatrix``.
    """

    def __init__(self, corr: CorrelationMatrix, n_a: int, n_b: int):
        if corr.m != n_a + n_b:
            raise ValueError(f"window has {corr.m} sites, layout wants {n_a + n_b}")
        self.corr = corr
        self.n_a = n_a
        self.n_b = n_b
        self._log_flux = {}
        self._dressed_a = {}
        self._prepare()

    def _prepare(self):
        if isinstance(self.corr, ParticleCorrelationMatrix):
            raise TypeError("the Pfaffian route needs the doubled NambuCorrelationMatrix; "
                            "a ParticleCorrelationMatrix takes ChargeBlockWindow")
        n_a, w, k = self.n_a, self.corr.m, 2 * self.n_a
        ab = np.r_[0:n_a, w:w + n_a, n_a:w, w + n_a:2 * w]  # A's particle and hole rows, then B's
        D = self.corr.gamma.T[ab][:, ab]  # two takes: np.ix_ costs 5 times as much
        self.d_a, self._d_ab, self._d_ba, d_bb = D[:k, :k], D[:k, k:], D[k:, :k], D[k:, k:]
        eye = np.eye(len(d_bb))
        self._ip_b, self._im_b = eye + d_bb, eye - d_bb
        i = np.arange(len(d_bb))
        self._probe = (-1.0) ** i * (1.0 + i / (len(d_bb) - 1))  # Higham's test vector
        self.maj_b = majorana_matrix(self.corr.gamma[ab[k:]][:, ab[k:]])

    def log_flux_trace(self, gamma: float) -> complex:
        """log Tr(rho_AB e^{i gamma Q_B}) on the principal branch, computed once per flux."""
        if gamma not in self._log_flux:
            with np.errstate(divide="ignore"):
                self._log_flux[gamma] = complex(np.log(self._flux_trace(gamma)))
        return self._log_flux[gamma]

    def _flux_trace(self, gamma: float) -> complex:
        return flux_trace(self.maj_b, gamma)

    def dressed_d_a(self, gamma: float) -> np.ndarray:
        """D-matrix of the normalized dressed state of A, solved once per flux."""
        if gamma not in self._dressed_a:
            self._dressed_a[gamma] = self._dress_a(gamma)
        return self._dressed_a[gamma]

    def _dress_a(self, gamma: float) -> np.ndarray:
        u_b = np.repeat([np.exp(1j * gamma), np.exp(-1j * gamma)], self.n_b)
        den = self._ip_b * u_b[:, None] + self._im_b  # S = U_B (1 + D_BB) + (1 - D_BB)
        rhs = np.column_stack([(u_b - 1.0)[:, None] * self._d_ba, self._probe])
        try:
            sol = np.linalg.solve(den, rhs)
        except np.linalg.LinAlgError:  # an exactly zero pivot
            rcond = 0.0
        else:
            # ||S^-1||_1 >= ||S^-1 b||_1 / ||b||_1 for every column b; zero columns
            # (all of (U_B - 1) D_BA at gamma = 0) say nothing, the probe is never one
            size = np.abs(rhs).sum(0)
            cols = size > 0
            inv_norm = (np.abs(sol[:, cols]).sum(0) / size[cols]).max()
            rcond = 1.0 / (np.linalg.norm(den, 1) * inv_norm)
        _check_dressing(gamma, rcond)
        return self.d_a - self._d_ab @ sol[:, :-1]

    def pair_operand(self, d: np.ndarray) -> np.ndarray:
        """What ``pair_traces`` takes for the state of A with D-matrix d."""
        return majorana_matrix(d.T)

    def pair_traces(self, x1: np.ndarray, x2: np.ndarray):
        """Tr(rho1 rho2) of states given by ``pair_operand``, member by member of two stacks."""
        return pair_trace(x1, x2)

    def log_replica_product(self, gammas) -> complex:
        """log Tr_A prod_j rho_hat_{A, gamma_j} of the normalized dressed states.

        Pairwise composition: each step multiplies the running Gaussian by
        the next one, picking up their pair trace and updating
        D -> 1 - (1 - D')(1 + D D')^{-1}(1 - D).
        """
        gammas = list(gammas)
        if len(gammas) == 1:
            return 0.0 + 0.0j
        ia = np.eye(len(self.d_a))
        dc = self.dressed_d_a(gammas[0])
        total = 0.0 + 0.0j
        for k, g in enumerate(gammas[1:], start=2):
            dn = self.dressed_d_a(g)
            total += np.log(self.pair_traces(self.pair_operand(dc), self.pair_operand(dn)))
            if k < len(gammas):
                dc = ia - (ia - dn) @ np.linalg.solve(ia + dc @ dn, ia - dc)
        return total

    def log_renyi_norm(self, n: int) -> float:
        """log Tr rho_A^n from the undressed mode occupations."""
        nu = np.linalg.eigvalsh((self.d_a + self.d_a.conj().T) / 2.0)
        return self.corr.modes_per_eigenvalue * float(
            np.sum(np.log(((1 + nu) / 2.0) ** n + ((1 - nu) / 2.0) ** n))
        )


class ChargeBlockWindow(GaussianWindow):
    """The window of a ``ParticleCorrelationMatrix``, on its m x m D = G^T.

    With no pairing the particle block carries the whole state, and:

    - the flux trace is prod_k (1 - nu_k + nu_k e^{i gamma}) over the
      occupations nu_k = (1 + d_k) / 2 of C_B, d_k the eigenvalues of D_BB
      (Klich & Levitov, PRL 102, 100502 (2009));
    - the dressed state of A is the Schur identity of ``GaussianWindow``
      with U_B = e^{i gamma}, written in the eigenbasis (d, V) of D_BB,
      where S is diagonal: D_AA - D_AB V diag(f) V+ D_BA with
      f = (e^{i gamma} - 1) / (e^{i gamma} (1 + d) + (1 - d)), and no solve;
    - the pair trace of two states is det((1 + D1 D2) / 2), sign included.

    One eigensolve of D_BB per window serves every flux.
    """

    def _prepare(self):
        n_a = self.n_a
        D = self.corr.gamma.T
        self.d_a = D[:n_a, :n_a]
        self._d_b, v = np.linalg.eigh(D[n_a:, n_a:])  # D_BB = (2 C_B - 1)^T
        self._empty, self._full = (1.0 - self._d_b) / 2.0, (1.0 + self._d_b) / 2.0
        self._left = D[:n_a, n_a:] @ v
        self._right = v.conj().T @ D[n_a:, :n_a]

    def _flux_trace(self, gamma: float) -> complex:
        return complex(np.prod(self._empty + self._full * np.exp(1j * gamma)))

    def _dress_a(self, gamma: float) -> np.ndarray:
        z = np.exp(1j * gamma)
        den = z * (1.0 + self._d_b) + (1.0 - self._d_b)
        size = np.abs(den)
        _check_dressing(gamma, size.min() / size.max())
        return self.d_a - (self._left * ((z - 1.0) / den)) @ self._right

    def pair_operand(self, d: np.ndarray) -> np.ndarray:
        return d

    def pair_traces(self, x1: np.ndarray, x2: np.ndarray):
        return np.linalg.det((np.eye(x1.shape[-1]) + x1 @ x2) / 2.0)


def _lowest_pair(T, beta, last, tol):
    """(level, x, bound): the lowest level of a Lanczos matrix T and its unit vector x.

    bound bounds the residual of the Krylov vector Q x, with beta the next
    Lanczos coefficient. While ``last``, the pair of a leading block of T,
    has a bound above 1e11 tol, ``eigh`` gives the lowest Ritz pair and its
    bound |beta s_k|. Closer in, one inverse-iteration step from ``last``
    gives x, its Rayleigh quotient rho and the bound
    ||T x - rho x|| + |beta x_k|, which is at least the Ritz bound of the
    level x approaches; once that bound passes tol, a Cholesky factor of
    T - (rho - 1e6 tol) shows that no level of T lies below rho. Where that
    fails, or the solve meets an exact zero pivot, ``eigh`` decides.
    """
    if last is not None and last[2] < 1e11 * tol:
        level, y, _ = last
        x = np.zeros(len(T))
        x[:len(y)] = y
        eye = np.eye(len(T))
        try:
            x = np.linalg.solve(T - level * eye, x)
            x /= np.linalg.norm(x)
            tx = T @ x
            level = x @ tx
            bound = np.linalg.norm(tx - level * x) + abs(beta * x[-1])
            if bound > tol:
                return level, x, bound
            np.linalg.cholesky(T - (level - 1e6 * tol) * eye)
            return level, x, bound
        except np.linalg.LinAlgError:
            pass
    levels, vectors = np.linalg.eigh(T)
    return levels[0], vectors[:, 0], abs(beta * vectors[-1, 0])


def _check_dressing(gamma: float, rcond: float):
    """Raise where the dressing denominator is singular, i.e. the flux trace vanishes."""
    if not rcond > SINGULAR_RCOND:  # nan too: a solve that overflowed
        raise SingularMatrixError(
            f"flux trace vanishes at gamma = {gamma!r} (rcond {rcond:.1e}); "
            "the normalized dressed state does not exist"
        )


def _window_for(model_or_corr, layout: SubsystemLayout) -> GaussianWindow:
    """The window of the state's type: the charge block for a ``ParticleCorrelationMatrix``."""
    corr = model_or_corr
    if isinstance(corr, LatticeModel):
        corr = ground_state_correlations(corr, layout)
    window = ChargeBlockWindow if isinstance(corr, ParticleCorrelationMatrix) else GaussianWindow
    return window(corr, layout.ell1, layout.ell2)


def charged_moments_lattice(model_or_corr, layout: SubsystemLayout, gammas) -> complex:
    """Normalized flux-dressed replica trace Z_n(gamma_1..gamma_n) / Z_n.

    Tr_A prod_j Tr_B(rho_AB e^{i gamma_j Q_B}) over Tr rho_A^n. Accepts a
    preset model (infinite-chain kernels) or an explicit window correlation
    matrix; an open finite chain enters as
    ``finite_chain_correlations(model, n).restrict(layout.sites_A +
    layout.sites_B)``. The route follows the state's type: a
    ``ParticleCorrelationMatrix`` (xx, every kappa = 0 chain) takes the
    charge block, a ``NambuCorrelationMatrix`` the Pfaffians, even when its
    Gamma conserves charge; the module docstring gives how closely the two
    agree. Exactly 1 at zero flux.
    """
    gammas = [float(g) for g in np.atleast_1d(gammas)]
    win = _window_for(model_or_corr, layout)
    log_num = sum(win.log_flux_trace(g) for g in gammas)
    log_num += win.log_replica_product(gammas)
    log_den = win.log_renyi_norm(len(gammas))
    return complex(np.exp(log_num - log_den))


def ising_gamma_rescaling(gamma: float) -> float:
    """Flux rescaling mapping Ising charged moments onto the Gaussian form.

    arctanh(tan(gamma / 2)), approximately gamma / 2 at small flux.
    """
    t = np.tan(gamma / 2.0)
    if np.abs(t) >= 1.0:
        raise DomainError(f"|tan(gamma/2)| = {abs(t):.3f} >= 1: rescaling undefined")
    return float(np.arctanh(t))


def ising_log_coefficient_prediction(gammas) -> float:
    """Predicted log(ell2) coefficient of the Ising charged moments.

    Plugging the h_s = 1 flat-interval integral (universal part
    -2 log ell2 per replica diagonal) into the Gaussian quadratic form
    with rescaled fluxes gives sum_i (arctanh(tan(gamma_i/2)) / pi)^2: the
    rescaled flux over pi feeds the h_s = 1 flat integral directly.
    """
    return float(sum((ising_gamma_rescaling(g) / np.pi) ** 2 for g in np.atleast_1d(gammas)))


def charge_sector_table(model_or_corr, layout: SubsystemLayout):
    """Outcome probabilities p_q and pairwise overlaps R_{q1 q2}.

    The charge of B takes integer values q = 0..ell2, so the gamma
    integrals collapse to exact discrete Fourier sums over
    gamma_m = 2 pi m / (ell2 + 1). The (ell2 + 1)(ell2 + 2)/2 pair traces
    run in stacks of at most STACK members each, which bounds the memory
    of large tables: Pfaffians, or on a ``ParticleCorrelationMatrix``
    window determinants of the ell1 x ell1 particle blocks. Returns (p, R, raw) with
    raw[q1, q2] = Tr(rho~_{A,q1} rho~_{A,q2}) = p_{q1} p_{q2} R_{q1 q2}.
    """
    win = _window_for(model_or_corr, layout)
    nq = layout.ell2 + 1
    # any nq equally spaced fluxes mod 2 pi invert the integer spectrum
    # exactly; the half-spacing offset (odd ell2) keeps gamma = pi, where
    # half-filled windows have an exact zero, off the grid
    offset = 0.5 if layout.ell2 % 2 else 0.0
    gs = 2.0 * np.pi * (np.arange(nq) + offset) / nq
    traces = np.array([np.exp(win.log_flux_trace(g)) for g in gs])
    phases = np.exp(-1j * gs[None, :] * np.arange(nq)[:, None])  # [q, m]
    p = (phases @ traces) / nq
    if np.abs(p.imag).max() > 1e-9:
        raise ValueError(f"charge probabilities not real: {np.abs(p.imag).max():.2e}")
    p = p.real
    # every pair overlap needs both normalized dressed states, so a flux
    # whose trace vanishes raises SingularMatrixError rather than being
    # dropped: its post-measurement contribution is generally not zero
    ops = np.array([win.pair_operand(win.dressed_d_a(g)) for g in gs])
    i, j = np.triu_indices(nq)
    ov = np.concatenate([win.pair_traces(ops[i[c:c + STACK]], ops[j[c:c + STACK]])
                         for c in range(0, i.size, STACK)])
    weighted = np.empty((nq, nq), dtype=complex)
    weighted[i, j] = weighted[j, i] = ov * traces[i] * traces[j]
    raw = (phases @ weighted @ phases.T) / nq**2
    if np.abs(raw.imag).max() > 1e-9:
        raise ValueError("sector overlaps not real")
    raw = raw.real
    with np.errstate(divide="ignore", invalid="ignore"):
        R = raw / np.outer(p, p)
    return p, R, raw


# ---------------------------------------------------------------------------
# exact-diagonalization oracle


class EDOracle:
    """Brute-force many-body reference on chains of up to 12 sites.

    Finds the ground state by Lanczos, and evaluates charged moments,
    outcome probabilities, sector overlaps and post-measurement states
    directly from projectors, with no Gaussian machinery anywhere.

    Basis state s holds site j in bit j, and every table is numpy bit
    arithmetic on s = 0 .. 2^N - 1: occupations (s >> j) & 1, hopping and
    pairing on bond (j, j+1) the flip s ^ (3 << j), which carries no
    Jordan-Wigner string. Both flips keep the fermion parity
    popcount(s) & 1, so H never mixes the even and the odd states; ``psi``
    lives on the 2^N basis with exact zeros on the other parity. Reordering
    the modes to A first, then the rest in site order, signs each amplitude
    by the parity of its inversion count: occupied pairs j < j' that the
    new order puts the other way round.
    """

    MAX_DIM = 4096

    def __init__(self, model: LatticeModel, n_sites: int):
        if (1 << n_sites) > self.MAX_DIM:
            raise ValueError(f"Fock dimension 2^{n_sites} exceeds {self.MAX_DIM}")
        self.model = model
        self.n = n_sites
        self.psi, self.gap, self.residual = self._ground_state()
        self._labels = {}

    def _hamiltonian(self):
        """H as a function on stacks of Fock vectors (..., 2^N), never formed.

        The state is viewed as a matrix X[hi, lo] over the high sites L..N-1
        and the low sites 0..L-1, L = N // 2. The bonds inside each half are
        one dense matrix over that half's bits, applied to its axis of X; the
        middle bond (L-1, L) flips the top low bit and the bottom high bit,
        a view of X reversed along both. The field is a diagonal, summed site
        by site. Each entry of H is then a single product, so H applied to a
        unit vector gives its column of H exactly.
        """
        N, kappa, h = self.n, self.model.kappa, self.model.h_field
        L = N // 2

        def bonds(n):  # hop where the two bits differ, pair where they agree
            s = np.arange(1 << n)
            M = np.zeros((s.size, s.size))
            for j in range(n - 1):
                hop = ((s >> j) & 1) != ((s >> (j + 1)) & 1)
                M[s ^ (3 << j), s] = np.where(hop, -0.5, -0.5 * kappa)
            return M

        lo, hi = bonds(L), bonds(N - L)
        occ = (np.arange(1 << N)[:, None] >> np.arange(N)) & 1
        diag = np.zeros(1 << N)
        for j in range(N):  # site by site: -h * occ.sum(1) rounds differently
            diag -= h * occ[:, j]
        diag = diag.reshape(1 << (N - L), 1 << L)
        # the middle bond's element by (bit L, bit L-1) of the state it lands on
        mid = -0.5 * np.array([[kappa, 1.0], [1.0, kappa]])[:, :, None]

        def apply(x):
            X = x.reshape(x.shape[:-1] + diag.shape)
            out = hi @ X
            out += X @ lo
            out += diag * X
            if L:
                split = x.shape[:-1] + (1 << (N - L - 1), 2, 2, 1 << (L - 1))
                out.reshape(split)[...] += mid * X.reshape(split)[..., ::-1, ::-1, :]
            return out.reshape(x.shape)

        return apply

    def _ground_state(self):
        """(psi, gap, residual |H psi - E0 psi|) from the lowest level of each parity.

        Two three-term Lanczos recurrences without reorthogonalization, one
        per parity, advance side by side: their vectors are the two rows of
        one (2, 2^(N-1)) array over each parity's states in ascending order,
        and one application of H serves both. Each starts from the same
        seeded Gaussian vector, which keeps the result reproducible to the
        bit, and ends once the Ritz residual bound |beta_k s_k| of its lowest
        level falls to 16 ulps of ||T||, or beta_k itself does (the Krylov
        space is invariant). A converged Ritz vector is as accurate as that
        bound (Paige, Linear Algebra Appl. 34, 235 (1980)); ``residual`` is
        recomputed from psi all the same. The lower level gives E0 and psi;
        gap is the other parity's level minus E0. For a quadratic chain that
        is the spectral gap: one quasiparticle flips the parity, and a
        same-parity excitation costs at least two.

        The basis grows in chunks of 32 steps. Every 8th step each recurrence
        checks its bound (``_lowest_pair``): a recurrence holds it at or below
        tolerance for about 10 steps, after which a copy of the converged
        level forms and the bound rises again. Only the first few checks
        diagonalize T; the later ones take one inverse-iteration step from
        the last check's pair, a k x k solve.
        """
        N = self.n
        apply = self._hamiltonian()
        s = np.arange(1 << N)
        half = s.size // 2
        odd = (((s[:, None] >> np.arange(N)) & 1).sum(1) & 1).astype(bool)
        states = np.concatenate([s[~odd], s[odd]])
        where = np.empty_like(s)
        where[states] = s  # Fock state -> its place in (even states, odd states)
        q = np.random.default_rng(0).standard_normal(half) * np.ones((2, 1))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        prev, beta = np.zeros_like(q), np.zeros((2, 1))
        alphas, betas, chunks = ([], []), ([], []), []  # per parity, while it runs
        pairs = [None, None]  # each parity's latest (level, vector of T, residual bound)
        live, norm, ulps = [0, 1], [0.0, 0.0], 16 * np.finfo(float).eps
        k = 0
        while live:
            if k == LANCZOS_STEPS:
                raise ConvergenceError(f"Lanczos used its {LANCZOS_STEPS} steps on the {N}-site "
                                       "chain without converging")
            if k % 32 == 0:
                chunks.append(np.empty((32, 2, half)))
            chunks[-1][k % 32] = q
            w = apply(q.reshape(-1)[where])[states].reshape(2, half)
            a = np.einsum("ij,ij->i", q, w)
            w -= a[:, None] * q + beta * prev
            b = np.sqrt(np.einsum("ij,ij->i", w, w))
            k += 1
            step = np.zeros((2, 1))
            for p in list(live):
                ap, bp = float(a[p]), float(b[p])
                alphas[p].append(ap)
                betas[p].append(bp)
                norm[p] = max(norm[p], abs(ap) + bp + float(beta[p, 0]))
                tol = ulps * norm[p]
                if k % 8 == 0 or bp <= tol:
                    T = np.diag(alphas[p])
                    T.flat[1::k + 1] = T.flat[k::k + 1] = betas[p][:-1]
                    pairs[p] = _lowest_pair(T, bp, pairs[p] if bp > tol else None, tol)
                    if pairs[p][2] <= tol:
                        live.remove(p)
                        continue
                step[p] = 1.0 / bp
            prev, beta = q, b[:, None]
            q = w * step
        x = np.zeros((2, half))
        for p, (_, y, _) in enumerate(pairs):
            for c, chunk in enumerate(chunks):
                part = y[32 * c:32 * c + 32]
                x[p] += part @ chunk[:part.size, p]
        (e0, *_), (e1, *_) = pairs
        low = int(e1 < e0)
        gap = abs(e1 - e0)
        if gap < 1e-10:
            raise SingularMatrixError(f"ground state degenerate, gap = {gap:.2e}")
        psi = np.zeros(s.size)
        psi[states[low * half:(low + 1) * half]] = x[low] / np.linalg.norm(x[low])
        return psi, float(gap), float(np.linalg.norm(apply(psi) - min(e0, e1) * psi))

    def _build_reshape(self, a_sites):
        """(V, rest): the state as a matrix V[a, rest] with fermionic reorder signs."""
        N, n_a = self.n, len(a_sites)
        rest = [j for j in range(N) if j not in a_sites]
        sites = np.array(a_sites + rest, dtype=int)  # new position -> site
        order = np.argsort(sites)  # site -> new position
        s = np.flatnonzero(self.psi)  # states with psi_s = 0 stay +0.0
        occ = (s[:, None] >> np.arange(N)) & 1
        bits = occ[:, sites]
        ai = bits[:, :n_a] @ (1 << np.arange(n_a))
        ri = bits[:, n_a:] @ (1 << np.arange(N - n_a))
        # inversions: sites j < j' that the new order puts the other way round
        inv = np.triu(order[:, None] > order[None, :]).astype(int)
        odd = ((occ @ inv) * occ).sum(1) & 1
        V = np.zeros((1 << n_a, 1 << (N - n_a)))
        V[ai, ri] = np.where(odd, -self.psi[s], self.psi[s])
        return V, rest

    def _sector_labels(self, a_sites, b_sites):
        """(V, q): V from `_build_reshape` and Q_B of each rest index, memoized per (A, B)."""
        key = (tuple(a_sites), tuple(b_sites))
        if key not in self._labels:
            V, rest = self._build_reshape(list(key[0]))
            pos = np.array([rest.index(j) for j in b_sites], dtype=int)
            self._labels[key] = V, ((np.arange(V.shape[1])[:, None] >> pos) & 1).sum(1)
        return self._labels[key]

    def charged_moment(self, a_sites, b_sites, gammas) -> complex:
        """Tr_A prod_j Tr_rest(rho e^{i gamma_j Q_B}) / Tr rho_A^n."""
        V, q = self._sector_labels(a_sites, b_sites)
        num = np.eye(V.shape[0], dtype=complex)
        for g in np.atleast_1d(gammas):
            num = num @ (V * np.exp(1j * g * q)[None, :]) @ V.conj().T
        rho_a = V @ V.conj().T
        den = np.linalg.matrix_power(rho_a, len(np.atleast_1d(gammas)))
        return complex(np.trace(num) / np.trace(den))

    def sector_states(self, a_sites, b_sites):
        """Unnormalized post-measurement states rho~_{A,q} = Tr_rest Pi_q rho Pi_q."""
        V, q = self._sector_labels(a_sites, b_sites)
        out = {}
        for qv in range(len(b_sites) + 1):
            mask = (q == qv).astype(float)
            out[qv] = (V * mask[None, :]) @ V.conj().T
        return out

    def sector_overlaps(self, a_sites, b_sites):
        """(p, R, raw) as in the determinant route, from exact projectors."""
        rhos = self.sector_states(a_sites, b_sites)
        nq = len(b_sites) + 1
        p = np.array([np.trace(rhos[q]).real for q in range(nq)])
        raw = np.empty((nq, nq))
        for i in range(nq):
            for j in range(i, nq):
                raw[i, j] = raw[j, i] = np.real(np.trace(rhos[i] @ rhos[j]))
        with np.errstate(divide="ignore", invalid="ignore"):
            R = raw / np.outer(p, p)
        return p, R, raw
