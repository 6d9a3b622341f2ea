import warnings

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm
from scipy.sparse.linalg import eigsh

from opens import lattice
from opens.errors import ConvergenceError, DomainError, SingularMatrixError
from opens.lattice import (
    ISING,
    TIGHT_BINDING,
    EDOracle,
    GaussianWindow,
    LatticeModel,
    NambuCorrelationMatrix,
    ParticleCorrelationMatrix,
    SubsystemLayout,
    charge_sector_table,
    charged_moments_lattice,
    finite_chain_correlations,
    flux_trace,
    ground_state_correlations,
    ising_c,
    ising_f,
    ising_gamma_rescaling,
    ising_log_coefficient_prediction,
    majorana_matrix,
    pair_trace,
    pfaffian,
    tight_binding_c,
)
from oracles import (
    correlation_matrix,
    ed_mie,
    ed_renyi_entropy,
    fock_operators,
    gaussian_renyi_entropy,
    quadratic_fock_operator,
    ring_correlations,
)


def window_corr(model, n_sites, layout):
    return finite_chain_correlations(model, n_sites).restrict(
        layout.sites_A + layout.sites_B
    )


def doubled(g):
    """[[g, 0], [0, -g^T]]: the doubled matrix of a number-conserving state."""
    z = np.zeros_like(g)
    return np.block([[g, z], [z, -g.T]])


def as_nambu(corr):
    """A paired state as it is, a conserving one doubled."""
    return corr if isinstance(corr, NambuCorrelationMatrix) else NambuCorrelationMatrix(
        doubled(corr.gamma))


def fock_state(H, flux=0.0):
    """Normalized Fock matrix of exp((1/2) psi+ H psi), dressed by e^{i flux n_0}."""
    rho = expm(quadratic_fock_operator(H))
    if flux:
        c0 = fock_operators(H.shape[0] // 2)[0]
        rho = rho @ expm(1j * flux * c0.T @ c0)
    return rho / np.trace(rho)


def fock_majorana(rho):
    """Majorana matrix of a Fock-space state from its measured two-point table."""
    cs = fock_operators(int(np.log2(rho.shape[0])))
    ops = cs + [c.T for c in cs]
    G = np.array([[np.trace(rho @ a.conj().T @ b) for b in ops] for a in ops])
    return majorana_matrix(2 * G - np.eye(len(ops)))


def fock_flux_trace(rho, gamma):
    cs = fock_operators(int(np.log2(rho.shape[0])))
    return np.trace(rho @ expm(1j * gamma * sum(c.T @ c for c in cs)))


def random_hamiltonian(rng, m):
    A = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    A = (A + A.conj().T) / 2
    B = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    B = (B - B.T) / 2
    return np.block([[A, B], [-B.conj(), -A.conj()]])


class TestKernels:
    def test_tight_binding_values(self):
        assert tight_binding_c(0) == 0.5
        assert tight_binding_c(1) == pytest.approx(1.0 / np.pi)
        assert tight_binding_c(2) == 0.0

    def test_gamma_is_valid_covariance(self):
        lay = SubsystemLayout(4, 3, 5)
        for model in (TIGHT_BINDING, ISING):
            corr = as_nambu(ground_state_correlations(model, lay))
            ev = np.linalg.eigvalsh(corr.gamma)
            assert ev.min() > -1.0 - 1e-10 and ev.max() < 1.0 + 1e-10
            assert np.abs(corr.gamma - corr.gamma.conj().T).max() < 1e-12
            m = corr.m
            sx = np.block([[np.zeros((m, m)), np.eye(m)], [np.eye(m), np.zeros((m, m))]])
            # the particle-hole conjugate Sx Gamma^T Sx is -Gamma
            assert np.abs(sx @ corr.gamma.T @ sx + corr.gamma).max() < 1e-12

    def test_ising_kernels_against_momentum_sum(self):
        # antiperiodic ring: discretization error is O(1/N^2), so the
        # N = 1024 values sit within a few 1e-6 and the Richardson
        # extrapolation over N and 2N lands at 1e-8
        C1, F1 = ring_correlations(ISING, 1024, 10)
        C2, F2 = ring_correlations(ISING, 2048, 10)
        for r in range(11):
            assert C1[r] == pytest.approx(ising_c(r), abs=5e-6)
            assert F1[r] == pytest.approx(ising_f(r), abs=5e-6)
            assert (4 * C2[r] - C1[r]) / 3 == pytest.approx(ising_c(r), abs=1e-8)
            assert (4 * F2[r] - F1[r]) / 3 == pytest.approx(ising_f(r), abs=1e-8)

    def test_ising_kernels_against_ed(self):
        # the 10-site open chain, bulk-most entries of the measured Gamma
        oracle = EDOracle(ISING, 10)
        meas = correlation_matrix(oracle)
        gauss = finite_chain_correlations(ISING, 10)
        assert np.abs(meas.gamma - gauss.gamma).max() < 1e-10

    def test_tb_kernel_against_momentum_sum(self):
        C, _ = ring_correlations(TIGHT_BINDING, 2048, 8)
        for r in range(9):
            assert C[r] == pytest.approx(tight_binding_c(r), abs=1e-6)

    def test_non_preset_rejected(self):
        with pytest.raises(DomainError):
            ground_state_correlations(LatticeModel(0.5, 0.7), SubsystemLayout(2, 0, 2))


# ---------------------------------------------------------------------------
# the per-matrix Parlett-Reid elimination the stacked kernel replaced, kept
# as the reference that every member of a stack must reproduce


def loop_pfaffian(A, panel=lattice.PANEL):
    A = np.array(A, dtype=complex)
    n = A.shape[0]
    U = np.empty((n, panel), dtype=complex)
    V = np.empty((n, panel), dtype=complex)
    pf, j = 1.0 + 0.0j, 0
    for k in range(0, n, 2):
        col = A[k + 1:, k] + U[k + 1:, :j] @ V[k, :j] - V[k + 1:, :j] @ U[k, :j]
        i = int(np.abs(col).argmax())
        if i:
            p, q = [k + 1, k + 1 + i], [k + 1 + i, k + 1]
            A[p, k:] = A[q, k:]
            A[k:, p] = A[k:, q]
            U[p] = U[q]
            V[p] = V[q]
            col[[0, i]] = col[[i, 0]]
            pf = -pf
        pivot = -col[0]
        if pivot == 0.0:
            return 0.0 + 0.0j
        pf *= pivot
        s = k + 2
        if s == n:
            break
        U[s:, j] = -col[1:] / pivot
        V[s:, j] = A[s:, k + 1] + U[s:, :j] @ V[k + 1, :j] - V[s:, :j] @ U[k + 1, :j]
        j += 1
        if j == panel:
            A[s:, s:] += U[s:] @ V[s:].T - V[s:] @ U[s:].T
            j = 0
    return complex(pf)


def random_antisymmetric(rng, shape):
    A = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return A - A.swapaxes(-1, -2)


class TestPfaffian:
    def test_square_is_determinant(self):
        rng = np.random.default_rng(5)
        for n in (2, 4, 8, 30, 150):  # 150: past one panel of deferred updates
            A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            A = A - A.T
            sign, logdet = np.linalg.slogdet(A)
            assert abs(pfaffian(A) ** 2 / (sign * np.exp(logdet)) - 1) < 1e-11

    def test_sign_block_diagonal(self):
        a = np.array([0.7, -1.3, 2.0])
        A = np.kron(np.diag(a), [[0.0, 1.0], [-1.0, 0.0]])
        assert pfaffian(A) == pytest.approx(np.prod(a), rel=1e-14)
        # the same blocks pairing (0, 2) and (1, 3): one transposition
        P = np.eye(6)[[0, 2, 1, 3, 4, 5]]
        assert pfaffian(P.T @ A @ P) == pytest.approx(-np.prod(a), rel=1e-14)
        assert pfaffian(np.kron(np.diag([0.7, 0.0]), [[0.0, 1.0], [-1.0, 0.0]])) == 0.0

    def test_odd_size_rejected(self):
        for shape in ((3, 3), (2, 5, 5), (4, 6), (2, 4, 6), (4,)):
            with pytest.raises(ValueError):
                pfaffian(np.zeros(shape))

    @pytest.mark.parametrize("n", [2, 4, 6, 30, 40, 66, 150])  # 150: past one panel
    def test_members_match_per_matrix_elimination(self, n):
        stack = random_antisymmetric(np.random.default_rng(n), (2, 3, n, n))
        got = pfaffian(stack)
        assert got.shape == (2, 3)
        ref = np.array([[loop_pfaffian(a) for a in row] for row in stack])
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).min()
        # each member runs the 2-D arithmetic, whatever stack it sits in
        assert same_bits(got, np.array([[pfaffian(a) for a in row] for row in stack]))

    def test_zero_pivot_member_leaves_the_others_alone(self):
        rng = np.random.default_rng(3)
        regular = random_antisymmetric(rng, (2, 6, 6))
        # block diagonal with an empty middle block: the second pivot is 0
        dead = np.kron(np.diag([0.7, 0.0, 1.3]), [[0.0, 1.0], [-1.0, 0.0]])
        stack = np.stack([regular[0], dead, regular[1]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the dead member's inf/nan stays silent
            got = pfaffian(stack)
        assert got[1] == 0.0
        assert same_bits(got[[0, 2]], pfaffian(regular))
        assert same_bits(got[[0, 2]], np.array([loop_pfaffian(a) for a in regular]))

    def test_matrix_gives_scalar(self):
        A = random_antisymmetric(np.random.default_rng(4), (8, 8))
        val = pfaffian(A)
        assert type(val) is complex
        assert val == loop_pfaffian(A)
        assert pfaffian(A[None]).shape == (1,)

    def test_flux_trace_matches_per_matrix_elimination(self):
        # the large 2-D Pfaffians of lattice-moments, several panels deep
        lay = SubsystemLayout(10, 10, 200)
        maj = GaussianWindow(ground_state_correlations(ISING, lay), 10, 200).maj_b
        J = np.kron(np.eye(200), [[0.0, 1.0], [-1.0, 0.0]])
        for gamma in (0.5, 2.9):
            ref = np.exp(0.5j * gamma * 200) * loop_pfaffian(
                np.cos(gamma / 2) * J + 1j * np.sin(gamma / 2) * maj)
            assert abs(flux_trace(maj, gamma) / ref - 1) < 1e-13


def dense_majorana(gamma):
    """(i/2) W* Gamma W^T with the dense Majorana map W."""
    m = gamma.shape[0] // 2
    j = np.arange(m)
    W = np.zeros((2 * m, 2 * m), dtype=complex)
    W[2 * j, j] = W[2 * j, j + m] = 1.0
    W[2 * j + 1, j] = -1j
    W[2 * j + 1, j + m] = 1j
    return 0.5j * W.conj() @ gamma @ W.T


class TestMajoranaMatrix:
    # each entry of the dense products sums two nonzero terms, so the index
    # arithmetic gives every value exactly (only a zero's sign may differ)
    def test_real_preset_window(self):
        for model in (TIGHT_BINDING, ISING):
            gamma = as_nambu(ground_state_correlations(model, SubsystemLayout(10, 10, 20))).gamma
            assert np.array_equal(majorana_matrix(gamma), dense_majorana(gamma))

    def test_complex_flux_dressed_window(self):
        win = GaussianWindow(ground_state_correlations(ISING, SubsystemLayout(4, 3, 9)), 4, 9)
        for gamma in (0.7, 2.4):
            dressed = win.dressed_d_a(gamma).T
            assert np.abs(dressed.imag).max() > 1e-3
            assert np.array_equal(majorana_matrix(dressed), dense_majorana(dressed))


CORRELATION_TYPES = {"nambu": (NambuCorrelationMatrix, ISING),
                     "particle": (ParticleCorrelationMatrix, TIGHT_BINDING)}


@pytest.mark.parametrize("kind, model", CORRELATION_TYPES.values(), ids=CORRELATION_TYPES.keys())
class TestCorrelationValidation:
    def test_non_hermitian_rejected(self, kind, model):
        gamma = window_corr(model, 8, SubsystemLayout(2, 1, 3)).gamma.astype(complex)
        gamma[0, 1] += 1e-6j
        with pytest.raises(ValueError, match="not Hermitian"):
            kind(gamma)

    def test_spectrum_outside_unit_interval_rejected(self, kind, model):
        corr = window_corr(model, 8, SubsystemLayout(2, 1, 3))
        assert type(corr) is kind
        with pytest.raises(ValueError, match=r"outside \[-1, 1\]"):
            kind(1.5 * corr.gamma)
        kind(corr.gamma)  # the valid state itself passes

    def test_spectrum_just_past_one_is_taken_as_given(self, kind, model):
        # A u B fills the 8-site chain: a pure state, every eigenvalue at +-1;
        # scaled past them inside the 1e-10 range tolerance, the Mobius forms
        # and the traces meet modes a little more than full or empty
        lay = SubsystemLayout(3, 0, 5)
        corr = kind(window_corr(model, 8, lay).gamma * (1.0 + 5e-11))
        assert np.abs(corr.spectrum).min() > 1.0
        for gammas in ([0.4], [0.3, 0.7], [0.5, 1.1, 2.3]):
            assert np.isfinite(charged_moments_lattice(corr, lay, gammas))
        for table in charge_sector_table(corr, lay):
            assert np.isfinite(table).all()


class TestGaussianTrace:
    """Flux and pair traces as Pfaffians, against Fock-space traces."""

    def test_identity_operator(self):
        for m in (1, 3):
            zero = np.zeros((2 * m, 2 * m))
            assert flux_trace(zero, 0.9) == pytest.approx(((1 + np.exp(0.9j)) / 2) ** m)
            assert pair_trace(zero, zero) == pytest.approx(2.0**-m)

    def test_single_mode(self):
        omega = 0.83
        rho = fock_state(np.diag([omega, -omega]))
        nbar = 1 / (1 + np.exp(-omega))
        maj = fock_majorana(rho)
        assert maj[0, 1] == pytest.approx(2 * nbar - 1, rel=1e-12)
        assert flux_trace(maj, 1.7) == pytest.approx(1 - nbar + nbar * np.exp(1.7j), rel=1e-12)
        assert pair_trace(maj, maj) == pytest.approx(nbar**2 + (1 - nbar) ** 2, rel=1e-12)

    @staticmethod
    def check_against_fock(r1, r2):
        m1, m2 = fock_majorana(r1), fock_majorana(r2)
        for gamma in (0.4, 2.9):
            ref = fock_flux_trace(r1, gamma)
            assert abs(flux_trace(m1, gamma) - ref) < 1e-12 * abs(ref)
        ref = np.trace(r1 @ r2)
        assert abs(pair_trace(m1, m2) - ref) < 1e-12 * abs(ref)
        return m1

    def test_random_hermitian_against_fock(self):
        rng = np.random.default_rng(7)
        for m in (1, 2, 3, 4):
            r1 = fock_state(random_hamiltonian(rng, m))
            r2 = fock_state(random_hamiltonian(rng, m))
            m1 = self.check_against_fock(r1, r2)
            assert np.abs(m1.imag).max() < 1e-12  # Hermitian states: real M

    def test_flux_dressed_nonhermitian(self):
        rng = np.random.default_rng(11)
        for m in (1, 2, 3, 4):
            r1 = fock_state(random_hamiltonian(rng, m), flux=0.9)
            r2 = fock_state(random_hamiltonian(rng, m), flux=-2.2)
            m1 = self.check_against_fock(r1, r2)
            assert np.abs(m1.imag).max() > 1e-3  # dressed states: complex M


def mobius_dressed_window(D, n_a, n_b, gamma):
    """D-matrix of the flux-dressed state on the whole doubled window.

    U^{-1} [U(1+D) - (1-D)] [U(1+D) + (1-D)]^{-1} U with U the kernel of
    e^{i gamma Q_B}: the full-window form that ``dressed_d_a`` reduces to
    its B block, kept as the independent reference.
    """
    w = n_a + n_b
    u = np.ones(2 * w, dtype=complex)
    u[n_a:w], u[w + n_a:] = np.exp(1j * gamma), np.exp(-1j * gamma)
    one = np.eye(2 * w)
    num = u[:, None] * (one + D) - (one - D)
    den = u[:, None] * (one + D) + (one - D)
    return np.linalg.solve(den.T, num.T).T * u[None, :] / u[:, None]


def doubled_a(lay):
    """The particle and hole rows of A in the doubled window."""
    w = lay.ell1 + lay.ell2
    return np.r_[0:lay.ell1, w:w + lay.ell1]


# Ising windows from short to the longest README one, and xx doubled
MOBIUS_WINDOWS = {"ising-4-3-9": (ISING, SubsystemLayout(4, 3, 9)),
                  "ising-10-10-20": (ISING, SubsystemLayout(10, 10, 20)),
                  "ising-10-10-140": (ISING, SubsystemLayout(10, 10, 140)),
                  "xx-doubled-10-10-19": (TIGHT_BINDING, SubsystemLayout(10, 10, 19))}


class TestFluxMatrix:
    """The flux trace and the dressed state of A on the Pfaffian route."""

    def test_zero_flux(self):
        lay = SubsystemLayout(2, 1, 3)
        corr = as_nambu(window_corr(TIGHT_BINDING, 8, lay))
        win = GaussianWindow(corr, lay.ell1, lay.ell2)
        a = doubled_a(lay)
        assert np.abs(win.dressed_d_a(0.0) - corr.gamma[np.ix_(a, a)].T).max() < 1e-10
        assert abs(win.log_flux_trace(0.0)) < 1e-12

    def test_conjugate_fluxes(self):
        lay = SubsystemLayout(2, 1, 3)
        win = GaussianWindow(as_nambu(window_corr(TIGHT_BINDING, 8, lay)), lay.ell1, lay.ell2)
        assert win.log_flux_trace(-0.8) == pytest.approx(np.conj(win.log_flux_trace(0.8)),
                                                         rel=1e-12)
        assert np.abs(win.dressed_d_a(-0.8) - win.dressed_d_a(0.8).conj()).max() < 1e-12

    @pytest.mark.parametrize("model, lay", MOBIUS_WINDOWS.values(), ids=MOBIUS_WINDOWS.keys())
    def test_dressed_state_matches_the_full_window_mobius_form(self, model, lay):
        corr = as_nambu(ground_state_correlations(model, lay))
        win = GaussianWindow(corr, lay.ell1, lay.ell2)
        a = doubled_a(lay)
        for gamma in (0.3, 1.1, 2.0, 2.9, 4.4, 5.9):
            ref = mobius_dressed_window(corr.gamma.T, lay.ell1, lay.ell2, gamma)[np.ix_(a, a)]
            got = win.dressed_d_a(gamma)
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max(), gamma

    @pytest.mark.parametrize("model", [TIGHT_BINDING, ISING])
    def test_flux_trace_against_ed(self, model):
        lay = SubsystemLayout(3, 2, 2)
        n_sites = 8
        oracle = EDOracle(model, n_sites)
        corr = as_nambu(window_corr(model, n_sites, lay))
        dim = 1 << n_sites
        qb = np.zeros(dim)
        for j in lay.sites_B:
            qb += (np.arange(dim) >> j) & 1
        win = GaussianWindow(corr, lay.ell1, lay.ell2)
        for gamma in (0.35, 1.2, 2.7):
            det_val = np.exp(win.log_flux_trace(gamma))
            ed_val = np.sum(np.abs(oracle.psi) ** 2 * np.exp(1j * gamma * qb))
            assert abs(det_val - ed_val) < 1e-10

    def test_tight_binding_matches_u1_closed_form(self):
        # charge is conserved, so the trace factorizes over the occupations
        # nu_k of C_BB: prod_k (1 - nu_k + nu_k e^{i gamma}), exact per mode
        lay = SubsystemLayout(10, 10, 200)
        win = GaussianWindow(as_nambu(ground_state_correlations(TIGHT_BINDING, lay)), 10, 200)
        r = np.arange(200)
        nu = np.linalg.eigvalsh(np.vectorize(tight_binding_c)(r[:, None] - r[None, :]))
        for gamma in (0.3, 0.7, 2.0, 3.0):
            closed = np.sum(np.log(1 - nu + nu * np.exp(1j * gamma)))
            assert abs(np.exp(win.log_flux_trace(gamma) - closed) - 1) < 1e-11


class TestVanishingTrace:
    # xx, 8 sites, layout (3, 2, 3): the flux trace has an exact zero at pi,
    # met on the charge block and on the same state doubled for the Pfaffians
    lay = SubsystemLayout(3, 2, 3)

    def zero_trace_flux_raises(self, corr):
        with pytest.raises(SingularMatrixError, match=r"gamma = 3\.14159"):
            charged_moments_lattice(corr, self.lay, [np.pi, 0.5])

    def near_zero_trace_matches_ed(self, corr):
        oracle = EDOracle(TIGHT_BINDING, 8)
        gammas = [np.pi - 1e-3, 0.5]
        det_v = charged_moments_lattice(corr, self.lay, gammas)
        ed_v = oracle.charged_moment(self.lay.sites_A, self.lay.sites_B, gammas)
        assert abs(det_v - ed_v) < 1e-8

    def test_zero_trace_flux_raises(self):
        corr = window_corr(TIGHT_BINDING, 8, self.lay)
        assert type(corr) is ParticleCorrelationMatrix
        self.zero_trace_flux_raises(corr)

    def test_near_zero_trace_matches_ed(self):
        self.near_zero_trace_matches_ed(window_corr(TIGHT_BINDING, 8, self.lay))

    def test_zero_trace_flux_raises_on_the_pfaffian_route(self):
        corr = as_nambu(window_corr(TIGHT_BINDING, 8, self.lay))
        assert type(lattice._window_for(corr, self.lay)) is GaussianWindow
        self.zero_trace_flux_raises(corr)

    def test_near_zero_trace_matches_ed_on_the_pfaffian_route(self):
        self.near_zero_trace_matches_ed(as_nambu(window_corr(TIGHT_BINDING, 8, self.lay)))

    def test_small_exact_trace_is_not_zero(self):
        # Ising traces decay exponentially in ell2 without vanishing
        lay = SubsystemLayout(10, 10, 200)
        win = GaussianWindow(ground_state_correlations(ISING, lay), 10, 200)
        assert abs(np.exp(win.log_flux_trace(1.1))) < 1e-13
        val = charged_moments_lattice(ISING, lay, [1.1, 1.1])
        assert np.isfinite(val) and 0.0 < abs(val) < 1.0


class TestDressingEstimate:
    # the Pfaffian route solves S X = [(U_B - 1) D_BA | probe] in one call and
    # reads a lower bound on ||S^-1||_1 off the solved columns

    @staticmethod
    def estimates(monkeypatch, win, gammas):
        seen = []
        monkeypatch.setattr(lattice, "_check_dressing", lambda gamma, rcond: seen.append(rcond))
        for g in gammas:
            win.dressed_d_a(g)
        return np.array(seen)

    @staticmethod
    def ising_window(l2):
        return GaussianWindow(ground_state_correlations(ISING, SubsystemLayout(10, 10, l2)), 10, l2)

    def test_within_ten_of_the_exact_condition_number(self, monkeypatch):
        # 287 Ising windows; zgecon read 1.00-1.83 times kappa_1 on them
        ratios = []
        gammas = 2 * np.pi * np.arange(41) / 40
        for l2 in (3, 5, 10, 20, 40, 80, 140):
            win = self.ising_window(l2)
            for g, rcond in zip(gammas, self.estimates(monkeypatch, win, gammas), strict=True):
                u_b = np.repeat([np.exp(1j * g), np.exp(-1j * g)], l2)
                den = win._ip_b * u_b[:, None] + win._im_b
                kappa = np.linalg.norm(den, 1) * np.linalg.norm(np.linalg.inv(den), 1)
                ratios.append(kappa * rcond)
        assert len(ratios) == 287
        assert 1 - 1e-9 <= min(ratios) and max(ratios) <= 10, (min(ratios), max(ratios))

    def test_zero_flux_is_not_singular(self, monkeypatch):
        # every column of (U_B - 1) D_BA vanishes; the probe alone sees S = 2
        win = self.ising_window(20)
        assert np.array_equal(win.dressed_d_a(0.0), win.d_a)
        assert self.estimates(monkeypatch, self.ising_window(20), [0.0]).tolist() == [1.0]

    def test_exactly_singular_pivot_raises(self, monkeypatch):
        win = self.ising_window(5)

        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(lattice.np.linalg, "solve", singular)
        with pytest.raises(SingularMatrixError, match=r"gamma = 0\.5 \(rcond 0\.0e\+00\)"):
            win.dressed_d_a(0.5)


class TestChargedMoments:
    def test_flux_trace_memoized(self, monkeypatch):
        win = GaussianWindow(ground_state_correlations(ISING, SubsystemLayout(3, 2, 4)), 3, 4)
        calls = []
        real = lattice.flux_trace
        monkeypatch.setattr(lattice, "flux_trace", lambda *a: calls.append(a) or real(*a))
        first = win.log_flux_trace(0.5)
        assert win.log_flux_trace(0.5) == first and len(calls) == 1
        win.log_flux_trace(0.7)
        assert len(calls) == 2

    def test_zero_flux_exactly_one(self):
        lay = SubsystemLayout(3, 2, 4)
        val = charged_moments_lattice(TIGHT_BINDING, lay, [0.0, 0.0])
        assert val == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("model", [TIGHT_BINDING, ISING])
    def test_eight_site_oracle(self, model):
        lay = SubsystemLayout(2, 2, 2)
        n_sites = 8
        oracle = EDOracle(model, n_sites)
        corr = window_corr(model, n_sites, lay)
        rng = np.random.default_rng(23)
        for n in (1, 2, 3):
            gammas = rng.uniform(0.1, 3.0, size=n)
            det_v = charged_moments_lattice(corr, lay, gammas)
            ed_v = oracle.charged_moment(lay.sites_A, lay.sites_B, gammas)
            assert abs(det_v - ed_v) < 1e-8

    def test_modulus_bounded(self):
        lay = SubsystemLayout(4, 2, 6)
        win = lattice._window_for(TIGHT_BINDING, lay)
        for g in np.linspace(0.0, 2 * np.pi, 9):
            t = np.exp(win.log_flux_trace(g))
            assert abs(t) <= 1.0 + 1e-12

    def test_entanglement_spectrum_consistency(self):
        # gamma = 0 window restriction reproduces the Renyi entropies of A
        lay = SubsystemLayout(3, 2, 4)
        corr = ground_state_correlations(TIGHT_BINDING, lay)
        win = lattice._window_for(corr, lay)
        corr_a = corr.restrict(range(lay.ell1))
        for n in (2, 3):
            assert win.log_renyi_norm(n) == pytest.approx(
                (1 - n) * gaussian_renyi_entropy(corr_a, n), rel=1e-10
            )


# ---------------------------------------------------------------------------
# the charge-block route against the Pfaffian route on the same state doubled

README_XX_L2 = (10, 13, 19, 27, 37, 52, 73, 102, 143, 200)  # --l2 10:200:10:log
CROSS_FLUXES = ([0.3], [0.3, 0.7], [2.0, 2.9], [0.5, 1.1, 2.3], [np.pi - 1e-3, 0.5, 1.7, 2.6])
KAPPA_ZERO = {"xx": TIGHT_BINDING, "0:0.3": LatticeModel(0.0, 0.3)}


def cross_route_windows():
    """(id, corr, layout) on the README grid, short odd windows, kappa = 0 chains,
    ed-verify's default window, which holds exactly pure modes, and a pure one,
    where A u B fills the chain."""
    for l2 in README_XX_L2:  # 200 holds modes within 1e-12 of +-1, the odd ones a half-filled one
        lay = SubsystemLayout(10, 10, l2)
        yield f"xx-{l2}", ground_state_correlations(TIGHT_BINDING, lay), lay
    lay = SubsystemLayout(3, 2, 7)
    yield "xx-3-2-7", ground_state_correlations(TIGHT_BINDING, lay), lay
    lay = SubsystemLayout(3, 2, 5)
    for name, model in KAPPA_ZERO.items():
        yield f"chain-{name}", window_corr(model, 12, lay), lay
    for name, lay in (("ed-default-xx", SubsystemLayout(3, 3, 2)),
                      ("pure-xx", SubsystemLayout(3, 0, 5))):
        yield name, window_corr(TIGHT_BINDING, 8, lay), lay


def window_moment(win, gammas):
    """charged_moments_lattice on a given window."""
    log_num = sum(win.log_flux_trace(g) for g in gammas) + win.log_replica_product(gammas)
    return np.exp(log_num - win.log_renyi_norm(len(gammas)))


def cross_bound(gammas):
    # near a zero of the trace (pi - 1e-3 on a half-filled mode) both routes
    # lose digits like rounding over |cos(gamma / 2)|; against a 50-digit
    # reference each is off by a few 1e-12 at (10, 10, 13) and (10, 10, 37)
    return max(1e-12, 1e-14 / min(abs(np.cos(g / 2)) for g in gammas))


class TestChargeBlockRoute:
    @pytest.mark.parametrize("case", list(cross_route_windows()), ids=lambda c: c[0])
    def test_traces_and_moments_match_nambu(self, case):
        _, corr, lay = case
        charge = lattice._window_for(corr, lay)
        assert type(charge) is lattice.ChargeBlockWindow
        nambu = GaussianWindow(as_nambu(corr), lay.ell1, lay.ell2)
        for gammas in CROSS_FLUXES:
            for g in gammas:
                rel = abs(np.exp(charge.log_flux_trace(g) - nambu.log_flux_trace(g)) - 1)
                assert rel <= cross_bound([g]), (g, rel)
            rel = abs(window_moment(charge, gammas) / window_moment(nambu, gammas) - 1)
            assert rel <= cross_bound(gammas), (gammas, rel)

    @pytest.mark.parametrize("case", [c for c in cross_route_windows()
                                      if c[2].ell2 <= 19], ids=lambda c: c[0])
    def test_sector_table_matches_nambu(self, case):
        _, corr, lay = case
        p, _, raw = charge_sector_table(corr, lay)
        p_ref, _, raw_ref = charge_sector_table(as_nambu(corr), lay)
        assert np.abs(p - p_ref).max() <= 1e-15
        assert np.abs(raw - raw_ref).max() <= 1e-15

    def test_paired_states_keep_the_pfaffian_route(self):
        lay = SubsystemLayout(3, 2, 5)
        for corr in (ground_state_correlations(ISING, lay),
                     window_corr(LatticeModel(0.7, 0.3), 12, lay)):
            assert type(lattice._window_for(corr, lay)) is GaussianWindow
        assert type(lattice._window_for(ISING, lay)) is GaussianWindow

    def test_pfaffian_route_refuses_the_particle_type(self):
        # the m x m block would otherwise meet the 2m x 2m algebra much later
        lay = SubsystemLayout(4, 2, 6)
        corr = ground_state_correlations(TIGHT_BINDING, lay)
        assert type(corr) is ParticleCorrelationMatrix
        with pytest.raises(TypeError, match="NambuCorrelationMatrix"):
            GaussianWindow(corr, lay.ell1, lay.ell2)

    def test_the_route_follows_the_state_type(self):
        lay = SubsystemLayout(3, 2, 5)
        assert type(lattice._window_for(TIGHT_BINDING, lay)) is lattice.ChargeBlockWindow
        windows = [ground_state_correlations(TIGHT_BINDING, lay)]
        for model in KAPPA_ZERO.values():
            assert type(finite_chain_correlations(model, 12)) is ParticleCorrelationMatrix
            windows.append(window_corr(model, 12, lay))
        for corr in windows:
            assert type(corr) is ParticleCorrelationMatrix
            assert type(lattice._window_for(corr, lay)) is lattice.ChargeBlockWindow
            # the same state doubled takes the Pfaffians, exact zeros or not
            gamma = doubled(corr.gamma)
            assert type(lattice._window_for(NambuCorrelationMatrix(gamma), lay)) is GaussianWindow
            gamma[0, -1] = gamma[-1, 0] = 1e-17
            assert type(lattice._window_for(NambuCorrelationMatrix(gamma), lay)) is GaussianWindow

    @pytest.mark.parametrize("model", KAPPA_ZERO.values(), ids=KAPPA_ZERO.keys())
    def test_kappa_zero_chain_matches_the_bdg_projector(self, model):
        N = 12
        H = np.zeros((2 * N, 2 * N))
        for j in range(N - 1):
            H[j, j + 1] = H[j + 1, j] = -0.5
        H[:N, :N] -= model.h_field * np.eye(N)
        H[N:, N:] = -H[:N, :N]
        w, V = np.linalg.eigh(H)
        occ = V[:, w < 0]
        corr = finite_chain_correlations(model, N)
        assert type(corr) is ParticleCorrelationMatrix
        assert np.abs(doubled(corr.gamma) - (2 * occ @ occ.T - np.eye(2 * N))).max() < 1e-14

    def test_kappa_zero_zero_mode_raises(self):
        # an odd open xx chain holds a mode at zero energy
        with pytest.raises(SingularMatrixError, match="zero mode"):
            finite_chain_correlations(TIGHT_BINDING, 5)


class TestIsingRescaling:
    def test_zero(self):
        assert ising_gamma_rescaling(0.0) == 0.0

    def test_printed_value(self):
        val = ising_gamma_rescaling(0.2)
        assert val == pytest.approx(np.arctanh(np.tan(0.1)), rel=1e-12)
        assert val == pytest.approx(0.10067, abs=1e-5)
        assert val == pytest.approx(0.1, abs=1e-3)  # small-flux linearity

    def test_domain(self):
        with pytest.raises(DomainError):
            ising_gamma_rescaling(2.0)  # tan(1) > 1

    def test_pi_convention(self):
        assert ising_log_coefficient_prediction([0.6, 0.6]) == pytest.approx(
            2 * (np.arctanh(np.tan(0.3)) / np.pi) ** 2, rel=1e-12
        )


class TestSectorOverlaps:
    def test_stack_cap_does_not_change_the_table(self, monkeypatch):
        lay = SubsystemLayout(3, 2, 6)  # 28 pair traces
        whole = charge_sector_table(ISING, lay)
        monkeypatch.setattr(lattice, "STACK", 5)
        for a, b in zip(charge_sector_table(ISING, lay), whole, strict=True):
            assert same_bits(a, b)

    def test_pair_traces_match_replica_products(self):
        # the stacked table against one two-replica product per pair
        lay = SubsystemLayout(3, 2, 4)
        win = GaussianWindow(ground_state_correlations(ISING, lay), 3, 4)
        gs = 2 * np.pi * np.arange(5) / 5
        traces = np.array([np.exp(win.log_flux_trace(g)) for g in gs])
        weighted = np.array([[np.exp(win.log_replica_product([g1, g2])) for g2 in gs]
                             for g1 in gs]) * np.outer(traces, traces)
        phases = np.exp(-1j * gs[None, :] * np.arange(5)[:, None])
        raw = ((phases @ weighted @ phases.T) / 25).real
        assert np.abs(charge_sector_table(ISING, lay)[2] - raw).max() < 1e-15

    def test_probabilities_sum_to_one(self):
        lay = SubsystemLayout(3, 2, 4)
        p, R, raw = charge_sector_table(TIGHT_BINDING, lay)
        assert p.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(p > -1e-12)

    def test_symmetry(self):
        lay = SubsystemLayout(2, 1, 4)
        _, R, raw = charge_sector_table(TIGHT_BINDING, lay)
        assert np.abs(raw - raw.T).max() < 1e-12
        mask = np.isfinite(R)
        assert np.abs((R - R.T)[mask]).max() < 1e-10

    @pytest.mark.parametrize("model", [TIGHT_BINDING, ISING])
    def test_eight_site_oracle(self, model):
        lay = SubsystemLayout(2, 2, 2)
        oracle = EDOracle(model, 8)
        corr = window_corr(model, 8, lay)
        p, R, raw = charge_sector_table(corr, lay)
        pe, Re, rawe = oracle.sector_overlaps(lay.sites_A, lay.sites_B)
        assert np.abs(p - pe).max() < 1e-8
        assert np.abs(raw - rawe).max() < 1e-8
        pop = np.outer(pe, pe) > 1e-6
        assert np.abs((R - Re)[pop]).max() < 1e-8

    def test_overlap_value_and_bounds(self):
        R = charge_sector_table(TIGHT_BINDING, SubsystemLayout(2, 1, 3))[1]
        assert R[1, 2] >= 0.0
        assert R[2, 1] == pytest.approx(R[1, 2])


GAP_MODELS = {"xx": TIGHT_BINDING, "ising": ISING, "0.7:0.3": LatticeModel(0.7, 0.3),
              "0:0.3": LatticeModel(0.0, 0.3)}


# ed-verify's default chain and layout, whose window holds exactly pure
# modes, on each kind of model, and the golden ed-verify layouts of both presets
ED_CASES = [(name, 8, (3, 3, 2)) for name in ("xx", "ising", "0.7:0.3")] + [
    (name, n_sites, lay) for name in ("xx", "ising")
    for n_sites, lay in ((10, (3, 2, 4)), (12, (3, 3, 5)), (12, (4, 0, 7)), (12, (2, 6, 3)))]
ED_LAYOUTS = {f"{name}-{n_sites}-{':'.join(map(str, lay))}":
              (GAP_MODELS[name], n_sites, SubsystemLayout(*lay)) for name, n_sites, lay in ED_CASES}


@pytest.mark.parametrize("model, n_sites, lay", ED_LAYOUTS.values(), ids=ED_LAYOUTS.keys())
def test_determinant_matches_ed_to_1e13(model, n_sites, lay):
    # the moments and sector table ed-verify prints, at its seed; both
    # routes reach rounding, 2.8e-15 at worst
    oracle = EDOracle(model, n_sites)
    corr = window_corr(model, n_sites, lay)
    rng = np.random.default_rng(1234)
    for n in (1, 2, 3, 4):
        gammas = sorted(rng.uniform(0.1, 3.0, size=n))
        det_v = charged_moments_lattice(corr, lay, gammas)
        assert abs(det_v - oracle.charged_moment(lay.sites_A, lay.sites_B, gammas)) < 1e-13
    p, _, raw = charge_sector_table(corr, lay)
    p_ed, _, raw_ed = oracle.sector_overlaps(lay.sites_A, lay.sites_B)
    assert np.abs(p - p_ed).max() < 1e-13
    assert np.abs(raw - raw_ed).max() < 1e-13


class TestEDOracle:
    def test_two_orderings_agree(self):
        # partial trace over the complement of A directly, vs going through
        # rho_AB first and tracing B afterwards
        model = ISING
        oracle = EDOracle(model, 8)
        lay = SubsystemLayout(2, 2, 3)
        gammas = [0.5, 1.3]
        direct = oracle.charged_moment(lay.sites_A, lay.sites_B, gammas)

        V, rest = oracle._build_reshape(lay.sites_A + lay.sites_B)
        rho_ab = V @ V.conj().T  # dim 2^(l1+l2): A on the low bits, B high
        nA, nB = lay.ell1, lay.ell2
        qb = np.zeros(1 << (nA + nB))
        for k in range(nB):
            qb += (np.arange(1 << (nA + nB)) >> (nA + k)) & 1

        def trace_b(mat):
            red = mat.reshape(1 << nB, 1 << nA, 1 << nB, 1 << nA)
            return np.einsum("iaib->ab", red)

        mats = [trace_b(rho_ab * np.exp(1j * g * qb)[None, :]) for g in gammas]
        num = np.trace(mats[0] @ mats[1])
        rho_a = trace_b(rho_ab)
        den = np.trace(rho_a @ rho_a)
        assert abs(direct - num / den) < 1e-10

    def test_mie_definitional_recomputation(self):
        oracle = EDOracle(TIGHT_BINDING, 8)
        lay = SubsystemLayout(2, 2, 2)
        p, R, raw = oracle.sector_overlaps(lay.sites_A, lay.sites_B)
        # n = 2: S2(q) = -log Tr rho_{A,q}^2 = -log(raw_qq / p_q^2)
        mie2 = sum(
            p[q] * (-np.log(raw[q, q] / p[q] ** 2))
            for q in range(lay.ell2 + 1)
            if p[q] > 1e-12
        )
        assert ed_mie(oracle, lay.sites_A, lay.sites_B, n=2) == pytest.approx(mie2, rel=1e-10)

    def test_reproduces_gaussian_trace_examples(self):
        # the Pfaffian traces from correlations vs the many-body ground state
        oracle = EDOracle(ISING, 8)
        corr = finite_chain_correlations(ISING, 8)
        V, _ = oracle._build_reshape([0, 1, 2])
        rho_a = V @ V.conj().T
        maj_a = majorana_matrix(corr.restrict(range(3)).gamma)
        assert pair_trace(maj_a, maj_a) == pytest.approx(np.trace(rho_a @ rho_a), rel=1e-10)
        qb = sum((np.arange(1 << 8) >> j) & 1 for j in range(4, 8))
        maj_b = majorana_matrix(corr.restrict(range(4, 8)).gamma)
        ed_val = np.sum(np.abs(oracle.psi) ** 2 * np.exp(1.3j * qb))
        assert abs(flux_trace(maj_b, 1.3) - ed_val) < 1e-10

    def test_renyi_against_correlations(self):
        oracle = EDOracle(ISING, 8)
        corr = finite_chain_correlations(ISING, 8).restrict(range(3))
        # rho_A summed back from the states after measuring sites 4..7
        assert ed_renyi_entropy(oracle, range(3), range(4, 8), 2) == pytest.approx(
            gaussian_renyi_entropy(corr, 2), rel=1e-10
        )


    @pytest.mark.parametrize("n_sites", [10, 12])
    @pytest.mark.parametrize("model", GAP_MODELS.values(), ids=GAP_MODELS.keys())
    def test_gap_is_the_full_space_gap(self, model, n_sites):
        # the other parity's lowest level is the first excited level of H,
        # and the embedded psi is the ground state of the whole Fock space
        H = loop_hamiltonian(model, n_sites)
        v0 = np.random.default_rng(1).standard_normal(H.shape[0])
        w = np.sort(eigsh(H, k=2, which="SA", v0=v0)[0])
        oracle = EDOracle(model, n_sites)
        assert abs(oracle.gap - (w[1] - w[0])) <= 1e-12
        assert np.linalg.norm(H @ oracle.psi - w[0] * oracle.psi) <= 1e-12

    @pytest.mark.parametrize("n_sites", [8, 12])
    def test_degenerate_ground_state_raises(self, n_sites):
        # the Kitaev chain at h = 0: its edge zero mode pairs the two
        # parities' ground states
        with pytest.raises(SingularMatrixError, match="ground state degenerate"):
            EDOracle(LatticeModel(1.0, 0.0), n_sites)


class TestFigureChecks:
    def test_tb_matches_charge_formula_shape(self):
        # compressed Fig. 5-style check: one gamma pair, short sweep
        from opens.cft_boson import build_M_boson
        from opens.core import Geometry

        gam = np.array([0.3, 0.7])
        l1 = d = 6
        lats, cfts = [], []
        for l2 in (8, 16, 32, 64):
            lay = SubsystemLayout(l1, d, l2)
            lats.append(np.log(charged_moments_lattice(TIGHT_BINDING, lay, gam)).real)
            g = Geometry(float(l1), float(l1 + d), float(l1 + d + l2), 1.0, 2)
            cfts.append(-(gam @ build_M_boson(g).dense() @ gam) / (8 * np.pi**2))
        resid = np.asarray(lats) - np.asarray(cfts)
        resid -= resid.mean()
        assert np.sqrt(np.mean(resid**2)) < 0.02

    def test_ising_log_coefficient(self):
        # compressed Fig. 6-style check at a single flux
        g0 = 0.8
        l2s = np.array([16, 32, 64, 128])
        ys = []
        for l2 in l2s:
            lay = SubsystemLayout(6, 6, int(l2))
            ys.append(np.log(charged_moments_lattice(ISING, lay, [g0, g0])).real)
        X = np.vstack([l2s, np.log(l2s), np.ones_like(l2s)]).T
        coef, *_ = np.linalg.lstsq(X, np.asarray(ys), rcond=None)
        assert coef[1] == pytest.approx(
            ising_log_coefficient_prediction([g0, g0]), rel=0.05
        )


# ---------------------------------------------------------------------------
# the ED oracle's former loops over the 2^N Fock states, kept as references
# that its numpy bit arithmetic must reproduce to the bit


def loop_hamiltonian(model, N):
    kappa, h = model.kappa, model.h_field
    dim = 1 << N
    rows, cols, vals = [], [], []
    for s in range(dim):
        diag = 0.0
        for j in range(N):
            if (s >> j) & 1:
                diag -= h
        if diag:
            rows.append(s); cols.append(s); vals.append(diag)
        for j in range(N - 1):
            b1, b2 = (s >> j) & 1, (s >> (j + 1)) & 1
            if b1 != b2:
                t = s ^ (1 << j) ^ (1 << (j + 1))
                rows.append(t); cols.append(s); vals.append(-0.5)
            if kappa and b1 == b2:
                t = s ^ (1 << j) ^ (1 << (j + 1))
                rows.append(t); cols.append(s); vals.append(-0.5 * kappa)
    return sparse.csr_matrix((vals, (rows, cols)), shape=(dim, dim))


def loop_odd_parity(N):
    return np.array([bin(s).count("1") % 2 == 1 for s in range(1 << N)])


def loop_reshape(psi, a_sites, N):
    rest = [j for j in range(N) if j not in a_sites]
    order = {site: k for k, site in enumerate(a_sites + rest)}
    V = np.zeros((1 << len(a_sites), 1 << len(rest)))
    for s in range(1 << N):
        if psi[s] == 0.0:
            continue
        ai = 0
        for k, j in enumerate(a_sites):
            ai |= ((s >> j) & 1) << k
        ri = 0
        for k, j in enumerate(rest):
            ri |= ((s >> j) & 1) << k
        occ = [order[j] for j in range(N) if (s >> j) & 1]
        sgn, lst = 1, occ[:]
        for i in range(len(lst)):  # bubble sort, one sign flip per swap
            for jj in range(len(lst) - 1 - i):
                if lst[jj] > lst[jj + 1]:
                    lst[jj], lst[jj + 1] = lst[jj + 1], lst[jj]
                    sgn = -sgn
        V[ai, ri] = sgn * psi[s]
    return V, rest


def loop_charges(rest, b_sites):
    pos = [rest.index(j) for j in b_sites]
    q = np.zeros(1 << len(rest), dtype=int)
    for r in range(1 << len(rest)):
        q[r] = sum((r >> k) & 1 for k in pos)
    return q


def loop_fock_operators(n_sites):
    dim = 1 << n_sites
    ops = []
    for j in range(n_sites):
        rows, cols, vals = [], [], []
        for s in range(dim):
            if (s >> j) & 1:
                rows.append(s ^ (1 << j))
                cols.append(s)
                vals.append(float((-1) ** bin(s & ((1 << j) - 1)).count("1")))
        m = np.zeros((dim, dim))
        m[rows, cols] = vals
        ops.append(m)
    return ops


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def unsolved_oracle(model, n_sites, psi=None):
    """An EDOracle holding a given state, without the ground-state solve."""
    oracle = object.__new__(EDOracle)
    oracle.model, oracle.n, oracle.psi = model, n_sites, psi
    oracle._labels = {}
    return oracle


# per size: A sorted, unsorted, and contiguous at an offset
ED_SUBSETS = {
    2: ([0], [1, 0], [1]),
    5: ([0, 1, 2], [2, 4, 1], [2, 3]),
    8: ([0, 1, 2], [2, 5, 1], [4, 5, 6]),
    12: ([0, 1, 2], [2, 5, 1], [6, 7, 8, 9]),
}
# 0.7:0.3 has a non-dyadic field, where summing -h per occupied site in
# another order than the loop rounds differently
ED_MODELS = {"xx": TIGHT_BINDING, "ising": ISING, "0.7:0.3": LatticeModel(0.7, 0.3)}


class TestEDBitIdentity:
    @pytest.mark.parametrize("n_sites", sorted(ED_SUBSETS))
    @pytest.mark.parametrize("model", ED_MODELS.values(), ids=ED_MODELS.keys())
    def test_hamiltonian(self, model, n_sites):
        # H applied to each unit vector is its column of the loop reference,
        # entry for entry, and the reference links no two parities
        ref = loop_hamiltonian(model, n_sites)
        apply = unsolved_oracle(model, n_sites)._hamiltonian()
        dim = 1 << n_sites
        for start in range(0, dim, 512):  # 512 unit vectors at a time
            cols = np.arange(start, min(start + 512, dim))
            units = np.zeros((cols.size, dim))
            units[np.arange(cols.size), cols] = 1.0
            assert np.array_equal(apply(units), ref[:, cols].toarray().T)
        s = np.arange(dim)
        odd = loop_odd_parity(n_sites)
        assert ref[s[odd]][:, s[~odd]].nnz == 0 and ref[s[~odd]][:, s[odd]].nnz == 0

    @pytest.mark.parametrize("n_sites", sorted(ED_SUBSETS))
    def test_reshape_and_charges(self, n_sites):
        # a random state with exact zeros of both signs, which stay +0.0
        rng = np.random.default_rng(n_sites)
        psi = rng.standard_normal(1 << n_sites)
        psi[rng.random(psi.size) < 0.3] = 0.0
        psi[rng.random(psi.size) < 0.1] = -0.0
        for a_sites in ED_SUBSETS[n_sites]:
            oracle = unsolved_oracle(ISING, n_sites, psi)
            V_ref, rest_ref = loop_reshape(psi, a_sites, n_sites)
            V, rest = oracle._build_reshape(a_sites)
            assert same_bits(V, V_ref) and rest == rest_ref
            b_sites = rest[len(rest) // 2:]
            assert same_bits(oracle._sector_labels(a_sites, b_sites)[1],
                             loop_charges(rest, b_sites))

    @pytest.mark.parametrize("model", ED_MODELS.values(), ids=ED_MODELS.keys())
    def test_ground_state_reshape(self, model):
        # on the 12-site ground state as used by ed-verify
        oracle = EDOracle(model, 12)
        for a_sites in ED_SUBSETS[12]:
            assert same_bits(oracle._build_reshape(a_sites)[0],
                             loop_reshape(oracle.psi, a_sites, 12)[0])

    @pytest.mark.parametrize("n_sites", [8, 12])
    @pytest.mark.parametrize("model", ED_MODELS.values(), ids=ED_MODELS.keys())
    def test_ground_state_vanishes_off_its_parity(self, model, n_sites):
        # +0.0 off the ground state's parity, as scattered into zeros
        psi = EDOracle(model, n_sites).psi
        odd = loop_odd_parity(n_sites)
        off = odd if np.any(psi[~odd]) else ~odd
        assert same_bits(psi[off], np.zeros(off.sum()))

    # 12 sites take about 4 s, most of it in the loop reference
    @pytest.mark.parametrize("n_sites", [1, 2, 5, 8])
    def test_fock_operators(self, n_sites):
        for c, c_ref in zip(fock_operators(n_sites), loop_fock_operators(n_sites), strict=True):
            assert same_bits(c, c_ref)

    def test_fock_size_limit(self):
        # the oracle's limit, checked before any dense matrix is allocated
        with pytest.raises(ValueError):
            fock_operators(EDOracle.MAX_DIM.bit_length())


class TestLanczos:
    @pytest.mark.parametrize("n_sites", range(1, 9))
    @pytest.mark.parametrize("model", ED_MODELS.values(), ids=ED_MODELS.keys())
    def test_matches_dense_eigh(self, model, n_sites):
        # parity blocks of 1-8 states (1-4 sites) close their Krylov space,
        # beta_k = 0, before the first scheduled check
        w, v = np.linalg.eigh(loop_hamiltonian(model, n_sites).toarray())
        if w[1] - w[0] < 1e-10:  # xx on an odd chain has a zero mode
            with pytest.raises(SingularMatrixError, match="ground state degenerate"):
                EDOracle(model, n_sites)
            return
        oracle = EDOracle(model, n_sites)
        assert abs(oracle.gap - (w[1] - w[0])) <= 1e-12
        assert min(np.abs(oracle.psi - v[:, 0]).max(), np.abs(oracle.psi + v[:, 0]).max()) <= 1e-12
        assert oracle.residual <= 1e-12

    @pytest.mark.parametrize("n_sites", [10, 12])
    @pytest.mark.parametrize("model", ED_MODELS.values(), ids=ED_MODELS.keys())
    def test_matches_arpack(self, model, n_sites):
        # the solve Lanczos replaced: ARPACK on each parity block from the
        # same seeded start vector
        H = loop_hamiltonian(model, n_sites)
        odd = loop_odd_parity(n_sites)
        lowest = []
        for states in (np.flatnonzero(~odd), np.flatnonzero(odd)):
            v0 = np.random.default_rng(0).standard_normal(states.size)
            w, v = eigsh(H[states][:, states], k=1, which="SA", v0=v0)
            psi = np.zeros(H.shape[0])
            psi[states] = v[:, 0]
            lowest.append((w[0], psi))
        (e0, psi), (e1, _) = sorted(lowest, key=lambda level: level[0])
        oracle = EDOracle(model, n_sites)
        assert abs(oracle.gap - (e1 - e0)) <= 1e-12
        assert min(np.abs(oracle.psi - psi).max(), np.abs(oracle.psi + psi).max()) <= 1e-12
        assert oracle.residual <= 1e-12

    def test_two_oracles_agree_to_the_bit(self):
        for model, n_sites in ((ISING, 12), (LatticeModel(0.7, 0.3), 10)):
            first, second = EDOracle(model, n_sites), EDOracle(model, n_sites)
            assert same_bits(first.psi, second.psi)
            assert (first.gap, first.residual) == (second.gap, second.residual)

    def test_spent_budget_raises(self, monkeypatch):
        # the 12-site Ising chain needs about 72 steps
        monkeypatch.setattr(lattice, "LANCZOS_STEPS", 40)
        with pytest.raises(ConvergenceError, match="Lanczos used its 40 steps on the 12-site chain"):
            EDOracle(ISING, 12)
