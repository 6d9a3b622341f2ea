import dataclasses
import math
import re
import types
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate

from opens.cft_boson import build_M_boson, renyi_ratio_and_mie
from opens.cft_operator import (
    OperatorSpec,
    QuadratureConfig,
    averaged_purity,
    build_M_operator,
    build_M_operators,
    flat_integral_exact,
    matrix_entry_offdiag,
    matrix_entry_remainder,
    mie_general,
    overlap_generating,
    single_copy_m11_operator,
    uv_finite_overlap_ratio,
)
from opens import cft_operator
from opens.cft_operator import _exprel, _gauss_jacobi, _log_r, _remainder_power
from opens.core import Geometry, SymmetricCirculant, log_ratio, log_sinhc, quadratic_form_cn
from opens.errors import DomainError, QuadratureError, RegimeWarning, SingularMatrixError
from oracles import (
    FlatIntegral,
    flat_interval_integral,
    interaction_convergence_check,
    log_purity_ratio_q,
    loop_endpoints,
    operator_dense,
    replica_map,
)

CFG = QuadratureConfig(eps_reg=1e-6, tol=1e-10)


def geo(L=10.0, a=30.0, b=60.0, eps=0.5, n=1):
    return Geometry(L, a, b, eps, n)


class TestReplicaMap:
    def test_single_sheet(self):
        g = geo(n=1)
        x = 45.0
        w, dw = replica_map(x, 0, g)
        assert w == pytest.approx(x / (x - g.L), rel=1e-14)
        assert dw == pytest.approx(-g.L / (x - g.L) ** 2, rel=1e-14)

    def test_branches_share_modulus(self):
        g = geo(n=5)
        x = 2 * g.L
        mods = [abs(replica_map(x, k, g)[0]) for k in range(5)]
        assert np.allclose(mods, mods[0], rtol=1e-14)

    def test_derivative_finite_difference(self):
        g = geo(n=3)
        x, h = 2 * g.L, 1e-6
        _, dw = replica_map(x, 1, g)
        fd = (replica_map(x + h, 1, g)[0] - replica_map(x - h, 1, g)[0]) / (2 * h)
        assert dw == pytest.approx(fd, rel=1e-8)

    def test_inside_A_rejected(self):
        with pytest.raises(DomainError):
            replica_map(5.0, 0, geo())


class TestOperatorSpec:
    def test_bounds(self):
        OperatorSpec("scalar", 1.49)
        OperatorSpec("vector", 0.0)
        with pytest.raises(ValueError):
            OperatorSpec("scalar", 1.5)
        with pytest.raises(ValueError):
            OperatorSpec("vector", 0.5)
        with pytest.raises(ValueError):
            OperatorSpec("tensor", 0.2)


def _mp_flat_integral(spec, ell, eps):
    """Regularized flat integral at 30 digits from mpmath's hyp2f1.

    With X = ell / eps: scalar 2 eps^(2-2h) [X J0 - J1] with
    J0 = X 2F1(h, 1/2; 3/2; -X^2) and J1 = X^2 / 2 2F1(h, 1; 2; -X^2);
    vector 4 eps^(-2h) [(1 - 2h) K(1 - 2h) + 2h X K(-2h)] with
    K(c) = X^(c+1) / (c+1) 2F1(1, (c+1)/2; (c+3)/2; -X^2).
    """
    with mpmath.workdps(30):
        ell, eps, h = mpmath.mpf(ell), mpmath.mpf(eps), mpmath.mpf(spec.weight)
        X = ell / eps
        if spec.kind == "scalar":
            j0 = X * mpmath.hyp2f1(h, 0.5, 1.5, -X * X)
            j1 = X * X / 2 * mpmath.hyp2f1(h, 1, 2, -X * X)
            return 2 * eps ** (2 - 2 * h) * (X * j0 - j1)
        K = lambda c: X ** (c + 1) / (c + 1) * mpmath.hyp2f1(1, (c + 1) / 2, (c + 3) / 2, -X * X)
        return 4 * eps ** (-2 * h) * ((1 - 2 * h) * K(1 - 2 * h) + 2 * h * X * K(-2 * h))


class TestFlatIntegral:
    def test_half_weight_printed_value(self):
        out = flat_interval_integral(OperatorSpec("scalar", 0.5), 100.0, 0.1)
        assert out.value == pytest.approx(2 * 100 * (np.log(1000.0) - 1.0), rel=1e-12)
        assert out.value == pytest.approx(1181.55, abs=0.01)

    def test_unit_weight_printed_value(self):
        out = flat_interval_integral(OperatorSpec("scalar", 1.0), 100.0, 0.1)
        assert out.value == pytest.approx(np.pi * 1000 - 2 * (1 + np.log(1000.0)), rel=1e-12)
        assert out.value == pytest.approx(3125.78, abs=0.01)

    def test_quarter_weight_universal(self):
        out = flat_interval_integral(OperatorSpec("scalar", 0.25), 1.0, 1e-10)
        assert out.universal == pytest.approx(8.0 / 3.0, rel=1e-12)
        # no surviving divergence below h = 1/2
        assert abs(out.divergent) < 1e-4

    def test_quarter_weight_against_quadrature(self):
        # 2D adaptive quadrature of the regularized kernel, eps -> 0
        ell = 1.0
        spec = OperatorSpec("scalar", 0.25)
        vals = []
        for eps in (1e-6, 5e-7):
            num, _ = integrate.dblquad(
                lambda y, x: ((x - y) ** 2 + eps * eps) ** -0.25,
                0.0, ell, 0.0, ell, epsabs=1e-9, epsrel=1e-9,
            )
            vals.append(num)
        # Richardson in eps^(1/2) toward the cutoff-free value
        extrap = vals[1] + (vals[1] - vals[0]) / (np.sqrt(2.0) - 1.0)
        assert extrap == pytest.approx(8.0 / 3.0 * ell**1.5, rel=1e-4)

    def test_exact_scheme_matches_quadrature(self):
        # the by-parts vector form against the original kernel, adaptively
        for spec in (OperatorSpec("scalar", 0.75), OperatorSpec("vector", 0.2)):
            ell, eps = 7.0, 1e-3
            closed = flat_integral_exact(spec, ell, eps)
            if spec.kind == "scalar":
                f = lambda s: 2 * (ell - s) * (s * s + eps * eps) ** (-spec.weight)
            else:
                f = lambda s: (
                    -4 * (ell - s) * (s * s - eps * eps) / (s * s + eps * eps) ** 2
                    * s ** (-2 * spec.weight)
                )
            ref = integrate.quad(f, 0, ell, points=[eps, 10 * eps], limit=300,
                                 epsabs=1e-12, epsrel=1e-12)[0]
            assert closed == pytest.approx(ref, rel=1e-9)
        # every weight, including h_s = 1/2, 1 and h_v = 0 and their
        # neighbours, on short and very long intervals
        specs = [OperatorSpec("scalar", h)
                 for h in (1e-6, 0.25, 0.5 - 1e-9, 0.5, 0.5 + 1e-12, 0.75, 1.0, 1.4999)]
        specs += [OperatorSpec("vector", h) for h in (0.0, 1e-12, 1e-6, 0.25, 0.49, 0.499999)]
        for spec in specs:
            for ell in (0.5, 30.0, 1e5):
                for eps in (1e-4, 1e-8):
                    ref = _mp_flat_integral(spec, ell, eps)
                    rel = abs(float((flat_integral_exact(spec, ell, eps) - ref) / ref))
                    assert rel < 1e-13, (spec, ell, eps, rel)

    def test_vector_universal_term_against_quadrature(self):
        # subtracting the closed divergent part from the numeric integral
        # must leave the universal coefficient -4 / (2h (1+2h)) ell^{-2h}
        spec = OperatorSpec("vector", 0.2)
        ell = 5.0
        h = spec.weight
        for eps in (1e-5, 1e-6):
            out = flat_interval_integral(spec, ell, eps)
            numeric = flat_integral_exact(spec, ell, eps)
            assert numeric - out.divergent == pytest.approx(out.universal, rel=2e-3)
        assert flat_interval_integral(spec, ell, 1e-6).universal == pytest.approx(
            -4.0 * ell ** (-2 * h) / (2 * h * (1 + 2 * h)), rel=1e-12
        )

    def test_an_add_back_that_is_not_finite_and_positive_is_refused(self):
        # the scalar form squares length / eps_reg and loses (eps_reg / length)^2 1e-16
        # relative: nan at 1e-160, -4e-50 at 1e100 where the true value is +4e-50,
        # 0 at 1e200 and an OverflowError at 1e300; the vector form overflows at 1e-300.
        # Each is one QuadratureError, and no warning escapes
        refused = "flat-integral add-back m11 = .* at eps_reg = .*, length 2: not finite and positive"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for eps in (1e-160, 1e-300, 1e100, 1e200, 1e300):
                with pytest.raises(QuadratureError, match=refused):
                    flat_integral_exact(OperatorSpec("scalar", 0.25), 2.0, eps)
                try:
                    value = flat_integral_exact(OperatorSpec("vector", 0.2), 2.0, eps)
                except QuadratureError as exc:
                    assert eps in (1e-300, 1e200, 1e300) and re.fullmatch(refused, str(exc))
                else:
                    assert eps in (1e-160, 1e100) and 0.0 < value < math.inf
            with pytest.raises(QuadratureError, match=r"m11 = inf at eps_reg = 1e-300, length 2"):
                flat_integral_exact(OperatorSpec("vector", 0.2), 2.0, 1e-300)

    def test_vector_zero_weight_log_form(self):
        out = flat_interval_integral(OperatorSpec("vector", 0.0), 50.0, 1e-4)
        assert out.value == pytest.approx(4 * np.log(50.0 / 1e-4), rel=1e-6)

    def test_split_is_consistent(self):
        for spec in (OperatorSpec("scalar", 0.75), OperatorSpec("scalar", 1.0),
                     OperatorSpec("scalar", 0.5), OperatorSpec("vector", 0.3)):
            out = flat_interval_integral(spec, 12.0, 1e-3)
            assert isinstance(out, FlatIntegral)
            assert out.value == pytest.approx(out.divergent + out.universal, rel=1e-12)


class TestBuildM:
    def test_palindromic_against_independent_offsets(self):
        # offsets m and n - m are independent integrals of the same value
        g = geo(n=5)
        spec = OperatorSpec("scalar", 0.25)
        for m in (1, 2):
            v1 = matrix_entry_offdiag(g, spec, m, CFG)
            v2 = matrix_entry_offdiag(g, spec, 5 - m, CFG)
            assert v1 == pytest.approx(v2, rel=1e-8)

    def test_symmetric_dense(self):
        g = geo(n=4)
        M = operator_dense(build_M_operator(g, OperatorSpec("scalar", 0.25), CFG))
        assert np.abs(M - M.T).max() < CFG.tol

    def test_single_sheet_remainder_vanishes(self):
        # the n = 1 map is Mobius: mapped kernel equals the flat kernel
        g = geo(n=1)
        for spec in (OperatorSpec("scalar", 0.6), OperatorSpec("vector", 0.15)):
            rem = matrix_entry_remainder(g, spec, CFG)
            assert abs(rem) < 1e-7

    def test_light_weight_diagonal_cutoff_independent(self):
        g = geo(n=2)
        spec = OperatorSpec("scalar", 0.3)
        om = build_M_operator(g, spec, QuadratureConfig(eps_reg=1e-5, tol=1e-10))
        d1 = operator_dense(om)[0, 0]
        d2 = operator_dense(dataclasses.replace(om, eps_reg=5e-6))[0, 0]
        assert abs(d2 - d1) / abs(d1) < 1e-3

    def test_strip_mode_agrees_for_light_weights(self):
        # the raw diagonal kernel over |x1 - x2| > eps, with its elementary
        # flat strip part swapped for the exact add-back, is the subtracted
        # diagonal up to the O(eps^(3 - 2h)) remainder inside the strip
        g = geo(n=2)
        spec = OperatorSpec("scalar", 0.3)
        h, eps, ell = spec.weight, 1e-6, g.ell2

        def raw(x1, x2):
            (w1, dw1), (w2, dw2) = replica_map(x1, 0, g), replica_map(x2, 0, g)
            return abs(dw1 * dw2) ** h / abs(w1 - w2) ** (2 * h)

        # x1 - x2 = s = e^y in the outer variable; the midpoint integral is
        # smooth, and a fixed rule does not chase the rounding of w1 - w2
        z, w = np.polynomial.legendre.leggauss(24)

        def over_midpoints(y):
            s = np.exp(y)
            lo, hi = g.a + s / 2, g.b - s / 2
            mids = lo + 0.5 * (hi - lo) * (1 + z)
            return s * 0.5 * (hi - lo) * sum(wi * raw(m + s / 2, m - s / 2) for wi, m in zip(w, mids))

        strip = 2 * integrate.quad(over_midpoints, np.log(eps), np.log(ell),
                                   epsabs=0.0, epsrel=1e-12, limit=200)[0]
        flat_strip = 2 * (ell * (ell ** (1 - 2 * h) - eps ** (1 - 2 * h)) / (1 - 2 * h)
                          - (ell ** (2 - 2 * h) - eps ** (2 - 2 * h)) / (2 - 2 * h))
        sub = build_M_operator(g, spec, QuadratureConfig(eps_reg=eps, tol=1e-10))
        assert strip - flat_strip + flat_integral_exact(spec, ell, eps) == pytest.approx(
            operator_dense(sub)[0, 0], rel=1e-10)

    def test_vector_weightless_reproduces_boson(self):
        # h_v = 0 with unit normalization is the conserved current; the
        # point splitting +-eps of the closed form maps to a 2 eps kernel.
        # The two splittings differ at O(eps^2) on the diagonal only; the
        # off-diagonal entries agree to rounding (<= 1.9e-15 here)
        for eps_quad in (0.2, 0.02):
            for n in (2, 3, 6):
                g = Geometry(10.0, 30.0, 60.0, eps_quad / 2.0, n)
                boson = build_M_boson(g).dense()
                om = build_M_operator(g, OperatorSpec("vector", 0.0),
                                      QuadratureConfig(eps_reg=eps_quad, tol=1e-10))
                rel = np.abs((operator_dense(om) - boson) / boson)
                assert rel.max() < 1e-4
                assert rel[~np.eye(n, dtype=bool)].max() < 1e-13, (eps_quad, n)


def _mp_r_minus_one(x2, s, L, n):
    """r - 1 from u and |du/dx| at 60 digits, x1 = x2 + s exactly."""
    with mpmath.workdps(60):
        x2, s, L = mpmath.mpf(x2), mpmath.mpf(s), mpmath.mpf(L)
        u = lambda x: (x / (x - L)) ** (mpmath.mpf(1) / n)
        j = lambda x: u(x) * L / (n * x * (x - L))
        x1 = x2 + s
        return j(x1) * j(x2) * s**2 / (u(x1) - u(x2)) ** 2 - 1


class TestRemainderKernel:
    L = 1.0

    @pytest.mark.parametrize("x2", [1.01, 1.5, 1000.0])  # near and far from L
    @pytest.mark.parametrize("n", [2, 3, 10])
    def test_against_mpmath(self, x2, n):
        ss = np.geomspace(1e-8, 1.0, 9)
        vec = np.expm1(_log_r(np.full_like(ss, x2), np.full_like(ss, x2 - self.L), ss, self.L, n))
        for s, v in zip(ss, vec):
            ref = _mp_r_minus_one(x2, s, self.L, n)
            scalar = np.expm1(_log_r(x2, x2 - self.L, s, self.L, n))
            for val in (v, scalar):
                assert abs(float((val - ref) / ref)) <= 1e-13

    @pytest.mark.parametrize("n", [2, 3, 10])
    def test_schwarzian_leading_term(self, n):
        L, s = self.L, 1e-3
        for x2 in (1.5, 3.0):
            m = x2 + s / 2
            leading = (1 - 1 / n**2) * L**2 * s**2 / (12 * m**2 * (m - L) ** 2)
            r1 = np.expm1(_log_r(x2, x2 - L, s, L, n))
            assert r1 == pytest.approx(leading, rel=1e-5)

    def test_single_sheet_is_exactly_zero(self):
        ss = np.geomspace(1e-8, 10.0, 25)
        for x2 in (1.01, 1.5, 1000.0):
            assert np.all(_log_r(np.full_like(ss, x2), np.full_like(ss, x2 - 1.0), ss, 1.0, 1) == 0.0)


DOMAIN_SPECS = [OperatorSpec("scalar", h) for h in (0.05, 0.25, 0.5, 0.75, 1.0, 1.25, 1.45)] + [
    OperatorSpec("vector", h) for h in (0.0, 0.1, 0.25, 0.45)
]
DOMAIN_LAYOUTS = [(d, l2) for d in (0.01, 1.0, 100.0) for l2 in (0.5, 30.0, 1000.0)]


def _spec_id(spec):
    return f"{spec.kind}-{spec.weight}"


def _domain_geometry(d, l2, n):
    return Geometry(1.0, 1.0 + d, 1.0 + d + l2, 1e-3, n)


class TestDomainSweep:
    """Every advertised weight on near, unit and far layouts of every size."""

    @pytest.mark.parametrize("spec", DOMAIN_SPECS, ids=_spec_id)
    def test_every_build_converges(self, spec):
        for (d, l2) in DOMAIN_LAYOUTS:
            for n in (2, 3, 10):
                om = build_M_operator(_domain_geometry(d, l2, n), spec, CFG)
                entries = np.array(om.off_row + (om.diag_remainder,))
                assert len(om.off_row) == n // 2
                assert np.all(np.isfinite(entries))
                assert np.isfinite(om.error_estimate)
                assert om.error_estimate <= max(200 * CFG.tol, 1e-5 * np.abs(entries).max())

    def test_unconverged_rule_raises(self, monkeypatch):
        monkeypatch.setattr(cft_operator, "GAUSS_NODES", 2)
        with pytest.raises(QuadratureError, match="tensor rule"):
            build_M_operator(_domain_geometry(0.01, 1000.0, 10), OperatorSpec("scalar", 0.75), CFG)

    def test_a_refusal_names_its_n_and_entry(self, monkeypatch):
        # the shared build checks its n in the order given and names the first
        # that fails; n = 1 has no off-diagonal entry and a zero remainder
        monkeypatch.setattr(cft_operator, "GAUSS_NODES", 2)
        g = _domain_geometry(0.01, 1000.0, 1)
        for ns, first in (([1, 2, 3, 4], 2), ([4, 3, 2, 1], 4), ([1, 3, 2], 3)):
            with pytest.raises(QuadratureError,
                               match=rf"^quadrature for n = {first}, entry m=1 \(tensor rule\) "
                                     "did not converge"):
                build_M_operators(g, OperatorSpec("scalar", 0.75), CFG, ns)

    def test_a_non_finite_rule_value_is_refused(self):
        # at a layout scaled by 1e-160 the map's Jacobians overflow, and at
        # 1e160 the remainder's factors do: the rule's value is not finite,
        # and it is refused by a message that names the scale, with no numpy
        # warning on the way (Tier-1 turns warnings into errors)
        specs = ((OperatorSpec("scalar", 0.25), "1.5"), (OperatorSpec("vector", 0.3), "-0.6"))
        for scale, entry in ((1e-160, "entry m=1"), (1e160, "diagonal remainder")):
            g = Geometry(scale, 2 * scale, 4 * scale, 1e-3 * scale)
            for spec, power in specs:
                with pytest.raises(QuadratureError) as exc:
                    build_M_operators(g, spec, CFG, [2, 3])
                assert str(exc.value) == (
                    f"non-finite quadrature result for n = 2, {entry} (tensor rule): at layout "
                    f"scale L = {scale:.3g} the kernel leaves the float range (M scales as "
                    f"L^(2 - 2p) = L^{power})")

    @pytest.mark.parametrize("spec", [
        OperatorSpec("scalar", 0.05), OperatorSpec("scalar", 0.75), OperatorSpec("scalar", 1.45),
        OperatorSpec("vector", 0.1), OperatorSpec("vector", 0.25),
    ], ids=_spec_id)
    def test_tensor_rule_matches_adaptive(self, spec):
        g = Geometry(1.0, 2.0, 4.0, 1e-3, 3)
        cfg = QuadratureConfig(eps_reg=1e-4, tol=1e-10)
        om = build_M_operator(g, spec, cfg)
        assert matrix_entry_offdiag(g, spec, 1, cfg) == pytest.approx(om.off_row[0], rel=1e-8)
        assert matrix_entry_remainder(g, spec, cfg) == pytest.approx(om.diag_remainder, rel=1e-8)

    @pytest.mark.parametrize("spec", DOMAIN_SPECS, ids=_spec_id)
    def test_cn_is_the_dense_quadratic_form(self, spec):
        # n over the row sum against a solve on the dense M: at most 3.8e-16
        # relative over these 297 matrices, median 1.1e-16
        for (d, l2) in DOMAIN_LAYOUTS:
            for n in (2, 3, 10):
                om = build_M_operator(_domain_geometry(d, l2, n), spec, CFG)
                assert om.cn() == pytest.approx(quadratic_form_cn(operator_dense(om)),
                                                rel=1e-15, abs=0.0), (d, l2, n)

    @pytest.mark.parametrize("spec", DOMAIN_SPECS, ids=_spec_id)
    def test_uv_ratio_survives_cutoff_halving(self, spec):
        for (d, l2) in DOMAIN_LAYOUTS:
            g = _domain_geometry(d, l2, 1)
            om = build_M_operator(dataclasses.replace(g, n=2), spec, CFG)
            # a flux that keeps the log of the ratio of order 0.1
            gam = np.sqrt(0.1 / max(abs(om.off_row[0]), abs(om.diag_remainder)))
            vals = [uv_finite_overlap_ratio(
                build_M_operator(dataclasses.replace(g, n=2), spec, QuadratureConfig(eps_reg=eps)),
                gam, gam)["value"]
                for eps in (1e-4, 5e-5)]
            assert 0.0 < vals[0] < np.inf
            assert abs(vals[1] / vals[0] - 1.0) < 0.01


# the golden cn-table grids: (d, spec, n grid) at L = 1, l2 = 2
GOLDEN_CN_GRIDS = [(1.0, OperatorSpec("scalar", 0.25), range(1, 11)),
                   (1.0, OperatorSpec("scalar", 0.75), range(1, 11)),
                   (1.0, OperatorSpec("vector", 0.0), range(1, 11)),
                   (0.01, OperatorSpec("scalar", 0.25), range(2, 5))]


def _one_n_remainder_rule(g: Geometry, spec: OperatorSpec, N: int) -> float:
    """The subtracted diagonal's tensor rule at the one n of ``g``, written out
    as a single product, with nothing shared across n."""
    p, c = _remainder_power(spec)
    beta = 2.0 - 2.0 * p
    ya, yb = np.log(g.d), np.log(g.b - g.L)
    span = yb - ya
    zs, ws = _gauss_jacobi(N, beta)
    sig = 0.5 * span * (1.0 + zs)
    z, w = _gauss_jacobi(N, 0.0)
    half = 0.5 * (span - sig)
    t2 = np.exp(ya + half[:, None] * (1.0 + z))
    s = t2 * np.expm1(sig)[:, None]
    x2, x1_off = g.L + t2, t2 + s
    lam = log_ratio(-g.L * s / (x2 * x1_off), ((x2 + s) / x2) * (t2 / x1_off))
    log_r = 2.0 * (log_sinhc(0.5 * lam) - log_sinhc(0.5 * lam / g.n))
    f = c * s ** (-2.0 * p) * np.expm1(p * log_r) * (t2 + s) * t2 / sig[:, None] ** beta
    return 2.0 * (0.5 * span) ** (beta + 1.0) * (ws @ (half * (f @ w)))


class TestSharedBuild:
    """``build_M_operators`` shares the diagonal's n-free work across its n."""

    @pytest.mark.parametrize("d, spec, ns", GOLDEN_CN_GRIDS,
                             ids=lambda v: _spec_id(v) if isinstance(v, OperatorSpec) else str(v))
    def test_each_matrix_has_the_bits_of_a_one_n_build(self, d, spec, ns):
        g = Geometry(1.0, 1.0 + d, 3.0 + d, 0.5)
        cfg = QuadratureConfig(eps_reg=1e-4, tol=1e-9)  # cn-table's defaults
        shared = build_M_operators(g, spec, cfg, list(ns))
        assert [om.geometry.n for om in shared] == list(ns)
        for om in shared:
            one = build_M_operator(dataclasses.replace(g, n=om.geometry.n), spec, cfg)
            assert om.geometry == one.geometry
            assert om.diag_remainder == one.diag_remainder
            assert om.off_row == one.off_row
            assert om.error_estimate == one.error_estimate
            assert om.row() == one.row()
            assert om.diag_remainder == _one_n_remainder_rule(om.geometry, spec, 64)

    @pytest.mark.parametrize("spec", [OperatorSpec("scalar", h) for h in (0.25, 0.75, 1.0, 1.4)]
                             + [OperatorSpec("vector", h) for h in (0.0, 0.3)], ids=_spec_id)
    def test_dilation_covariance(self, spec):
        # scaling L, a, b and eps by lam scales every cutoff-free entry by
        # lam^(2 - 2p), p = h_s for a scalar and 1 + h_v for a vector: the
        # kernel has dimension 2p and the double integral adds two lengths
        p, _ = _remainder_power(spec)
        ns = [2, 3, 4, 7]
        rng = np.random.default_rng(36)
        lams = [1e-3, 1e5, *10.0 ** rng.uniform(-3.0, 5.0, 4)]
        for base in ((1.0, 2.0, 4.0, 1e-3), (3.0, 3.5, 40.0, 0.01)):
            ref = build_M_operators(Geometry(*base), spec, CFG, ns)
            for lam in lams:
                scale = lam ** (2.0 - 2.0 * p)
                got = build_M_operators(Geometry(*(lam * x for x in base)), spec, CFG, ns)
                for a, b in zip(ref, got):
                    want = np.array(a.off_row + (a.diag_remainder,)) * scale
                    have = np.array(b.off_row + (b.diag_remainder,))
                    np.testing.assert_allclose(have, want, rtol=1e-14, atol=0.0,
                                               err_msg=f"lam={lam}, n={a.geometry.n}, {base}")

    def test_an_n_grid_warns_about_its_layout_once(self):
        # each n's geometry is the layout of g, which warned when it was made
        with pytest.warns(RegimeWarning) as caught:
            g = Geometry(1.0, 2.0, 2.5, 0.5)
        assert len(caught) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            oms = build_M_operators(g, OperatorSpec("scalar", 0.25), CFG, [1, 2, 3])
        assert [om.geometry.n for om in oms] == [1, 2, 3]


class TestGaussJacobi:
    """The in-repo Golub-Welsch rule and exprel against their closed forms and scipy."""

    BETAS = (-0.9, -0.5, 0.0, 0.5, 1.5, 2.9)

    @pytest.mark.parametrize("N", (32, 64, 128))
    @pytest.mark.parametrize("beta", BETAS)
    def test_moments(self, beta, N):
        z, w = _gauss_jacobi(N, beta)
        for j in range(min(2 * N - 1, 60)):
            exact = 2.0 ** (beta + j + 1.0) / (beta + j + 1.0)
            assert abs(w @ (1.0 + z) ** j - exact) <= 1e-14 * exact, j

    @pytest.mark.parametrize("N", (32, 64, 128))
    def test_nodes_match_scipy(self, N):
        from scipy import special

        for beta in self.BETAS:
            z, _ = _gauss_jacobi(N, beta)
            np.testing.assert_allclose(z, special.roots_jacobi(N, 0.0, beta)[0], rtol=0,
                                       atol=1e-15)

    def test_rule_is_cached_and_read_only(self):
        z, w = _gauss_jacobi(32, 0.5)
        assert _gauss_jacobi(32, 0.5)[0] is z
        assert not (z.flags.writeable or w.flags.writeable)

    def test_exprel_matches_scipy(self):
        from scipy import special

        tiny = [0.0, 1e-300, 5e-17, 9.9e-17, 1e-16]
        ramp = list(np.logspace(-20, -1, 39))
        grid = tiny + ramp + [0.3, 0.5, 1.0, 7.5, 40.0, 700.0, 709.0, 710.0, 717.0, 717.5,
                              800.0, 1e300, -1e300, -800.0, -40.0, -1.0, -0.5]
        for x in grid + [-x for x in tiny + ramp]:
            got, want = _exprel(x), float(special.exprel(x))
            if np.isinf(want):
                assert got == want, x
            else:
                assert abs(got - want) <= np.spacing(want), x


class TestOperatorMatrix:
    """One build per (geometry, n): the cutoff lives only in ``eps_reg``."""

    @pytest.mark.parametrize("spec", [OperatorSpec("scalar", 0.25), OperatorSpec("scalar", 1.45),
                                      OperatorSpec("vector", 0.25)], ids=_spec_id)
    def test_rule_entries_do_not_read_the_cutoff(self, spec):
        g = _domain_geometry(1.0, 30.0, 3)
        a, b = (build_M_operator(g, spec, QuadratureConfig(eps_reg=eps)) for eps in (1e-4, 5e-5))
        assert a.off_row == b.off_row
        assert a.diag_remainder == b.diag_remainder
        assert a.error_estimate == b.error_estimate
        assert (a.eps_reg, b.eps_reg) == (1e-4, 5e-5)
        # so a cutoff change is a field change, down to the last bit
        moved = dataclasses.replace(a, eps_reg=5e-5)
        assert moved.row() == b.row()
        assert moved.cn() == b.cn()

    def test_m11_is_the_add_back(self):
        g, spec, cfg = geo(n=3), OperatorSpec("scalar", 0.6), QuadratureConfig(eps_reg=1e-5)
        om = build_M_operator(g, spec, cfg)
        assert om.m11 == single_copy_m11_operator(g, spec, cfg)
        assert om.m11 == flat_integral_exact(spec, g.ell2, 1e-5)
        assert np.array_equal(np.subtract(om.row(), om.subtracted().row), [om.m11, 0.0, 0.0])

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_row_is_the_first_row_of_m(self, n):
        om = build_M_operator(geo(n=n), OperatorSpec("vector", 0.25), CFG)
        assert np.array_equal(om.row(), operator_dense(om)[0])

    @pytest.mark.parametrize("spec", DOMAIN_SPECS, ids=_spec_id)
    def test_c1_is_one_over_the_add_back(self, spec):
        # the n = 1 map is Mobius, so the build's row is (m11,) and C_1 = 1/m11
        for (d, l2) in DOMAIN_LAYOUTS:
            om = build_M_operator(_domain_geometry(d, l2, 1), spec, CFG)
            assert om.row() == (om.m11,)
            assert om.cn() == 1.0 / om.m11

    def test_a_non_positive_row_sum_is_singular(self):
        om = build_M_operator(geo(n=3), OperatorSpec("scalar", 0.25), CFG)
        total = om.m11 + om.diag_remainder + 2 * om.off_row[0]
        for shift in (total, 2 * total, math.nan):
            bad = dataclasses.replace(om, diag_remainder=om.diag_remainder - shift)
            with pytest.raises(SingularMatrixError, match="at n = 3"):
                bad.cn()

    def test_two_replica_diagnostics_refuse_other_n(self):
        om = build_M_operator(geo(n=3), OperatorSpec("scalar", 0.25), CFG)
        for call in (lambda: overlap_generating(om, 0.1, 0.2),
                     lambda: uv_finite_overlap_ratio(om, 0.1, 0.2),
                     lambda: averaged_purity(om, 0.1)):
            with pytest.raises(ValueError, match="n = 2 replica matrix, got n = 3"):
                call()
        with pytest.raises(ValueError, match="need n >= 2"):
            mie_general(build_M_operator(geo(n=1), OperatorSpec("scalar", 0.25), CFG))


def _mp_replica_matrix(row, m11):
    """m11 + the circulant of the float row, as an mpmath matrix."""
    n = len(row)
    M = mpmath.matrix(n, n)
    for i in range(n):
        for j in range(n):
            M[i, j] = mpmath.mpf(row[(i - j) % n]) + (m11 if i == j else 0)
    return M


class TestPurityRatio:
    def test_unit_at_origin(self):
        one = types.SimpleNamespace(m11=8.0, subtracted=lambda: SymmetricCirculant([0.0]))
        assert log_purity_ratio_q(one, 0.0) == pytest.approx(0.0)

    def test_charge_case_q_independence(self):
        # for the conserved current C_n = n C_1; q drops out entirely
        g = Geometry(10.0, 30.0, 130.0, 0.05, 2)
        m11 = build_M_boson(dataclasses.replace(g, n=1)).row[0] / (4 * np.pi**2)
        row = build_M_boson(g).dense()[0] / (4 * np.pi**2)
        row[0] -= m11
        # the boson matrix, read through the two fields log_purity_ratio_q uses
        boson = types.SimpleNamespace(m11=m11, subtracted=lambda: SymmetricCirculant(row))
        logs = [log_purity_ratio_q(boson, q) for q in (0.0, 1.0, 3.0)]
        assert np.allclose(logs, logs[0], rtol=0.0, atol=1e-10)

    def test_log_quadratic_in_q(self):
        g = geo(n=2)
        spec = OperatorSpec("scalar", 0.25)
        om = build_M_operator(g, spec, CFG)
        m11 = single_copy_m11_operator(g, spec, CFG)
        qs = np.linspace(-2.0, 2.0, 9)
        logs = [log_purity_ratio_q(om, q) for q in qs]
        coeffs = np.polyfit(qs, logs, 3)
        cn = quadratic_form_cn(operator_dense(om))
        assert coeffs[1] == pytest.approx(-(cn - 2.0 / m11) / 2.0, rel=1e-8)
        assert abs(coeffs[0]) < 1e-10  # no cubic term

    def test_free_of_add_back_cancellation(self):
        # m11 ~ 3e11; the dense formula evaluated at 40 digits from the same
        # float entries is the reference. At q = sqrt(m11) its two terms,
        # each about 1.2e-12, cancel to 5.7e-15
        g, spec, n = _domain_geometry(1.0, 1000.0, 1), OperatorSpec("scalar", 1.45), 3
        cfg = QuadratureConfig(eps_reg=5e-5)
        m11_f = single_copy_m11_operator(g, spec, cfg)
        om = build_M_operator(dataclasses.replace(g, n=n), spec, cfg)
        sub = om.subtracted()
        with mpmath.workdps(40):
            m11 = mpmath.mpf(m11_f)
            M = _mp_replica_matrix(sub.row, m11)
            cn = mpmath.fsum(mpmath.lu_solve(M, mpmath.ones(n, 1)))
            log_det_ratio = mpmath.log(mpmath.det(M)) - n * mpmath.log(m11)
            for q in (0.0, np.sqrt(m11_f), 3.0 * np.sqrt(m11_f)):
                ref = -mpmath.mpf(q) ** 2 * (cn - n / m11) / 2 - log_det_ratio / 2
                assert log_purity_ratio_q(om, q) == pytest.approx(
                    float(ref), rel=1e-10)


class TestMie:
    def test_conserved_current_has_no_q_term(self):
        g = Geometry(10.0, 30.0, 60.0, 0.1, 1)
        out = mie_general(build_M_operator(dataclasses.replace(g, n=2), OperatorSpec("vector", 0.0),
                                           QuadratureConfig(eps_reg=0.2, tol=1e-10)))
        # C_2 - 2 C_1 vanishes identically for the conserved charge
        assert abs(out["q_correction_gaussian"]) < 1e-5 * abs(out["det_correction"]) + 1e-10

    def test_against_outcome_summation(self):
        # trapezoid over the outcome grid of p(q) S^(n)(q)
        g = geo(n=1)
        spec = OperatorSpec("scalar", 0.25)
        n = 2
        om = build_M_operator(dataclasses.replace(g, n=n), spec, CFG)
        out = mie_general(om)
        m11 = om.m11
        sigma = np.sqrt(m11)
        qs = np.linspace(-8 * sigma, 8 * sigma, 1 << 10)
        pq = np.exp(-qs**2 / (2 * m11)) / np.sqrt(2 * np.pi * m11)
        s_q = np.array(
            [out["base_entropy"] + log_purity_ratio_q(om, q) / (1 - n) for q in qs]
        )
        mie_sum = np.trapezoid(pq * s_q, qs)
        assert mie_sum == pytest.approx(out["total"], rel=1e-3)

    def test_corrections_free_of_add_back_cancellation(self):
        # m11 ~ 1e10 here; the old formulas evaluated at 40 digits from the
        # same float entries are the reference
        g, spec, n = _domain_geometry(1.0, 1000.0, 1), OperatorSpec("scalar", 1.45), 3
        cfg = QuadratureConfig(eps_reg=5e-5)
        om = build_M_operator(dataclasses.replace(g, n=n), spec, cfg)
        out = mie_general(om)
        row = om.subtracted().row
        with mpmath.workdps(40):
            m11 = mpmath.mpf(single_copy_m11_operator(g, spec, cfg))
            M = _mp_replica_matrix(row, m11)
            cn = mpmath.fsum(mpmath.lu_solve(M, mpmath.ones(n, 1)))
            det_ref = (n * mpmath.log(m11) - mpmath.log(mpmath.det(M))) / (2 * (1 - n))
            q_ref = -(cn - n / m11) * m11 / (2 * (1 - n))
        assert om.m11 > 1e9
        assert out["det_correction"] == pytest.approx(float(det_ref), rel=1e-10)
        assert out["q_correction_gaussian"] == pytest.approx(float(q_ref), rel=1e-10)
        assert out["total"] == out["base_entropy"] + out["det_correction"] + out["q_correction_gaussian"]

    @pytest.mark.parametrize("L,d,l2", [(10.0, 10.0, 100.0), (10.0, 10.0, 1e4), (1.0, 1.0, 2.0),
                                        (10.0, 100.0, 1e5), (5.0, 7.0, 10.0)])
    def test_det_correction_is_the_boson_one_on_its_matrix(self, L, d, l2):
        # the boson's m1 and its row with diagonal D = M_00(n) - m1, read
        # through the fields mie_general uses, give the boson's correction
        # bit for bit: both routes take the determinant from one kernel
        g1 = Geometry(L, L + d, L + d + l2, 0.5)
        m1, ell = build_M_boson(g1).row[0], loop_endpoints(g1.L, g1.a, g1.b)[2]
        for n in (2, 3, 5, 8):
            g = dataclasses.replace(g1, n=n)
            row = np.array(build_M_boson(g).row)
            row[0] = -4.0 * (log_sinhc(ell / 2.0) - log_sinhc(ell / (2.0 * n))).real
            boson = types.SimpleNamespace(geometry=g, m11=m1, error_estimate=0.0,
                                          subtracted=lambda: SymmetricCirculant(row))
            assert mie_general(boson)["det_correction"] == renyi_ratio_and_mie(g, n)[1], n

    def test_a_non_positive_replica_eigenvalue_is_singular(self):
        # the subtracted row (0, 2) has eigenvalues 2 and -2, so M = 1 + it has -1
        om = types.SimpleNamespace(geometry=geo(n=2), m11=1.0, error_estimate=0.0,
                                   subtracted=lambda: SymmetricCirculant([0.0, 2.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrixError) as exc:
                mie_general(om)
        assert type(exc.value) is SingularMatrixError
        assert str(exc.value) == "non-positive replica eigenvalue at n = 2"

    def test_not_a_function_of_cross_ratio(self):
        # both layouts share the anharmonic ratio a (b - L) / (b (a - L))
        # = 1.5 but are not global rescalings of each other; a conformal-
        # kinematic correction would coincide on them
        spec = OperatorSpec("scalar", 0.25)
        cfg = QuadratureConfig(eps_reg=1e-6, tol=1e-10)
        g1 = Geometry(1.0, 2.0, 4.0, 1e-3, 1)
        g2 = Geometry(1.0, 2.5, 10.0, 1e-3, 1)
        eta = lambda g: g.a * (g.b - g.L) / (g.b * (g.a - g.L))
        assert eta(g1) == pytest.approx(eta(g2), rel=1e-12)
        corr1 = mie_general(build_M_operator(dataclasses.replace(g1, n=2), spec, cfg))["det_correction"]
        corr2 = mie_general(build_M_operator(dataclasses.replace(g2, n=2), spec, cfg))["det_correction"]
        # a global rescaling *would* leave it invariant (dimensionless),
        # provided the point splitting is rescaled along
        g1s = Geometry(3.0, 6.0, 12.0, 3e-3, 1)
        cfg_s = QuadratureConfig(eps_reg=3e-6, tol=1e-10)
        corr1s = mie_general(build_M_operator(dataclasses.replace(g1s, n=2), spec, cfg_s))[
            "det_correction"]
        assert corr1s == pytest.approx(corr1, rel=1e-6)
        assert abs(corr2 - corr1) > 100 * cfg.tol
        assert corr2 != pytest.approx(corr1, rel=1e-2)


class TestOverlaps:
    def test_no_flux_is_purity_ratio(self):
        om = build_M_operator(geo(n=2), OperatorSpec("scalar", 0.25), CFG)
        assert overlap_generating(om, 0.0, 0.0)["value"] == pytest.approx(1.0)
        assert uv_finite_overlap_ratio(om, 0.0, 0.0)["value"] == pytest.approx(1.0)

    def test_flux_exchange_symmetry(self):
        om = build_M_operator(geo(n=2), OperatorSpec("scalar", 0.25), CFG)
        assert overlap_generating(om, 0.4, 1.1)["value"] == pytest.approx(
            overlap_generating(om, 1.1, 0.4)["value"], rel=1e-12
        )

    @pytest.mark.filterwarnings("error")
    def test_logs_are_formed_before_exponentiating(self):
        # scalar:0.05 on a long interval: the generating function underflows
        # to 0.0 and the UV-finite ratio overflows to inf, while both logs stay
        # finite; where the values are in range the logs are theirs
        om = build_M_operator(Geometry(10.0, 20.0, 1020.0, 0.5, 2), OperatorSpec("scalar", 0.05),
                              QuadratureConfig())
        gen, uv = overlap_generating(om, 1.0, -1.0), uv_finite_overlap_ratio(om, 1.0, -1.0)
        assert (gen["value"], uv["value"]) == (0.0, np.inf)
        assert np.isfinite(gen["log_value"]) and np.isfinite(uv["log_value"])
        om = build_M_operator(geo(n=2), OperatorSpec("scalar", 0.25), CFG)
        for g1, g2 in ((0.1, 0.2), (0.5, -0.4)):
            for out in (overlap_generating(om, g1, g2), uv_finite_overlap_ratio(om, g1, g2)):
                assert out["log_value"] == pytest.approx(np.log(out["value"]), rel=1e-13)

    def test_gaussian_closed_form(self):
        g = geo()
        spec = OperatorSpec("scalar", 0.25)
        om = build_M_operator(dataclasses.replace(g, n=2), spec, CFG)
        M = operator_dense(om)
        gam = np.array([0.7, -0.3])
        assert overlap_generating(om, *gam)["value"] == pytest.approx(
            np.exp(-0.5 * gam @ M @ gam), rel=1e-10
        )

    def test_uv_ratio_algebraic_expansion(self):
        g = geo()
        spec = OperatorSpec("scalar", 0.25)
        om = build_M_operator(dataclasses.replace(g, n=2), spec, CFG)
        M = operator_dense(om)
        m11 = single_copy_m11_operator(g, spec, CFG)
        g1, g2 = 0.8, 0.5
        expected = (
            -g1 * g2 * M[0, 1]
            - 0.5 * g1**2 * (M[0, 0] - m11)
            - 0.5 * g2**2 * (M[1, 1] - m11)
        )
        assert np.log(uv_finite_overlap_ratio(om, g1, g2)["value"]) == pytest.approx(
            expected, rel=1e-10
        )

    def test_heavy_weight_divergences_cancel(self):
        # h_s = 1: the linear-in-(l2/eps) pieces drop out of the ratio
        g = Geometry(2.0, 4.0, 9.0, 0.5, 1)
        spec = OperatorSpec("scalar", 1.0)
        gam = np.array([0.2, 0.2])
        vals, raws = [], []
        for eps in (1e-3, 5e-4):
            cfg = QuadratureConfig(eps_reg=eps, tol=1e-9)
            om = build_M_operator(dataclasses.replace(g, n=2), spec, cfg)
            vals.append(np.log(uv_finite_overlap_ratio(om, 0.2, 0.2)["value"]))
            M = operator_dense(om)
            raws.append(-0.5 * gam @ M @ gam)  # log of the unnormalized numerator
        assert abs(vals[1] - vals[0]) < 0.01 * abs(vals[0])
        assert abs(raws[1] - raws[0]) > 0.10 * abs(raws[0])


class TestAveragedPurity:
    def test_refuses_a_gap_that_is_not_positive(self):
        # a point-splitting cutoff far above l2 leaves the add-back m11 so small
        # that M11 < M12: no covariance, refused rather than a nan square root
        om = build_M_operator(Geometry(1.0, 2.0, 4.0, 1e-3, 2), OperatorSpec("scalar", 0.25),
                              QuadratureConfig(eps_reg=1e3))
        M11, M12 = om.row()
        assert M11 < M12
        with pytest.raises(ValueError, match=r"^M11 - M12 = -7\.\d+e-01 <= 0: not a valid covariance$"):
            averaged_purity(om, 0.3)

    def test_zero_flux_value(self):
        g = geo()
        spec = OperatorSpec("scalar", 0.25)
        om = build_M_operator(dataclasses.replace(g, n=2), spec, CFG)
        M = operator_dense(om)
        out = averaged_purity(om, 0.0)
        assert out["value"] == pytest.approx(np.sqrt(np.pi / (M[0, 0] - M[0, 1])), rel=1e-10)

    def test_log_quadratic_coefficient(self):
        g = geo()
        spec = OperatorSpec("scalar", 0.25)
        om = build_M_operator(dataclasses.replace(g, n=2), spec, CFG)
        M = operator_dense(om)
        gap = M[0, 0] - M[0, 1]
        gs = np.linspace(0.0, 1.5, 7)
        logs = np.log([averaged_purity(om, gam)["value"] for gam in gs])
        coef = np.polyfit(gs, logs, 2)[0]
        assert coef == pytest.approx(-gap / 4.0, rel=1e-9)

    def test_against_constrained_double_integral(self):
        # brute force: integrate over gamma_1 with gamma_2 = gamma - gamma_1
        g = geo()
        spec = OperatorSpec("scalar", 0.25)
        om = build_M_operator(dataclasses.replace(g, n=2), spec, CFG)
        M = operator_dense(om)
        gamma = 0.8
        f = lambda g1: np.exp(
            -0.5 * M[0, 0] * g1**2
            - M[0, 1] * g1 * (gamma - g1)
            - 0.5 * M[1, 1] * (gamma - g1) ** 2
        )
        ref, _ = integrate.quad(f, -np.inf, np.inf, epsabs=1e-12, epsrel=1e-12)
        out = averaged_purity(om, gamma)
        assert out["value"] == pytest.approx(ref, rel=1e-6)

    def test_normalized_is_value_over_single_copy(self):
        # where neither exponential underflows, the quotient itself
        g = geo()
        spec = OperatorSpec("scalar", 0.25)
        om = build_M_operator(dataclasses.replace(g, n=2), spec, CFG)
        for gamma in (0.0, 0.1, 0.3):
            out = averaged_purity(om, gamma)
            quotient = out["value"] / np.exp(-0.25 * gamma**2 * om.m11)
            assert out["normalized"] == pytest.approx(quotient, rel=1e-12)

    def test_normalized_survives_underflow(self):
        # gamma^2 m11 / 4 ~ 1e8: value and the single-copy generating
        # function are both 0.0, and their quotient used to be nan; the
        # reference is the quotient at 40 digits from the same float entries
        g = _domain_geometry(1.0, 1000.0, 2)
        spec, gamma = OperatorSpec("scalar", 1.45), 0.5
        om = build_M_operator(g, spec, QuadratureConfig(eps_reg=5e-5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # 0/0 warned as an invalid value
            out = averaged_purity(om, gamma)
        assert out["value"] == 0.0
        with mpmath.workdps(40):
            m11 = mpmath.mpf(om.m11)
            gap = m11 + mpmath.mpf(om.diag_remainder) - mpmath.mpf(om.off_row[0])
            g2 = mpmath.mpf(gamma) ** 2
            ref = mpmath.sqrt(mpmath.pi / gap) * mpmath.exp(-g2 * gap / 4 + g2 * m11 / 4)
        assert out["normalized"] == pytest.approx(float(ref), rel=1e-10)

    @pytest.mark.filterwarnings("error")
    def test_logs_on_long_intervals(self):
        # M11 - M12 ~ 2.5e5: value underflows to 0.0 and uv_finite overflows to
        # inf at gamma >= 0.1, while both logs stay finite
        g = Geometry(10.0, 20.0, 1020.0, 0.5, 2)
        om = build_M_operator(g, OperatorSpec("scalar", 0.05), QuadratureConfig())
        seen = set()
        for gamma in (0.05, 0.1, 1.0):
            out = averaged_purity(om, gamma)
            for col in ("value", "uv_finite"):
                log = out["log_" + col]
                assert np.isfinite(log)
                if np.isfinite(out[col]) and out[col] != 0.0:
                    assert log == pytest.approx(np.log(out[col]), rel=1e-12, abs=1e-12)
                    seen.add(col)
        assert seen == {"value", "uv_finite"}  # each log met its float column somewhere
        assert out["value"] == 0.0 and out["uv_finite"] == np.inf
        # opposite fluxes send the overlap ratio past the float range the same way
        assert uv_finite_overlap_ratio(om, 1.0, -1.0)["value"] == np.inf


class TestConvergenceCheck:
    def test_boundary_scalar(self):
        spec = OperatorSpec("scalar", 0.5)
        for k in (1, 2, 7):
            assert interaction_convergence_check(spec, k)

    def test_printed_counterexample(self):
        assert not interaction_convergence_check(OperatorSpec("scalar", 0.7), 4)

    def test_vector_case(self):
        assert interaction_convergence_check(OperatorSpec("vector", 0.1), 4)
        assert not interaction_convergence_check(OperatorSpec("vector", 0.3), 4)

    def test_monotone_in_degree(self):
        spec = OperatorSpec("scalar", 0.6)
        allowed = [interaction_convergence_check(spec, k) for k in range(1, 8)]
        # once it fails at some degree it fails for all larger ones
        assert allowed == sorted(allowed, reverse=True)
        with pytest.raises(ValueError):
            interaction_convergence_check(OperatorSpec("scalar", 0.5), 0)
