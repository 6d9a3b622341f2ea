import dataclasses
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from opens.cft_boson import (
    BosonParams,
    TimeParams,
    _T_MAX,
    build_M_boson,
    charged_moments_ratio,
    chi_samples,
    chi_time_asymptote,
    holevo_chi,
    holevo_chi_approx,
    holevo_chi_time,
    _chi,
    _chi_approx_raw,
    _endpoints,
    _row,
    _rows,
    holevo_chi_sweep,
    holevo_chi_time_sweep,
    renyi_ratio_and_mie,
    time_correction_samples,
)
from opens.continuation import ContinuationProblem, continue_to_one
from opens.core import Geometry, SymmetricCirculant, log_sinhc, quadratic_form_cn
from opens.errors import DomainError, RegimeWarning, SingularMatrixError
from oracles import (charge_distribution, charge_variances, circulant_eigenvalues, cn_closed_form,
                     loop_endpoints, loop_row)


def geo(L=10.0, d=20.0, l2=100.0, eps=0.5, n=1):
    return Geometry(L, L + d, L + d + l2, eps, n)


def shifted_row(L, a, b, eps, n, shift):
    """The first row of M(n) with both endpoints moved by -shift, as the time route takes it."""
    return _rows(*_endpoints([(L, a, b, eps, shift)]), n)[0]


def mp_holo_row(ctx, L, za, zb, eps, n, exact_reg=False):
    """Holomorphic row from the branch-point images themselves, in ``ctx``.

    Entry j is -log of the cross ratio of the images of za, zb on sheets 0
    and j, (z / (z - L))^{1/n} e^{2 pi i j / n}; the diagonal replaces the
    coincident images by their point-split width, at leading order in eps
    or, with ``exact_reg``, as the images' difference at z +- eps. This is
    the independent algebra the closed-form row is checked against.
    """
    L, eps = ctx.mpf(L), ctx.mpf(eps)
    image = lambda z: (z / (z - L)) ** (ctx.mpf(1) / n)
    a, b = image(za), image(zb)
    if exact_reg:
        areg = image(za + eps) - image(za - eps)
        breg = image(zb + eps) - image(zb - eps)
    else:
        areg = -2 * eps * L / (n * za * (za - L)) * a
        breg = -2 * eps * L / (n * zb * (zb - L)) * b
    row = [-ctx.log(areg * breg / (a - b) ** 2)]
    for j in range(1, n):
        zeta = ctx.exp(2j * ctx.pi * j / n)
        row.append(-ctx.log((a - a * zeta) * (b - b * zeta) / ((a - b * zeta) * (a * zeta - b))))
    return row


def mp_endpoints(ctx, a, b, t=0.0, eps_prime=0.0):
    shift = ctx.mpf(t) + 1j * ctx.mpf(eps_prime)
    return ctx.mpf(a) - shift, ctx.mpf(b) - shift


def mp_row(L, a, b, eps, n, dps=60, exact_reg=False):
    """Effective row 2 Re of ``mp_holo_row`` at real endpoints, as floats."""
    ctx = mp.MPContext()
    ctx.dps = dps
    za, zb = mp_endpoints(ctx, a, b)
    return np.array([float(2 * ctx.re(x)) for x in mp_holo_row(ctx, L, za, zb, eps, n, exact_reg)])


def mp_time_samples(g, tp, n_max=8, dps=90):
    """chi_n(t) from the full eigenvalue sum of the time-shifted row."""
    ctx = mp.MPContext()
    ctx.dps = dps
    za, zb = mp_endpoints(ctx, g.a, g.b, tp.t, tp.eps_prime)
    row_of = lambda n: [2 * ctx.re(x) for x in mp_holo_row(ctx, g.L, za, zb, g.eps, n)]
    log_m1 = ctx.log(row_of(1)[0])
    out = []
    for n in range(2, n_max + 1):
        row = row_of(n)
        lams = [ctx.fsum(row[j] * ctx.cos(2 * ctx.pi * j * k / n) for j in range(n))
                for k in range(n)]
        logdet = ctx.fsum(ctx.log(lam) for lam in lams)
        out.append(float((n * log_m1 - logdet) / (2 * (n - 1))))
    return out


class TestRowOracle:
    def test_static_rows_match_60_digits(self):
        # random layouts, one with d >> l2, where the images of a and b nearly
        # coincide and any difference of images loses its digits
        rng = np.random.default_rng(2024)
        layouts = [(0.30, 321.0, 0.20, 0.01)] + [
            (*10 ** rng.uniform(-1, 3, 3), 10 ** rng.uniform(-3, -1)) for _ in range(30)]
        for L, d, l2, eps in layouts:
            a = L + d
            for n in (1, 2, 5, 8):
                np.testing.assert_allclose(_row(L, a, a + l2, eps, n),
                                           mp_row(L, a, a + l2, eps, n), rtol=1e-14, atol=0.0)
        # the exact point-split diagonal that the tests' C_n convergence uses
        for L, d, l2, eps in layouts[:8]:
            a = L + d
            np.testing.assert_allclose(loop_row(L, a, a + l2, eps, 5, exact_reg=True),
                                       mp_row(L, a, a + l2, eps, 5, exact_reg=True),
                                       rtol=1e-14, atol=0.0)

    def test_coincident_rows_match_60_digits(self):
        # u(a) < 0 in the A = B limit: q = u(a) / u(b) ~ -1e-24 at L = 1e12
        for L in (1e6, 1e9, 1e12):
            for n in (2, 3, 4):
                np.testing.assert_allclose(_row(L, 1.0, L + 1.0, 1.0, n),
                                           mp_row(L, 1.0, L + 1.0, 1.0, n), rtol=1e-14, atol=0.0)


class TestBuildM:
    def test_n1_independent_evaluation(self):
        g = geo(n=1)
        # -2 log |a_reg b_reg / (a1 - b1)^2| evaluated from scratch
        u = lambda z: z / (z - g.L)
        areg = -2 * g.eps * g.L / (g.a**2 - g.a * g.L) * u(g.a)
        breg = -2 * g.eps * g.L / (g.b**2 - g.b * g.L) * u(g.b)
        expected = -2.0 * np.log(abs(areg * breg / (u(g.a) - u(g.b)) ** 2))
        assert build_M_boson(g).row[0] == pytest.approx(expected, rel=1e-12)

    def test_coincident_limit_matches_printed_value(self):
        # A = B limit at n=2, L=100, eps=1: L-dependent part 2 log 100 = 9.2103
        row = _row(100.0, 1.0, 101.0, 1.0, 2)
        assert row[0] == pytest.approx(2.0 * np.log(100.0), abs=1e-3)

    def test_coincident_limit_slope(self):
        # the (4/n) log(L/eps) behavior is asymptotic, with 1/log(L)
        # corrections for n >= 3, so the fit window sits at large L
        for n in (2, 3, 4):
            Ls = np.geomspace(1e6, 1e12, 4)
            rows = np.array([_row(L, 1.0, L + 1.0, 1.0, n) for L in Ls])
            for col in range(n):
                slope = np.polyfit(np.log(Ls), rows[:, col], 1)[0]
                assert slope == pytest.approx(4.0 / n, rel=0.01)

    def test_palindromic_and_psd(self):
        g = geo(n=6)
        M = build_M_boson(g)
        row = np.asarray(M.row)
        assert np.array_equal(row[1:], row[1:][::-1])
        assert np.linalg.eigvalsh(M.dense()).min() > -1e-8

    def test_warns_when_diagonal_not_dominant(self):
        # B hugging A with a coarse cutoff: the off-diagonal coupling wins
        g = Geometry(10.0, 10.0001, 110.0, 10.0, 2)
        with pytest.warns(RegimeWarning):
            build_M_boson(g)

    def test_row_sum_identity_exact(self):
        g = geo(L=7.0, d=13.0, l2=211.0, eps=0.05, n=5)
        total = np.sum(build_M_boson(g).row)
        assert total == pytest.approx(4.0 * np.log(g.ell2 / (2 * g.eps)), rel=1e-13)


class TestChargedMoments:
    def test_zero_flux_is_one(self):
        g = geo(n=3)
        assert charged_moments_ratio(g, BosonParams(1.3), [0.0, 0.0, 0.0]) == 1.0

    def test_single_replica_reduction(self):
        g = geo(n=1)
        K, gam = 0.8, 0.6
        expected = np.exp(-K * gam**2 * build_M_boson(g).row[0] / (8 * np.pi**2))
        assert charged_moments_ratio(g, BosonParams(K), [gam]) == pytest.approx(expected, rel=1e-12)

    def test_two_replica_log_ratio(self):
        g = geo(n=2)
        M = build_M_boson(g).dense()
        p = BosonParams(1.0)
        gam = 0.9
        lr_minus = np.log(charged_moments_ratio(g, p, [gam, -gam]))
        lr_plus = np.log(charged_moments_ratio(g, p, [gam, gam]))
        assert lr_minus / lr_plus == pytest.approx(
            (M[0, 0] - M[0, 1]) / (M[0, 0] + M[0, 1]), rel=1e-10
        )

    @pytest.mark.parametrize("gammas", [[0.5, 0.5], [[0.5, 0.5, 0.5]]], ids=["too few", "2-d"])
    def test_one_flux_per_replica_is_required(self, gammas):
        with pytest.raises(ValueError, match=r"need 3 flux angles, got shape \("):
            charged_moments_ratio(geo(n=3), BosonParams(1.0), gammas)


class TestCn:
    def test_printed_value(self):
        g = Geometry(10.0, 30.0, 230.0, 0.5, 2)
        assert cn_closed_form(g) == pytest.approx(2.0 / (4.0 * np.log(200.0)), rel=1e-12)
        assert cn_closed_form(g) == pytest.approx(0.09437, abs=5e-5)

    def test_L_independence_bitwise(self):
        a, b, eps = 40.0, 140.0, 0.3
        vals = {cn_closed_form(Geometry(L, a, b, eps, 3)) for L in (5.0, 10.0, 20.0)}
        assert len(vals) == 1

    def test_numeric_exact_in_leading_mode(self):
        g = geo(l2=150.0, eps=0.01, n=4)
        cn = quadratic_form_cn(build_M_boson(g).dense())
        assert cn == pytest.approx(cn_closed_form(g), rel=1e-12)

    def test_numeric_converges_in_exact_mode(self):
        L, d, l2 = 10.0, 20.0, 100.0
        rels = []
        for ratio in (1e-2, 1e-3, 1e-4):
            g = Geometry(L, L + d, L + d + l2, l2 * ratio, 5)
            row = loop_row(g.L, g.a, g.b, g.eps, g.n, exact_reg=True)
            num = quadratic_form_cn(SymmetricCirculant(row).dense())
            rels.append(abs(num - cn_closed_form(g)) / cn_closed_form(g))
        assert rels[0] > rels[1] > rels[2]
        assert rels[2] < 1e-3

    def test_domain_error(self):
        with pytest.warns(Warning):
            g = Geometry(10.0, 20.0, 20.5, 0.3, 2)
        with pytest.raises(DomainError):
            cn_closed_form(g)


class TestRenyiRatio:
    def test_against_direct_algebra(self):
        g = Geometry(100.0, 600.0, 1600.0, 0.5, 1)
        ratio, corr = renyi_ratio_and_mie(g, 2)
        M = build_M_boson(dataclasses.replace(g, n=2)).dense()
        m1 = build_M_boson(g).row[0]
        direct = 0.5 * np.log(np.linalg.det(M) / m1**2)
        assert corr == pytest.approx(direct, rel=1e-10)
        assert corr < 0.0
        assert ratio == pytest.approx(np.exp(-direct), rel=1e-10)

    def test_correction_shrinks_with_distance(self):
        L, l2 = 10.0, 100.0
        mags = []
        for d in (5.0, 20.0, 80.0, 320.0):
            g = Geometry(L, L + d, L + d + l2, 0.5, 1)
            mags.append(abs(renyi_ratio_and_mie(g, 2)[1]))
        assert mags == sorted(mags, reverse=True)

    def test_correction_negative_everywhere(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            L = rng.uniform(1.0, 50.0)
            d = rng.uniform(0.5, 100.0)
            l2 = rng.uniform(5.0, 1000.0)
            g = Geometry(L, L + d, L + d + l2, 0.2, 1)
            n = int(rng.integers(2, 7))
            assert renyi_ratio_and_mie(g, n)[1] <= 0.0

    @pytest.mark.parametrize("n", [1, 0, -2])
    def test_fewer_than_two_replicas_rejected(self, n):
        with pytest.raises(ValueError, match="need n >= 2 replicas"):
            renyi_ratio_and_mie(geo(), n)


class TestHolevo:
    def test_constant_samples_continuation(self):
        res = continue_to_one(ContinuationProblem([(n, 0.42) for n in range(2, 7)]))
        assert res.value == pytest.approx(0.42, abs=1e-12)

    def test_rises_then_falls(self):
        l2s = np.geomspace(10.0, 1e5, 13)
        chis = [holevo_chi(geo(L=10.0, d=10.0, l2=l2)) for l2 in l2s]
        peak = int(np.argmax(chis))
        assert 0 < peak < len(chis) - 1
        assert chis[0] < chis[peak] and chis[-1] < chis[peak]
        assert all(c > 0 for c in chis)

    def test_matches_approx_at_large_distance(self):
        g = Geometry(100.0, 600.0, 10600.0, 0.5, 1)
        chi = holevo_chi(g)
        assert chi == pytest.approx(holevo_chi_approx(g), rel=0.05)

    def test_approx_against_derivative_oracle(self):
        # independent route: chi ~ -a0'(1) / (2 a0(1)) via central differences
        g = Geometry(100.0, 600.0, 1600.0, 0.5, 1)

        def a0(n):
            u = (g.a / (g.a - g.L)) ** (1 / n)
            v = (g.b / (g.b - g.L)) ** (1 / n)
            areg = 2 * g.eps * g.L * u / (g.a * n * (g.a - g.L))
            breg = 2 * g.eps * g.L * v / (g.b * n * (g.b - g.L))
            return -np.log((areg * breg / (u - v) ** 2) ** 2)

        h = 1e-6
        deriv = (a0(1 + h) - a0(1 - h)) / (2 * h)
        assert holevo_chi_approx(g) == pytest.approx(-deriv / (2 * a0(1.0)), rel=1e-6)
        # the verbatim source expression carries an extra factor of -2
        assert _chi_approx_raw(g) == pytest.approx(-2.0 * holevo_chi_approx(g), rel=1e-12)

    @pytest.mark.parametrize("l2", [1.0, 0.6])  # (b - a) / (2 eps) = 1, and below
    def test_approx_refuses_a_cutoff_dominated_layout(self, l2):
        with pytest.warns(RegimeWarning):
            g = geo(l2=l2)
        with pytest.raises(DomainError, match=r"\(b-a\)/\(2 eps\) <= 1: approximation undefined"):
            holevo_chi_approx(g)

    def test_samples_are_positive_and_match_corrections(self):
        g = geo()
        for n, val in chi_samples(g, 6):
            assert val > 0
            assert val == pytest.approx(-renyi_ratio_and_mie(g, n)[1], rel=1e-12)


class TestChargeDistribution:
    def test_symmetry_and_normalization(self):
        g, p = geo(), BosonParams(1.4)
        qs = np.linspace(-40, 40, 11)
        assert np.allclose(charge_distribution(g, p, qs), charge_distribution(g, p, -qs))
        total, _ = integrate.quad(lambda q: charge_distribution(g, p, q), -np.inf, np.inf)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_variance_from_generating_function(self):
        # Fourier-transform oracle: second moment of the density built by
        # numerically transforming exp(-K gamma^2 m11 / (8 pi^2))
        g, p = geo(), BosonParams(0.7)
        m11 = build_M_boson(g).row[0]
        gen = lambda gam: np.exp(-p.K * gam**2 * m11 / (8 * np.pi**2))
        density = lambda q: integrate.quad(
            gen, 0, np.inf, weight="cos", wvar=q
        )[0] / np.pi
        grid = np.linspace(0, 30, 400)
        vals = np.array([density(q) for q in grid])
        norm = 2 * np.trapezoid(vals, grid)
        second = 2 * np.trapezoid(grid**2 * vals, grid) / norm
        expected = charge_variances(g, p)["gaussian"]
        assert second == pytest.approx(expected, rel=1e-6)
        assert expected == pytest.approx(p.K * m11 / (4 * np.pi**2), rel=1e-12)


class TestTimeDependence:
    def test_time_past_the_float_range_is_rejected_by_name(self):
        # the boson-time defaults at --l2 10. Past _T_MAX t^-4 is subnormal,
        # the samples lose digits and t**4 overflows; the error names t and
        # the bound
        g = Geometry(10.0, 20.0, 30.0, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chi = holevo_chi_time(g, TimeParams(_T_MAX, 1e-3))
            assert chi == pytest.approx(chi_time_asymptote(g, _T_MAX), rel=1e-9)
            assert 0.0 < chi < 1e-305
        past = float(np.nextafter(_T_MAX, np.inf))
        with pytest.raises(ValueError) as err:
            TimeParams(past, 1e-3)
        assert f"[0, {_T_MAX:.6g}]" in str(err.value) and f"got t={past}" in str(err.value)

    @pytest.mark.parametrize("L, d, l2, eps, bound", [(1e-3, 1e-3, 1e-2, 1e-4, "7.2e+73"),
                                                      (0.01, 1.0, 2.0, 1e-3, "2.79e+75")])
    def test_time_past_the_layouts_float_range_is_rejected_by_name(self, L, d, l2, eps, bound):
        # below _T_MAX, but the samples of these small layouts, about 0.56 of
        # the asymptote ell2^2 L^2 / (24 log(ell2 / 2 eps) t^4), are subnormal
        # at t = 8e76, where the first gave a spurious ContinuationError and
        # the second a subnormal chi. The point is refused by name; 1e70
        # keeps every sample normal and runs to full accuracy
        g = Geometry(L, L + d, L + d + l2, eps)
        late, ok = holevo_chi_time_sweep([(g, TimeParams(t, 1e-3)) for t in (8e76, 1e70)])
        assert isinstance(late, DomainError)
        assert str(late).startswith("t = 8e+76 is too late for this layout: its chi_n(t) samples "
                                    "fall to "), str(late)
        assert str(late).endswith(f"so t must stay below about {bound}"), str(late)
        assert ok.value == pytest.approx(chi_time_asymptote(g, 1e70), rel=1e-12)

    def test_zero_time_limit(self):
        g = geo(n=1)
        tp = TimeParams(0.0, 1e-8)
        samples = time_correction_samples(g, tp, n_max=4)
        for n, val in samples:
            _, corr = renyi_ratio_and_mie(g, n)
            assert val == pytest.approx(-corr, rel=1e-3)

    def test_antiholomorphic_row_is_conjugate(self):
        # the t^-4 tail keeps 2 Re of the holomorphic row only, which relies
        # on the conjugate endpoints giving the conjugate row
        g, tp = geo(n=5), TimeParams(15.0, 1.0)  # before a - L = 20
        ctx = mp.MPContext()
        ctx.dps = 30
        holo, anti = (np.array([complex(x) for x in mp_holo_row(
            ctx, g.L, *mp_endpoints(ctx, g.a, g.b, tp.t, e), g.eps, g.n)])
            for e in (tp.eps_prime, -tp.eps_prime))
        assert np.abs(holo.imag).min() > 1e-2
        np.testing.assert_allclose(anti, holo.conj(), rtol=1e-14, atol=0.0)
        # the closed form gives that effective row from either half
        shift = complex(tp.t, tp.eps_prime)
        for s in (shift, shift.conjugate()):
            row = shifted_row(g.L, g.a, g.b, g.eps, g.n, s)
            np.testing.assert_allclose(row, 2.0 * holo.real, rtol=1e-14, atol=0.0)

    def test_samples_match_the_full_eigenvalue_sum(self):
        # the kernel sums log1p(delta_k) - delta_k; the reference sums every
        # log lambda_k = log sum_j row_j cos(2 pi j k / n) at 90 digits
        for L, d, l2 in ((10.0, 5.0, 10.0), (10.0, 10.0, 100.0), (1.0, 1.0, 2.0), (100.0, 50.0, 100.0)):
            g = Geometry(L, L + d, L + d + l2, 0.05, 1)
            for t in (1e3, 3.7e4, 1e6):
                tp = TimeParams(t, 1e-3)
                got = time_correction_samples(g, tp)
                assert [n for n, _ in got] == list(range(2, 9))
                np.testing.assert_allclose([v for _, v in got], mp_time_samples(g, tp),
                                           rtol=1e-13, atol=0.0)

    def test_light_cone_window_is_rejected(self):
        g = Geometry(10.0, 15.0, 25.0, 0.5, 1)
        for t in (5.0, 8.0, 16.0, 25.0):
            with pytest.raises(DomainError, match="light-cone window"):
                time_correction_samples(g, TimeParams(t, 1e-3))

    def test_cutoff_dominated_layout_is_rejected(self):
        with pytest.warns(RegimeWarning):
            g = Geometry(1.0, 4.0, 4.5, 0.5, 1)
        with pytest.raises(DomainError, match="m1"):
            time_correction_samples(g, TimeParams(1e3, 1e-3))

    @settings(max_examples=40, deadline=None)
    @given(
        L=st.floats(0.1, 100.0),
        d=st.floats(0.1, 100.0),
        l2=st.floats(1.0, 1000.0),
        t_before=st.floats(0.0, 0.999),
        t_after=st.floats(1.001, 1e4),
    )
    def test_samples_positive_outside_the_light_cone(self, L, d, l2, t_before, t_after):
        g = Geometry(L, L + d, L + d + l2, 0.05, 1)
        for t in (t_before * d, t_after * g.b):
            samples = time_correction_samples(g, TimeParams(t, 1e-3))
            assert all(v > 0.0 for _, v in samples), (t, samples)
        with pytest.raises(DomainError):
            time_correction_samples(g, TimeParams(0.5 * (d + g.b), 1e-3))

    def test_large_time_slope(self):
        g = Geometry(10.0, 15.0, 25.0, 0.5, 1)
        tp = lambda t: TimeParams(t, 1e-3)
        ts = np.geomspace(1e3, 1e5, 5)
        chis = []
        for t in ts:
            res = continue_to_one(
                ContinuationProblem(time_correction_samples(g, tp(t), 8))
            )
            chis.append(res.value)
        slope = np.polyfit(np.log(ts), np.log(chis), 1)[0]
        assert slope == pytest.approx(-4.0, abs=0.05)

    def test_asymptote_coefficient(self):
        g = Geometry(10.0, 20.0, 120.0, 0.5, 1)
        t = 1e6
        res = continue_to_one(
            ContinuationProblem(time_correction_samples(g, TimeParams(t, 1e-3), 8))
        )
        assert res.value == pytest.approx(chi_time_asymptote(g, t), rel=0.01)

    def test_asymptote_refuses_a_cutoff_dominated_layout(self):
        with pytest.warns(RegimeWarning):
            g = geo(l2=1.0)
        with pytest.raises(DomainError, match=r"^\(b-a\)/\(2 eps\) <= 1$"):
            chi_time_asymptote(g, 1e6)


# ---------------------------------------------------------------------------
# the per-point kernel that the batched one replaced, kept as its reference:
# numpy complex scalars and Python complex numbers, one point and one n at a
# time, on the rows of oracles.loop_row


def mp_diagonal_difference(ell, n):
    """D = -4 Re[F(ell / 2) - F(ell / 2n)], F(y) = log(sinh(y) / y), at 50 digits."""
    with mp.workdps(50):
        y = mp.mpc(ell.real, ell.imag) / 2
        F = lambda y: mp.log(mp.sinh(y) / y)
        return float(mp.re(-4 * (F(y) - F(y / n))))


def loop_chi(g, ns, shift=0.0):
    ell = loop_endpoints(g.L, g.a, g.b, shift)[2]
    m1 = loop_row(g.L, g.a, g.b, g.eps, 1, shift)[0]
    if not m1 > 0.0:
        raise DomainError(f"single-copy diagonal m1 = {m1:.3g} <= 0: cutoff-dominated layout")
    out = []
    for n in ns:
        row = loop_row(g.L, g.a, g.b, g.eps, n, shift)
        # the complex-scalar series, whose rounding the kernel's lanes follow,
        # held to the 50-digit value
        D = -4.0 * (log_sinhc(ell / 2.0) - log_sinhc(ell / (2.0 * n))).real
        ref = mp_diagonal_difference(ell, n)
        assert abs(D - ref) <= 1e-13 * abs(ref), (ell, n, D, ref)
        delta = circulant_eigenvalues(SymmetricCirculant((D, *row[1:]))) / m1
        if np.any(delta <= -1.0):
            raise SingularMatrixError(f"non-positive replica eigenvalue at n = {n}")
        out.append(-float(n * D / m1 + np.sum(np.log1p(delta) - delta)) / (2.0 * (n - 1)))
    return out


def loop_outcome(g, ns, shift):
    try:
        return loop_chi(g, ns, shift)
    except AssertionError:
        raise
    except Exception as exc:
        return exc


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def benchmark_points():
    """The continuum benchmark's six boson sweeps, with its relative grid jitter."""
    sweeps = []
    for seed, rep in ((1, 0), (2, 1), (3, 2)):
        j = 1.0 + float(np.random.default_rng([seed, rep]).uniform(0.0, 1e-6))
        for L, d in ((10.0, 10.0), (10.0, 100.0), (100.0, 500.0)):
            sweeps.append([(Geometry(L, L + d, L + d + l2, 0.5), 0.0)
                           for l2 in np.geomspace(10.0 * j, 1e5 * j, 25)])
        for L, d, l2 in ((10.0, 5.0, 10.0), (10.0, 10.0, 100.0), (1.0, 1.0, 2.0)):
            g = Geometry(L, L + d, L + d + l2, 0.5)
            sweeps.append([(g, complex(t, 1e-3)) for t in np.geomspace(1e3 * j, 1e6 * j, 20)])
    return sweeps


def random_points(count, seed):
    """Valid layouts on both routes: static, before the light cone and after it."""
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < count:
        L, d, l2 = 10 ** rng.uniform(-1, 3, 3)
        eps = 10 ** rng.uniform(-3, -0.5)
        if l2 < 3.0 * eps:
            continue
        g = Geometry(L, L + d, L + d + l2, eps)
        route = rng.integers(3)
        t = (0.0, d * rng.uniform(0.0, 0.99), g.b * 10 ** rng.uniform(0.01, 4))[route]
        points.append((g, 0.0 if route == 0 else complex(t, 10 ** rng.uniform(-6, -1))))
    return points


class TestBatchedKernel:
    NS = range(2, 9)

    def assert_matches_loop(self, points, ns=NS):
        for (g, shift), got in zip(points, _chi(points, ns)):
            want = loop_outcome(g, ns, shift)
            if isinstance(want, Exception):
                assert type(got) is type(want) and str(got) == str(want)
            else:
                assert same_bits(got, want), (g, shift)

    def test_benchmark_sweeps_match_the_loop_bit_for_bit(self):
        for points in benchmark_points():
            self.assert_matches_loop(points)

    def test_random_layouts_match_the_loop_bit_for_bit(self):
        points = random_points(200, 2026)
        # both branches of log sinhc: |ell / 2n| below and above 1/2
        ells = np.array([abs(loop_endpoints(g.L, g.a, g.b, s)[2]) for g, s in points])
        assert (ells / 16 < 0.5).any() and (ells / 4 >= 0.5).any()
        self.assert_matches_loop(points)
        self.assert_matches_loop(points[:7], ns=[2, 5, 3, 11])

    def test_failing_points_keep_their_own_exception(self):
        with pytest.warns(RegimeWarning):
            cut = Geometry(1.0, 4.0, 4.5, 0.5)  # m1 <= 0
            edge = Geometry(10.0, 20.0, 21.0, 0.5)  # m1 = -8.9e-16 at l2 = 2 eps
        points = random_points(6, 7)
        points[2:2] = [(cut, 0.0), (cut, complex(1e3, 1e-3)), (edge, 0.0)]
        outcomes = _chi(points, self.NS)
        assert [type(o) for o in outcomes[2:5]] == [DomainError] * 3
        self.assert_matches_loop(points)

    def test_rows_match_the_loop_bit_for_bit(self):
        for g, shift in random_points(60, 11):
            for n in (1, 2, 5, 8):
                assert same_bits(shifted_row(g.L, g.a, g.b, g.eps, n, shift),
                                 loop_row(g.L, g.a, g.b, g.eps, n, shift))
        for L in (1e6, 1e12):  # the A = B limit, where u(a) < 0
            assert same_bits(_row(L, 1.0, L + 1.0, 1.0, 3), loop_row(L, 1.0, L + 1.0, 1.0, 3))

    def test_one_point_calls_are_the_batch(self):
        g = Geometry(10.0, 20.0, 120.0, 0.5)
        tp = TimeParams(3e4, 1e-3)
        assert chi_samples(g) == list(zip(range(2, 9), loop_chi(g, range(2, 9))))
        shift = complex(tp.t, tp.eps_prime)
        assert time_correction_samples(g, tp) == list(zip(range(2, 9), loop_chi(g, range(2, 9), shift)))
        chi3 = loop_chi(g, [3])[0]
        assert renyi_ratio_and_mie(g, 3) == (float(np.exp(2 * chi3)), -chi3)


class TestSweeps:
    def test_n_max_below_six_is_rejected_before_any_point(self):
        with pytest.warns(RegimeWarning):
            bad = Geometry(10.0, 20.0, 20.0 + 1e-9, 0.5)  # would fail at its samples
        for n_max in (3, 4, 5):
            for call in (lambda: holevo_chi_sweep([bad], n_max),
                         lambda: holevo_chi_time_sweep([(bad, TimeParams(1e3))], n_max)):
                with pytest.raises(ValueError, match="need n_max >= 6"):
                    call()
        assert holevo_chi_sweep([], 6) == []

    def test_light_cone_points_fail_alone(self):
        g = Geometry(10.0, 15.0, 25.0, 0.5)
        out = holevo_chi_time_sweep([(g, TimeParams(t, 1e-3)) for t in (4.0, 5.1, 30.0)])
        assert isinstance(out[1], DomainError) and "t = 5.1" in str(out[1])
        assert out[0].value > 0.0 and out[2].value > 0.0
