"""Acceptance suite: one test per criterion, tolerances pinned up front.

Each test prints a PASS/FAIL line (run pytest with -s to see them all);
the asserts carry the same bounds, so the suite is the machine-checked
version of the acceptance table.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy import integrate

from opens.cft_boson import (
    build_M_boson,
    chi_time_asymptote,
    holevo_chi,
    holevo_chi_approx,
    renyi_ratio_and_mie,
    time_correction_samples,
)
from opens.cft_operator import (
    OperatorSpec,
    QuadratureConfig,
    averaged_purity,
    build_M_operator,
    flat_integral_exact,
    overlap_generating,
    uv_finite_overlap_ratio,
)
from opens.continuation import ContinuationProblem, continue_to_one
from opens.core import Geometry, SymmetricCirculant, quadratic_form_cn
from opens.cft_boson import TimeParams
from opens.lattice import (
    ISING,
    TIGHT_BINDING,
    EDOracle,
    LatticeModel,
    SubsystemLayout,
    charge_sector_table,
    charged_moments_lattice,
    finite_chain_correlations,
    ising_gamma_rescaling,
    ising_log_coefficient_prediction,
)
from oracles import (
    circulant_determinant,
    circulant_inverse_row_sum,
    cn_closed_form,
    flat_interval_integral,
    loop_row,
    mp_flat_integral,
    operator_dense,
)


def report(num, ok, detail):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_circulant_identities():
    rng = np.random.default_rng(2024)
    t0 = time.time()
    worst_det, worst_sum = 0.0, 0.0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        L = rng.uniform(1.0, 50.0)
        d = rng.uniform(0.5, 100.0)
        l2 = rng.uniform(5.0, 500.0)
        g = Geometry(L, L + d, L + d + l2, rng.uniform(0.01, 0.5), n)
        c = build_M_boson(g)
        dense = c.dense()
        det_ref = np.linalg.det(dense)
        worst_det = max(worst_det, abs(circulant_determinant(c) - det_ref) / abs(det_ref))
        sum_ref = np.linalg.inv(dense).sum(axis=0)[0]
        worst_sum = max(
            worst_sum, abs(circulant_inverse_row_sum(c) - sum_ref) / abs(sum_ref)
        )
    dt = time.time() - t0
    ok = worst_det < 1e-10 and worst_sum < 1e-10 and dt < 5.0
    assert report(
        1, ok,
        f"200 random geometries: det rel {worst_det:.2e}, "
        f"inverse-row-sum rel {worst_sum:.2e}, {dt:.2f} s",
    )


def _exact_split_cn(g: Geometry) -> float:
    """C_n of M with the point splitting kept exact on the diagonal, which
    converges to the closed form as eps -> 0."""
    return quadratic_form_cn(SymmetricCirculant(loop_row(g.L, g.a, g.b, g.eps, g.n,
                                                         exact_reg=True)).dense())


def test_criterion_2_cn_closed_form():
    L, d, l2 = 10.0, 20.0, 100.0
    rels = []
    for ratio in (1e-2, 1e-3, 1e-4):
        g = Geometry(L, L + d, L + d + l2, l2 * ratio, 5)
        num = _exact_split_cn(g)
        rels.append(abs(num - cn_closed_form(g)) / cn_closed_form(g))
    monotone = rels[0] > rels[1] > rels[2]
    # closed form is bitwise L-independent; the numeric route stays within 1e-3
    a, b, eps = 40.0, 140.0, 0.01
    closed = {cn_closed_form(Geometry(L_, a, b, eps, 4)) for L_ in (5.0, 10.0, 20.0)}
    nums = [_exact_split_cn(Geometry(L_, a, b, eps, 4)) for L_ in (5.0, 10.0, 20.0)]
    drift = (max(nums) - min(nums)) / min(nums)
    ok = monotone and rels[2] < 1e-3 and len(closed) == 1 and drift < 1e-3
    assert report(
        2, ok,
        f"rel errors {[f'{r:.1e}' for r in rels]} (monotone={monotone}), "
        f"closed-form L-spread={len(closed) == 1}, numeric L-drift {drift:.1e}",
    )


def test_criterion_3_coincident_interval_slope():
    worst = 0.0
    for n in (2, 3, 4):
        Ls = np.geomspace(1e6, 1e12, 4)
        # the A = B limit a = eps, b = L + eps, which Geometry rejects
        rows = np.array([loop_row(L, 1.0, L + 1.0, 1.0, n) for L in Ls])
        for col in range(n):
            slope = np.polyfit(np.log(Ls), rows[:, col], 1)[0]
            worst = max(worst, abs(slope - 4.0 / n) / (4.0 / n))
    ok = worst < 0.01
    assert report(3, ok, f"worst L-slope deviation from 4/n: {worst * 100:.3f}%")


def test_criterion_4_holevo_panels():
    panels = [(10.0, 10.0), (10.0, 100.0), (100.0, 500.0)]
    details = []
    ok = True
    for L, d in panels:
        t0 = time.time()
        l2s = np.geomspace(10.0, 1e5, 13)
        chis = np.array(
            [holevo_chi(Geometry(L, L + d, L + d + l2, 0.5, 1)) for l2 in l2s]
        )
        peak = int(np.argmax(chis))
        shape_ok = 0 < peak < len(chis) - 1 and chis[0] < chis[peak] > chis[-1]
        dt = time.time() - t0
        ok = ok and shape_ok and dt < 60.0
        details.append(f"(L={L:g},d={d:g}): peak at l2={l2s[peak]:.0f}, {dt:.1f} s")
    # closed approximation vs continuation on the largest-distance panel
    L, d = panels[-1]
    worst = 0.0
    for l2 in (1e3, 1e4, 1e5):
        g = Geometry(L, L + d, L + d + l2, 0.5, 1)
        worst = max(worst, abs(holevo_chi(g) / holevo_chi_approx(g) - 1.0))
    ok = ok and worst < 0.05
    assert report(
        4, ok, "; ".join(details) + f"; approx agreement {worst * 100:.2f}% (<5%)"
    )


def test_criterion_5_large_time_decay():
    g = Geometry(10.0, 15.0, 25.0, 0.5, 1)
    ts = np.geomspace(1e3, 1e5, 7)  # two decades
    chis = []
    for t in ts:
        res = continue_to_one(
            ContinuationProblem(time_correction_samples(g, TimeParams(t, 1e-3), 8))
        )
        chis.append(res.value)
    slope = np.polyfit(np.log(ts), np.log(chis), 1)[0]
    ratio = chis[-1] / chi_time_asymptote(g, ts[-1])
    ok = abs(slope + 4.0) < 0.05
    assert report(
        5, ok, f"log-log slope {slope:.4f} (target -4 +/- 0.05); "
        f"asymptote ratio at t=1e5: {ratio:.4f}"
    )


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_criterion_6_flat_integrals():
    ell = 1.0
    checks = []
    # beside each adaptive reference, the mpmath value of the same integral,
    # 2 int_0^ell (ell - s) K(s) ds: (name, miss, bound)
    exact = []
    # h = 1/4: no divergence; quadrature extrapolated in eps vs closed form
    spec = OperatorSpec("scalar", 0.25)
    vals = []
    for eps in (1e-6, 5e-7):
        num, _ = integrate.dblquad(
            lambda y, x: ((x - y) ** 2 + eps * eps) ** -0.25,
            0.0, ell, 0.0, ell, epsabs=1e-10, epsrel=1e-10,
        )
        vals.append(num)
    extrap = vals[1] + (vals[1] - vals[0]) / (np.sqrt(2.0) - 1.0)
    universal = flat_interval_integral(spec, ell, 1e-12).universal
    rel = abs(extrap - universal) / extrap
    checks.append(("h=1/4", rel))
    # the cutoff-free integral, (8/3) ell^(3/2) exactly
    ref = mp_flat_integral(0.25, ell, 0.0)
    exact.append(("h=1/4", abs(universal - ref) / ref, 1e-14))
    # h = 1/2: the closed form's constant corresponds to a +-eps split,
    # i.e. a 2 eps kernel width
    eps = 1e-5
    num, _ = integrate.dblquad(
        lambda y, x: ((x - y) ** 2 + (2 * eps) ** 2) ** -0.5,
        0.0, ell, 0.0, ell, epsabs=1e-11, epsrel=1e-11,
    )
    closed = flat_interval_integral(OperatorSpec("scalar", 0.5), ell, eps).value
    rel = abs(num - closed) / num
    checks.append(("h=1/2", rel))
    # at width w = 2 eps the integral is
    # 2 ell (asinh(ell / w) - sqrt(1 + (w / ell)^2) + w / ell)
    # = closed + 2 w - w^2 / (2 ell) + O(w^4 / ell^3): past the 2 w term the
    # rest is below w^2 / ell
    w = 2 * eps
    ref = mp_flat_integral(0.5, ell, w)
    exact.append(("h=1/2 past 2w", abs(ref - closed - 2 * w) / ref, w * w / ell / ref))
    # h = 1: the printed form is the exact small-eps expansion of the
    # (s^2 + eps^2)^-1 kernel
    eps = 1e-5
    num, _ = integrate.dblquad(
        lambda y, x: 1.0 / ((x - y) ** 2 + eps * eps),
        0.0, ell, 0.0, ell, epsabs=1e-9, epsrel=1e-9,
    )
    closed = flat_interval_integral(OperatorSpec("scalar", 1.0), ell, eps).value
    rel = abs(num - closed) / num
    checks.append(("h=1", rel))
    # its next term is O(eps^2 / ell^2), 1e-10 against ~ 3e5
    ref = mp_flat_integral(1.0, ell, eps)
    exact.append(("h=1", abs(ref - closed) / ref, 1e-13))
    ok = all(r < 1e-4 for _, r in checks)
    assert report(
        6, ok, ", ".join(f"{name}: rel {r:.1e}" for name, r in checks) + " (<1e-4); mpmath: "
        + ", ".join(f"{name} rel {r:.1e} (<{b:.0e})" for name, r, b in exact)
    )
    # the adaptive references limit the bound's margin; the closed forms
    # themselves hold to rounding against the same integrals at 30 digits
    for name, miss, bound in exact:
        assert miss <= bound, (name, miss, bound)


def test_criterion_7_cn_nonlinearity():
    spec = OperatorSpec("scalar", 0.25)
    cfg = QuadratureConfig(eps_reg=1e-6, tol=1e-10)
    L, a, b = 1.0, 2.0, 4.0
    cns = [build_M_operator(Geometry(L, a, b, 1e-3, n), spec, cfg).cn() for n in range(1, 11)]
    ns = np.arange(1, 11)
    resid = np.abs(cns - np.polyval(np.polyfit(ns, cns, 1), ns)).max()
    # right panel: C_2 moves with L at fixed a, b far beyond tolerance
    c2 = [
        build_M_operator(Geometry(L_, a, b, 1e-3, 2), spec, cfg).cn()
        for L_ in (0.4, 0.8, 1.2, 1.6)
    ]
    spread = max(c2) - min(c2)
    ok = 5e-3 < resid < 8e-2 and spread > 10 * cfg.tol
    assert report(
        7, ok,
        f"max linear-fit residual {resid:.3f} (order 1e-2), "
        f"C_2 L-spread {spread:.3e} (>> tolerance)",
    )


def _ed_check_layout(model, n_sites, lay, oracle, rng):
    corr = finite_chain_correlations(model, n_sites).restrict(
        lay.sites_A + lay.sites_B
    )
    worst = 0.0
    for n in (1, 2, 3):
        gammas = rng.uniform(0.1, 3.0, size=n)
        det_v = charged_moments_lattice(corr, lay, gammas)
        ed_v = oracle.charged_moment(lay.sites_A, lay.sites_B, gammas)
        worst = max(worst, abs(det_v - ed_v))
    p, R, raw = charge_sector_table(corr, lay)
    pe, Re, rawe = oracle.sector_overlaps(lay.sites_A, lay.sites_B)
    worst = max(worst, np.abs(p - pe).max(), np.abs(raw - rawe).max())
    # R divides the raw overlaps by p_q1 p_q2, so comparing it at 1e-8 is
    # meaningful where the sectors hold weight; raw tables are compared
    # everywhere above
    pop = np.outer(pe, pe) > 1e-3
    if pop.any():
        worst = max(worst, np.abs((R - Re)[pop]).max())
    return worst, abs(p.sum() - 1.0)


def test_criterion_8_lattice_ed_equivalence():
    rng = np.random.default_rng(42)
    t0 = time.time()
    worst, worst_norm, count = 0.0, 0.0, 0
    # the presets and one generic kappa:h chain, which takes the finite-chain
    # route the CLI's kappa:h models use
    for model in (TIGHT_BINDING, ISING, LatticeModel(0.7, 0.3)):
        for n_sites in (6, 8):
            oracle = EDOracle(model, n_sites)
            # at least one site stays traced out: the measured setup keeps
            # B strictly inside the complement of A, so rho_AB is mixed
            for l1 in range(1, n_sites - 1):
                for d in range(0, n_sites - l1 - 1):
                    for l2 in range(1, n_sites - l1 - d):
                        lay = SubsystemLayout(l1, d, l2)
                        w, nrm = _ed_check_layout(model, n_sites, lay, oracle, rng)
                        worst, worst_norm = max(worst, w), max(worst_norm, nrm)
                        count += 1
        # spot checks at the largest tractable sizes
        for n_sites, lay in ((10, SubsystemLayout(3, 2, 4)), (12, SubsystemLayout(3, 3, 5)),
                             (12, SubsystemLayout(4, 0, 7)), (12, SubsystemLayout(2, 6, 3))):
            oracle = EDOracle(model, n_sites)
            w, nrm = _ed_check_layout(model, n_sites, lay, oracle, rng)
            worst, worst_norm = max(worst, w), max(worst_norm, nrm)
            count += 1
    dt = time.time() - t0
    ok = worst < 1e-8 and worst_norm < 1e-10
    assert report(
        8, ok,
        f"{count} (model, layout) cases up to 12 sites: worst deviation {worst:.2e} "
        f"(<1e-8), worst probability-sum defect {worst_norm:.2e} (<1e-10), {dt:.0f} s",
    )
    # the routes reach rounding (5.7e-14 on one machine): a tight gate
    # beside the bound, with headroom for another BLAS
    assert worst < 1e-10, worst


def test_criterion_9_tight_binding_vs_charge_formula():
    t0 = time.time()
    l1 = d = 10
    l2s = np.unique(np.geomspace(10, 200, 9).astype(int))
    worst_rms = 0.0
    for gam in (np.array([0.3, 0.7]), np.array([0.5, 1.1])):
        lat, cft = [], []
        for l2 in l2s:
            lay = SubsystemLayout(l1, d, int(l2))
            lat.append(np.log(charged_moments_lattice(TIGHT_BINDING, lay, gam)).real)
            g = Geometry(float(l1), float(l1 + d), float(l1 + d + l2), 1.0, 2)
            cft.append(-(gam @ build_M_boson(g).dense() @ gam) / (8 * np.pi**2))
        resid = np.asarray(lat) - np.asarray(cft)
        resid -= resid.mean()  # one fitted additive constant
        worst_rms = max(worst_rms, float(np.sqrt(np.mean(resid**2))))
    dt = time.time() - t0
    ok = worst_rms < 0.02 and dt < 120.0
    assert report(
        9, ok, f"RMS residual {worst_rms:.4f} (<0.02) over l2 in [10,200], {dt:.0f} s"
    )


def test_criterion_10_ising_log_coefficient():
    l1 = d = 10
    l2s = np.array([20, 40, 80, 140, 200])
    worst = 0.0
    for g0 in (0.5, 1.0):
        ys = []
        for l2 in l2s:
            lay = SubsystemLayout(l1, d, int(l2))
            ys.append(np.log(charged_moments_lattice(ISING, lay, [g0, g0])).real)
        X = np.vstack([l2s, np.log(l2s), np.ones_like(l2s)]).T
        coef, *_ = np.linalg.lstsq(X, np.asarray(ys), rcond=None)
        pred = ising_log_coefficient_prediction([g0, g0])
        worst = max(worst, abs(coef[1] / pred - 1.0))
    # small-flux quadratic approximation at gamma = 0.2
    ys = []
    for l2 in l2s:
        lay = SubsystemLayout(l1, d, int(l2))
        ys.append(np.log(charged_moments_lattice(ISING, lay, [0.2, 0.2])).real)
    X = np.vstack([l2s, np.log(l2s), np.ones_like(l2s)]).T
    coef, *_ = np.linalg.lstsq(X, np.asarray(ys), rcond=None)
    quad_pred = 2 * (0.2 / (2 * np.pi)) ** 2
    small_rel = abs(coef[1] / quad_pred - 1.0)
    ok = worst < 0.05 and small_rel < 0.05
    assert report(
        10, ok,
        f"rescaled-flux log coefficient within {worst * 100:.2f}% (<5%); "
        f"small-flux quadratic within {small_rel * 100:.2f}%",
    )


def _point_split_diagonal(g: Geometry, h: float, eps: float) -> float:
    """The scalar diagonal entry point-split at eps, by nested adaptive quad.

    Integrates (j1 j2)^h (|u1 - u2|^2 + j1 j2 eps^2)^(-h) over x1, x2 in B,
    with the raw map u = (x / (x - L))^(1/n) and j = |du/dx| written out
    here, in s = x1 - x2 (outer, split at eps 4^k where the kernel has
    width eps) and the midpoint (inner).
    """
    L, a, b, n = g.L, g.a, g.b, g.n

    def kernel(mid, s):
        x1, x2 = mid + 0.5 * s, mid - 0.5 * s
        u1, u2 = (x1 / (x1 - L)) ** (1.0 / n), (x2 / (x2 - L)) ** (1.0 / n)
        jj = u1 * u2 * L * L / (n * n * x1 * (x1 - L) * x2 * (x2 - L))
        return jj**h * ((u1 - u2) ** 2 + jj * eps * eps) ** (-h)

    def over_midpoints(s):
        return integrate.quad(kernel, a + 0.5 * s, b - 0.5 * s, args=(s,),
                              epsabs=0.0, epsrel=1e-11)[0]

    ell = b - a
    cuts = [0.0] + [eps * 4.0**k for k in range(12) if eps * 4.0**k < ell] + [ell]
    return 2.0 * sum(integrate.quad(over_midpoints, lo, hi, epsabs=0.0, epsrel=1e-11)[0]
                     for lo, hi in zip(cuts, cuts[1:]))


def _point_split_leading(g: Geometry, h: float) -> float:
    """C in point-split diagonal - flat(eps) - diag_remainder = C eps^(3 - 2h) + O(eps^2).

    With s = x1 - x2 and r = j1 j2 s^2 / |u1 - u2|^2 the point-split kernel
    is (s^2 / r + eps^2)^(-h), and the Schwarzian gives r = 1 + kappa s^2 +
    O(s^4), kappa(x) = (1 - 1/n^2) L^2 / (12 x^2 (x - L)^2). Less the flat
    kernel (s^2 + eps^2)^(-h) that leaves h kappa s^4 (s^2 + eps^2)^(-h-1),
    whose eps -> 0 limit h kappa |s|^(2-2h) is what diag_remainder
    integrates. Their difference, integrated over s on the real line at a
    fixed midpoint, is 2 h kappa eps^(3-2h) I(h) after s = eps t, with
    I(h) = int_0^inf [t^4 (1 + t^2)^(-h-1) - t^(2-2h)] dt
         = Gamma(5/2) Gamma(h - 3/2) / (2 Gamma(h + 1)),
    the beta integral continued to 1/2 < h < 3/2, where it converges. So
    C = 2 h I(h) times the integral of kappa over B. The next term, from
    s >> eps, is eps^2 times a cutoff-free integral, eps^(2h-1) relative
    to the leading one.
    """
    L, a, b, n = g.L, g.a, g.b, g.n
    kappa = lambda x: (1.0 - 1.0 / n**2) * L**2 / (12.0 * x**2 * (x - L) ** 2)
    I = math.gamma(2.5) * math.gamma(h - 1.5) / (2.0 * math.gamma(h + 1.0))
    return 2.0 * h * I * integrate.quad(kappa, a, b, epsabs=0.0, epsrel=1e-13)[0]


def _point_split_misfit(g: Geometry, h: float, eps: float):
    """diag_remainder -> relative miss of the predicted remainder C eps^(3 - 2h)."""
    rest = _point_split_diagonal(g, h, eps) - flat_integral_exact(OperatorSpec("scalar", h),
                                                                  g.ell2, eps)
    lead = _point_split_leading(g, h) * eps ** (3.0 - 2.0 * h)
    return lambda diag_remainder: abs((rest - diag_remainder) / lead - 1.0)


def test_criterion_11_uv_finiteness():
    g = Geometry(2.0, 4.0, 9.0, 0.5, 1)
    gam = 0.3
    details = []
    ok = True
    for hs in (0.75, 1.0):
        spec = OperatorSpec("scalar", hs)
        ratios, purs, logs_raw_gen, logs_raw_pur = [], [], [], []
        # the independent route: the raw point-split diagonal less the flat
        # integral tends to diag_remainder, missing it by the leading
        # C eps^(3 - 2h) of _point_split_leading. The O(eps^2) rest is a few
        # percent of that at h = 0.75 (eps^(2h - 1) = 0.03 at eps = 1e-3) and
        # less at h = 1; the bound allows 10%. 1% of diag_remainder is about
        # 200 times C eps^(3 - 2h) at h = 0.75, so a 1% error cannot hide in it.
        misfits, wrong = [], []
        for eps in (1e-3, 5e-4):
            cfg = QuadratureConfig(eps_reg=eps, tol=1e-9)
            om = build_M_operator(dataclasses.replace(g, n=2), spec, cfg)
            M = operator_dense(om)
            ap = averaged_purity(om, gam)
            ratios.append(uv_finite_overlap_ratio(om, gam, gam)["value"])
            purs.append(ap["uv_finite"])
            logs_raw_gen.append(-0.5 * np.array([gam, gam]) @ M @ np.array([gam, gam]))
            logs_raw_pur.append(-0.25 * gam**2 * (M[0, 0] - M[0, 1]))
            misfit = _point_split_misfit(dataclasses.replace(g, n=2), hs, eps)
            misfits.append(misfit(om.diag_remainder))
            wrong.append(misfit(1.01 * om.diag_remainder))
        independent = max(misfits) < 0.10
        assert min(wrong) > 0.10  # the comparison rejects a 1% error in diag_remainder
        ch_ratio = abs(ratios[1] / ratios[0] - 1.0)
        ch_pur = abs(purs[1] / purs[0] - 1.0)
        # the unnormalized numerators diverge exponentially, so their logs
        # carry the meaningful scale
        ch_gen = abs(logs_raw_gen[1] - logs_raw_gen[0]) / abs(logs_raw_gen[0])
        ch_rawp = abs(logs_raw_pur[1] - logs_raw_pur[0]) / abs(logs_raw_pur[0])
        # the UV-finite ratios read only off_row and diag_remainder, which no
        # cutoff enters: equal by construction, so the < 1% bound cannot fail
        equal = ratios[1] == ratios[0] and purs[1] == purs[0]
        ok = (ok and equal and ch_ratio < 0.01 and ch_pur < 0.01
              and ch_gen > 0.10 and ch_rawp > 0.10 and independent)
        details.append(
            f"h={hs}: ratio {ch_ratio * 100:.4f}%, purity {ch_pur * 100:.4f}% (<1%; "
            f"{'equal' if equal else 'NOT equal'} at both cutoffs, by construction); "
            f"raw logs {ch_gen * 100:.0f}%/{ch_rawp * 100:.0f}% (>10%); point-split "
            f"remainder off C eps^(3-2h) by {max(misfits) * 100:.1f}% (<10%), "
            f"by {min(wrong) * 100:.0f}% at 1.01 diag_remainder"
        )
    assert report(11, ok, "; ".join(details))


def test_criterion_12_ising_cross_term():
    # The Ising fermion number tends to the h_s = 1 energy operator, with
    # log Z ~ -g M g / (2 pi^2) in the rescaled fluxes g of criterion 10. The
    # n = 2 cross term X = log Z_2(gamma, -gamma) - log Z_2(gamma, gamma)
    # cancels every per-flux constant and the non-universal diagonal, leaving
    # 2 g^2 M12 / pi^2 with the cutoff- and scale-free M12 of the operator
    # route. On layouts (k, k, 2k) its relative miss r(k) halves with each
    # doubling of k, so one Richardson step 2 r(64) - r(32) removes the 1/k
    # term; what is left, a few 1e-5, is held to 1e-3.
    t0 = time.time()
    m12 = build_M_operator(Geometry(1.0, 2.0, 4.0, 1e-3, 2), OperatorSpec("scalar", 1.0),
                           QuadratureConfig()).off_row[0]
    ks = (16, 32, 64)
    worst_rich, worst_halving, details = 0.0, 0.0, []
    for gam in (0.3, 0.6, 1.0):
        pred = 2.0 * ising_gamma_rescaling(gam) ** 2 * m12 / np.pi**2
        r = []
        for k in ks:
            lay = SubsystemLayout(k, k, 2 * k)
            cross = (np.log(charged_moments_lattice(ISING, lay, [gam, -gam])).real
                     - np.log(charged_moments_lattice(ISING, lay, [gam, gam])).real)
            r.append(cross / pred - 1.0)
        rich = 2.0 * r[2] - r[1]
        worst_rich = max(worst_rich, abs(rich))
        worst_halving = max(worst_halving, *(abs(b / a - 0.5) for a, b in zip(r, r[1:])))
        details.append(f"gamma={gam}: r(64) {r[2]:.2e}, Richardson {rich:.1e}")
    dt = time.time() - t0
    # r(2k) / r(k) within 0.1 of 1/2 is what makes the Richardson step valid
    ok = worst_rich < 1e-3 and worst_halving < 0.1
    assert report(
        12, ok,
        f"n = 2 cross term against 2 g^2 M12 / pi^2 after one Richardson step within "
        f"{worst_rich:.1e} (<1e-3), r(2k)/r(k) within {worst_halving:.3f} of 1/2 (<0.1); "
        + "; ".join(details) + f"; {dt:.1f} s",
    )
