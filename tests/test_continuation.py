import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from opens import continuation
from opens.cft_boson import (TimeParams, chi_samples, holevo_chi_sweep, holevo_chi_time_sweep,
                             time_correction_samples)
from opens.continuation import (
    ContinuationProblem,
    ContinuationResult,
    continue_stack,
    continue_to_one,
)
from opens.core import Geometry
from opens.errors import ContinuationError, DomainError, RegimeWarning, SingularMatrixError


def samples_of(f, ns=range(2, 9)):
    return [(n, f(n)) for n in ns]


def test_constant_recovery():
    res = continue_to_one(ContinuationProblem([(2, 3.7), (3, 3.7), (4, 3.7)]))
    assert res.value == pytest.approx(3.7, abs=1e-12)
    assert res.error_estimate < 1e-10


def test_linear_recovery():
    alpha, beta = 0.4, -0.13
    res = continue_to_one(ContinuationProblem(samples_of(lambda n: alpha + beta * n)))
    assert res.value == pytest.approx(alpha + beta, rel=1e-12)


def test_known_rational_target():
    res = continue_to_one(ContinuationProblem(samples_of(lambda n: (n + 2) / (n * n + 1))))
    assert res.value == pytest.approx(1.5, abs=1e-8)


@pytest.mark.parametrize(
    "f",
    [
        lambda n: (2 * n + 1) / (n + 3),
        lambda n: (n * n - 4 * n + 7) / (n * n + 2 * n + 2),
        lambda n: 1.0 / (n + 0.25),
    ],
)
def test_exact_recovery_of_low_degree_rationals(f):
    # degree <= (samples - 1) / 2 over 7 samples: reproduced to 1e-12
    res = continue_to_one(ContinuationProblem(samples_of(f)))
    assert res.value == pytest.approx(f(1), rel=1e-12, abs=1e-12)


def test_leave_one_out_bounds_true_error():
    # a function outside the exactly-representable family
    f = lambda n: np.log(n + 1.0) / n
    res = continue_to_one(ContinuationProblem(samples_of(f)))
    true_err = abs(res.value - f(1))
    assert true_err <= max(res.error_estimate, 1e-12) * 10


def test_pole_in_range_rejected():
    # samples of a function with a genuine pole between 1 and n_max
    f = lambda n: 1.0 / (n - 2.5) + 0.1 * n
    with pytest.raises(ContinuationError):
        continue_to_one(ContinuationProblem(samples_of(f)))


def test_validation():
    with pytest.raises(ValueError):
        ContinuationProblem([(2, 1.0), (3, 2.0)])
    with pytest.raises(ValueError):
        ContinuationProblem([(2, 1.0), (2, 2.0), (3, 0.0)])
    with pytest.raises(ValueError):
        ContinuationProblem([(1, 1.0), (2, 2.0), (3, 0.0)])
    with pytest.raises(ValueError):
        ContinuationProblem([(2, np.nan), (3, 2.0), (4, 0.0)])


def test_result_type():
    res = continue_to_one(ContinuationProblem([(2, 1.0), (3, 1.0), (4, 1.0), (5, 1.0)]))
    assert isinstance(res, ContinuationResult)
    assert res.degree == 4


# ---------------------------------------------------------------------------
# the in-repo AAA against scipy.interpolate.AAA, which only the tests import


def _scipy_stack(z, f, max_terms):
    """Reference for ``continuation.AAA``: one scipy fit per sample set."""
    from scipy.interpolate import AAA as ScipyAAA

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # capped fits
        return [ScipyAAA(zi, fi, max_terms=max_terms, clean_up=False) for zi, fi in zip(z, f)]


def _scipy_fits(z, f, max_terms):
    """``continuation.AAA`` from scipy: per set, scipy's support, weights, poles and their
    residues, r(1) and the screened poles, or its ValueError."""
    from scipy.interpolate import AAA as ScipyAAA

    fits = []
    for zi, fi in zip(z, f):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # capped fits
                ref = ScipyAAA(zi, fi, max_terms=max_terms, clean_up=False)
        except ValueError as exc:
            fits.append(exc)
            continue
        poles = ref.poles()  # the finite ones
        row = np.full(ref.weights.size - 1, np.inf, dtype=complex)
        row[:poles.size] = poles
        support, svals, w = ref.support_points, ref.support_values, ref.weights
        res = continuation._residues(row[None], support[None], svals[None], w[None])[0]
        at_one = continuation._rational(np.ones((1, 1)), support[None], svals[None], w[None])[0, 0]
        fits.append(continuation.BarycentricFit(support, svals, w, row, res, at_one,
                                                screened_poles(row, res, zi.max() + 1e-9)))
    return fits


def screened_poles(poles, residues, hi):
    """The pole screen of one fit: the sorted real parts of its poles on the real
    axis inside (1 - 1e-9, hi) whose residue moves the interpolant."""
    bad = ((np.abs(poles.imag) < 1e-8) & (poles.real > 1.0 - 1e-9) & (poles.real < hi)
           & (np.abs(residues) > 1e-7))
    return np.sort(poles[bad].real)


def finite_poles(fit):
    """A fit's finite poles."""
    return fit.poles[np.isfinite(fit.poles)]


def _outcome(samples, degree):
    try:
        res = continue_to_one(ContinuationProblem(samples, max_degree=degree))
    except (ContinuationError, ValueError) as exc:
        return type(exc).__name__
    return res.value, res.error_estimate


def _boson_sample_sets():
    sets = []
    for L, d in ((10.0, 10.0), (10.0, 100.0), (100.0, 500.0)):
        for l2 in np.geomspace(10.0, 1e5, 10):
            sets.append(chi_samples(Geometry(L, L + d, L + d + l2, 0.5), 8))
    for L, d, l2 in ((10.0, 5.0, 10.0), (10.0, 10.0, 100.0), (1.0, 1.0, 2.0)):
        for t in (1e3, 3e4, 1e6):
            sets.append(time_correction_samples(Geometry(L, L + d, L + d + l2, 0.5),
                                                TimeParams(t, 1e-3)))
    return sets


def _with_outlier(f, ns, at, amp):
    vals = [f(n) for n in ns]
    vals[at] += amp
    return list(zip(ns, vals))


# sample sets that drive the fit down its rarer branches
SPECIAL_SETS = {
    # a pole between the first two samples plus one 3.5e-11 outlier: the
    # column scaling switches on and stays on, the fit keeps a Froissart
    # doublet, and the pole screen raises
    "pole_and_outlier": _with_outlier(lambda n: (0.7838 - 0.753 * n) / (2.4259 - n),
                                      range(2, 13), 2, 3.5e-11),
    # constant values with one outlier: zero weights and null spaces of
    # dimension >= 2, yet a finite value; one leave-one-out subset fails
    # (below) and keeps its ValueError inside the stack
    "constant_and_outlier": _with_outlier(lambda n: -0.35, range(2, 8), 1, 5.3e-7),
    # a constant with the outlier last: a Loewner column vanishes, the
    # column scaling divides 0 by 0, and both fits raise ValueError
    "zero_column": _with_outlier(lambda n: 1.0, range(2, 7), 4, 1e-8),
}


def _branches(monkeypatch, samples, degree):
    """Which AAA branches one continuation takes, counted by spies."""
    seen = {"ill": 0, "sticky": 0, "null2": 0}
    weights = continuation._weights

    def spy_weights(a, ill, wide):
        before = ill.copy()
        w = weights(a, ill, wide)
        seen["ill"] += int(ill.any())
        seen["sticky"] += int(not wide and (before & ill).any())
        if wide:
            s = np.linalg.svd(a, compute_uv=False)
            tol = s.max(axis=-1, initial=0.0) * np.finfo(float).eps * a.shape[-1]
            rank = (s > tol[:, None]).sum(axis=-1)
            seen["null2"] += int((a.shape[-1] - rank >= 2).any())
        return w

    monkeypatch.setattr(continuation, "_weights", spy_weights)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        _outcome(samples, degree)
    monkeypatch.undo()
    return seen


def test_special_sets_reach_their_branches(monkeypatch):
    pole = _branches(monkeypatch, SPECIAL_SETS["pole_and_outlier"], 4)
    assert pole["ill"] and pole["sticky"]
    const = _branches(monkeypatch, SPECIAL_SETS["constant_and_outlier"], 3)
    assert const["null2"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = continue_to_one(ContinuationProblem(SPECIAL_SETS["constant_and_outlier"]))
    assert len(res.loo_values) == 5  # the subset whose fit fails is skipped, not the stack
    # a criterion-4 near-panel set whose leave-one-out fits end on a wide step
    boson = chi_samples(Geometry(10.0, 20.0, 120.0, 0.5), 8)
    assert _branches(monkeypatch, boson, 4)["null2"]


def test_continuation_matches_scipy_aaa(monkeypatch):
    # each boson set at one of the degrees in turn, with its 3-sample and
    # every other one with its 5-sample truncation: a scipy fit costs about
    # 1 ms, and the first one also imports scipy.stats
    cases = []
    for i, s in enumerate(_boson_sample_sets()):
        degree = (4, 3, 2)[i % 3]
        cases += [(s, degree), (s[:3], degree)] + [(s[:5], degree)] * (i % 2)
    for s in SPECIAL_SETS.values():
        cases += [(s, 4), (s, 3), (s, 2)]
    cases.append((samples_of(lambda n: 1.0 / (n - 2.5) + 0.1 * n), 4))  # a real pole
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the 0/0 of zero_column
        ours = [_outcome(s, degree) for s, degree in cases]
        monkeypatch.setattr(continuation, "AAA", _scipy_fits)
        ref = [_outcome(s, degree) for s, degree in cases]
    assert {"ContinuationError", "ValueError"} <= {r for r in ref if isinstance(r, str)}
    for got, want in zip(ours, ref):
        if isinstance(want, str):
            assert got == want
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_stacked_fit_matches_fits_one_by_one():
    # the subsets that drop the outlier converge two steps before the rest
    ns = np.arange(2.0, 9.0)
    vals = 1.0 / (ns + 1.0)
    vals[-1] += 1e-6
    drop = ~np.eye(ns.size, dtype=bool)
    z = np.broadcast_to(ns, drop.shape)[drop].reshape(ns.size, -1)
    f = np.broadcast_to(vals, drop.shape)[drop].reshape(ns.size, -1)
    fits, ref = continuation.AAA(z, f, 5), _scipy_stack(z, f, 5)
    assert len({fit.support.size for fit in fits}) > 1
    for fit, want in zip(fits, ref):
        np.testing.assert_array_equal(fit.support, want.support_points)
        np.testing.assert_allclose(fit.weights, want.weights, rtol=1e-12)
        np.testing.assert_allclose(np.sort_complex(finite_poles(fit)), np.sort_complex(want.poles()),
                                   rtol=1e-12)


def _mp_poles(z, w):
    """Zeros of sum_j w_j prod_{k != j} (x - z_k), to 60 digits."""
    import mpmath

    with mpmath.workdps(60):
        coeffs = [mpmath.mpf(0)] * len(z)  # highest degree first
        for j, wj in enumerate(w):
            p = [mpmath.mpf(1)]
            for zk in np.delete(z, j):
                p = [a - mpmath.mpf(zk) * b for a, b in zip(p + [0], [0] + p)]
            coeffs = [c + mpmath.mpf(wj) * q for c, q in zip(coeffs, p)]
        return [complex(r) for r in mpmath.polyroots(coeffs, maxsteps=200, extraprec=200)]


def test_poles_match_60_digit_roots():
    # random weights on 2 to 6 replica indices in 2..13. A pole near 0 is
    # fixed only to the absolute precision of the support's scale, by
    # dggev as well, so the error is taken relative to max(|x|, 1): the
    # unit spacing of the replica axis
    rng = np.random.default_rng(2718)
    worst = {True: 0.0, False: 0.0}  # keyed by |x| <= 2 max z
    for _ in range(400):
        m = int(rng.integers(2, 7))
        z = np.sort(rng.choice(np.arange(2.0, 14.0), m, replace=False))
        w = rng.standard_normal(m)
        got = list(continuation._pole_rows(z[None], w[None])[0])
        assert len(got) == m - 1 and np.isfinite(got).all()
        for root in _mp_poles(z, w):
            pole = got.pop(int(np.argmin(np.abs(np.subtract(got, root)))))
            near = abs(root) <= 2 * z.max()
            worst[near] = max(worst[near], abs(pole - root) / max(abs(root), 1.0))
    assert worst[True] <= 1e-13 and worst[False] <= 1e-11, worst


def test_an_overflowing_value_at_one_fails_its_set_alone():
    # 1e308 / (n - 1/2) is fitted exactly, with its pole at 1/2 outside the
    # screen, and its value 2e308 at n = 1 overflows once the scale is put
    # back: that set fails at every degree, with no warning on the way, and
    # its stack-mate is as alone
    ns = range(2, 10)
    huge = [(n, 1e308 / (n - 0.5)) for n in ns]
    tame = [(n, 1.0 / (n + 0.5)) for n in ns]
    out = continue_stack([huge, tame], 4, fallback=(3, 2))
    assert isinstance(out[0], ContinuationError)
    assert str(out[0]) == "interpolant evaluated to a non-finite value at n = 1"
    (alone,) = continue_stack([tame], 4, fallback=(3, 2))
    assert out[1].value == alone.value and out[1].error_estimate == alone.error_estimate


def test_weights_stay_finite_on_tiny_columns():
    # a rescaled weight is a singular vector over a column norm, which is 0
    # (the fit fails) or at least the 1.5e-162 whose square does not underflow:
    # every fit AAA returns has finite weights, as the pole solve needs
    z = np.broadcast_to(np.arange(2.0, 10.0), (6, 8))
    k = np.arange(1.0, 8.0)
    f = np.array([[1.0, *(k * tiny * (1.0 + 0.1 * k * k))]
                  for tiny in (1e-150, 1e-161, 1e-162, 1e-163, 1e-200, 1e-315)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fits = continuation.AAA(z, f, 5)
    assert not isinstance(fits[0], Exception)
    for fit in fits:
        assert isinstance(fit, ValueError) or np.isfinite(fit.weights).all()


def test_a_pole_at_one_is_screened_inside_its_stack():
    # D(1) = 0 exactly for weights (1, -4, 3) on (2, 3, 4), whose weight sum
    # of zero is a second pole at infinity. A pole problem shifted to n = 1
    # would divide by D(1); the member must not fail the other members
    rng = np.random.default_rng(11)
    z = np.broadcast_to(np.arange(2.0, 9.0), (6, 7))
    f = 1.0 / (z + rng.uniform(0.5, 2.0, (6, 1)))
    cols = np.array([np.sort(rng.choice(7, 3, replace=False)) for _ in range(6)])
    cols[3] = 0, 1, 2
    weights = rng.standard_normal((6, 3))
    weights[3] = 1.0, -4.0, 3.0
    support, svals = np.take_along_axis(z, cols, 1), np.take_along_axis(f, cols, 1)
    hi = z[:, -1] + 1e-9
    fits = continuation._finish(support, svals, weights, hi)
    assert list(fits[3].poles) == [1.0, np.inf]
    assert list(fits[3].rejected) == [1.0]
    for i in range(6):
        (alone,) = continuation._finish(support[i:i + 1], svals[i:i + 1], weights[i:i + 1], hi[i:i + 1])
        for name in ("poles", "residues", "at_one", "rejected"):
            assert np.asarray(getattr(fits[i], name)).tobytes() == np.asarray(getattr(alone, name)).tobytes()


def _doublets(z, f, fits):
    """The Froissart doublets of each fit on its samples ``z``, ``f``: the poles whose
    residue over their distance to the samples is below 1e-13 times the geometric
    mean of |f|, the criterion of scipy's clean-up."""
    out = []
    for zi, fi, fit in zip(z, f, fits):
        if isinstance(fit, Exception):
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            geom_mean = np.exp(np.mean(np.log(np.abs(fi))))
            dist = np.abs(np.subtract.outer(fit.poles, zi)).min(axis=1)
            small = np.abs(fit.residues) / dist < 1e-13 * geom_mean
        out += list(fit.poles[np.isfinite(fit.poles) & small])
    return out


def _boson_draws(rng, sweeps):
    """(sweep, points, n_max) of ``sweeps`` seeded sweeps, alternately of each boson
    route, with L in [1e-2, 1e3], d / L in [1e-4, 1e3] and eps / L in [1e-4, 1],
    each log-uniform, and n_max in 6..24."""
    for k in range(sweeps):
        L = 10 ** rng.uniform(-2, 3)
        d, eps = L * 10 ** rng.uniform(-4, 3), L * 10 ** rng.uniform(-4, 0)
        n_max = int(rng.integers(6, 25))
        if k % 2 == 0:  # a 25-point l2 log grid from 2.5 eps, over 1 to 9 decades
            l2 = 2.5 * eps * np.geomspace(1.0, 10 ** rng.uniform(1, 9), 25)
            yield holevo_chi_sweep, [Geometry(L, L + d, L + d + x, eps) for x in l2], n_max
        else:  # 5 times in [0, a - L) and 20 in (b, 1e6 b], eps' = L 10^U(-8, 0)
            g = Geometry(L, L + d, L + d + 2.5 * eps * 10 ** rng.uniform(0, 9), eps)
            ts = [*rng.uniform(0.0, d, 5), *(g.b * 10 ** rng.uniform(0, 6, 20))]
            points = [(g, TimeParams(t, L * 10 ** rng.uniform(-8, 0))) for t in ts]
            yield holevo_chi_time_sweep, points, n_max


def test_boson_routes_fit_no_froissart_doublet(monkeypatch):
    # AAA removes no Froissart doublet, as scipy's AAA at clean_up=False does
    # not: over 1,000 seeded points of both boson routes no fit has one. Each
    # point gives a finite value with a finite error >= 0, or a named
    # refusal, and shows no warning but a RegimeWarning
    doublets, wide_steps = [], []
    aaa, weights = continuation.AAA, continuation._weights

    def spy_aaa(z, f, max_terms):
        fits = aaa(z, f, max_terms)
        doublets.extend(_doublets(z, f, fits))
        return fits

    def spy_weights(a, ill, wide):
        wide_steps.append(wide)
        return weights(a, ill, wide)

    monkeypatch.setattr(continuation, "AAA", spy_aaa)
    monkeypatch.setattr(continuation, "_weights", spy_weights)
    continue_stack([SPECIAL_SETS["pole_and_outlier"]], 4)
    assert doublets  # the check can fail: this set's fit keeps a doublet
    found, degrees = [], set()
    for sweep, points, n_max in _boson_draws(np.random.default_rng(38), 40):
        doublets.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = sweep(points, n_max)
        assert all(w.category is RegimeWarning for w in caught), [str(w.message) for w in caught]
        if doublets:
            found.append((sweep.__name__, n_max, points, list(doublets)))
        for point, res in zip(points, out):
            if isinstance(res, ContinuationResult):
                assert np.isfinite([res.value, res.error_estimate]).all(), point
                assert res.error_estimate >= 0.0, point
                degrees.add(res.degree)
            else:
                assert type(res) in (ContinuationError, SingularMatrixError, DomainError), (point, res)
    assert not found, found
    assert {2, 3} & degrees and any(wide_steps)  # the degree fallback and a null-space step


def test_capped_fit_is_silent():
    f = lambda n: np.log(n + 1.0) / n  # not rational: every fit reaches its cap
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = continue_to_one(ContinuationProblem(samples_of(f), max_degree=2))
    assert np.isfinite(res.value)


def test_import_and_holevo_point_touch_no_global_state():
    # the dependencies set their own filters when imported; opens sets none,
    # the continuation pulls in neither scipy.interpolate nor scipy.stats,
    # and no route, the real-time one included, needs mpmath
    code = """
import io, sys, warnings
from contextlib import redirect_stdout
import numpy, scipy.integrate, scipy.linalg, scipy.sparse.linalg, scipy.special
before = list(warnings.filters)
import opens.cli
with redirect_stdout(io.StringIO()):
    assert opens.cli.main(["boson-holevo", "--l2", "100"]) == 0
    assert opens.cli.main(["boson-time", "--t", "1000"]) == 0
assert warnings.filters == before, "warning filters changed"
loaded = [m for m in sys.modules if m.startswith(("scipy.interpolate", "scipy.stats", "mpmath"))]
assert not loaded, loaded
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# stacked continuation against the per-set loop it replaced


def value_at_one(fit):
    """r(1) of a fit, off its support points (the samples sit at n >= 2)."""
    return continuation._rational(np.array([[1.0]]), fit.support[None],
                                  fit.support_values[None], fit.weights[None])[0, 0]


def check_poles(fit, lo, hi):
    """The per-fit pole screen: a real pole in (lo, hi) whose residue moves r raises."""
    poles = finite_poles(fit)
    if poles.size == 0:
        return
    with np.errstate(divide="ignore", invalid="ignore"):
        cc = 1.0 / np.subtract.outer(poles, fit.support)
        residues = cc @ (fit.support_values * fit.weights) / (-(cc**2) @ fit.weights)
    real_ax = (np.abs(poles.imag) < 1e-8) & (poles.real > lo) & (poles.real < hi)
    bad = poles[real_ax & (np.abs(residues) > 1e-7)]
    if bad.size:
        raise ContinuationError(f"interpolant has poles at {np.sort(bad.real)} inside [{lo}, {hi}]")


def loop_continue_to_one(p):
    """One set, one full fit and one leave-one-out stack, as before stacking sets."""
    ns = np.array([float(s[0]) for s in p.samples])
    vals = np.array([float(s[1]) for s in p.samples])
    order = np.argsort(ns)
    ns, vals = ns[order], vals[order]
    scale = np.abs(vals).max()
    if scale == 0.0:
        return ContinuationResult(0.0, 0.0, np.zeros(len(ns)), p.max_degree)
    terms = p.max_degree + 1
    fit, = continuation.AAA(ns[None], vals[None] / scale, min(terms, len(ns)))
    if isinstance(fit, Exception):
        raise fit
    check_poles(fit, 1.0 - 1e-9, ns.max() + 1e-9)
    value = float(value_at_one(fit)) * scale
    if not np.isfinite(value):
        raise ContinuationError("interpolant evaluated to a non-finite value at n = 1")
    loo = []
    if len(ns) > 3:
        drop = ~np.eye(len(ns), dtype=bool)
        sub_n = np.broadcast_to(ns, drop.shape)[drop].reshape(len(ns), -1)
        sub_v = np.broadcast_to(vals / scale, drop.shape)[drop].reshape(len(ns), -1)
        for f in continuation.AAA(sub_n, sub_v, min(terms, len(ns) - 1)):
            if isinstance(f, Exception):  # a subset whose fit fails is skipped
                continue
            y = float(value_at_one(f)) * scale
            if np.isfinite(y):
                loo.append(y)
    loo = np.asarray(loo if loo else [value])
    err = float(max(loo.max() - loo.min(), np.abs(loo - value).max()))
    return ContinuationResult(value, err, loo, p.max_degree)


def loop_with_fallback(samples):
    """The loop's outcome and the degree it took: lower the degree on a pole."""
    for degree in (4, 3, 2):
        try:
            return loop_continue_to_one(ContinuationProblem(samples, degree)), degree
        except ContinuationError as exc:
            last = exc
        except (ValueError, np.linalg.LinAlgError) as exc:
            return exc, None
    return last, None


def _log_with_outlier(at, amp):
    return _with_outlier(lambda n: np.log(n + 0.1) / n, range(2, 10), at, amp)


# eight-sample sets that take the stack down its rarer paths
STACK_SETS = {
    "degree_3": _log_with_outlier(0, 0.01),
    "degree_2": _log_with_outlier(1, 1e-3),
    "no_degree": _log_with_outlier(0, -0.01),  # a pole at degrees 4, 3 and 2
    "zero_weights": _with_outlier(lambda n: -0.35, range(2, 10), 1, 5.3e-7),
    "value_error": _with_outlier(lambda n: 1.0, range(2, 10), 0, 1e-8),
    "zero": [(n, 0.0) for n in range(2, 10)],
    "not_finite": [(2, 1.0), (3, np.inf), (4, 0.5)],
}


def _stack_sets():
    sets = list(STACK_SETS.values())
    for L, d in ((10.0, 10.0), (100.0, 500.0)):
        for l2 in np.geomspace(10.0, 1e5, 6):
            sets.append(chi_samples(Geometry(L, L + d, L + d + l2, 0.5), 9))
    # the special sets with a boson set of their own length each, so that
    # a pole screen that raises sits in a stack of several
    near = Geometry(10.0, 20.0, 120.0, 0.5)
    return sets + _boson_sample_sets()[::4] + [
        SPECIAL_SETS["pole_and_outlier"], chi_samples(near, 12),
        SPECIAL_SETS["constant_and_outlier"], chi_samples(near, 7)]


def _same_outcome(got, want):
    if isinstance(want, Exception):
        return type(got) is type(want) and str(got) == str(want)
    return (isinstance(got, ContinuationResult)
            and all(np.asarray(getattr(got, k)).tobytes() == np.asarray(getattr(want, k)).tobytes()
                    for k in ("value", "error_estimate", "degree", "loo_values")))


def test_stacked_sets_match_the_loop_alone_together_and_reversed(monkeypatch):
    sets = _stack_sets()
    stacks = []
    weights = continuation._weights

    def spy(a, ill, wide):
        w = weights(a, ill, wide)
        stacks.append((a.shape[0], int((w == 0).any(axis=1).sum())))
        return w

    # per finished stack: its size and how many of its fits the pole screen rejects
    screens = []
    finish = continuation._finish

    def spy_finish(support, support_values, weights, hi):
        fits = finish(support, support_values, weights, hi)
        screens.append((len(fits), sum(fit.rejected.size > 0 for fit in fits)))
        return fits

    monkeypatch.setattr(continuation, "_weights", spy)
    monkeypatch.setattr(continuation, "_finish", spy_finish)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        loop = [loop_with_fallback(s) for s in sets]
        alone = [continue_stack([s], 4, (3, 2))[0] for s in sets]
        # and without the value_error set, whose fit fails inside each stack
        # it joins
        kept = [s for s in sets if s is not STACK_SETS["value_error"]]
        stacks.clear()
        screens.clear()
        whole = continue_stack(kept, 4, (3, 2))
        seen, screened = list(stacks), list(screens)
        together = continue_stack(sets, 4, (3, 2))
        backwards = continue_stack(sets[::-1], 4, (3, 2))[::-1]
    # the sets reach every path: each fallback degree, no degree, a fit that
    # raises, a zero weight inside a stack of several members, which takes
    # the whole stack through the per-member products, and a stack of
    # several members holding a pole that the screen rejects
    degrees = [d for _, d in loop]
    assert {4, 3, 2, None} <= set(degrees)
    assert degrees[:3] == [3, 2, None] and isinstance(loop[4][0], ValueError)
    assert any(size > 1 and zero for size, zero in seen)
    assert any(size > 1 and rejected for size, rejected in screened)
    for (want, degree), a, t, b in zip(loop, alone, together, backwards):
        assert _same_outcome(a, want) and _same_outcome(t, want) and _same_outcome(b, want)
        if degree is not None:  # the degree left after the fallback
            assert a.degree == t.degree == b.degree == degree
    assert all(_same_outcome(w, alone[sets.index(s)]) for w, s in zip(whole, kept))


def fresh_rows(fit):
    """A fit's poles and their residues, computed for it alone."""
    support, svals, w = fit.support[None], fit.support_values[None], fit.weights[None]
    poles = continuation._pole_rows(support, w)
    return poles[0], continuation._residues(poles, support, svals, w)[0]


def test_finished_fits_keep_the_poles_and_residues_they_have_alone(monkeypatch):
    # every fit that AAA returns, in the stacks of the stack sets and of the
    # boson sets, holds the poles, residues, value at n = 1 and screened
    # poles of a fresh pass over it alone
    finished, aaa = [], continuation.AAA

    def spy(z, f, max_terms):
        fits = aaa(z, f, max_terms)
        finished.append((z, fits))
        return fits

    monkeypatch.setattr(continuation, "AAA", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        continue_stack(_stack_sets(), 4, (3, 2))
        continue_stack(_boson_sample_sets(), 4, (3, 2))
    monkeypatch.undo()
    rejected = 0
    for z, fits in finished:
        for fit, hi in zip(fits, z[:, -1] + 1e-9):
            if isinstance(fit, Exception):
                continue
            poles, res = fresh_rows(fit)
            assert fit.poles.tobytes() == poles.tobytes() and fit.residues.tobytes() == res.tobytes()
            assert fit.at_one.tobytes() == value_at_one(fit).tobytes()
            assert fit.rejected.tobytes() == screened_poles(poles, res, hi).tobytes()
            rejected += fit.rejected.size > 0
    assert rejected


def test_a_failing_member_stays_in_its_stack(monkeypatch):
    # the value_error set's fit fails inside the stacks it shares; no stack
    # is refitted one member at a time, and the others keep their results
    sets = _stack_sets()
    calls = []
    aaa = continuation.AAA

    def spy(z, f, max_terms):
        calls.append([(max_terms, zi.tobytes(), fi.tobytes()) for zi, fi in zip(z, f)])
        return aaa(z, f, max_terms)

    monkeypatch.setattr(continuation, "AAA", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        out = continue_stack(sets, 4, (3, 2))
        monkeypatch.undo()
        want = [loop_with_fallback(s)[0] for s in sets]
    # a call of one member fits a set that no call of several fitted at that size
    shared = {member for call in calls if len(call) > 1 for member in call}
    assert not any(call[0] in shared for call in calls if len(call) == 1)
    failing = sets.index(STACK_SETS["value_error"])
    vals = np.array([v for _, v in STACK_SETS["value_error"]])
    key = (5, np.arange(2.0, 10.0).tobytes(), (vals / np.abs(vals).max()).tobytes())
    assert key in shared
    assert isinstance(out[failing], ValueError)
    assert str(out[failing]) == "Loewner matrix has a NaN entry"
    assert all(_same_outcome(o, w) for o, w in zip(out, want))
