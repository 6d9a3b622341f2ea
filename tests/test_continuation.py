import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from opens import continuation
from opens.cft_boson import TimeParams, chi_samples, time_correction_samples
from opens.continuation import (
    ContinuationProblem,
    ContinuationResult,
    continue_stack,
    continue_to_one,
)
from opens.core import Geometry
from opens.errors import ContinuationError


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
        warnings.simplefilter("ignore", RuntimeWarning)  # capped fits, doublets
        return [ScipyAAA(zi, fi, max_terms=max_terms) for zi, fi in zip(z, f)]


def _scipy_fits(z, f, max_terms):
    """``continuation.AAA`` from scipy: per set, scipy's support, weights and poles, or its ValueError."""
    from scipy.interpolate import AAA as ScipyAAA

    fits = []
    for zi, fi in zip(z, f):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # capped fits, doublets
                ref = ScipyAAA(zi, fi, max_terms=max_terms)
        except ValueError as exc:
            fits.append(exc)
            continue
        poles = ref.poles()  # the finite ones
        row = np.full(ref.weights.size - 1, np.inf, dtype=complex)
        row[:poles.size] = poles
        fits.append(continuation.BarycentricFit(zi, fi, ref.support_points, ref.support_values,
                                                ref.weights, row))
    return fits


def finite_poles(fit):
    """A fit's finite poles."""
    row = fit.pole_row()
    return row[np.isfinite(row)]


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
    # column scaling switches on and stays on, clean-up drops a support
    # point, and the pole screen raises
    "pole_and_outlier": _with_outlier(lambda n: (0.7838 - 0.753 * n) / (2.4259 - n),
                                      range(2, 13), 2, 3.5e-11),
    # constant values with one outlier: zero weights, null spaces of
    # dimension >= 2 and clean-up, yet a finite value; one leave-one-out
    # subset fails (below) and keeps its ValueError inside the stack
    "constant_and_outlier": _with_outlier(lambda n: -0.35, range(2, 8), 1, 5.3e-7),
    # a constant with the outlier last: a Loewner column vanishes, the
    # column scaling divides 0 by 0, and both fits raise ValueError
    "zero_column": _with_outlier(lambda n: 1.0, range(2, 7), 4, 1e-8),
}


def _branches(monkeypatch, samples, degree):
    """Which AAA branches one continuation takes, counted by spies."""
    seen = {"ill": 0, "sticky": 0, "null2": 0, "cleanup": 0}
    weights, clean_up = continuation._weights, continuation.BarycentricFit.clean_up

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

    def spy_clean_up(fit, *args):
        size = fit.support.size
        clean_up(fit, *args)
        seen["cleanup"] += int(fit.support.size < size)

    monkeypatch.setattr(continuation, "_weights", spy_weights)
    monkeypatch.setattr(continuation.BarycentricFit, "clean_up", spy_clean_up)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        _outcome(samples, degree)
    monkeypatch.undo()
    return seen


def test_special_sets_reach_their_branches(monkeypatch):
    pole = _branches(monkeypatch, SPECIAL_SETS["pole_and_outlier"], 4)
    assert pole["ill"] and pole["sticky"] and pole["cleanup"]
    const = _branches(monkeypatch, SPECIAL_SETS["constant_and_outlier"], 3)
    assert const["null2"] and const["cleanup"]
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
    fits = continuation._finish(z, f, support, svals, weights)
    why = continuation._pole_screen(fits, z[:, -1] + 1e-9)
    assert list(fits[3].pole_row()) == [1.0, np.inf]
    assert isinstance(why[3], ContinuationError) and "[1.]" in str(why[3])
    for i in (0, 1, 2, 4, 5):
        alone = continuation._finish(z[i:i + 1], f[i:i + 1], support[i:i + 1], svals[i:i + 1],
                                     weights[i:i + 1])
        assert fits[i].pole_row().tobytes() == alone[0].pole_row().tobytes()
        (want,) = continuation._pole_screen(alone, z[i:i + 1, -1] + 1e-9)
        assert type(why[i]) is type(want) and str(why[i]) == str(want)


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
    # a clean-up and a pole screen that raises sit in stacks of several
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

    # which fits a clean-up shortened, and per pole screen: its stack size,
    # whether it holds such a fit, and how many of its fits it rejects
    cleaned, screens = set(), []
    clean_up, pole_screen = continuation.BarycentricFit.clean_up, continuation._pole_screen

    def spy_clean_up(fit, *args):
        size = fit.support.size
        clean_up(fit, *args)
        if fit.support.size < size:
            cleaned.add(id(fit))

    def spy_screen(fits, hi):
        why = pole_screen(fits, hi)
        screens.append((len(fits), any(id(fit) in cleaned for fit in fits),
                        sum(isinstance(w, ContinuationError) for w in why)))
        return why

    monkeypatch.setattr(continuation, "_weights", spy)
    monkeypatch.setattr(continuation.BarycentricFit, "clean_up", spy_clean_up)
    monkeypatch.setattr(continuation, "_pole_screen", spy_screen)
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
    # several members holding a fit that its clean-up re-solved and a pole
    # that the screen rejects
    degrees = [d for _, d in loop]
    assert {4, 3, 2, None} <= set(degrees)
    assert degrees[:3] == [3, 2, None] and isinstance(loop[4][0], ValueError)
    assert any(size > 1 and zero for size, zero in seen)
    assert any(size > 1 and shortened and rejected for size, shortened, rejected in screened)
    for (want, degree), a, t, b in zip(loop, alone, together, backwards):
        assert _same_outcome(a, want) and _same_outcome(t, want) and _same_outcome(b, want)
        if degree is not None:  # the degree left after the fallback
            assert a.degree == t.degree == b.degree == degree
    assert all(_same_outcome(w, alone[sets.index(s)]) for w, s in zip(whole, kept))


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
