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
    assert res.support_points is not None


# ---------------------------------------------------------------------------
# the in-repo AAA against scipy.interpolate.AAA, which only the tests import


def _scipy_stack(z, f, max_terms):
    """Reference for ``continuation.AAA``: one scipy fit per sample set."""
    from scipy.interpolate import AAA as ScipyAAA

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # capped fits, doublets
        return [ScipyAAA(zi, fi, max_terms=max_terms) for zi, fi in zip(z, f)]


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
    # subset fails (below), so the stack is refitted one subset at a time
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

    def spy_clean_up(fit):
        size = fit.support.size
        clean_up(fit)
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
        monkeypatch.setattr(continuation, "AAA", _scipy_stack)
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
        np.testing.assert_allclose(np.sort_complex(fit.poles()), np.sort_complex(want.poles()),
                                   rtol=1e-12)


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


def loop_continue_to_one(p):
    """One set, one full fit and one leave-one-out stack, as before stacking sets."""
    ns = np.array([float(s[0]) for s in p.samples])
    vals = np.array([float(s[1]) for s in p.samples])
    order = np.argsort(ns)
    ns, vals = ns[order], vals[order]
    scale = np.abs(vals).max()
    if scale == 0.0:
        return ContinuationResult(0.0, 0.0, ns, np.zeros(len(ns)))
    terms = p.max_degree + 1
    fit, = continuation.AAA(ns[None], vals[None] / scale, min(terms, len(ns)))
    continuation._check_poles(fit, 1.0 - 1e-9, ns.max() + 1e-9, scale=1.0)
    value = float(fit(np.array([1.0]))[0]) * scale
    if not np.isfinite(value):
        raise ContinuationError("interpolant evaluated to a non-finite value at n = 1")
    loo = []
    if len(ns) > 3:
        drop = ~np.eye(len(ns), dtype=bool)
        sub_n = np.broadcast_to(ns, drop.shape)[drop].reshape(len(ns), -1)
        sub_v = np.broadcast_to(vals / scale, drop.shape)[drop].reshape(len(ns), -1)
        try:
            fits = continuation.AAA(sub_n, sub_v, min(terms, len(ns) - 1))
        except (np.linalg.LinAlgError, ValueError):
            fits = []
            for zs, fs in zip(sub_n, sub_v):
                try:
                    fits.extend(continuation.AAA(zs[None], fs[None], min(terms, len(ns) - 1)))
                except (np.linalg.LinAlgError, ValueError):
                    continue
        for f in fits:
            y = float(f(np.array([1.0]))[0]) * scale
            if np.isfinite(y):
                loo.append(y)
    loo = np.asarray(loo if loo else [value])
    err = float(max(loo.max() - loo.min(), np.abs(loo - value).max()))
    return ContinuationResult(value, err, ns, loo)


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
    return sets + _boson_sample_sets()[::4]


def _same_outcome(got, want):
    if isinstance(want, Exception):
        return type(got) is type(want) and str(got) == str(want)
    return (isinstance(got, ContinuationResult)
            and all(np.asarray(getattr(got, k)).tobytes() == np.asarray(getattr(want, k)).tobytes()
                    for k in ("value", "error_estimate", "support_points", "loo_values")))


def test_stacked_sets_match_the_loop_alone_together_and_reversed(monkeypatch):
    sets = _stack_sets()
    stacks = []
    weights = continuation._weights

    def spy(a, ill, wide):
        w = weights(a, ill, wide)
        stacks.append((a.shape[0], int((w == 0).any(axis=1).sum())))
        return w

    monkeypatch.setattr(continuation, "_weights", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        loop = [loop_with_fallback(s) for s in sets]
        alone = [continue_stack([s], 4, (3, 2))[0] for s in sets]
        # without the value_error set, whose fits make every stack it joins
        # raise, the stacks stay whole
        kept = [s for s in sets if s is not STACK_SETS["value_error"]]
        stacks.clear()
        whole = continue_stack(kept, 4, (3, 2))
        seen = list(stacks)
        together = continue_stack(sets, 4, (3, 2))
        backwards = continue_stack(sets[::-1], 4, (3, 2))[::-1]
    # the sets reach every path: each fallback degree, no degree, a fit that
    # raises, and a zero weight inside a stack of several members, which
    # takes the whole stack through the per-member products
    degrees = [d for _, d in loop]
    assert {4, 3, 2, None} <= set(degrees)
    assert degrees[:3] == [3, 2, None] and isinstance(loop[4][0], ValueError)
    assert any(size > 1 and zero for size, zero in seen)
    for (want, _), a, t, b in zip(loop, alone, together, backwards):
        assert _same_outcome(a, want) and _same_outcome(t, want) and _same_outcome(b, want)
    assert all(_same_outcome(w, alone[sets.index(s)]) for w, s in zip(whole, kept))


def test_stacks_fall_back_to_one_member_at_a_time(monkeypatch):
    # the value_error set makes every stack it joins raise; the others are
    # refitted alone and keep their results
    sets = _stack_sets()[:8]
    calls = []
    aaa = continuation.AAA

    def spy(z, f, max_terms):
        calls.append(len(z))
        return aaa(z, f, max_terms)

    monkeypatch.setattr(continuation, "AAA", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        out = continue_stack(sets, 4, (3, 2))
        monkeypatch.undo()
        want = [loop_with_fallback(s)[0] for s in sets]
    assert 1 in calls and max(calls) > 1
    assert isinstance(out[4], ValueError)
    assert all(_same_outcome(o, w) for o, w in zip(out, want))
