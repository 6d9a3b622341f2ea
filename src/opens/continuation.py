"""Numerical continuation of replica-index data to n -> 1.

Replica computations produce values at integer Renyi index n >= 2; the von
Neumann limit needs the value at n = 1. A barycentric rational fit (AAA
greedy support-point selection) extrapolates there. Rational functions are
used instead of polynomials because the determinant data varies slowly,
log-like in n, and polynomial extrapolation rings on such samples.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import AAA

from opens.errors import ContinuationError

# AAA warns whenever it stops at max_terms, and it has no switch to stay
# quiet; a capped fit is the intended degree limit here, not a failure.
# One filter set at import replaces a per-call save and restore of the
# process-wide filters, which races between threads. AAA attributes the
# warning to its own module, so that is the module the filter names.
warnings.filterwarnings("ignore", "AAA failed to converge", RuntimeWarning, "scipy.interpolate")


@dataclass
class ContinuationProblem:
    """Samples (n, value) at integer replica indices, target n = 1."""

    samples: list
    max_degree: int = 4

    def __post_init__(self):
        ns = [s[0] for s in self.samples]
        if len(ns) < 3:
            raise ValueError(f"need at least 3 samples, got {len(ns)}")
        if len(set(ns)) != len(ns):
            raise ValueError("replica indices must be distinct")
        if any(n < 2 for n in ns):
            raise ValueError("samples must sit at n >= 2")
        if any(not np.isfinite(v) for _, v in self.samples):
            raise ValueError("samples must be finite")


@dataclass
class ContinuationResult:
    value: float
    error_estimate: float
    support_points: np.ndarray = field(repr=False, default=None)
    loo_values: np.ndarray = field(repr=False, default=None)


def _fit(ns, vals, max_degree):
    # max_terms counts support points; degree (m-1, m-1) uses m of them.
    return AAA(ns, vals, max_terms=min(max_degree + 1, len(ns)))


def _check_poles(fit, lo: float, hi: float, scale: float = 1.0):
    poles = fit.poles()
    if poles.size == 0:
        return
    residues = fit.residues()
    # spurious nearly-cancelling pole-zero pairs carry negligible residues;
    # only poles that actually move the interpolant are disqualifying
    real_ax = (np.abs(poles.imag) < 1e-8) & (poles.real > lo) & (poles.real < hi)
    bad = poles[real_ax & (np.abs(residues) > 1e-7 * scale)]
    if bad.size:
        raise ContinuationError(
            f"interpolant has poles at {np.sort(bad.real)} inside [{lo}, {hi}]"
        )


def continue_to_one(p: ContinuationProblem) -> ContinuationResult:
    """Evaluate the barycentric rational interpolant of the samples at n = 1.

    The error estimate is the spread (max - min) of leave-one-out refits
    evaluated at the target; a pole of the interpolant on the real axis
    between 1 and the largest sample raises ``ContinuationError``.
    """
    ns = np.array([float(s[0]) for s in p.samples])
    vals = np.array([float(s[1]) for s in p.samples])
    order = np.argsort(ns)
    ns, vals = ns[order], vals[order]

    scale = np.abs(vals).max()
    if scale == 0.0:
        return ContinuationResult(0.0, 0.0, ns, np.zeros(len(ns)))
    fit = _fit(ns, vals / scale, p.max_degree)
    _check_poles(fit, 1.0 - 1e-9, ns.max() + 1e-9, scale=1.0)
    value = float(fit(np.array([1.0]))[0]) * scale
    if not np.isfinite(value):
        raise ContinuationError("interpolant evaluated to a non-finite value at n = 1")

    loo = []
    for k in range(len(ns)):
        sub_n = np.delete(ns, k)
        sub_v = np.delete(vals, k)
        if len(sub_n) < 3:
            continue
        try:
            f = _fit(sub_n, sub_v / scale, p.max_degree)
            y = float(f(np.array([1.0]))[0]) * scale
        except Exception:
            continue
        if np.isfinite(y):
            loo.append(y)
    loo = np.asarray(loo if loo else [value])
    err = float(max(loo.max() - loo.min(), np.abs(loo - value).max()))
    return ContinuationResult(value, err, ns, loo)
