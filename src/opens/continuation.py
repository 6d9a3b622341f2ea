"""Numerical continuation of replica-index data to n -> 1.

Replica computations produce values at integer Renyi index n >= 2; the von
Neumann limit needs the value at n = 1. A barycentric rational fit (AAA
greedy support-point selection) extrapolates there. Rational functions are
used instead of polynomials because the determinant data varies slowly,
log-like in n, and polynomial extrapolation rings on such samples.

The AAA fit (Nakatsukasa, Sete & Trefethen, SIAM J. Sci. Comput. 40, A1494
(2018)) is implemented here for a stack of equal-length sample sets, so
that continuing a whole sweep costs two vectorized fits: the sample sets
of every sweep point, and all of their leave-one-out subsets together.
Each member's fit is bit-identical to fitting it alone, so a point's
result does not depend on which points share its stacks. Each fit follows the rules of
``scipy.interpolate.AAA`` (stopping tolerance, greedy selection, weight
choice for tall, wide and ill-conditioned Loewner matrices, Froissart
clean-up and pole computation), and the tests compare the two. A fit that
reaches its term cap is the intended degree limit, not a failure, so it
warns about nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dggev

from opens.errors import ContinuationError

_EPS = np.finfo(float).eps
# AAA stops once the residual is at most eps^(3/4) of the largest |value|
_RTOL = _EPS**0.75
# past this condition number the Loewner columns are rescaled to unit norm,
# and stay rescaled for the rest of that fit
_ILL_CONDITIONED = 1.0 / (3.0 * _EPS)
# a pole whose residue over its distance to the samples is below this times
# the geometric mean of |values| is a Froissart doublet
_CLEANUP_TOL = 1e-13


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


class BarycentricFit:
    """r(x) = sum_j w_j f_j / (x - z_j) / sum_j w_j / (x - z_j) on real samples."""

    def __init__(self, points, values, support, support_values, weights):
        self.points, self.values = points, values
        self.support, self.support_values, self.weights = support, support_values, weights
        self._poles = self._residues = None

    def __call__(self, x) -> np.ndarray:
        """r at points ``x`` off the support points (the samples sit at n >= 2)."""
        x = np.asarray(x, dtype=float)
        with np.errstate(invalid="ignore", divide="ignore"):
            cc = 1.0 / np.subtract.outer(x, self.support)
            w = self.weights[:, None]
            return (cc @ (w * self.support_values[:, None]) / (cc @ w))[:, 0]

    def poles(self) -> np.ndarray:
        """Finite eigenvalues of the arrowhead pencil (E, diag(0, 1, ..., 1))."""
        if self._poles is None:
            m = self.weights.size
            if not np.isfinite(self.weights).all():  # scipy.linalg.eigvals's check
                raise ValueError("barycentric weights must be finite")
            b = np.eye(m + 1)
            b[0, 0] = 0.0
            e = np.zeros((m + 1, m + 1))
            e[0, 1:] = self.weights
            e[1:, 0] = 1.0
            np.fill_diagonal(e[1:, 1:], self.support)
            # the workspace that scipy.linalg.eigvals asks for, so that the
            # blocking and hence the rounding are the same
            lwork = int(dggev(e, b, lwork=-1)[-2][0])
            alphar, alphai, beta, *_, info = dggev(e, b, 0, 0, lwork)
            if info != 0:
                raise np.linalg.LinAlgError(f"generalized eigenvalues did not converge (info={info})")
            nz = beta != 0
            pol = (alphar + 1j * alphai)[nz] / beta[nz]
            self._poles = pol[np.isfinite(pol)]
        return self._poles

    def residues(self) -> np.ndarray:
        """Residue N(a) / D'(a) at each pole a."""
        if self._residues is None:
            with np.errstate(divide="ignore", invalid="ignore"):
                cc = 1.0 / np.subtract.outer(self.poles(), self.support)
                num = cc @ (self.support_values * self.weights)
                self._residues = num / (-(cc**2) @ self.weights)
        return self._residues

    def clean_up(self) -> None:
        """Drop the support point nearest each Froissart doublet and re-solve."""
        with np.errstate(divide="ignore"):
            geom_mean = np.exp(np.mean(np.log(np.abs(self.values))))
        poles = self.poles()
        dist = np.abs(np.subtract.outer(poles, self.points)).min(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            spurious = np.abs(self.residues()) / dist < _CLEANUP_TOL * geom_mean
        if not spurious.any():
            return
        closest = np.abs(np.subtract.outer(self.support, poles[spurious])).argmin(axis=0)
        self.support = np.delete(self.support, closest)
        self.support_values = np.delete(self.support_values, closest)
        keep = np.not_equal.outer(self.points, self.support).all(axis=1)
        z, f = self.points[keep], self.values[keep]
        c = 1.0 / np.subtract.outer(z, self.support)
        loewner = f[:, None] * c - c * self.support_values
        vh = np.linalg.svd(loewner)[2]
        self.weights = vh[self.support.size - 1]
        self._poles = self._residues = None


def _weights(a, ill, wide):
    """AAA weights for a stack of masked Loewner matrices ``a`` (B, rows, m).

    Updates the sticky ill-conditioning flags ``ill`` in place.
    """
    cols = a.shape[-1]
    if wide:
        # fewer rows than columns: normalized sum of a null-space basis,
        # with scipy.linalg.null_space's rank rule
        s, vh = np.linalg.svd(a, full_matrices=True)[1:]
        tol = s.max(axis=-1, initial=0.0) * (_EPS * max(a.shape[1], cols))
        rank = (s > tol[:, None]).sum(axis=-1)
        basis = np.arange(cols) >= rank[:, None]
        return np.where(basis[:, :, None], vh, 0.0).sum(axis=1) / np.sqrt(cols - rank)[:, None]

    s = np.empty(a.shape[:1] + (cols,))
    vh = np.empty(a.shape[:1] + (cols, cols))
    plain = ~ill
    if plain.any():
        s[plain], vh[plain] = np.linalg.svd(a[plain], full_matrices=False)[1:]
        with np.errstate(invalid="ignore", divide="ignore"):
            ill[plain] = s[plain, 0] / s[plain, -1] > _ILL_CONDITIONED
    col_norm = None
    if ill.any():
        col_norm = np.linalg.norm(a[ill], axis=1)
        scaled = a[ill] / col_norm[:, None, :]
        if np.isnan(scaled).any():
            # a zero column (values equal to its support value on every
            # remaining row) divided by its zero norm
            raise ValueError("Loewner matrix has a NaN entry")
        s[ill], vh[ill] = np.linalg.svd(scaled, full_matrices=False)[1:]
    # repeated smallest singular values: sum their vectors for a non-sparse weight
    smallest = s == s.min(axis=-1, keepdims=True)
    w = np.where(smallest[:, :, None], vh, 0.0).sum(axis=1) / np.sqrt(smallest.sum(axis=-1))[:, None]
    if col_norm is not None:
        w[ill] /= col_norm
    return w


def AAA(z, f, max_terms: int) -> list[BarycentricFit]:
    """AAA fits of a stack of real sample sets ``z``, ``f`` of shape (B, M).

    The points of each set must be distinct and its values finite. Each fit
    uses at most ``max_terms`` support points and is cleaned of Froissart
    doublets. The greedy steps run on the whole stack at once; a set leaves
    the stack when its residual meets the tolerance.
    """
    z, f = np.asarray(z, dtype=float), np.asarray(f, dtype=float)
    nfit, npts = z.shape
    member = np.arange(nfit)
    atol = _RTOL * np.abs(f).max(axis=1)
    support = np.empty((nfit, max_terms))
    svals = np.empty((nfit, max_terms))
    cauchy = np.empty((nfit, max_terms, npts))
    loewner = np.empty((nfit, npts, max_terms))
    mask = np.ones((nfit, npts), dtype=bool)
    resid = np.abs(f - f.mean(axis=1, keepdims=True))
    ill = np.zeros(nfit, dtype=bool)
    fits = [None] * nfit
    for m in range(max_terms):
        rows = np.arange(member.size)
        pick = np.where(mask, resid, -np.inf).argmax(axis=1)
        support[:, m] = z[rows, pick]
        svals[:, m] = f[rows, pick]
        mask[rows, pick] = False
        with np.errstate(divide="ignore", invalid="ignore"):
            cauchy[:, m] = 1.0 / (z - support[:, m, None])
            loewner[:, :, m] = (f - svals[:, m, None]) * cauchy[:, m]

        nrow = npts - m - 1
        a = loewner[:, :, : m + 1][mask].reshape(member.size, nrow, m + 1)
        w = _weights(a, ill, wide=nrow < m + 1)

        # Fortran-ordered Cauchy blocks, as a column-masked copy would be, so
        # that the products round the same way
        c = np.ascontiguousarray(cauchy[:, : m + 1]).transpose(0, 2, 1)
        fj = svals[:, : m + 1]
        nonzero = w != 0
        with np.errstate(invalid="ignore"):
            if nonzero.all():
                num = (c @ (w * fj)[:, :, None])[:, :, 0]
                den = (c @ w[:, :, None])[:, :, 0]
            else:
                # columns of zero weight are left out of the sums
                num, den = np.empty((2, member.size, npts))
                for i, nz in enumerate(nonzero):
                    num[i] = c[i][:, nz] @ (w[i, nz] * fj[i, nz])
                    den[i] = c[i][:, nz] @ w[i, nz]
        # interpolate exactly at the support points
        at_support = np.isinf(den) | np.isnan(den)
        den[at_support] = 1.0
        num[at_support] = f[at_support]
        resid = np.abs(f - num / den)

        done = (resid.max(axis=1) <= atol) | (m == max_terms - 1)
        for i in np.flatnonzero(done):
            nz = nonzero[i]
            fit = BarycentricFit(z[i], f[i], support[i, : m + 1][nz], fj[i][nz], w[i][nz])
            fit.clean_up()
            fits[member[i]] = fit
        if done.all():
            break
        if done.any():
            keep = ~done
            member, z, f, atol, support, svals, cauchy, loewner, mask, resid, ill = (
                x[keep] for x in
                (member, z, f, atol, support, svals, cauchy, loewner, mask, resid, ill)
            )
    return fits


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
    between 1 and the largest sample raises ``ContinuationError``. This is
    ``continue_stack`` for one sample set.
    """
    (out,) = continue_stack([p.samples], p.max_degree)
    if isinstance(out, Exception):
        raise out
    return out


def continue_stack(sample_sets, max_degree: int = 4, fallback=()) -> list:
    """``continue_to_one`` for every sample set, in two stacked AAA fits.

    One fit covers every set and a second all of their leave-one-out
    subsets. A set whose interpolant grows a pole, or is not finite at
    n = 1, is fitted again at each degree of ``fallback`` in turn, together
    with the other sets that still fail. A stacked fit is bit-identical per
    member to fitting that member alone, so a set's result does not depend
    on which sets share its stacks. Returns per set its
    ``ContinuationResult``, or the exception that continuing it alone
    raises (for a ``ContinuationError``, the one at the last degree tried).
    """
    out = [None] * len(sample_sets)
    data = {}  # set index -> (sorted n, values / scale, scale)
    for i, samples in enumerate(sample_sets):
        try:
            samples = ContinuationProblem(samples, max_degree).samples
        except ValueError as exc:
            out[i] = exc
            continue
        ns = np.array([float(s[0]) for s in samples])
        vals = np.array([float(s[1]) for s in samples])
        order = np.argsort(ns)
        ns, vals = ns[order], vals[order]
        scale = np.abs(vals).max()
        if scale == 0.0:
            out[i] = ContinuationResult(0.0, 0.0, ns, np.zeros(len(ns)))
        else:
            data[i] = ns, vals / scale, scale

    fitted = {}  # set index -> (degree, value at n = 1)
    todo = list(data)
    for degree in (max_degree, *fallback):
        failed = []
        for idx in _grouped(todo, lambda i: data[i][0].size):
            z = np.array([data[i][0] for i in idx])
            f = np.array([data[i][1] for i in idx])
            # degree (m-1, m-1) uses m support points
            for i, fit in zip(idx, _fits(z, f, min(degree + 1, z.shape[1]))):
                if isinstance(fit, Exception):
                    out[i] = fit
                    continue
                try:
                    fitted[i] = degree, _value_at_one(fit, data[i][0], data[i][2])
                except ContinuationError as exc:
                    out[i] = exc
                    failed.append(i)
                except (np.linalg.LinAlgError, ValueError) as exc:  # from the pole computation
                    out[i] = exc
        todo = failed

    for idx in _grouped(fitted, lambda i: (data[i][0].size, fitted[i][0])):
        m = data[idx[0]][0].size
        terms = min(fitted[idx[0]][0] + 1, m - 1)
        loo = {i: [] for i in idx}
        if m > 3:
            drop = ~np.eye(m, dtype=bool)
            z = np.array([data[i][0] for i in idx])
            f = np.array([data[i][1] for i in idx])
            sub_n = np.broadcast_to(z[:, None], (len(idx), m, m))[:, drop].reshape(-1, m - 1)
            sub_v = np.broadcast_to(f[:, None], (len(idx), m, m))[:, drop].reshape(-1, m - 1)
            for k, fit in enumerate(_fits(sub_n, sub_v, terms)):
                i = idx[k // m]
                if not isinstance(fit, Exception):  # a subset whose fit fails is skipped
                    y = float(fit(np.array([1.0]))[0]) * data[i][2]
                    if np.isfinite(y):
                        loo[i].append(y)
        for i in idx:
            ns, value = data[i][0], fitted[i][1]
            vals = np.asarray(loo[i] if loo[i] else [value])
            err = float(max(vals.max() - vals.min(), np.abs(vals - value).max()))
            out[i] = ContinuationResult(value, err, ns, vals)
    return out


def _grouped(indices, key):
    """``indices`` grouped by ``key``, each group in index order."""
    groups = {}
    for i in indices:
        groups.setdefault(key(i), []).append(i)
    return list(groups.values())


def _fits(z, f, terms):
    """AAA fits of a stack, refitting one member at a time if the stack raises.

    A member whose fit raises on its own gets the exception in its place.
    """
    try:
        return AAA(z, f, terms)
    except (np.linalg.LinAlgError, ValueError):
        pass
    fits = []
    for zs, fs in zip(z, f):
        try:
            fits.extend(AAA(zs[None], fs[None], terms))
        except (np.linalg.LinAlgError, ValueError) as exc:
            fits.append(exc)
    return fits


def _value_at_one(fit, ns, scale):
    """The fit at n = 1, rescaled; ``ContinuationError`` for a pole in [1, max n] or a non-finite value."""
    _check_poles(fit, 1.0 - 1e-9, ns.max() + 1e-9, scale=1.0)
    value = float(fit(np.array([1.0]))[0]) * scale
    if not np.isfinite(value):
        raise ContinuationError("interpolant evaluated to a non-finite value at n = 1")
    return value
