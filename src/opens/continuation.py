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
Each fit follows ``scipy.interpolate.AAA(..., clean_up=False)`` (stopping
tolerance, greedy selection, weight choice for tall, wide and
ill-conditioned Loewner matrices, and pole computation), and the tests
compare the two. No Froissart clean-up runs: the seeded fuzz of both boson
routes, ``test_boson_routes_fit_no_froissart_doublet``, finds no doublet.
A fit that reaches its term cap is the intended degree limit, not a
failure, so it warns about nothing. A set whose fit fails leaves its stack
with the exception in its slot, and the other sets go on.

Everything after the greedy steps also runs once per stack: the members
that finish at a step form a batch per support size, whose poles are one
``np.linalg.eigvals`` over a stack of (m - 1)-square matrices, so no
command loads scipy, whose residues are one stacked array, whose values
r(1) are one stacked product and whose pole screen is one elementwise
test. Each fit keeps all four, and ``continue_stack`` reads them off the
fit. Each member's poles, residues, value and screened poles are
bit-identical to fitting it alone, so a point's result does not depend on
which points share its stacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from opens.errors import ContinuationError

_EPS = np.finfo(float).eps
# AAA stops once the residual is at most eps^(3/4) of the largest |value|
_RTOL = _EPS**0.75
# past this condition number the Loewner columns are rescaled to unit norm,
# and stay rescaled for the rest of that fit
_ILL_CONDITIONED = 1.0 / (3.0 * _EPS)


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
    loo_values: np.ndarray = field(repr=False, default=None)
    # the degree that gave the value, after any fallback to a lower one
    degree: int | None = None


@dataclass(frozen=True, eq=False)
class BarycentricFit:
    """r(x) = sum_j w_j f_j / (x - z_j) / sum_j w_j / (x - z_j) on real samples.

    With its m - 1 poles, inf for a pole at infinity, their residues, r(1),
    and the sorted real parts of the poles that the pole screen ``rejected``.
    """

    support: np.ndarray
    support_values: np.ndarray
    weights: np.ndarray
    poles: np.ndarray
    residues: np.ndarray
    at_one: float
    rejected: np.ndarray


def _rational(x, support, support_values, weights):
    """r at points ``x`` (B, p) of a stack of fits with m support points each (B, m).

    Each member's products are the ones a fit of its own would take, so its
    values are bit-identical to evaluating it alone.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        cc = 1.0 / (x[:, :, None] - support[:, None, :])
        w = weights[:, :, None]
        return (cc @ (w * support_values[:, :, None]) / (cc @ w))[:, :, 0]


def _pole_rows(support, weights):
    """The m - 1 poles of each fit of a stack (B, m), inf for a pole at infinity.

    The poles are the zeros of sum_j w_j / (x - z_j), taken about the support
    point z_k of largest |w_k|: with mu = 1 / (x - z_k) and
    nu_j = 1 / (z_j - z_k), they solve w_k + sum_{j != k} w_j nu_j / (nu_j - mu)
    = 0, whose roots are the eigenvalues of diag(nu) + (w / w_k) nu^T over
    j != k. The expansion point is a support point, never a pole, so the
    matrix is finite for any finite weights that are not all zero: a weight
    sum of zero is the root mu = 0, and a pole at n = 1 an ordinary
    eigenvalue. AAA's weights are such: a singular vector, or one divided
    by a column norm, which is either 0, and the fit fails, or at least
    the 1.5e-162 whose square does not underflow. One ``np.linalg.eigvals``
    takes the whole stack, one LAPACK call per member, so every pole is
    the same as for that member alone.
    """
    nfit, m = weights.shape
    k = np.abs(weights).argmax(axis=1)[:, None]
    zk, wk = np.take_along_axis(support, k, 1), np.take_along_axis(weights, k, 1)
    rest = np.arange(m) != k
    nu = 1.0 / (support[rest].reshape(nfit, m - 1) - zk)
    a = (weights[rest].reshape(nfit, m - 1) / wk)[:, :, None] * nu[:, None, :]
    diag = np.arange(m - 1)
    a[:, diag, diag] += nu
    mu = np.linalg.eigvals(a).astype(complex)
    return zk + np.reciprocal(mu, out=np.full_like(mu, np.inf), where=mu != 0)


def _residues(poles, support, support_values, weights):
    """Residue N(a) / D'(a) at each entry a of ``poles`` (B, p) of a stack (B, m).

    Elementwise products summed along each row, so that a member's residues
    do not depend on the other members of its stack.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        cc = 1.0 / (poles[:, :, None] - support[:, None, :])
        num = (cc * (support_values * weights)[:, None, :]).sum(axis=2)
        return num / -(cc * cc * weights[:, None, :]).sum(axis=2)


def _finish(support, support_values, weights, hi) -> list[BarycentricFit]:
    """Fits of a stack (B, m) of equal support size, ``hi`` each one's largest sample + 1e-9.

    Poles, residues, r(1) and the pole screen below ``hi`` run on the whole
    stack, and each fit keeps its rows of all four. As in
    ``scipy.interpolate.AAA(..., clean_up=False)``, no Froissart doublet is
    removed (see ``test_boson_routes_fit_no_froissart_doublet``).
    """
    poles = _pole_rows(support, weights)
    res = _residues(poles, support, support_values, weights)
    at_one = _rational(np.ones((len(support), 1)), support, support_values, weights)[:, 0]
    # real poles that move r: spurious, nearly cancelling pole-zero pairs carry negligible residues
    bad = ((np.abs(poles.imag) < 1e-8) & (poles.real > 1.0 - 1e-9) & (poles.real < hi[:, None])
           & (np.abs(res) > 1e-7))
    rejected = [np.empty(0)] * len(poles)
    for i in np.flatnonzero(bad.any(axis=1)):
        rejected[i] = np.sort(poles[i, bad[i]].real)
    return [BarycentricFit(*member)
            for member in zip(support, support_values, weights, poles, res, at_one, rejected)]


def _weights(a, ill, wide):
    """AAA weights for a stack of masked Loewner matrices ``a`` (B, rows, m).

    Updates the sticky ill-conditioning flags ``ill`` in place. A member
    whose column scaling puts a NaN entry in its matrix gets NaN weights,
    which mark its fit as failed; the other members take the scaled SVD
    without it.
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
        # a zero column (values equal to its support value on every
        # remaining row) divided by its zero norm
        nan = np.isnan(scaled).any(axis=(1, 2))
        rows = np.flatnonzero(ill)
        s[rows[nan]], vh[rows[nan]] = 1.0, np.nan
        s[rows[~nan]], vh[rows[~nan]] = np.linalg.svd(scaled[~nan], full_matrices=False)[1:]
    # repeated smallest singular values: sum their vectors for a non-sparse weight
    smallest = s == s.min(axis=-1, keepdims=True)
    w = np.where(smallest[:, :, None], vh, 0.0).sum(axis=1) / np.sqrt(smallest.sum(axis=-1))[:, None]
    if col_norm is not None:
        w[ill] /= col_norm
    return w


def AAA(z, f, max_terms: int) -> list[BarycentricFit | ValueError]:
    """AAA fits of a stack of real sample sets ``z``, ``f`` of shape (B, M).

    The points of each set must be distinct and its values finite. Each fit
    is ``scipy.interpolate.AAA(..., clean_up=False)`` with at most
    ``max_terms`` support points: the boson routes' fuzz test
    ``test_boson_routes_fit_no_froissart_doublet`` finds no doublet to clean.
    Each fit holds r(1) and its screened poles (``_finish``). The greedy
    steps run on the whole stack at once; a set leaves the stack when its
    residual meets the tolerance, or, with the
    ``ValueError("Loewner matrix has a NaN entry")`` that fitting it alone
    raises in place of its fit, when its column scaling divides a zero
    column by its zero norm. A LAPACK routine that does not converge raises
    ``LinAlgError`` for the whole call; no known input reaches one.
    """
    z, f = np.asarray(z, dtype=float), np.asarray(f, dtype=float)
    nfit, npts = z.shape
    member = np.arange(nfit)
    atol = _RTOL * np.abs(f).max(axis=1)
    hi = z.max(axis=1) + 1e-9
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
        failed = np.isnan(w).any(axis=1)

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

        done = failed | (resid.max(axis=1) <= atol) | (m == max_terms - 1)
        for i in member[failed]:
            fits[i] = ValueError("Loewner matrix has a NaN entry")
        # the members that finish here, one batch per count of nonzero weights
        finished = np.flatnonzero(done & ~failed)
        sizes = nonzero[finished].sum(axis=1)
        for size in sorted(set(sizes.tolist())):
            sel = finished[sizes == size]
            nz = nonzero[sel]
            parts = (x[nz].reshape(sel.size, size) for x in (support[sel, : m + 1], fj[sel], w[sel]))
            for i, fit in zip(sel, _finish(*parts, hi[sel])):
                fits[member[i]] = fit
        if done.all():
            break
        if done.any():
            keep = ~done
            member, z, f, atol, hi, support, svals, cauchy, loewner, mask, resid, ill = (
                x[keep] for x in
                (member, z, f, atol, hi, support, svals, cauchy, loewner, mask, resid, ill)
            )
    return fits


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
    with the other sets that still fail. A set whose fit fails keeps that
    fit's ``ValueError`` in its slot, and its stack is not refitted; a
    leave-one-out subset whose fit fails is left out of the error estimate.
    A stacked fit is bit-identical per member to fitting that member alone,
    so a set's result does not depend on which sets share its stacks.

    A leave-one-out fit of 6 samples at degree 4 has more support points
    than rows: its weights are the normalized sum of a null-space basis, and
    its value at n = 1 one member of a family of interpolants (ROADMAP item 4).

    Returns per set its ``ContinuationResult``, with the degree that gave
    it, or the exception that continuing it alone raises (for a
    ``ContinuationError``, the one at the last degree tried).
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
            out[i] = ContinuationResult(0.0, 0.0, np.zeros(len(ns)), max_degree)
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
            for i, fit, hi in zip(idx, AAA(z, f, min(degree + 1, z.shape[1])), z[:, -1] + 1e-9):
                if isinstance(fit, Exception):
                    out[i] = fit
                    continue
                with np.errstate(over="ignore"):  # an overflow is that set's ContinuationError below
                    value = fit.at_one * data[i][2]
                if fit.rejected.size:
                    out[i] = ContinuationError(f"interpolant has poles at {fit.rejected} "
                                               f"inside [{1.0 - 1e-9}, {hi}]")
                elif not np.isfinite(value):
                    out[i] = ContinuationError("interpolant evaluated to a non-finite value at n = 1")
                else:
                    fitted[i] = degree, value
                    continue
                failed.append(i)
        todo = failed

    for idx in _grouped(fitted, lambda i: (data[i][0].size, fitted[i][0])):
        m = data[idx[0]][0].size
        terms = min(fitted[idx[0]][0] + 1, m - 1)
        loo = np.empty((len(idx), 0))
        if m > 3:
            drop = ~np.eye(m, dtype=bool)
            z = np.array([data[i][0] for i in idx])
            f = np.array([data[i][1] for i in idx])
            sub_n = np.broadcast_to(z[:, None], (len(idx), m, m))[:, drop].reshape(-1, m - 1)
            sub_v = np.broadcast_to(f[:, None], (len(idx), m, m))[:, drop].reshape(-1, m - 1)
            loo = np.array([np.nan if isinstance(fit, Exception) else fit.at_one
                            for fit in AAA(sub_n, sub_v, terms)]).reshape(len(idx), m)
            with np.errstate(over="ignore"):  # a subset that overflows is skipped below
                loo *= np.array([data[i][2] for i in idx])[:, None]
        for i, y in zip(idx, loo):
            (degree, value), ns = fitted[i], data[i][0]
            vals = y[np.isfinite(y)]  # a subset whose fit fails, or is not finite at n = 1, is skipped
            if not vals.size:
                vals = np.asarray([value])
            err = float(max(vals.max() - vals.min(), np.abs(vals - value).max()))
            out[i] = ContinuationResult(value, err, vals, degree)
    return out


def _grouped(indices, key):
    """``indices`` grouped by ``key``, each group in index order."""
    groups = {}
    for i in indices:
        groups.setdefault(key(i), []).append(i)
    return list(groups.values())

