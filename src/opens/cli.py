"""Command-line frontend: parameter sweeps and cross-route comparisons.

Every command emits a CSV (or JSON mirror) whose rows carry the full
parameter provenance and the formula route that produced each number
(``boson-closed-form``, ``operator-quadrature``, ``lattice`` or
``ed-oracle``). Outputs are deterministic: re-running a command with the
same configuration reproduces the files byte for byte.

Sweep grids use ``lo:hi:count`` (linear), ``lo:hi:count:log`` or
``lo:hi:log`` (25-point default), ``lo:hi`` (inclusive integer range), a
comma list, or a single value.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from collections import Counter

import numpy as np

from opens import __version__
from opens.cft_boson import (
    BosonParams,
    TimeParams,
    build_M_boson,
    charged_moments_ratio,
    chi_time_asymptote,
    holevo_chi,  # unused here; perfbench's traced run looks it up on this module
    holevo_chi_approx,
    holevo_chi_sweep,
    holevo_chi_time,  # unused here, likewise
    holevo_chi_time_sweep,
    renyi_entropy_base,
    renyi_ratio_and_mie,
)
from opens.cft_operator import (
    OperatorSpec,
    QuadratureConfig,
    averaged_purity,
    build_M_operator,
    mie_general,
    overlap_generating,
    single_copy_m11_operator,
    uv_finite_overlap_ratio,
)
from opens.core import Geometry
from opens.lattice import (
    EDOracle,
    LatticeModel,
    SubsystemLayout,
    charge_sector_table,
    charged_moments_lattice,
    finite_chain_correlations,
)

ROUTE_BOSON = "boson-closed-form"
ROUTE_OPERATOR = "operator-quadrature"
ROUTE_LATTICE = "lattice"
ROUTE_ED = "ed-oracle"


def parse_grid(text: str):
    """Parse a sweep specification into a list of floats."""
    text = str(text)
    if "," in text:
        return [float(x) for x in text.split(",") if x]
    parts = text.split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    if len(parts) == 2:
        lo, hi = int(float(parts[0])), int(float(parts[1]))
        return [float(v) for v in range(lo, hi + 1)]
    if len(parts) == 3 and parts[2] == "log":
        lo, hi = float(parts[0]), float(parts[1])
        return list(np.geomspace(lo, hi, 25))
    if len(parts) == 3:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        return list(np.linspace(lo, hi, count))
    if len(parts) == 4 and parts[3] == "log":
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        return list(np.geomspace(lo, hi, count))
    raise ValueError(f"cannot parse grid {text!r}; use lo:hi:count[:log]")


def parse_spec(text: str) -> OperatorSpec:
    kind, _, weight = str(text).partition(":")
    if not weight:
        raise ValueError(f"operator spec must look like scalar:0.25, got {text!r}")
    return OperatorSpec(kind, float(weight))


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def write_output(path, columns, rows, provenance, fmt="csv"):
    lines = []
    if fmt == "csv":
        lines.append(f"# opens {__version__}")
        for key in sorted(provenance):
            lines.append(f"# {key} = {provenance[key]}")
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "version": __version__,
            "provenance": {k: provenance[k] for k in sorted(provenance)},
            "columns": list(columns),
            "rows": [[v if not isinstance(v, float) else float(_fmt(v)) for v in row] for row in rows],
        }
        text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _batched_rows(grid, make, sweep, row):
    """Rows of a batched continuation sweep, failing as a point-by-point loop would.

    ``make(x)`` builds the input of each grid point in order, and
    ``sweep`` evaluates all inputs built before the first that raised,
    returning per input a ``ContinuationResult`` or the exception it
    raised. ``row(x, input, result)`` gives the row. The first failing
    point in grid order raises, whatever the stage it failed at. The
    header records the largest leave-one-out spread and how many rows each
    continuation degree gave, highest degree first.
    """
    inputs, failure = [], None
    for x in grid:
        try:
            inputs.append(make(x))
        except Exception as exc:  # raised below, once every earlier point is through
            failure = exc
            break
    rows, results = [], []
    for x, inp, res in zip(grid, inputs, sweep(inputs)):
        if isinstance(res, Exception):
            raise res
        rows.append(row(x, inp, res))
        results.append(res)
    if failure is not None:
        raise failure
    degrees = Counter(res.degree for res in results)
    return rows, {
        "max_error_estimate": _fmt(max((res.error_estimate for res in results), default=0.0)),
        "continuation_degrees": ";".join(f"{d}:{degrees[d]}" for d in sorted(degrees, reverse=True)),
    }


def _integer_grid(text: str, name: str) -> list[int]:
    """A sweep grid of integers; truncation must not evaluate a point twice."""
    values = [int(v) for v in parse_grid(text)]
    repeated = next((v for v, k in Counter(values).items() if k > 1), None)
    if repeated is not None:
        raise ValueError(f"grid {text!r} repeats {name} = {repeated} once truncated to "
                         "integers; give distinct integer points")
    return values


def _geometry(args, l2: float, n: int = 1) -> Geometry:
    a = args.L + args.d
    return Geometry(args.L, a, a + l2, args.eps, n)


# ---------------------------------------------------------------------------
# command implementations: each returns (columns, rows, provenance entries)


def cmd_boson_moments(args):
    gammas = parse_grid(args.gamma)
    params = BosonParams(args.K)
    rows = []
    for l2 in parse_grid(args.l2):
        g = _geometry(args, l2, len(gammas))
        val = charged_moments_ratio(g, params, gammas)
        rows.append([ROUTE_BOSON, args.L, args.d, l2, args.eps, args.K,
                     ";".join(_fmt(x) for x in gammas), val])
    return ["route", "L", "d", "l2", "eps", "K", "gammas", "ratio"], rows, {}


def cmd_boson_mie(args):
    rows = []
    for l2 in parse_grid(args.l2):
        g = _geometry(args, l2)
        ratio, corr = renyi_ratio_and_mie(g, args.n)
        base = renyi_entropy_base(g, args.n)
        rows.append([ROUTE_BOSON, args.L, args.d, l2, args.eps, args.n,
                     ratio, corr, base, base + corr])
    return ["route", "L", "d", "l2", "eps", "n", "ratio", "correction",
            "base_entropy", "mie"], rows, {}


def cmd_boson_holevo(args):
    def row(l2, g, res):
        return [ROUTE_BOSON, args.L, args.d, l2, args.eps, res.value, holevo_chi_approx(g)]

    cols = ["route", "L", "d", "l2", "eps", "chi_numeric", "chi_approx"]
    return cols, *_batched_rows(parse_grid(args.l2), lambda l2: _geometry(args, l2),
                                lambda gs: holevo_chi_sweep(gs, args.nmax), row)


def cmd_boson_time(args):
    def row(t, point, res):
        return [ROUTE_BOSON, args.L, args.d, args.l2, args.eps, t,
                res.value, chi_time_asymptote(point[0], t)]

    cols = ["route", "L", "d", "l2", "eps", "t", "chi_time", "asymptote"]
    return cols, *_batched_rows(parse_grid(args.t),
                                lambda t: (_geometry(args, args.l2), TimeParams(t, args.epsp)),
                                lambda pts: holevo_chi_time_sweep(pts, args.nmax), row)


def cmd_cn_table(args):
    spec = parse_spec(args.spec)
    cfg = QuadratureConfig(eps_reg=args.eps_reg, tol=args.tol)
    ns = _integer_grid(args.n, "n")
    if len(ns) < 2:
        raise ValueError(f"grid {args.n!r} gives fewer than two n; the linear fit needs "
                         "at least two distinct integer points")
    cns, errs = [], []
    for n in ns:
        g = _geometry(args, args.l2, n)
        if n == 1:
            cns.append(1.0 / single_copy_m11_operator(g, spec, cfg))
            errs.append(0.0)
        else:
            om = build_M_operator(g, spec, cfg)
            cns.append(om.cn())
            errs.append(om.error_estimate)
    coef = np.polyfit(ns, cns, 1)
    resid = np.asarray(cns) - np.polyval(coef, ns)
    rows = [
        [ROUTE_OPERATOR, args.L, args.d, args.l2, spec.kind, spec.weight, n, c, r]
        for n, c, r in zip(ns, cns, resid)
    ]
    prov = {"linear_fit_slope": _fmt(float(coef[0])),
            "linear_fit_intercept": _fmt(float(coef[1])),
            "max_abs_residual": _fmt(float(np.abs(resid).max())),
            "max_error_estimate": _fmt(max(errs))}
    return ["route", "L", "d", "l2", "kind", "weight", "n", "cn", "lin_residual"], rows, prov


def cmd_operator_m(args):
    spec = parse_spec(args.spec)
    cfg = QuadratureConfig(eps_reg=args.eps_reg, tol=args.tol)
    g = _geometry(args, args.l2, args.n)
    om = build_M_operator(g, spec, cfg)
    M = om.dense()
    rows = [[ROUTE_OPERATOR, args.L, args.d, args.l2, spec.kind, spec.weight,
             args.n, m, M[0, m]] for m in range(args.n)]
    prov = {"max_error_estimate": _fmt(om.error_estimate)}
    return ["route", "L", "d", "l2", "kind", "weight", "n", "offset", "entry"], rows, prov


def cmd_operator_mie(args):
    spec = parse_spec(args.spec)
    cfg = QuadratureConfig(eps_reg=args.eps_reg, tol=args.tol)
    rows, err = [], 0.0
    for l2 in parse_grid(args.l2):
        out = mie_general(build_M_operator(_geometry(args, l2, args.n), spec, cfg))
        err = max(err, out["error_estimate"])
        rows.append([ROUTE_OPERATOR, args.L, args.d, l2, spec.kind, spec.weight, args.n,
                     out["base_entropy"], out["det_correction"],
                     out["q_correction_gaussian"], out["q_correction_saddle"],
                     out["total"]])
    cols = ["route", "L", "d", "l2", "kind", "weight", "n", "base_entropy",
            "det_correction", "q_corr_gaussian", "q_corr_saddle", "mie"]
    return cols, rows, {"max_error_estimate": _fmt(err)}


def _two_replica_matrix(args):
    """The n = 2 operator matrix of a fixed-l2 command and its
    ``max_error_estimate`` provenance."""
    om = build_M_operator(_geometry(args, args.l2, 2), parse_spec(args.spec),
                          QuadratureConfig(eps_reg=args.eps_reg, tol=args.tol))
    return om, {"max_error_estimate": _fmt(om.error_estimate)}


def cmd_overlap(args):
    om, prov = _two_replica_matrix(args)
    spec = om.spec
    rows = []
    for g1 in parse_grid(args.gamma1):
        for g2 in parse_grid(args.gamma2):
            rows.append([ROUTE_OPERATOR, args.L, args.d, args.l2, spec.kind,
                         spec.weight, g1, g2,
                         overlap_generating(om, g1, g2),
                         uv_finite_overlap_ratio(om, g1, g2)])
    return ["route", "L", "d", "l2", "kind", "weight", "gamma1", "gamma2",
            "generating", "uv_ratio"], rows, prov


def cmd_averaged_purity(args):
    om, prov = _two_replica_matrix(args)
    spec = om.spec
    rows = []
    for gam in parse_grid(args.gamma):
        out = averaged_purity(om, gam)
        rows.append([ROUTE_OPERATOR, args.L, args.d, args.l2, spec.kind, spec.weight,
                     gam, out["value"], out["normalized"], out["uv_finite"],
                     out["log_value"], out["log_uv_finite"]])
    return ["route", "L", "d", "l2", "kind", "weight", "gamma", "value",
            "normalized", "uv_finite", "log_value", "log_uv_finite"], rows, prov


def cmd_uv_check(args):
    # one build serves both cutoffs: only the add-back m11 reads eps_reg
    om, prov = _two_replica_matrix(args)
    spec = om.spec
    rows = []
    for eps in (args.eps_reg, args.eps_reg / 2.0):
        om_eps = dataclasses.replace(om, eps_reg=eps)
        ap = averaged_purity(om_eps, args.gamma)
        rows.append([ROUTE_OPERATOR, args.L, args.d, args.l2, spec.kind, spec.weight,
                     args.gamma, eps, uv_finite_overlap_ratio(om_eps, args.gamma, args.gamma),
                     overlap_generating(om_eps, args.gamma, args.gamma),
                     ap["uv_finite"], ap["value"]])
    return ["route", "L", "d", "l2", "kind", "weight", "gamma", "eps_reg",
            "uv_ratio", "raw_generating", "purity_uv_finite", "purity_raw"], rows, prov


def _model_from_name(name: str) -> LatticeModel:
    if name in ("xx", "tight-binding", "tb"):
        return LatticeModel(0.0, 0.0)
    if name == "ising":
        return LatticeModel(1.0, 1.0)
    kappa, sep, h = name.partition(":")
    try:
        if sep:
            return LatticeModel(float(kappa), float(h))
    except ValueError:
        pass
    raise ValueError(f"unknown model {name!r}: use xx (or tb, tight-binding), ising, "
                     "or kappa:h with two numbers, e.g. 0.7:0.3")


def cmd_lattice_moments(args):
    model = _model_from_name(args.model)
    gammas = parse_grid(args.gamma)
    data = []
    for l2 in _integer_grid(args.l2, "l2"):
        lay = SubsystemLayout(args.l1, args.d_sites, l2)
        data.append((l2, np.log(charged_moments_lattice(model, lay, gammas))))
    rows = []
    cft_vals = {}
    const = 0.0
    if args.compare == "cft":
        gam = np.asarray(gammas)
        for l2, _ in data:
            g = Geometry(float(args.l1), float(args.l1 + args.d_sites),
                         float(args.l1 + args.d_sites + l2), 1.0, len(gammas))
            M = build_M_boson(g).dense()
            cft_vals[l2] = -(1.0 / (8.0 * np.pi**2)) * gam @ M @ gam
        const = float(np.mean([lv.real - cft_vals[l2] for l2, lv in data]))
    for l2, lv in data:
        row = [ROUTE_LATTICE, args.model, args.l1, args.d_sites, l2,
               ";".join(_fmt(x) for x in gammas), lv.real, lv.imag]
        if args.compare == "cft":
            row += [cft_vals[l2] + const, const]
        rows.append(row)
    cols = ["route", "model", "l1", "d", "l2", "gammas", "re_log", "im_log"]
    if args.compare == "cft":
        cols += ["cft_prediction", "fitted_constant"]
    return cols, rows, {}


def cmd_lattice_overlap(args):
    model = _model_from_name(args.model)
    lay = SubsystemLayout(args.l1, args.d_sites, args.l2_sites)
    p, R, raw = charge_sector_table(model, lay)
    rows = []
    for q1 in range(lay.ell2 + 1):
        for q2 in range(q1, lay.ell2 + 1):
            rows.append([ROUTE_LATTICE, args.model, args.l1, args.d_sites,
                         args.l2_sites, q1, q2, p[q1], p[q2], R[q1, q2]])
    return ["route", "model", "l1", "d", "l2", "q1", "q2", "p_q1", "p_q2", "overlap"], rows, {}


def cmd_ed_verify(args):
    model = _model_from_name(args.model)
    lay = SubsystemLayout(args.l1, args.d_sites, args.l2_sites)
    n_sites = args.sites
    if n_sites < lay.window:
        raise ValueError(f"chain of {n_sites} sites cannot hold the layout ({lay.window})")
    rng = np.random.default_rng(args.seed)
    oracle = EDOracle(model, n_sites)
    corr = finite_chain_correlations(model, n_sites).restrict(lay.sites_A + lay.sites_B)
    rows = []
    worst = 0.0
    for n in range(1, args.n + 1):
        gammas = sorted(rng.uniform(0.1, 3.0, size=n))
        det_v = charged_moments_lattice(corr, lay, gammas)
        ed_v = oracle.charged_moment(lay.sites_A, lay.sites_B, gammas)
        diff = abs(det_v - ed_v)
        worst = max(worst, diff)
        rows.append([ROUTE_ED, args.model, n_sites, args.l1, args.d_sites, args.l2_sites,
                     "moment", ";".join(_fmt(g) for g in gammas),
                     det_v.real, det_v.imag, ed_v.real, ed_v.imag, diff])
    p, Rm, raw = charge_sector_table(corr, lay)
    pe, Rme, rawe = oracle.sector_overlaps(lay.sites_A, lay.sites_B)
    pdiff = float(np.abs(p - pe).max())
    rdiff = float(np.abs(raw - rawe).max())
    worst = max(worst, pdiff, rdiff)
    rows.append([ROUTE_ED, args.model, n_sites, args.l1, args.d_sites, args.l2_sites,
                 "charge_probabilities", "", float(p.sum()), 0.0, float(pe.sum()), 0.0, pdiff])
    rows.append([ROUTE_ED, args.model, n_sites, args.l1, args.d_sites, args.l2_sites,
                 "sector_overlaps", "", float(raw.max()), 0.0, float(rawe.max()), 0.0, rdiff])
    cols = ["route", "model", "sites", "l1", "d", "l2", "quantity", "gammas",
            "det_re", "det_im", "ed_re", "ed_im", "abs_diff"]
    prov = {"max_abs_diff": _fmt(worst), "tolerance": "1e-08",
            "verdict": "pass" if worst < 1e-8 else "FAIL",
            "ed_gap": _fmt(oracle.gap), "ed_residual": _fmt(oracle.residual)}
    return cols, rows, prov


# ---------------------------------------------------------------------------
# argument plumbing


def _add_geometry(p, l2_sweep=True):
    p.add_argument("--L", type=float, default=10.0, help="length of the probed interval A")
    p.add_argument("--d", type=float, default=10.0, help="gap between A and B")
    p.add_argument("--eps", type=float, default=0.5, help="UV cutoff")
    if l2_sweep:
        p.add_argument("--l2", default="100", help="measured-interval length or sweep grid")
    else:
        p.add_argument("--l2", type=float, default=100.0, help="measured-interval length")


def _add_quadrature(p):
    p.add_argument("--spec", default="scalar:0.25", help="observable, kind:weight")
    p.add_argument("--eps-reg", dest="eps_reg", type=float, default=1e-4)
    p.add_argument("--tol", type=float, default=1e-9,
                   help="acceptance bound on the tensor rule's 32-vs-64-node difference")


def _model_arg(presets_only: bool):
    """``--model`` type: a name ``_model_from_name`` accepts, and with
    ``presets_only`` one of the two presets with infinite-chain kernels."""
    def parse(name: str) -> str:
        try:
            model = _model_from_name(name)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if presets_only and not model.is_preset:
            raise argparse.ArgumentTypeError(
                f"{name!r} has no infinite-chain kernel, which exists only for the xx and "
                "ising presets; ed-verify takes generic kappa:h couplings on a finite chain")
        return name
    return parse


def _jobs_arg(text: str) -> int:
    """``--jobs`` type: an integer of at least 1."""
    try:
        jobs = int(text)
        if jobs >= 1:
            return jobs
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"{text!r} is not a worker count; --jobs takes an integer >= 1")


def _add_lattice(p, presets_only=True):
    p.add_argument("--model", default="xx", type=_model_arg(presets_only),
                   help=("xx | ising (infinite-chain presets; ed-verify takes kappa:h)"
                         if presets_only else "xx | ising | kappa:h"))
    p.add_argument("--l1", type=int, default=10, help="probed sites")
    p.add_argument("--d-sites", "--gap", dest="d_sites", type=int, default=10,
                   help="gap sites between A and B")



def _register(registry, sub, name, **kw):
    p = sub.add_parser(name, **kw)
    registry[name] = p
    return p


@functools.cache
def _top_level_parser():
    """The options that precede the command, on a parser of their own: a
    ``--config`` call parses them without reading a flag value as the command."""
    top = argparse.ArgumentParser(prog="opens", add_help=False)
    top.add_argument("--config", help="key = value file whose entries act as the flags they name")
    top.add_argument("--output", "-o", default="-", help="output path ('-' = stdout)")
    top.add_argument("--format", choices=("csv", "json"), default="csv")
    top.add_argument("--jobs", type=_jobs_arg, default=1,
                     help="no effect: every sweep runs serially; accepted and recorded in the "
                     "provenance until the benchmark stops passing it")
    top.add_argument("--seed", type=int, default=1234, help="seed for randomized checks")
    return top


def build_parser():
    """A new ``(parser, subparsers)`` pair; ``subparsers`` maps command names to parsers."""
    subparsers = {}
    ap = argparse.ArgumentParser(
        prog="opens",
        description="entanglement diagnostics of observable-projected ensembles",
        parents=[_top_level_parser()],
    )
    sub = ap.add_subparsers(dest="command")

    p = _register(subparsers, sub, "boson-moments", help="charged-moment ratio, closed form")
    _add_geometry(p)
    p.add_argument("--K", type=float, default=1.0)
    p.add_argument("--gamma", default="0.3,0.7", help="one flux per replica")
    p.set_defaults(func=cmd_boson_moments)

    p = _register(subparsers, sub, "boson-mie", help="Renyi ratio and entropy correction")
    _add_geometry(p)
    p.add_argument("--n", type=int, default=2)
    p.set_defaults(func=cmd_boson_mie)

    p = _register(subparsers, sub, "boson-holevo", help="Holevo bound, continuation vs closed form")
    _add_geometry(p)
    p.add_argument("--nmax", type=int, default=8)
    p.set_defaults(func=cmd_boson_holevo)

    p = _register(subparsers, sub, "boson-time", help="time decay of the Holevo bound")
    _add_geometry(p, l2_sweep=False)
    p.add_argument("--t", default="1000:100000:9:log", help="time sweep")
    p.add_argument("--epsp", type=float, default=1e-3)
    p.add_argument("--nmax", type=int, default=8)
    p.set_defaults(func=cmd_boson_time)

    p = _register(subparsers, sub, "cn-table", help="charge-width coefficient C_n vs n")
    _add_geometry(p, l2_sweep=False)
    _add_quadrature(p)
    p.add_argument("--n", default="1:10", help="replica range")
    p.set_defaults(func=cmd_cn_table)

    p = _register(subparsers, sub, "operator-m", help="replica-matrix entries by quadrature")
    _add_geometry(p, l2_sweep=False)
    _add_quadrature(p)
    p.add_argument("--n", type=int, default=2)
    p.set_defaults(func=cmd_operator_m)

    p = _register(subparsers, sub, "operator-mie", help="entropy correction for a generic observable")
    _add_geometry(p)
    _add_quadrature(p)
    p.add_argument("--n", type=int, default=2)
    p.set_defaults(func=cmd_operator_mie)

    p = _register(subparsers, sub, "overlap", help="two-flux overlap generating function")
    _add_geometry(p, l2_sweep=False)
    _add_quadrature(p)
    p.add_argument("--gamma1", default="0.5")
    p.add_argument("--gamma2", default="0.5")
    p.set_defaults(func=cmd_overlap)

    p = _register(subparsers, sub, "averaged-purity", help="flux-weighted averaged purity")
    _add_geometry(p, l2_sweep=False)
    _add_quadrature(p)
    p.add_argument("--gamma", default="0.5")
    p.set_defaults(func=cmd_averaged_purity)

    p = _register(subparsers, sub, "uv-check", help="cutoff-halving stability of UV-finite ratios")
    _add_geometry(p, l2_sweep=False)
    _add_quadrature(p)
    p.add_argument("--gamma", type=float, default=0.5)
    p.set_defaults(func=cmd_uv_check)

    p = _register(subparsers, sub, "lattice-moments", help="flux-dressed replica traces on the chain")
    _add_lattice(p)
    p.add_argument("--gamma", default="0.3,0.7")
    p.add_argument("--l2", default="10:200:10:log", help="measured-sites sweep")
    p.add_argument("--compare", choices=("none", "cft"), default="none")
    p.set_defaults(func=cmd_lattice_moments)

    p = _register(subparsers, sub, "lattice-overlap", help="post-measurement overlap table")
    _add_lattice(p)
    p.add_argument("--l2-sites", dest="l2_sites", type=int, default=6)
    p.set_defaults(func=cmd_lattice_overlap)

    p = _register(subparsers, sub, "ed-verify", help="determinant route vs exact diagonalization")
    _add_lattice(p, presets_only=False)
    p.add_argument("--l2-sites", dest="l2_sites", type=int, default=2)
    p.add_argument("--sites", type=int, default=8, help="total chain sites (<= 12)")
    p.add_argument("--n", type=int, default=3, help="largest replica number")
    p.set_defaults(func=cmd_ed_verify)
    return ap, subparsers


def _load_config(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, val = line.partition("=")
            if not sep:
                key, sep, val = line.partition(":")
            if not sep:
                raise ValueError(f"cannot parse config line {line!r}")
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _options(parser) -> dict:
    """{name: first option string} of ``parser``'s flags, named by dest and by
    each long option with ``-`` read as ``_``, as config keys are."""
    return {name: a.option_strings[0] for a in parser._actions if a.option_strings
            for name in [a.dest] + [o[2:].replace("-", "_") for o in a.option_strings
                                    if o.startswith("--")]}


def _config_flags(flags: dict, config: dict) -> list:
    """The ``config`` entries that ``flags`` names, as ``--flag=value`` tokens."""
    return [f"{flags[k]}={v}" for k, v in config.items() if k in flags]


def _parse_with_config(ap, subparsers, argv, path):
    """Parse ``argv`` with the file at ``path`` supplying flags, the command included.

    The file's entries go in as flags ahead of the explicit ones, so they are
    checked as flags are and an explicit flag still wins. The options that
    precede the command are parsed first on their own parser; the command is
    the first token left over, or else the file's ``command``. An entry that
    neither parser has an option for is a usage error.
    """
    config = _load_config(path)
    top_parser = _top_level_parser()
    top_flags = _options(top_parser)
    top, rest = top_parser.parse_known_args(_config_flags(top_flags, config) + argv)
    cmd = rest.pop(0) if rest and rest[0] in subparsers else config.get("command")
    flags = _options(subparsers[cmd]) if cmd in subparsers else {}
    unknown = [k for k in config if k not in flags and k not in top_flags and k != "command"]
    if cmd in subparsers and unknown:  # an unknown command is argparse's to report
        ap.error(f"config file {path}: {unknown[0]!r} is not an option of opens or of {cmd}")
    if cmd is not None:
        rest = [cmd] + _config_flags(flags, config) + rest
    return ap.parse_args(rest, namespace=top)


@functools.cache
def _shared_parser():
    """The process-wide ``build_parser()`` pair; parsing never mutates it."""
    return build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap, subparsers = _shared_parser()
    pre, _ = _top_level_parser().parse_known_args(argv)
    if pre.config:
        args = _parse_with_config(ap, subparsers, argv, pre.config)
    else:
        args = ap.parse_args(argv)
    if not args.command:
        ap.print_usage(sys.stderr)
        return 2
    provenance = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("func", "config", "output", "format") and not callable(v)
    }
    try:
        cols, rows, prov_extra = args.func(args)
    except Exception as exc:  # numerical failure: diagnostic record, nonzero exit
        write_output(args.output, ["error"], [[f"{type(exc).__name__}: {exc}"]],
                     dict(provenance, status="error"), args.format)
        return 1
    provenance.update(prov_extra)
    write_output(args.output, cols, rows, provenance, args.format)
    return 1 if prov_extra.get("verdict") == "FAIL" else 0


if __name__ == "__main__":
    sys.exit(main())
