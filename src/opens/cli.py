"""Command-line frontend: parameter sweeps and cross-route comparisons.

Every command emits a CSV (or JSON mirror) whose rows carry the full
parameter provenance and the formula route that produced each number
(``boson-closed-form``, ``operator-quadrature``, ``lattice`` or
``ed-oracle``). Outputs are deterministic: re-running a command with the
same configuration reproduces the files byte for byte.

The commands form one table, ``COMMANDS``: ``@_command`` registers each
function with its name, help, flags (from shared groups: geometry with a
fixed or swept ``--l2``, quadrature, the chain) and parser defaults, and
``build_parser`` adds one subparser per entry. A warning a command shows
is also recorded in its provenance.

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
import warnings
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
    renyi_ratio_and_mie,
)
from opens.cft_operator import (
    OperatorSpec,
    QuadratureConfig,
    averaged_purity,
    build_M_operator,
    build_M_operators,
    mie_general,
    overlap_generating,
    single_copy_m11_operator,  # noqa: F401 - perfbench's traced run looks it up here
    uv_finite_overlap_ratio,
)
from opens.core import Geometry, _where_ok, renyi_entropy_base
from opens.lattice import (
    ISING,
    TIGHT_BINDING,
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
GRID_POINTS = 100_000  # the most points one sweep grid may ask for


def parse_grid(text: str, flag: str = "grid"):
    """Parse a sweep specification into a list of floats, naming ``flag`` if the
    text is malformed, gives no point or more than GRID_POINTS, or is a range
    with a non-finite bound, a log range with a bound <= 0 or a negative count."""
    text = str(text)
    parts = text.split(":")

    def number(field: str, kind=float):
        try:
            return kind(field)
        except ValueError:
            raise ValueError(f"{flag} {text!r}: {field!r} is not "
                             f"{'an integer count' if kind is int else 'a number'}") from None

    def count(n: int) -> int:  # checked before anything of that size is built
        if n > GRID_POINTS:
            raise ValueError(f"{flag} {text!r} asks for {n} points; a grid holds at most "
                             f"{GRID_POINTS}")
        return n

    if "," in text:
        values = [number(x) for x in text.split(",") if x]
    elif len(parts) == 1:
        values = [number(text)]
    elif len(parts) > 4 or len(parts) == 4 and parts[3] != "log":
        raise ValueError(f"cannot parse {flag} {text!r}; use lo:hi:count[:log]")
    else:
        lo, hi = number(parts[0]), number(parts[1])
        log = parts[-1] == "log"
        if not np.isfinite([lo, hi]).all():
            raise ValueError(f"{flag} {text!r} has a non-finite bound")
        if log and not (lo > 0.0 and hi > 0.0):
            raise ValueError(f"{flag} {text!r} is a log range with a bound <= 0")
        if len(parts) == 2:
            lo, hi = int(lo), int(hi)
            count(hi - lo + 1)
            values = [float(v) for v in range(lo, hi + 1)]
        else:
            k = 25 if len(parts) == 3 and log else number(parts[2], int)
            if k < 0:
                raise ValueError(f"{flag} {text!r} has a negative count")
            values = list((np.geomspace if log else np.linspace)(lo, hi, count(k)))
    if not values:
        raise ValueError(f"{flag} {text!r} gives no point")
    return values


def _fluxes(text, flag: str):
    """The fluxes of ``flag``, a grid of finite values."""
    gammas = parse_grid(text, flag)
    if not np.isfinite(gammas).all():
        raise ValueError(f"{flag} {str(text)!r} holds a non-finite flux; every flux must be finite")
    return gammas


def parse_spec(text: str) -> OperatorSpec:
    kind, _, weight = str(text).partition(":")
    if not weight:
        raise ValueError(f"--spec must look like scalar:0.25, got {text!r}")
    try:
        value = float(weight)
    except ValueError:
        raise ValueError(f"--spec {text!r}: {weight!r} is not a number") from None
    return OperatorSpec(kind, value)


def _fmt(x) -> str:
    return format(x, ".12g") if isinstance(x, float) else str(x)


def _json(v):
    """``v`` for the JSON mirror: JSON has no inf or nan, so a non-finite
    float is written as the CSV's string for it."""
    return _fmt(v) if isinstance(v, float) and not np.isfinite(v) else v


def write_output(path, columns, rows, provenance, fmt="csv"):
    if fmt == "csv":
        lines = [f"# opens {__version__}", *(f"# {k} = {provenance[k]}" for k in sorted(provenance)),
                 ",".join(columns), *(",".join(_fmt(v) for v in row) for row in rows)]
        text = "\n".join(lines) + "\n"
    else:
        payload = {"version": __version__, "columns": list(columns),
                   "provenance": {k: _json(provenance[k]) for k in sorted(provenance)},
                   "rows": [[_json(float(_fmt(v))) if isinstance(v, float) else v for v in row]
                            for row in rows]}
        text = json.dumps(payload, indent=1, sort_keys=True, allow_nan=False) + "\n"
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _batched_rows(grid, make, sweep, row):
    """Rows of a batched continuation sweep, failing as a point-by-point loop would.

    ``make(x)`` builds the input of each grid point in order, up to the
    first that raises, whose exception takes its slot. ``sweep`` evaluates
    the built inputs in one call, returning per input a
    ``ContinuationResult`` or the exception it raised. ``row(x, input,
    result)`` gives the row. The first failing point in grid order raises,
    whatever the stage it failed at. The header records the largest
    leave-one-out spread and how many rows each continuation degree gave,
    highest degree first.
    """
    inputs = []
    for x in grid:
        try:
            inputs.append(make(x))
        except Exception as exc:  # the points after it are not built
            inputs.append(exc)
            break
    rows, results = [], _where_ok(inputs, sweep)
    for x, inp, res in zip(grid, inputs, results):
        if isinstance(res, Exception):
            raise res
        rows.append(row(x, inp, res))
    degrees = Counter(res.degree for res in results)
    return rows, {
        "max_error_estimate": _fmt(max((res.error_estimate for res in results), default=0.0)),
        "continuation_degrees": ";".join(f"{d}:{degrees[d]}" for d in sorted(degrees, reverse=True)),
    }


def _integer_grid(text: str, name: str) -> list[int]:
    """The sweep grid of ``--name``, in integers of at least 1; truncation must not
    evaluate a point twice."""
    values = [int(v) for v in parse_grid(text, f"--{name}")]
    if min(values) < 1:
        raise ValueError(f"--{name} {text!r} holds {name} = {min(values)}; each must be >= 1")
    repeated = next((v for v, k in Counter(values).items() if k > 1), None)
    if repeated is not None:
        raise ValueError(f"grid {text!r} repeats {name} = {repeated} once truncated to "
                         "integers; give distinct integer points")
    return values


def _at_least(flag: str, value: int, least: int, what: str):
    """A ValueError naming ``flag`` if ``value`` is below ``least``, the bound ``what`` needs."""
    if value < least:
        raise ValueError(f"{flag} {value}: {what} needs {flag[2:]} >= {least}")


def _layout(args, l2: int | None = None) -> SubsystemLayout:
    """The layout of a lattice command, each site count refused by its flag;
    a sweep passes its ``l2``, checked by ``_integer_grid``, for ``--l2-sites``."""
    _at_least("--l1", args.l1, 1, "the probed subsystem")
    _at_least("--d-sites", args.d_sites, 0, "the gap")
    if l2 is None:
        _at_least("--l2-sites", args.l2_sites, 1, "the measured subsystem")
        l2 = args.l2_sites
    return SubsystemLayout(args.l1, args.d_sites, l2)


def _geometry(args, l2: float, n: int = 1) -> Geometry:
    a = args.L + args.d
    return Geometry(args.L, a, a + l2, args.eps, n)


def _quadrature(args):
    """The observable and quadrature settings of an operator command."""
    return parse_spec(args.spec), QuadratureConfig(eps_reg=args.eps_reg, tol=args.tol)


def _model_from_name(name: str) -> LatticeModel:
    if name in ("xx", "tight-binding", "tb"):
        return TIGHT_BINDING
    if name == "ising":
        return ISING
    kappa, sep, h = name.partition(":")
    try:
        couplings = float(kappa), float(h)
        if sep and np.isfinite(couplings).all():
            return LatticeModel(*couplings)
    except ValueError:
        pass
    raise ValueError(f"unknown model {name!r}: use xx (or tb, tight-binding), ising, "
                     "or kappa:h with two numbers, both finite, e.g. 0.7:0.3")


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


# ---------------------------------------------------------------------------
# the command table: flag groups, the registering decorator, row heads


def _flag(*names, **kw):
    """One ``add_argument`` call: its option strings and keywords."""
    return names, kw


_GEOMETRY = (_flag("--L", type=float, default=10.0, help="length of the probed interval A"),
             _flag("--d", type=float, default=10.0, help="gap between A and B"),
             _flag("--eps", type=float, default=0.5, help="UV cutoff"))
_SWEPT = _GEOMETRY + (_flag("--l2", default="100", help="measured-interval length or sweep grid"),)
_FIXED = _GEOMETRY + (_flag("--l2", type=float, default=100.0, help="measured-interval length"),)
_QUADRATURE = (_flag("--spec", default="scalar:0.25", help="observable, kind:weight"),
               _flag("--eps-reg", dest="eps_reg", type=float, default=1e-4),
               _flag("--tol", type=float, default=1e-9,
                     help="acceptance bound on the tensor rule's 32-vs-64-node difference"))
_N = _flag("--n", type=int, default=2)
_NMAX = _flag("--nmax", type=int, default=8)
_SITES = (_flag("--l1", type=int, default=10, help="probed sites"),
          _flag("--d-sites", "--gap", dest="d_sites", type=int, default=10,
                help="gap sites between A and B"))
_PRESET_CHAIN = (_flag("--model", default="xx", type=_model_arg(presets_only=True),
                       help="xx | ising (infinite-chain presets; ed-verify takes kappa:h)"),
                 *_SITES)

COMMANDS = {}  # name: (help, flags, parser defaults), in the order the parser lists them


def _command(name, summary, *flags, **defaults):
    """Register the decorated function as command ``name`` of ``COMMANDS``."""
    def register(func):
        COMMANDS[name] = summary, flags, dict(defaults, func=func)
        return func
    return register


# the leading columns of each route family's rows, and their values
_BOSON = ["route", "L", "d", "l2", "eps"]
_OPERATOR = ["route", "L", "d", "l2", "kind", "weight"]
_LATTICE = ["route", "model", "l1", "d", "l2"]


def _boson_row(args, l2, *values):
    return [ROUTE_BOSON, args.L, args.d, l2, args.eps, *values]


def _operator_row(args, l2, spec, *values):
    return [ROUTE_OPERATOR, args.L, args.d, l2, spec.kind, spec.weight, *values]


def _lattice_row(args, l2, *values):
    return [ROUTE_LATTICE, args.model, args.l1, args.d_sites, l2, *values]


# ---------------------------------------------------------------------------
# the commands: each returns (columns, rows, provenance entries)


@_command("boson-moments", "charged-moment ratio, closed form", *_SWEPT,
          _flag("--K", type=float, default=1.0),
          _flag("--gamma", default="0.3,0.7", help="one flux per replica"))
def _boson_moments(args):
    gammas = _fluxes(args.gamma, "--gamma")
    params = BosonParams(args.K)
    rows = []
    for l2 in parse_grid(args.l2, "--l2"):
        val = charged_moments_ratio(_geometry(args, l2, len(gammas)), params, gammas)
        rows.append(_boson_row(args, l2, args.K, ";".join(_fmt(x) for x in gammas), val))
    return [*_BOSON, "K", "gammas", "ratio"], rows, {}


@_command("boson-mie", "Renyi ratio and entropy correction", *_SWEPT, _N)
def _boson_mie(args):
    _at_least("--n", args.n, 2, "the entropy correction")
    rows = []
    for l2 in parse_grid(args.l2, "--l2"):
        g = _geometry(args, l2)
        ratio, corr = renyi_ratio_and_mie(g, args.n)
        base = renyi_entropy_base(g, args.n)
        rows.append(_boson_row(args, l2, args.n, ratio, corr, base, base + corr))
    return [*_BOSON, "n", "ratio", "correction", "base_entropy", "mie"], rows, {}


@_command("boson-holevo", "Holevo bound, continuation vs closed form", *_SWEPT, _NMAX)
def _boson_holevo(args):
    _at_least("--nmax", args.nmax, 6, "a degree-4 continuation with a leave-one-out error estimate")
    return [*_BOSON, "chi_numeric", "chi_approx"], *_batched_rows(
        parse_grid(args.l2, "--l2"), lambda l2: _geometry(args, l2),
        lambda gs: holevo_chi_sweep(gs, args.nmax),
        lambda l2, g, res: _boson_row(args, l2, res.value, holevo_chi_approx(g)))


@_command("boson-time", "time decay of the Holevo bound", *_FIXED,
          _flag("--t", default="1000:100000:9:log", help="time sweep"),
          _flag("--epsp", type=float, default=1e-3), _NMAX)
def _boson_time(args):
    _at_least("--nmax", args.nmax, 6, "a degree-4 continuation with a leave-one-out error estimate")
    return [*_BOSON, "t", "chi_time", "asymptote"], *_batched_rows(
        parse_grid(args.t, "--t"), lambda t: (_geometry(args, args.l2), TimeParams(t, args.epsp)),
        lambda pts: holevo_chi_time_sweep(pts, args.nmax),
        lambda t, pt, res: _boson_row(args, args.l2, t, res.value, chi_time_asymptote(pt[0], t)))


@_command("cn-table", "charge-width coefficient C_n vs n", *_FIXED, *_QUADRATURE,
          _flag("--n", default="1:10", help="replica range"))
def _cn_table(args):
    spec, cfg = _quadrature(args)
    ns = _integer_grid(args.n, "n")
    if len(ns) < 2:
        raise ValueError(f"grid {args.n!r} gives fewer than two n; the linear fit needs "
                         "at least two distinct integer points")
    oms = build_M_operators(_geometry(args, args.l2), spec, cfg, ns)
    cns = [om.cn() for om in oms]
    coef = np.polyfit(ns, cns, 1)
    resid = np.asarray(cns) - np.polyval(coef, ns)
    rows = [_operator_row(args, args.l2, spec, n, c, r) for n, c, r in zip(ns, cns, resid)]
    prov = {"linear_fit_slope": _fmt(float(coef[0])),
            "linear_fit_intercept": _fmt(float(coef[1])),
            "max_abs_residual": _fmt(float(np.abs(resid).max())),
            "max_error_estimate": _fmt(max(om.error_estimate for om in oms))}
    return [*_OPERATOR, "n", "cn", "lin_residual"], rows, prov


def _replica_matrix(args, n: int = 2):
    """The operator matrix of a fixed-l2 command at n replicas, and its provenance."""
    om = build_M_operator(_geometry(args, args.l2, n), *_quadrature(args))
    return om, {"max_error_estimate": _fmt(om.error_estimate)}


@_command("operator-m", "replica-matrix entries by quadrature", *_FIXED, *_QUADRATURE, _N)
def _operator_m(args):
    _at_least("--n", args.n, 1, "a replica matrix")
    om, prov = _replica_matrix(args, args.n)
    rows = [_operator_row(args, args.l2, om.spec, args.n, m, entry)
            for m, entry in enumerate(om.row())]
    return [*_OPERATOR, "n", "offset", "entry"], rows, prov


@_command("operator-mie", "entropy correction for a generic observable", *_SWEPT, *_QUADRATURE, _N)
def _operator_mie(args):
    _at_least("--n", args.n, 2, "the entropy correction")
    spec, cfg = _quadrature(args)
    rows, err = [], 0.0
    for l2 in parse_grid(args.l2, "--l2"):
        out = mie_general(build_M_operator(_geometry(args, l2, args.n), spec, cfg))
        err = max(err, out["error_estimate"])
        rows.append(_operator_row(args, l2, spec, args.n, out["base_entropy"],
                                  out["det_correction"], out["q_correction_gaussian"],
                                  out["q_correction_saddle"], out["total"]))
    cols = [*_OPERATOR, "n", "base_entropy", "det_correction", "q_corr_gaussian",
            "q_corr_saddle", "mie"]
    return cols, rows, {"max_error_estimate": _fmt(err)}


@_command("overlap", "two-flux overlap generating function", *_FIXED, *_QUADRATURE,
          _flag("--gamma1", default="0.5"), _flag("--gamma2", default="0.5"))
def _overlap(args):
    om, prov = _replica_matrix(args)
    gammas1, gammas2 = _fluxes(args.gamma1, "--gamma1"), _fluxes(args.gamma2, "--gamma2")
    outs = [(g1, g2, overlap_generating(om, g1, g2), uv_finite_overlap_ratio(om, g1, g2))
            for g1 in gammas1 for g2 in gammas2]
    rows = [_operator_row(args, args.l2, om.spec, g1, g2, gen["value"], uv["value"],
                          gen["log_value"], uv["log_value"]) for g1, g2, gen, uv in outs]
    return [*_OPERATOR, "gamma1", "gamma2", "generating", "uv_ratio", "log_generating",
            "log_uv_ratio"], rows, prov


@_command("averaged-purity", "flux-weighted averaged purity", *_FIXED, *_QUADRATURE,
          _flag("--gamma", default="0.5"))
def _averaged_purity(args):
    om, prov = _replica_matrix(args)
    rows = []
    for gam in _fluxes(args.gamma, "--gamma"):
        out = averaged_purity(om, gam)
        rows.append(_operator_row(args, args.l2, om.spec, gam, out["value"], out["normalized"],
                                  out["uv_finite"], out["log_value"], out["log_uv_finite"]))
    return [*_OPERATOR, "gamma", "value", "normalized", "uv_finite", "log_value",
            "log_uv_finite"], rows, prov


@_command("uv-check", "cutoff-halving stability of UV-finite ratios", *_FIXED, *_QUADRATURE,
          _flag("--gamma", type=float, default=0.5))
def _uv_check(args):
    (gamma,) = _fluxes(args.gamma, "--gamma")
    # one build serves both cutoffs: only the add-back m11 reads eps_reg
    om, prov = _replica_matrix(args)
    rows = []
    for eps in (args.eps_reg, args.eps_reg / 2.0):
        om_eps = dataclasses.replace(om, eps_reg=eps)
        ap = averaged_purity(om_eps, gamma)
        rows.append(_operator_row(args, args.l2, om.spec, gamma, eps,
                                  uv_finite_overlap_ratio(om_eps, gamma, gamma)["value"],
                                  overlap_generating(om_eps, gamma, gamma)["value"],
                                  ap["uv_finite"], ap["value"]))
    return [*_OPERATOR, "gamma", "eps_reg", "uv_ratio", "raw_generating", "purity_uv_finite",
            "purity_raw"], rows, prov


@_command("lattice-moments", "flux-dressed replica traces on the chain", *_PRESET_CHAIN,
          _flag("--gamma", default="0.3,0.7"),
          _flag("--l2", default="10:200:10:log", help="measured-sites sweep"),
          _flag("--compare", choices=("none", "cft"), default="none"))
def _lattice_moments(args):
    model = _model_from_name(args.model)
    gammas = _fluxes(args.gamma, "--gamma")
    l2s = _integer_grid(args.l2, "l2")
    layouts = [_layout(args, l2) for l2 in l2s]
    logs = [np.log(charged_moments_lattice(model, lay, gammas)) for lay in layouts]
    label = ";".join(_fmt(x) for x in gammas)
    rows = [_lattice_row(args, l2, label, lv.real, lv.imag) for l2, lv in zip(l2s, logs)]
    cols = [*_LATTICE, "gammas", "re_log", "im_log"]
    if args.compare == "cft":
        gam, a = np.asarray(gammas), float(args.l1 + args.d_sites)
        cft = [-(1.0 / (8.0 * np.pi**2)) * gam @ build_M_boson(
            Geometry(float(args.l1), a, a + l2, 1.0, len(gammas))).dense() @ gam for l2 in l2s]
        const = float(np.mean([lv.real - c for lv, c in zip(logs, cft)]))
        rows = [row + [c + const, const] for row, c in zip(rows, cft)]
        cols += ["cft_prediction", "fitted_constant"]
    return cols, rows, {}


@_command("lattice-overlap", "post-measurement overlap table", *_PRESET_CHAIN,
          _flag("--l2-sites", dest="l2_sites", type=int, default=6))
def _lattice_overlap(args):
    model = _model_from_name(args.model)
    lay = _layout(args)
    p, R, raw = charge_sector_table(model, lay)
    rows = [_lattice_row(args, args.l2_sites, q1, q2, p[q1], p[q2], R[q1, q2])
            for q1 in range(lay.ell2 + 1) for q2 in range(q1, lay.ell2 + 1)]
    return [*_LATTICE, "q1", "q2", "p_q1", "p_q2", "overlap"], rows, {}


# l1 = d_sites = 3: with the default --l2-sites, a layout that fills the default chain
@_command("ed-verify", "determinant route vs exact diagonalization",
          _flag("--model", default="xx", type=_model_arg(presets_only=False),
                help="xx | ising | kappa:h; a negative kappa needs the = form, "
                     "--model=-0.5:1"), *_SITES,
          _flag("--l2-sites", dest="l2_sites", type=int, default=2),
          _flag("--sites", type=int, default=8, help="total chain sites (<= 12)"),
          _flag("--n", type=int, default=3, help="largest replica number"), l1=3, d_sites=3)
def _ed_verify(args):
    _at_least("--n", args.n, 1, "a moment check")
    model = _model_from_name(args.model)
    lay = _layout(args)
    most = EDOracle.MAX_DIM.bit_length() - 1
    if not lay.window <= args.sites <= most:
        raise ValueError(f"--sites {args.sites}: the layout needs at least {lay.window} sites, "
                         f"the ED oracle holds at most {most}")
    rng = np.random.default_rng(args.seed)
    oracle = EDOracle(model, args.sites)
    corr = finite_chain_correlations(model, args.sites).restrict(lay.sites_A + lay.sites_B)
    head = [ROUTE_ED, args.model, args.sites, args.l1, args.d_sites, args.l2_sites]
    rows = []
    worst = 0.0
    for n in range(1, args.n + 1):
        gammas = sorted(rng.uniform(0.1, 3.0, size=n))
        det_v = charged_moments_lattice(corr, lay, gammas)
        ed_v = oracle.charged_moment(lay.sites_A, lay.sites_B, gammas)
        diff = abs(det_v - ed_v)
        worst = max(worst, diff)
        rows.append([*head, "moment", ";".join(_fmt(g) for g in gammas),
                     det_v.real, det_v.imag, ed_v.real, ed_v.imag, diff])
    p, _, raw = charge_sector_table(corr, lay)
    pe, _, rawe = oracle.sector_overlaps(lay.sites_A, lay.sites_B)
    pdiff = float(np.abs(p - pe).max())
    rdiff = float(np.abs(raw - rawe).max())
    worst = max(worst, pdiff, rdiff)
    rows += [[*head, "charge_probabilities", "", float(p.sum()), 0.0, float(pe.sum()), 0.0, pdiff],
             [*head, "sector_overlaps", "", float(raw.max()), 0.0, float(rawe.max()), 0.0, rdiff]]
    cols = ["route", "model", "sites", "l1", "d", "l2", "quantity", "gammas",
            "det_re", "det_im", "ed_re", "ed_im", "abs_diff"]
    prov = {"max_abs_diff": _fmt(worst), "tolerance": "1e-08",
            "verdict": "pass" if worst < 1e-8 else "FAIL",
            "ed_gap": _fmt(oracle.gap), "ed_residual": _fmt(oracle.residual)}
    return cols, rows, prov


# ---------------------------------------------------------------------------
# argument plumbing


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
    """A new ``(parser, subparsers)`` pair, one subparser per ``COMMANDS`` entry;
    ``subparsers`` maps command names to parsers."""
    ap = argparse.ArgumentParser(
        prog="opens",
        description="entanglement diagnostics of observable-projected ensembles",
        parents=[_top_level_parser()],
    )
    sub = ap.add_subparsers(dest="command")
    subparsers = {}
    for name, (summary, flags, defaults) in COMMANDS.items():
        p = subparsers[name] = sub.add_parser(name, help=summary)
        for names, kw in flags:
            p.add_argument(*names, **kw)
        p.set_defaults(**defaults)
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
    the first token left over, or else the file's ``command``. A file that
    cannot be read or parsed, and an entry that neither parser has an option
    for, are usage errors.
    """
    try:
        config = _load_config(path)
    except (OSError, ValueError) as exc:
        ap.error(f"config file {path}: {exc}")
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
    provenance = {k: v for k, v in sorted(vars(args).items())
                  if k not in ("func", "config", "output", "format") and not callable(v)}
    shown = {}  # each distinct warning the command showed, passed on to the handler that shows it

    def record(message, category, *rest, show=warnings.showwarning):
        shown[f"{category.__name__}: {message}"] = None
        show(message, category, *rest)

    with warnings.catch_warnings():  # the filters and handler are restored on exit
        warnings.showwarning = record
        try:
            cols, rows, prov_extra = args.func(args)
        except Exception as exc:  # numerical failure: diagnostic record, nonzero exit
            cols, rows = ["error"], [[f"{type(exc).__name__}: {exc}"]]
            prov_extra = {"status": "error"}
    if shown:
        provenance["warnings"] = " | ".join(shown)
    provenance.update(prov_extra)
    write_output(args.output, cols, rows, provenance, args.format)
    return 1 if "status" in prov_extra or prov_extra.get("verdict") == "FAIL" else 0


if __name__ == "__main__":
    sys.exit(main())
