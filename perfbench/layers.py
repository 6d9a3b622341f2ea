"""Where the traced run wraps ``opens``, and the per-layer metrics it derives.

Each entry names a span ``<layer>.<function>`` and every place a caller
looks the function up: the CLI's imported name, the defining module's
global (for calls inside the module) or a class attribute (for methods).
Layers are named after the package modules.
"""

from __future__ import annotations

import importlib
import types

from tracer import WRAPPED, Tracer, summarize

SPANS = {
    "cli.main": ["opens.cli:main"],
    # boson closed forms and the mpmath tail
    "cft_boson.holevo_chi": ["opens.cli:holevo_chi"],
    "cft_boson.holevo_chi_approx": ["opens.cli:holevo_chi_approx"],
    "cft_boson.holevo_chi_time": ["opens.cli:holevo_chi_time"],
    "cft_boson.chi_time_asymptote": ["opens.cli:chi_time_asymptote"],
    "cft_boson.chi_samples": ["opens.cft_boson:chi_samples"],
    "cft_boson.time_correction_samples": ["opens.cft_boson:time_correction_samples"],
    "cft_boson.build_M_boson": ["opens.cft_boson:build_M_boson", "opens.cli:build_M_boson"],
    "core.quadratic_form_cn": ["opens.cft_boson:quadratic_form_cn",
                               "opens.cft_operator:quadratic_form_cn"],
    # rational continuation
    "continuation.continue_to_one": ["opens.cft_boson:continue_to_one"],
    "continuation.AAA": ["opens.continuation:AAA"],
    # operator quadrature
    "cft_operator.build_M_operator": ["opens.cli:build_M_operator",
                                      "opens.cft_operator:build_M_operator"],
    "cft_operator.single_copy_m11_operator": ["opens.cli:single_copy_m11_operator",
                                              "opens.cft_operator:single_copy_m11_operator"],
    "cft_operator.mie_general": ["opens.cli:mie_general"],
    "cft_operator.overlap_generating": ["opens.cli:overlap_generating"],
    "cft_operator.uv_finite_overlap_ratio": ["opens.cli:uv_finite_overlap_ratio"],
    "cft_operator.averaged_purity": ["opens.cli:averaged_purity"],
    "cft_operator.matrix_entry_offdiag": ["opens.cft_operator:matrix_entry_offdiag"],
    "cft_operator.matrix_entry_remainder": ["opens.cft_operator:matrix_entry_remainder"],
    "cft_operator.flat_integral_exact": ["opens.cft_operator:flat_integral_exact"],
    # free-fermion lattice
    "lattice.correlations": ["opens.cli:finite_chain_correlations",
                             "opens.lattice:finite_chain_correlations",
                             "opens.lattice:ground_state_correlations"],
    "lattice.charged_moments_lattice": ["opens.cli:charged_moments_lattice"],
    "lattice.charge_sector_table": ["opens.cli:charge_sector_table"],
    "lattice.log_flux_trace": ["opens.lattice:GaussianWindow.log_flux_trace"],
    "lattice.log_replica_product": ["opens.lattice:GaussianWindow.log_replica_product"],
    # exact-diagonalization oracle
    "lattice.EDOracle.init": ["opens.lattice:EDOracle.__init__"],
    "lattice.EDOracle.charged_moment": ["opens.lattice:EDOracle.charged_moment"],
    "lattice.EDOracle.sector_overlaps": ["opens.lattice:EDOracle.sector_overlaps"],
}

# span name -> (calls metric, self-time metric) for the AAA fits, which are
# reported as fit count and fit time
RENAMED = {"continuation.AAA": ("continuation.aaa_fits", "continuation.aaa_s")}

COUNTERS = {
    "continuation.degree_fallbacks": "count",
    "cft_operator.quad_calls": "count",
    "cft_operator.integrand_evals": "count",
    "cft_operator.quadrature_errors": "count",
    "lattice.det_evals": "count",
    "lattice.det_flops_computed": "flop",
}

DERIVED = {
    "lattice.det_evals_per_call": "count",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


def _resolve(target: str):
    """'pkg.mod:Cls.attr' -> (owner object, attribute name)."""
    modname, _, path = target.partition(":")
    owner = importlib.import_module(modname)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


def targets():
    for name, places in SPANS.items():
        for place in places:
            yield name, _resolve(place)


def is_wrapped(owner, attr: str) -> bool:
    return hasattr(getattr(owner, attr), WRAPPED)


def _module_copy(module, **overrides):
    """A private module object sharing ``module``'s namespace but for overrides."""
    copy = types.ModuleType(module.__name__)
    copy.__dict__.update(module.__dict__)
    copy.__dict__.update(overrides)
    return copy


def install(tracer: Tracer):
    """Install every span wrapper and counter; ``tracer.uninstall`` undoes it."""
    import opens.cft_operator
    import opens.lattice
    from opens.errors import ContinuationError, QuadratureError

    for name, (owner, attr) in targets():
        tracer.patch(owner, attr, tracer.wrap(name, getattr(owner, attr)))
    tracer.count_errors(ContinuationError, "continuation.degree_fallbacks")
    tracer.count_errors(QuadratureError, "cft_operator.quadrature_errors")

    # quad's own full output carries neval, so counting adds one Python
    # call per quad call rather than one per integrand evaluation
    integrate = opens.cft_operator.integrate
    real_quad = integrate.quad

    def quad(func, a, b, *args, full_output=0, **kwargs):
        if full_output:
            return real_quad(func, a, b, *args, full_output=full_output, **kwargs)
        out = real_quad(func, a, b, *args, full_output=1, **kwargs)
        tracer.counts["cft_operator.quad_calls"] += 1
        tracer.counts["cft_operator.integrand_evals"] += out[2]["neval"]
        return out[0], out[1]

    tracer.patch(opens.cft_operator, "integrate", _module_copy(integrate, quad=quad))

    # determinant evaluations on the lattice, with LU flops computed from
    # the matrix sizes: (2/3) k^3 real, four times that for complex input
    np = opens.lattice.np
    real_slogdet = np.linalg.slogdet

    def slogdet(a):
        k = len(a)
        tracer.counts["lattice.det_evals"] += 1
        tracer.counts["lattice.det_flops_computed"] += (4 if np.iscomplexobj(a) else 1) * 2 * k**3 // 3
        return real_slogdet(a)

    linalg = _module_copy(np.linalg, slogdet=slogdet)
    tracer.patch(opens.lattice, "np", _module_copy(np, linalg=linalg))


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (every name, zeros included)."""
    summary = summarize(spans)
    out = {}
    for name in SPANS:
        calls, self_s = summary.get(name, (0, 0.0))
        calls_key, self_key = RENAMED.get(name, (f"{name}.calls", f"{name}.self_s"))
        out[calls_key] = calls
        out[self_key] = self_s
    for name in COUNTERS:
        out[name] = counts.get(name, 0)
    traces = out["lattice.log_flux_trace.calls"] + out["lattice.log_replica_product.calls"]
    out["lattice.det_evals_per_call"] = out["lattice.det_evals"] / traces if traces else 0.0
    return out


def metric_units() -> dict[str, str]:
    """Unit of every per-layer metric, in the order they are reported."""
    units = {}
    for name in SPANS:
        calls_key, self_key = RENAMED.get(name, (f"{name}.calls", f"{name}.self_s"))
        units[calls_key] = "count"
        units[self_key] = "s"
    units.update(COUNTERS)
    units.update(DERIVED)
    return units
