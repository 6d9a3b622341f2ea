"""The two workloads: generated argv, warm-ups, domain probes and output checks.

Each sweep command carries a check that maps its output table to one
verdict per row (``None`` when the row passes). Checks reuse the
acceptance suite's cross-route references, so a wrong number becomes a
failed point instead of a fast run. ``account`` turns one command's
serial output into attempted and failed points. ``mismatches`` compares
a second execution (``--jobs 2``, or the traced rerun) with it byte for
byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# ---------------------------------------------------------------------------
# output tables


@dataclass
class Table:
    header: dict
    columns: list
    lines: list  # data lines exactly as printed, compared byte for byte
    error: str | None = None

    @property
    def rows(self):
        return [line.split(",") for line in self.lines]

    def col(self, name: str) -> list[float]:
        k = self.columns.index(name)
        return [_num(r[k]) if k < len(r) else math.nan for r in self.rows]


def _num(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def parse(text: str) -> Table:
    header, body = {}, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, sep, val = line[1:].partition("=")
            if sep:
                header[key.strip()] = val.strip()
        elif line:
            body.append(line)
    if not body:
        return Table(header, [], [], error="no output")
    columns, lines = body[0].split(","), body[1:]
    if columns == ["error"]:
        return Table(header, columns, [], error=lines[0] if lines else "error")
    return Table(header, columns, lines)


@dataclass(frozen=True)
class Execution:
    rc: int
    text: str
    wall: float
    prec_leak: bool = False  # the call left mpmath's global precision changed


# ---------------------------------------------------------------------------
# checks


Check = Callable[[Table], list]


def rowwise(fn) -> Check:
    """Check built from ``fn(table, i) -> reason | None`` for every row."""
    return lambda t: [fn(t, i) for i in range(len(t.lines))]


def tablewise(fn) -> Check:
    """Check built from ``fn(table) -> reason | None``; a reason fails every row."""
    def check(t):
        reason = fn(t)
        return [reason] * len(t.lines)
    return check


def combine(*checks: Check) -> Check:
    def check(t):
        out = [None] * len(t.lines)
        for c in checks:
            for i, reason in enumerate(c(t)):
                out[i] = out[i] or reason
        return out
    return check


def finite(*cols, positive=False) -> Check:
    def fn(t, i):
        for c in cols:
            v = t.col(c)[i]
            if not math.isfinite(v) or (positive and v <= 0.0):
                return f"{c} = {v!r} is not a finite{' positive' if positive else ''} number"
        return None
    return rowwise(fn)


def holevo_panel(far: bool) -> Check:
    """Criterion 4: an interior peak; on the far panel chi within 5% of the closed form."""
    def shape(t):
        chi = t.col("chi_numeric")
        peak = int(np.nanargmax(chi)) if not all(map(math.isnan, chi)) else -1
        if not (0 < peak < len(chi) - 1):
            return f"Holevo bound has no interior peak (argmax at {peak})"
        return None

    def approx(t, i):
        if not far or t.col("l2")[i] < 1e3:
            return None
        rel = abs(t.col("chi_numeric")[i] / t.col("chi_approx")[i] - 1.0)
        return None if rel < 0.05 else f"chi vs closed form off by {rel:.3%} (>= 5%)"

    return combine(finite("chi_numeric", "chi_approx"), tablewise(shape), rowwise(approx))


def _finite(*columns):
    """Columns as arrays, keeping only the rows where every value is finite.

    Fits then run on the rows that have a number; a row without one fails
    through its own row check, not the whole table."""
    arr = np.array(columns, dtype=float)
    return arr[:, np.all(np.isfinite(arr), axis=0)]


def _slope(t) -> str | None:
    """Criterion 5: log-log slope of the late-time decay is -4 +/- 0.05."""
    ts, chi = _finite(t.col("t"), t.col("chi_time"))
    if np.any(chi <= 0):
        return "non-positive chi_time"
    slope = np.polyfit(np.log(ts), np.log(chi), 1)[0]
    return None if abs(slope + 4.0) < 0.05 else f"log-log slope {slope:.4f} not -4 +/- 0.05"


def _increasing(t) -> str | None:
    (cn,) = _finite(t.col("cn"))
    return None if np.all(np.diff(cn) > 0) else "C_n not increasing in n"


def _nonlinearity(t) -> str | None:
    """Criterion 7: the scalar C_n deviates from a line by 5e-3 .. 8e-2."""
    resid = float(np.abs(_finite(t.col("lin_residual"))).max())
    return None if 5e-3 < resid < 8e-2 else f"max linear residual {resid:.3e} outside (5e-3, 8e-2)"


def _vector_vs_boson(t, i) -> str | None:
    """vector:0 is the conserved current: C_n matches the boson route to 1e-4."""
    from opens.cft_boson import build_M_boson
    from opens.core import Geometry, quadratic_form_cn

    L, d, l2 = (t.col(c)[i] for c in ("L", "d", "l2"))
    n = int(t.col("n")[i])
    eps = float(t.header["eps_reg"]) / 2.0
    ref = quadratic_form_cn(build_M_boson(Geometry(L, L + d, L + d + l2, eps, n)).dense())
    rel = abs(t.col("cn")[i] / ref - 1.0)
    return None if rel < 1e-4 else f"C_{n} differs from the boson route by {rel:.2e}"


def _mie_parts(t, i) -> str | None:
    base, det, qg, total = (t.col(c)[i] for c in
                            ("base_entropy", "det_correction", "q_corr_gaussian", "mie"))
    if abs(base + det + qg - total) > 1e-9 * max(1.0, abs(total)):
        return "mie is not base + det_correction + q_corr_gaussian"
    return None if total <= base else "entropy correction is positive"


def _uv_stable(t) -> str | None:
    """Criterion 11: UV-finite ratios move < 1% when eps halves, raw logs > 10%."""
    if len(t.lines) != 2:
        return "uv-check needs both cutoffs"
    ratio, pur, raw = t.col("uv_ratio"), t.col("purity_uv_finite"), t.col("raw_generating")
    ch_ratio = abs(ratio[1] / ratio[0] - 1.0)
    ch_pur = abs(pur[1] / pur[0] - 1.0)
    if not (ch_ratio < 0.01 and ch_pur < 0.01):
        return f"UV-finite ratios moved {ch_ratio:.2e} / {ch_pur:.2e} (>= 1%)"
    if min(raw) <= 0.0:
        return "raw generating function underflowed"
    ch_raw = abs(math.log(raw[1]) - math.log(raw[0])) / abs(math.log(raw[0]))
    return None if ch_raw > 0.10 else f"raw generating log moved only {ch_raw:.2%}"


def _xx_vs_cft(t) -> str | None:
    """Criterion 9: tight-binding moments follow the boson formula, RMS < 0.02."""
    resid = np.diff(_finite(t.col("cft_prediction"), t.col("re_log")), axis=0)
    rms = float(np.sqrt(np.mean(resid**2)))
    return None if rms < 0.02 else f"RMS residual vs CFT {rms:.4f} (>= 0.02)"


def _ising_log_coefficient(gammas) -> Check:
    """Criterion 10: Ising log(l2) coefficient within 5% of the rescaled-flux prediction."""
    def fn(t):
        from opens.lattice import ising_log_coefficient_prediction

        l2, y = _finite(t.col("l2"), t.col("re_log"))
        X = np.vstack([l2, np.log(l2), np.ones_like(l2)]).T
        coef, *_ = np.linalg.lstsq(X, y, rcond=None)
        rel = abs(coef[1] / ising_log_coefficient_prediction(gammas) - 1.0)
        return None if rel < 0.05 else f"log coefficient off by {rel:.2%} (>= 5%)"
    return tablewise(fn)


def _sector_table(t) -> str | None:
    """p is a distribution and every (q1 <= q2) pair appears once with matching p."""
    q1, q2 = t.col("q1"), t.col("q2")
    p = {int(a): v for a, b, v in zip(q1, q2, t.col("p_q1")) if a == b}
    pairs = {(int(a), int(b)) for a, b in zip(q1, q2)}
    nq = len(p)
    if pairs != {(a, b) for a in range(nq) for b in range(a, nq)}:
        return "sector table does not hold every pair once"
    if any(v < -1e-12 for v in p.values()) or abs(sum(p.values()) - 1.0) > 1e-9:
        return f"p is not a distribution (sum {sum(p.values())!r})"
    for a, b, pa, pb in zip(q1, q2, t.col("p_q1"), t.col("p_q2")):
        if pa != p[int(a)] or pb != p[int(b)]:
            return f"p columns of pair ({int(a)}, {int(b)}) disagree with the diagonal"
    return None


def _ed_agrees(t, i) -> str | None:
    diff = t.col("abs_diff")[i]
    return None if diff < 1e-8 else f"determinant vs ED differ by {diff:.2e} (>= 1e-8)"


def _ed_verdict(t) -> str | None:
    ok = t.header.get("verdict") == "pass" and _num(t.header.get("max_abs_diff", "nan")) < 1e-8
    return None if ok else f"ed-verify verdict {t.header.get('verdict')!r}"


def _entries_finite(t, i) -> str | None:
    return None if math.isfinite(t.col("entry")[i]) else "non-finite matrix entry"


# ---------------------------------------------------------------------------
# commands and accounting


@dataclass(frozen=True)
class Command:
    argv: tuple
    points: int
    check: Check
    one_point: bool = False  # the whole table is one point (domain probes)
    jobs: bool = False  # the command maps its points over --jobs threads


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # printed rows that miss their reference check
    reasons: list = field(default_factory=list)
    compared: int = 0  # points compared with a second execution
    mismatched: int = 0  # of those, points whose second row is not the first one
    mismatch_reasons: list = field(default_factory=list)

    def add(self, other: "Outcome"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.reasons += other.reasons
        self.compared += other.compared
        self.mismatched += other.mismatched
        self.mismatch_reasons += other.mismatch_reasons


def account(cmd: Command, ex: Execution) -> Outcome:
    """Attempted and failed points of one command's execution.

    A point fails if the command errors, its row is missing, or its value
    misses the reference check.
    """
    why = [None] * cmd.points
    wrong = 0
    t = parse(ex.text)
    if t.error:
        why = [f"error: {t.error}"] * cmd.points
    else:
        verdicts = cmd.check(t)
        for i in range(cmd.points):
            if i >= len(t.lines):
                why[i] = "row missing"
            elif verdicts[i]:
                why[i] = verdicts[i]
                wrong += 1
    failed = [w for w in why if w]
    if cmd.one_point:
        return Outcome(1, int(bool(failed)), int(bool(wrong)),
                       [f"{' '.join(cmd.argv)}: {failed[0]}"] if failed else [])
    return Outcome(cmd.points, len(failed), wrong,
                   [f"{' '.join(cmd.argv)}: {w}" for w in dict.fromkeys(failed)])


def mismatches(cmd: Command, first: Execution, second: Execution,
               label: str = "--jobs 2") -> Outcome:
    """Points whose row in a second execution is not byte for byte the first one's.

    The second execution is the ``--jobs 2`` run, or the traced rerun. An
    error or a missing row there counts too. These points are kept apart
    from the failed ones because how many rows differ changes from one
    execution to the next: the ``--jobs 2`` threads race on mpmath's
    process-global precision, and ``ed-verify`` starts ARPACK from a random
    vector. Failed points depend only on the inputs.
    """
    t1, t2 = parse(first.text), parse(second.text)
    if t1.error:
        return Outcome()
    if t2.error:
        bad = len(t1.lines)
        why = [f"{label} error: {t2.error}"]
    else:
        bad = sum(i >= len(t2.lines) or t2.lines[i] != line for i, line in enumerate(t1.lines))
        why = [f"{label} row differs from the first row"] if bad else []
    return Outcome(compared=len(t1.lines), mismatched=bad,
                   mismatch_reasons=[f"{' '.join(cmd.argv)}: {w}" for w in why])


# ---------------------------------------------------------------------------
# workloads


def _f(x: float) -> str:
    return repr(float(x))


def _jitter(seed: int, rep: int) -> float:
    """Relative grid jitter below 1e-6: inputs differ per seed and repetition
    while the amount of work stays the same."""
    return float(np.random.default_rng([seed, rep]).uniform(0.0, 1e-6))


BOSON_TIME_POINTS = 20


def boson_commands(seed: int, rep: int) -> list[Command]:
    j = 1.0 + _jitter(seed, rep)
    cmds = []
    for L, d in ((10.0, 10.0), (10.0, 100.0), (100.0, 500.0)):
        argv = ("boson-holevo", "--L", _f(L), "--d", _f(d), "--eps", "0.5",
                "--l2", f"{_f(10 * j)}:{_f(1e5 * j)}:25:log", "--nmax", "8")
        cmds.append(Command(argv, 25, holevo_panel(far=(L, d) == (100.0, 500.0)), jobs=True))
    for L, d, l2 in ((10.0, 5.0, 10.0), (10.0, 10.0, 100.0), (1.0, 1.0, 2.0)):
        argv = ("boson-time", "--L", _f(L), "--d", _f(d), "--l2", _f(l2),
                "--t", f"{_f(1e3 * j)}:{_f(1e6 * j)}:{BOSON_TIME_POINTS}:log")
        cmds.append(Command(argv, BOSON_TIME_POINTS,
                            combine(finite("chi_time", "asymptote", positive=True),
                                    tablewise(_slope)), jobs=True))
    return cmds


_CN = ("cn-table", "--L", "1", "--d", "1", "--l2", "2")


def operator_commands(seed: int, rep: int) -> list[Command]:
    positive_rising = combine(finite("cn", positive=True), tablewise(_increasing))
    return [
        Command(_CN + ("--spec", "scalar:0.25", "--n", "1:10"), 10,
                combine(positive_rising, tablewise(_nonlinearity)), jobs=True),
        Command(_CN + ("--spec", "scalar:0.75", "--n", "1:10"), 10, positive_rising, jobs=True),
        Command(_CN + ("--spec", "vector:0", "--n", "1:10"), 10,
                combine(positive_rising, rowwise(_vector_vs_boson)), jobs=True),
        Command(("cn-table", "--L", "1", "--d", "0.01", "--l2", "2",
                 "--spec", "scalar:0.25", "--n", "2:4"), 3, positive_rising, jobs=True),
        Command(("operator-mie", "--L", "1", "--d", "1", "--l2", "2:20:8:log",
                 "--spec", "scalar:0.25", "--n", "2"), 8,
                combine(finite("base_entropy", "det_correction", "q_corr_gaussian", "mie"),
                        rowwise(_mie_parts))),
        Command(("uv-check", "--L", "2", "--d", "2", "--l2", "5", "--spec", "scalar:0.75",
                 "--gamma", "0.3", "--eps-reg", "1e-3"), 2,
                combine(finite("uv_ratio", "purity_uv_finite"), tablewise(_uv_stable))),
    ]


def continuum_sweeps(seed: int, rep: int) -> list[Command]:
    return boson_commands(seed, rep) + operator_commands(seed, rep)


# known defect: the diagonal-remainder quadrature does not converge here
_PROBE_SPECS = (
    ("--spec", "scalar:1.25"),
    ("--spec", "scalar:1.45"),
    ("--spec", "vector:0.1"),
    ("--spec", "vector:0.25", "--tol", "1e-6"),
    ("--spec", "scalar:0.75", "--d", "0.01"),
)


def operator_probes() -> list[Command]:
    base = ("operator-m", "--L", "1", "--d", "1", "--l2", "2", "--n", "2")
    return [Command(base + extra, 2, rowwise(_entries_finite), one_point=True)
            for extra in _PROBE_SPECS]


_XX_L2 = "10:200:10:log"  # the README sweep
_ISING_L2 = "20,40,80,140"


def lattice_commands(seed: int, rep: int) -> list[Command]:
    cmds = [
        Command(("lattice-moments", "--model", "xx", "--l1", "10", "--d-sites", "10",
                 "--gamma", "0.3,0.7", "--l2", _XX_L2, "--compare", "cft"), 10,
                combine(finite("re_log", "cft_prediction"), tablewise(_xx_vs_cft)), jobs=True),
        Command(("lattice-moments", "--model", "ising", "--l1", "10", "--d-sites", "10",
                 "--gamma", "0.5,0.5", "--l2", _ISING_L2), len(_ISING_L2.split(",")),
                combine(finite("re_log"), _ising_log_coefficient([0.5, 0.5])), jobs=True),
    ]
    for model in ("xx", "ising"):
        cmds.append(Command(("lattice-overlap", "--model", model, "--l1", "10",
                             "--d-sites", "10", "--l2-sites", "10"), 11 * 12 // 2,
                            combine(finite("p_q1", "p_q2", "overlap"), tablewise(_sector_table))))
    return cmds


# (sites, l1, d, l2): the criterion-8 spot checks
_ED_LAYOUTS = ((10, 3, 2, 4), (12, 3, 3, 5), (12, 4, 0, 7), (12, 2, 6, 3))
_ED_N = 4


def ed_commands(seed: int, rep: int) -> list[Command]:
    rng = np.random.default_rng([seed, rep])
    cmds = []
    for model in ("xx", "ising"):
        for sites, l1, d, l2 in _ED_LAYOUTS:
            argv = ("--seed", str(int(rng.integers(2**31))), "ed-verify", "--model", model,
                    "--sites", str(sites), "--l1", str(l1), "--d-sites", str(d),
                    "--l2-sites", str(l2), "--n", str(_ED_N))
            cmds.append(Command(argv, _ED_N + 2,
                                combine(rowwise(_ed_agrees), tablewise(_ed_verdict))))
    return cmds


def lattice_sweeps(seed: int, rep: int) -> list[Command]:
    return lattice_commands(seed, rep) + ed_commands(seed, rep)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sweep: Callable[[int, int], list]
    warmups: tuple
    rep_seconds: float  # wall time of one repetition on the reference host
    probes: Callable[[], list] = list


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "continuum_sweeps",
            "boson Holevo and t^-4 sweeps (AAA continuation, mpmath tail) and operator "
            "C_n/Mie/UV sweeps (nested quadrature), plus failing domain probes",
            continuum_sweeps,
            (("boson-holevo", "--l2", "100"), ("boson-time", "--t", "1000"),
             _CN + ("--n", "1:2"),
             ("operator-mie", "--L", "1", "--d", "1", "--l2", "2"),
             ("uv-check", "--L", "1", "--d", "1", "--l2", "2"),
             ("operator-m", "--L", "1", "--d", "1", "--l2", "2")),
            13.0,
            operator_probes,
        ),
        Workload(
            "lattice_sweeps",
            "README lattice sweeps on windows up to 420 modes (LAPACK-bound) and ED "
            "cross-checks on 10-12 site chains (tiny determinants, the ED oracle)",
            lattice_sweeps,
            (("lattice-moments", "--l1", "2", "--d-sites", "2", "--l2", "4"),
             ("lattice-overlap", "--l1", "2", "--d-sites", "2", "--l2-sites", "2"),
             ("ed-verify", "--l1", "2", "--d-sites", "2", "--l2-sites", "2", "--n", "2")),
            21.0,
        ),
    )
}
