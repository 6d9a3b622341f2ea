"""Rewrite the golden CLI outputs after an intended change to their numbers.

    PYTHONPATH=src python tests/golden/regen.py

Each file in ``FILES`` holds the CSV of every command listed for it, each
block opened by a ``## opens <argv>`` line: ``boson_sweeps.csv`` the
closed-form and continuation sweeps, ``lattice_sweeps.csv`` the
free-fermion sweeps, ``operator_sweeps.csv`` the operator-quadrature
commands, ``ed_verify.csv`` the determinant-vs-ED spot checks. Every
command has a block but ``lattice-overlap``, whose noise sectors print
digits that are not stable. ``tests/test_golden.py`` reruns them
in-process and compares each with ``compare``; ``replay`` does the same
for every command at once, which needs nothing beyond the runtime
dependencies. Running this script rewrites only the blocks that
``compare`` reports, and in those keeps the golden text of every field
that agrees by its rule in ``RULES`` but the differences, so the Lanczos
last bits that ``RULES`` forgives stay as they are. A change that rewrites
a file lists in its change notes every row that moved and by how much.
"""

from __future__ import annotations

import difflib
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path


def _holevo(L, d, l2="10.0:100000.0:25:log"):
    return ("boson-holevo", "--L", L, "--d", d, "--eps", "0.5", "--l2", l2, "--nmax", "8")


def _time(L, d, l2):
    return ("boson-time", "--L", L, "--d", d, "--l2", l2, "--t", "1000.0:1000000.0:20:log")


# the README boson-holevo sweep, the benchmark's continuum panels on their
# unjittered grids, and one closed-form moment and entropy-correction sweep
BOSON = (
    _holevo("10", "10", "10:100000:25:log"),
    _holevo("10.0", "10.0"),
    _holevo("10.0", "100.0"),
    _holevo("100.0", "500.0"),
    _time("10.0", "5.0", "10.0"),
    _time("10.0", "10.0", "100.0"),
    _time("1.0", "1.0", "2.0"),
    ("boson-moments", "--L", "10", "--d", "10", "--eps", "0.5", "--l2", "10:1000:4:log",
     "--K", "1.5", "--gamma", "0.3,0.7"),
    ("boson-mie", "--L", "5", "--d", "7", "--eps", "0.3", "--l2", "10:1000:4:log", "--n", "3"),
)

# the benchmark's two lattice-moments sweeps, the xx one as in the README;
# lattice-overlap stays out: sectors with p_q near 1e-16 print Fourier noise
# whose digits are not stable
LATTICE = (
    ("lattice-moments", "--model", "xx", "--l1", "10", "--d-sites", "10",
     "--gamma", "0.3,0.7", "--l2", "10:200:10:log", "--compare", "cft"),
    ("lattice-moments", "--model", "ising", "--l1", "10", "--d-sites", "10",
     "--gamma", "0.5,0.5", "--l2", "20,40,80,140"),
)

_CN = ("cn-table", "--L", "1", "--d", "1", "--l2", "2")

# the benchmark's operator commands, which it runs unjittered, one overlap
# grid, one replica matrix and one averaged-purity flux grid
OPERATOR = (
    _CN + ("--spec", "scalar:0.25", "--n", "1:10"),
    _CN + ("--spec", "scalar:0.75", "--n", "1:10"),
    _CN + ("--spec", "vector:0", "--n", "1:10"),
    ("cn-table", "--L", "1", "--d", "0.01", "--l2", "2", "--spec", "scalar:0.25", "--n", "2:4"),
    ("operator-mie", "--L", "1", "--d", "1", "--l2", "2:20:8:log", "--spec", "scalar:0.25",
     "--n", "2"),
    ("uv-check", "--L", "2", "--d", "2", "--l2", "5", "--spec", "scalar:0.75", "--gamma", "0.3",
     "--eps-reg", "1e-3"),
    ("overlap", "--gamma1", "0.1,0.5", "--gamma2", "0.2,0.4"),
    ("operator-m", "--L", "1", "--d", "1", "--l2", "2", "--spec", "scalar:0.25", "--n", "4"),
    ("averaged-purity", "--L", "1", "--d", "1", "--l2", "2", "--spec", "scalar:0.75",
     "--gamma", "0.1,0.5,1.5"),
)


def _ed(model, sites, l1, d, l2):
    return ("ed-verify", "--model", model, "--sites", sites, "--l1", l1, "--d-sites", d,
            "--l2-sites", l2, "--n", "4")


# the benchmark's ED spot checks, the criterion-8 layouts (sites, l1, d, l2)
# on both presets, the generic chain that CI runs, and each preset at the
# command's defaults, whose window holds exactly pure modes; all at the
# default seed
ED = tuple(_ed(model, *layout) for model in ("xx", "ising")
           for layout in (("10", "3", "2", "4"), ("12", "3", "3", "5"), ("12", "4", "0", "7"),
                          ("12", "2", "6", "3"))) + (_ed("0.7:0.3", "12", "3", "3", "5"),) + tuple(
    ("ed-verify", "--model", model) for model in ("xx", "ising"))

FILES = {
    Path(__file__).with_name("boson_sweeps.csv"): BOSON,
    Path(__file__).with_name("lattice_sweeps.csv"): LATTICE,
    Path(__file__).with_name("operator_sweeps.csv"): OPERATOR,
    Path(__file__).with_name("ed_verify.csv"): ED,
}
COMMANDS = BOSON + LATTICE + OPERATOR + ED

# ed-verify's ED side comes from Lanczos, whose last bits can move on another
# BLAS; its determinant side and its verdict cannot. So these fields agree by
# a rule, given (golden, rerun, largest |ED column| of the row, the output's
# `tolerance`): the ED columns to ED_RTOL of that magnitude, the gap (an
# energy difference) to ED_RTOL absolute, the differences and the oracle's
# residual only by lying below their bounds
ED_RTOL = 1e-11
RESIDUAL_BOUND = 1e-10
_ED_COLUMN = lambda w, g, scale, tol: abs(g - w) <= ED_RTOL * scale
_BELOW_TOLERANCE = lambda w, g, scale, tol: g < tol
RULES = {
    "ed_re": _ED_COLUMN,
    "ed_im": _ED_COLUMN,
    "abs_diff": _BELOW_TOLERANCE,
    "max_abs_diff": _BELOW_TOLERANCE,
    "ed_gap": lambda w, g, scale, tol: abs(g - w) <= ED_RTOL,
    "ed_residual": lambda w, g, scale, tol: g <= RESIDUAL_BOUND,
}
# a rewritten block takes these from its rerun: they measure the
# determinant side, whose move is what makes a block rewritten
RERUN_FIELDS = ("abs_diff", "max_abs_diff")


def run(argv) -> str:
    """The CLI's CSV for ``argv``."""
    from opens.cli import main

    with redirect_stdout(io.StringIO()) as out:
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"opens {' '.join(argv)} exited {code}:\n{out.getvalue()}")
    return out.getvalue()


def read(path) -> dict:
    """{argv: CSV text} of a golden file."""
    blocks, argv = {}, None
    for line in Path(path).read_text().splitlines(keepends=True):
        if line.startswith("## opens "):
            argv = tuple(line[len("## opens "):].split())
            blocks[argv] = ""
        else:
            blocks[argv] += line
    return blocks


def _split(text):
    """(header lines without the version line, data lines) of a CSV output."""
    lines = text.splitlines()
    header = [ln for ln in lines if ln.startswith("#") and not ln.startswith("# opens ")]
    return header, [ln for ln in lines if not ln.startswith("#")]


def _moved(want, got, rtol=1e-11):
    """Every field of two data rows that moved past ``rtol`` relative."""
    out = []
    for k, (w, g) in enumerate(zip(want.split(","), got.split(","))):
        try:
            a, b = float(w), float(g)
        except ValueError:
            if w != g:
                out.append(f"column {k}: {w!r} -> {g!r}")
            continue
        if a == b:
            continue
        rel = abs(a - b) / max(abs(a), abs(b))
        if not rel <= rtol:  # NaN and infinities count as moved
            out.append(f"column {k}: {w} -> {g} ({rel:.2e} relative)")
    return out


def _agreeing(want_header, want_rows, got_header, got_rows, fields=tuple(RULES)):
    """``got``'s header and data lines, with each of ``fields`` that agrees
    with ``want``'s by its rule in ``RULES`` set to ``want``'s text."""
    want_fields = dict(ln[2:].split(" = ", 1) for ln in want_header)
    tol = float(want_fields.get("tolerance", "nan"))

    def agrees(name, w, g, scale=0.0):
        try:
            return RULES[name](float(w), float(g), scale, tol)
        except ValueError:
            return False

    header = []
    for ln in got_header:
        key, _, val = ln[2:].partition(" = ")
        agreed = key in fields and key in want_fields and agrees(key, want_fields[key], val)
        header.append(f"# {key} = {want_fields[key]}" if agreed else ln)
    cols = want_rows[0].split(",") if want_rows else []
    ed = [k for k, c in enumerate(cols) if c in ("ed_re", "ed_im")]
    rows = got_rows[:1]
    for w, g in zip(want_rows[1:], got_rows[1:]):
        ws, gs = w.split(","), g.split(",")
        if ed and len(ws) == len(gs) == len(cols):
            scale = max(abs(float(ws[k])) for k in ed)
            g = ",".join(a if c in fields and agrees(c, a, b, scale) else b
                         for c, a, b in zip(cols, ws, gs))
        rows.append(g)
    return header, rows + got_rows[len(rows):]


def compare(want: str, got: str) -> list[str]:
    """What differs between a golden output ``want`` and a rerun ``got``: no lines if nothing.

    Headers are compared without the version line, and data rows, the
    column names being row 0, as exact strings, but for the fields in
    ``RULES``, which compare by their rule. A differing row lists every
    number that moved past 1e-11 relative (the 12 printed digits).
    """
    want_header, want_rows = _split(want)
    got_header, got_rows = _agreeing(want_header, want_rows, *_split(got))
    report = [f"header: {ln}" for ln in difflib.ndiff(want_header, got_header) if ln[0] in "-+"]
    if len(got_rows) != len(want_rows):
        report.append(f"{len(want_rows)} data rows -> {len(got_rows)}")
    for i, (w, g) in enumerate(zip(want_rows, got_rows)):
        if w != g:
            moved = _moved(w, g)
            report.append(f"row {i}: " + ("; ".join(moved) if moved else "below 1e-11 relative"))
    return report


def _rewritten(want: str, got: str) -> str:
    """The block to write for a rerun ``got`` that moved from ``want``: ``got``,
    with the golden text of each field that agrees by its rule but ``RERUN_FIELDS``."""
    fields = [name for name in RULES if name not in RERUN_FIELDS]
    header, rows = _agreeing(*_split(want), *_split(got), fields)
    lines = iter(header + rows)  # _split keeps the order, the version line aside
    return "".join(ln if ln.startswith("# opens ") else next(lines) + "\n"
                   for ln in got.splitlines(keepends=True))


def replay(files=FILES) -> dict:
    """{argv: ``compare`` report} of every command of ``files`` whose rerun differs."""
    moved = {}
    for path, commands in files.items():
        golden = read(path)
        for argv in commands:
            report = compare(golden[argv], run(argv))
            if report:
                moved[argv] = report
    return moved


def main() -> None:
    """Rewrite each file, keeping the golden text of every block whose rerun
    ``compare``s clean, and in a block that moved, of every field that
    agrees by its rule in ``RULES`` but ``RERUN_FIELDS``."""
    for path, commands in FILES.items():
        golden = read(path) if path.exists() else {}
        blocks, moved = [], 0
        for argv in commands:
            want, got = golden.get(argv), run(argv)
            if want is None or compare(want, got):
                want, moved = (got if want is None else _rewritten(want, got)), moved + 1
            blocks.append(f"## opens {' '.join(argv)}\n{want}")
        path.write_text("".join(blocks))
        print(f"wrote {len(commands)} commands to {path}, {moved} of them rerun",
              file=sys.stderr)


if __name__ == "__main__":
    main()
