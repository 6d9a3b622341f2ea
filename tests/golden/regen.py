"""Rewrite the golden CLI outputs after an intended change to their numbers.

    PYTHONPATH=src python tests/golden/regen.py

Each file in ``FILES`` holds the CSV of every command listed for it, each
block opened by a ``## opens <argv>`` line: ``boson_sweeps.csv`` the
continuation sweeps, ``lattice_sweeps.csv`` the free-fermion sweeps,
``operator_sweeps.csv`` the operator-quadrature sweeps.
``tests/test_golden.py`` reruns them in-process and compares. A change
that rewrites a file lists in its change notes every row that moved and
by how much.
"""

from __future__ import annotations

import io
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path


def _holevo(L, d, l2="10.0:100000.0:25:log"):
    return ("boson-holevo", "--L", L, "--d", d, "--eps", "0.5", "--l2", l2, "--nmax", "8")


def _time(L, d, l2):
    return ("boson-time", "--L", L, "--d", d, "--l2", l2, "--t", "1000.0:1000000.0:20:log")


# the README boson-holevo sweep, then the benchmark's continuum panels on
# their unjittered grids
BOSON = (
    _holevo("10", "10", "10:100000:25:log"),
    _holevo("10.0", "10.0"),
    _holevo("10.0", "100.0"),
    _holevo("100.0", "500.0"),
    _time("10.0", "5.0", "10.0"),
    _time("10.0", "10.0", "100.0"),
    _time("1.0", "1.0", "2.0"),
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

# the benchmark's operator commands, which it runs unjittered, and one
# overlap grid
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
)

FILES = {
    Path(__file__).with_name("boson_sweeps.csv"): BOSON,
    Path(__file__).with_name("lattice_sweeps.csv"): LATTICE,
    Path(__file__).with_name("operator_sweeps.csv"): OPERATOR,
}
COMMANDS = BOSON + LATTICE + OPERATOR


def run(argv) -> str:
    """The CLI's CSV for ``argv``, with ``OPENS_JOBS`` unset as in a clean shell."""
    from opens.cli import main

    jobs = os.environ.pop("OPENS_JOBS", None)
    try:
        with redirect_stdout(io.StringIO()) as out:
            code = main(list(argv))
    finally:
        if jobs is not None:
            os.environ["OPENS_JOBS"] = jobs
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


def main() -> None:
    for path, commands in FILES.items():
        path.write_text("".join(f"## opens {' '.join(argv)}\n{run(argv)}" for argv in commands))
        print(f"wrote {len(commands)} commands to {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
