"""Golden rows: the boson continuation and lattice sweeps rerun in-process.

Data rows must match the checked-in CSV as exact strings. On a mismatch
the failure lists every number that moved past 1e-11 relative (the 12
printed digits). Headers are compared without the version line.
``tests/golden/regen.py`` rewrites the file after an intended change.
"""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_regen", Path(__file__).with_name("golden") / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

GOLDEN = {argv: (path, text) for path in regen.FILES for argv, text in regen.read(path).items()}


def _split(text):
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


def test_golden_file_covers_every_command():
    for path, commands in regen.FILES.items():
        assert tuple(regen.read(path)) == commands, path.name


@pytest.mark.parametrize("argv", regen.COMMANDS, ids=lambda argv: " ".join(argv[:5]))
def test_golden_rows_are_unchanged(argv):
    path, text = GOLDEN[argv]
    want_header, want_rows = _split(text)
    got_header, got_rows = _split(regen.run(argv))
    assert got_header == want_header
    assert len(got_rows) == len(want_rows)
    report = []
    for i, (w, g) in enumerate(zip(want_rows, got_rows)):
        if w != g:
            moved = _moved(w, g)
            report.append(f"row {i}: " + ("; ".join(moved) if moved else "below 1e-11 relative"))
    assert not report, f"data rows differ from tests/golden/{path.name}:\n" + "\n".join(report)
