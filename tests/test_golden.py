"""Golden rows: the boson, lattice and operator sweeps rerun in-process.

``regen.compare`` holds the comparison: data rows as exact strings,
headers without the version line. ``tests/golden/regen.py`` rewrites the
files after an intended change.
"""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_regen", Path(__file__).with_name("golden") / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

GOLDEN = {argv: (path, text) for path in regen.FILES for argv, text in regen.read(path).items()}


def test_golden_file_covers_every_command():
    for path, commands in regen.FILES.items():
        assert tuple(regen.read(path)) == commands, path.name


@pytest.mark.parametrize("argv", regen.COMMANDS, ids=lambda argv: " ".join(argv[:5]))
def test_golden_rows_are_unchanged(argv):
    path, text = GOLDEN[argv]
    report = regen.compare(text, regen.run(argv))
    assert not report, f"output differs from tests/golden/{path.name}:\n" + "\n".join(report)


def test_replay_reports_a_changed_digit(tmp_path):
    # a copy of a golden file with one printed digit changed: the replay
    # names that row and column, and reports nothing on the real file
    path, argv = next((p, a) for p, cmds in regen.FILES.items() for a in cmds if a[0] == "overlap")
    assert regen.replay({path: (argv,)}) == {}
    head, opener, block = path.read_text().partition(f"## opens {' '.join(argv)}\n")
    lines = block.splitlines(keepends=True)
    k = next(i for i, ln in enumerate(lines) if not ln.startswith("#")) + 1  # data row 1
    fields = lines[k].split(",")
    assert fields[8][0] in "123456789", fields[8]  # the leading digit of `generating`
    fields[8] = str(int(fields[8][0]) % 9 + 1) + fields[8][1:]
    lines[k] = ",".join(fields)
    copy = tmp_path / path.name
    copy.write_text(head + opener + "".join(lines))
    moved = regen.replay({copy: (argv,)})
    assert list(moved) == [argv]
    (line,) = moved[argv]
    assert line.startswith(f"row 1: column 8: {fields[8]} -> "), line
