"""Golden rows: the boson, lattice and operator sweeps and the ED spot checks rerun in-process.

``regen.compare`` holds the comparison: data rows as exact strings,
headers without the version line, and the Lanczos-derived fields of
``ed-verify`` by the rules in ``regen.RULES``. ``tests/golden/regen.py``
rewrites the files after an intended change.
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


def test_every_command_has_a_golden_block():
    # but lattice-overlap, whose noise sectors print digits that are not stable
    from opens.cli import COMMANDS

    assert {argv[0] for argv in regen.COMMANDS} == set(COMMANDS) - {"lattice-overlap"}


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


def _with_field(text, row, column, value):
    """``text`` with field ``column`` of data row ``row`` (the column names being row 0) set."""
    lines = text.splitlines(keepends=True)
    k = [i for i, ln in enumerate(lines) if not ln.startswith("#")][row]
    fields = lines[k].rstrip("\n").split(",")
    fields[column] = value
    lines[k] = ",".join(fields) + "\n"
    return "".join(lines)


def test_replay_holds_ed_verify_fields_to_their_rules(tmp_path):
    # a copy of an ed-verify block with one field changed: a 1e-10 relative
    # move of an ED column, or any change to a determinant column, is
    # reported, a 5e-12 move of an ED column is not; and a rerun's abs_diff
    # counts only as below the tolerance or not
    path, argv = next((p, a) for p, cmds in regen.FILES.items() for a in cmds
                      if a[0] == "ed-verify")
    golden = regen.read(path)[argv]
    cols, row = [ln.split(",") for ln in golden.splitlines() if not ln.startswith("#")][:2]
    ed = max((cols.index("ed_re"), cols.index("ed_im")), key=lambda k: abs(float(row[k])))
    det = cols.index("det_re")

    def replayed(column, value):
        assert value != row[column]
        copy = tmp_path / path.name
        copy.write_text(f"## opens {' '.join(argv)}\n" + _with_field(golden, 1, column, value))
        return regen.replay({copy: (argv,)})

    x = float(row[ed])
    value = format(x * (1 + 1e-10), ".12g")
    (line,) = replayed(ed, value)[argv]
    assert line.startswith(f"row 1: column {ed}: {value} -> "), line
    moved = replayed(det, format(float(row[det]) * (1 + 1e-15), ".17g"))
    assert moved == {argv: ["row 1: below 1e-11 relative"]}
    assert replayed(ed, format(x * (1 + 5e-12), ".12g")) == {}
    diff, rerun = cols.index("abs_diff"), regen.run(argv)
    assert regen.compare(golden, _with_field(rerun, 1, diff, "9e-09")) == []
    (line,) = regen.compare(golden, _with_field(rerun, 1, diff, "2e-08"))
    assert line.startswith(f"row 1: column {diff}: {row[diff]} -> 2e-08"), line


def _with_header(text, key, value):
    """``text`` with its ``# key = ...`` line set to ``value``."""
    lines = text.splitlines(keepends=True)
    k = next(i for i, ln in enumerate(lines) if ln.startswith(f"# {key} = "))
    lines[k] = f"# {key} = {value}\n"
    return "".join(lines)


def _with_rerun_diffs(text, rerun):
    """``text`` with ``rerun``'s abs_diff column and max_abs_diff line."""
    header = dict(ln[2:].split(" = ", 1) for ln in rerun.splitlines() if " = " in ln)
    text = _with_header(text, "max_abs_diff", header["max_abs_diff"])
    rows = [ln.split(",") for ln in rerun.splitlines() if not ln.startswith("#")]
    k = rows[0].index("abs_diff")
    for i, fields in enumerate(rows[1:], start=1):
        text = _with_field(text, i, k, fields[k])
    return text


def test_regen_rewrites_only_the_blocks_that_moved(tmp_path, monkeypatch):
    # an ED column moved by 5e-12 agrees by its rule, so regen keeps that
    # block's golden text. A changed determinant digit is a move, so regen
    # rewrites the block from its rerun: every field that agrees by its
    # rule keeps its golden text (here an ED column and the oracle's
    # residual), but the differences, which come from the rerun even where
    # a changed abs_diff agreed by its rule
    path, argv = next((p, a) for p, cmds in regen.FILES.items() for a in cmds
                      if a[0] == "ed-verify")
    golden, rerun = regen.read(path)[argv], regen.run(argv)
    cols, row = [ln.split(",") for ln in golden.splitlines() if not ln.startswith("#")][:2]
    ed = max((cols.index("ed_re"), cols.index("ed_im")), key=lambda k: abs(float(row[k])))
    det, diff = cols.index("det_re"), cols.index("abs_diff")
    det_value = format(float(row[det]) * (1 + 1e-6), ".12g")
    kept = _with_field(golden, 1, ed, format(float(row[ed]) * (1 + 5e-12), ".12g"))
    moved = _with_field(golden, 1, det, det_value)
    residual = "5e-15"
    assert f"# ed_residual = {residual}\n" not in rerun
    both = _with_header(_with_field(_with_field(kept, 1, diff, "9e-09"), 1, det, det_value),
                        "ed_residual", residual)
    copy = tmp_path / path.name
    monkeypatch.setattr(regen, "FILES", {copy: (argv,)})
    for text, want in ((kept, kept), (moved, _with_rerun_diffs(golden, rerun)),
                       (both, _with_rerun_diffs(_with_field(both, 1, det, row[det]), rerun))):
        copy.write_text(f"## opens {' '.join(argv)}\n{text}")
        regen.main()
        assert regen.read(copy) == {argv: want}
