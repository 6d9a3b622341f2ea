"""Tests of the benchmark itself: tracer arithmetic, failure accounting, wrapping.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys

import pytest

import layers
import run
from tracer import Span, Tracer, self_times, summarize
from workloads import (WORKLOADS, Command, Execution, Workload, account, finite, mismatches,
                       operator_commands)

sys.path.insert(0, str(run.SRC))


def test_self_time_of_a_synthetic_nest():
    spans = [
        Span(0, "root", 0.0, 10.0, None, "r"),
        Span(1, "a", 1.0, 4.0, 0, "r"),
        Span(2, "b", 3.0, 6.0, 0, "r"),    # overlaps a: [1, 6] is covered once
        Span(3, "leaf", 2.0, 3.0, 1, "r"),
        Span(4, "leaf", 9.5, 11.0, 0, "r"),  # clipped to the parent's end
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - 5.0 - 0.5)
    assert st[1] == pytest.approx(2.0)
    assert st[2] == pytest.approx(3.0)
    assert st[3] == pytest.approx(1.0)
    assert summarize(spans)["leaf"] == (2, pytest.approx(2.5))


def test_serial_self_times_add_up_to_the_root():
    spans = [
        Span(0, "root", 0.0, 8.0, None, "r"),
        Span(1, "a", 0.5, 3.0, 0, "r"),
        Span(2, "b", 3.0, 7.0, 0, "r"),
        Span(3, "c", 4.0, 5.5, 2, "r"),
    ]
    assert sum(self_times(spans).values()) == pytest.approx(8.0)


def test_wrappers_record_parents_and_count_errors_once():
    tr = Tracer()
    tr.count_errors(KeyError, "key_errors")

    def inner(x):
        if x < 0:
            raise KeyError(x)
        return 2 * x

    inner_w = tr.wrap("inner", inner)
    outer_w = tr.wrap("outer", lambda x: inner_w(x) + 1)
    assert outer_w(3) == 7
    with pytest.raises(KeyError):
        outer_w(-1)
    by_id = {s.id: s for s in tr.spans}
    for s in tr.spans:
        if s.name == "inner":
            assert by_id[s.parent].name == "outer"
    assert tr.counts["key_errors"] == 1


# ---------------------------------------------------------------------------
# failure accounting


def _vector_table():
    cmd = next(c for c in operator_commands(1, 0) if "vector:0" in c.argv)
    serial = run.call(("--jobs", "1") + cmd.argv)
    assert serial.rc == 0
    return cmd, serial


def _edit_row(text, k, fn):
    lines = text.splitlines(keepends=True)
    data = [i for i, line in enumerate(lines) if not line.startswith("#")][1:]
    lines[data[k]] = fn(lines[data[k]])
    return "".join(lines)


def test_clean_sweep_has_no_failed_points():
    cmd, serial = _vector_table()
    out = account(cmd, serial)
    assert (out.attempted, out.failed, out.wrong) == (10, 0, 0)


def test_perturbed_value_is_one_failed_point():
    cmd, serial = _vector_table()

    def perturb(line):
        cells = line.rstrip("\n").split(",")
        cells[7] = repr(float(cells[7]) * 1.001)
        return ",".join(cells) + "\n"

    bad = Execution(0, _edit_row(serial.text, 4, perturb), serial.wall)
    out = account(cmd, bad)
    assert (out.attempted, out.failed, out.wrong) == (10, 1, 1)


def test_injected_error_row_is_one_failed_point():
    cmd, serial = _vector_table()
    bad = Execution(0, _edit_row(serial.text, 2, lambda line: line.replace(
        line.rstrip("\n").split(",")[7], "QuadratureError")), serial.wall)
    out = account(cmd, bad)
    assert (out.attempted, out.failed) == (10, 1)


def _other_bytes(serial):
    # same value to 12 digits, other bytes: the check passes, the comparison fails
    return Execution(0, _edit_row(serial.text, 0, lambda line: line.replace(",1,", ",1.0,", 1)),
                     serial.wall)


def test_second_row_that_differs_in_bytes_is_one_mismatch():
    cmd, serial = _vector_table()
    out = mismatches(cmd, serial, _other_bytes(serial))
    assert (out.attempted, out.failed, out.compared, out.mismatched) == (0, 0, 10, 1)
    assert mismatches(cmd, serial, serial).mismatched == 0


def test_command_error_fails_every_point():
    cmd, serial = _vector_table()
    err = Execution(1, "# opens 0.1.0\nerror\nQuadratureError: no convergence\n", 0.01)
    assert account(cmd, err).failed == 10
    assert mismatches(cmd, serial, err).mismatched == 10


def test_domain_probe_is_one_point():
    probe = WORKLOADS["continuum_sweeps"].probes()[0]
    out = account(probe, run.call(("--jobs", "1") + probe.argv))
    assert (out.attempted, out.failed, out.wrong) == (1, 1, 0)


# ---------------------------------------------------------------------------
# wrapping


TINY = Workload(
    "tiny", "test",
    lambda seed, rep: [Command(("boson-holevo", "--l2", "100,200,300"), 3,
                               finite("chi_numeric", positive=True), jobs=True)],
    (),
    1.0,
)


def _all_original():
    return not any(layers.is_wrapped(owner, attr) for _, (owner, attr) in layers.targets())


def test_untraced_run_installs_no_wrappers(monkeypatch):
    run.set_up(TINY)

    def refuse(tracer):
        raise AssertionError("untraced run installed wrappers")

    monkeypatch.setattr(layers, "install", refuse)
    res = run.measure(TINY, seed=1, seconds=0.0, trace=False)
    assert res["outcome"].failed == 0 and res["layers"] == []
    assert _all_original()


def test_seconds_fix_the_repetitions_and_points():
    run.set_up(TINY)
    res = run.measure(TINY, seed=1, seconds=2.5, trace=False)
    assert res["reps"] == 2 and len(res["argv"]) == 2
    out = res["outcome"]
    assert (out.attempted, out.failed, out.compared) == (6, 0, 6)


def test_each_call_starts_at_default_mpmath_precision(monkeypatch):
    import mpmath
    import opens.cli

    seen = []

    def leaky_main(argv):
        seen.append(mpmath.mp.prec)
        mpmath.mp.dps = 50  # what a --jobs 2 race can leave behind
        print("ok")
        return 0

    monkeypatch.setattr(opens.cli, "main", leaky_main)
    try:
        first, second = run.call(()), run.call(())
    finally:
        mpmath.mp.prec = run.MP_DEFAULT_PREC
    assert seen == [run.MP_DEFAULT_PREC] * 2
    assert first.prec_leak and second.prec_leak


def test_traced_run_restores_every_original():
    run.set_up(TINY)
    res = run.measure(TINY, seed=1, seconds=0.0, trace=True)
    assert _all_original()
    (m, spans), = res["layers"]
    out = res["outcome"]
    assert out.failed == 0 and out.mismatched == 0  # traced rows equal plain rows byte for byte
    assert m["cli.main.calls"] == 1 and m["cft_boson.holevo_chi.calls"] == 3
    assert m["continuation.aaa_fits"] >= 3 * 8
    assert abs(m["trace.unattributed_s"]) < 0.05 * m["trace.traced_wall_s"]


def test_counters_cover_quadrature_and_determinants():
    run.set_up(TINY)
    tr = Tracer()
    layers.install(tr)
    try:
        run.call(("operator-m", "--L", "1", "--d", "1", "--l2", "2", "--spec", "scalar:1.25"))
        run.call(("ed-verify", "--sites", "6", "--l1", "2", "--d-sites", "1",
                  "--l2-sites", "2", "--n", "2"))
    finally:
        tr.uninstall()
    assert _all_original()
    m = layers.layer_metrics(tr.spans, tr.counts)
    assert m["cft_operator.quadrature_errors"] == 1
    assert m["cft_operator.integrand_evals"] > 21 * m["cft_operator.quad_calls"] > 0
    assert m["lattice.det_evals"] > 0 and m["lattice.det_flops_computed"] > 0
    assert m["lattice.EDOracle.init.calls"] == 1


def test_benchmark_json_matches_the_code():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.metric_units()
    assert [m["name"] for m in bench["end_to_end"]] == [
        "setup_s", "sweep_s", "sweep_jobs2_s", "peak_rss_mb"]
