import json
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from opens.cft_boson import TimeParams, holevo_chi_sweep, holevo_chi_time_sweep
from opens import cft_operator, cli
from opens.cli import GRID_POINTS, _fmt, _model_from_name, main, parse_grid, parse_spec
from opens.core import Geometry
from opens.errors import RegimeWarning
from opens.lattice import EDOracle


class TestGridParsing:
    def test_scalar(self):
        assert parse_grid("3.5") == [3.5]

    def test_comma_list(self):
        assert parse_grid("0.3,0.7") == [0.3, 0.7]

    def test_integer_range(self):
        assert parse_grid("1:4") == [1.0, 2.0, 3.0, 4.0]

    def test_linear_count(self):
        assert parse_grid("0:1:5") == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    def test_log_count(self):
        assert parse_grid("1:100:3:log") == pytest.approx([1.0, 10.0, 100.0])

    def test_log_default_count(self):
        vals = parse_grid("10:100000:log")
        assert len(vals) == 25
        assert vals[0] == pytest.approx(10.0)
        assert vals[-1] == pytest.approx(100000.0)

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            parse_grid("1:2:3:4:5")

    def test_the_bound_itself_is_a_grid(self):
        assert len(parse_grid(f"1:{GRID_POINTS}")) == GRID_POINTS

    def test_spec(self):
        s = parse_spec("scalar:0.25")
        assert s.kind == "scalar" and s.weight == 0.25
        with pytest.raises(ValueError):
            parse_spec("scalar")


CN_TABLE = ["cn-table", "--spec", "scalar:0.25", "--n", "1:3", "--L", "1", "--d", "1",
            "--l2", "2", "--tol", "1e-8"]


class TestCommands:
    def test_unknown_command_usage_exit(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_no_command(self):
        assert main([]) == 2

    def test_boson_holevo_csv(self, tmp_path):
        out = tmp_path / "h.csv"
        code = main(
            ["--output", str(out), "boson-holevo", "--L", "10", "--d", "10",
             "--eps", "0.5", "--l2", "10:1000:3:log", "--nmax", "6"]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        assert comments[0].startswith("# opens")
        header = next(l for l in lines if not l.startswith("#"))
        assert header.split(",")[:2] == ["route", "L"]
        rows = [l for l in lines if not l.startswith("#")][1:]
        assert len(rows) == 3
        assert all(r.startswith("boson-closed-form") for r in rows)

    def test_byte_identical_reruns(self, tmp_path):
        args = ["boson-mie", "--L", "5", "--d", "7", "--eps", "0.3",
                "--l2", "10:100:4:log", "--n", "3"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["--output", str(out1)] + args) == 0
        assert main(["--output", str(out2)] + args) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_mirror(self, tmp_path):
        out = tmp_path / "m.json"
        code = main(
            ["--output", str(out), "--format", "json", "boson-moments",
             "--l2", "50", "--gamma", "0.4,0.9"]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["columns"][0] == "route"
        assert payload["rows"][0][0] == "boson-closed-form"
        assert payload["provenance"]["command"] == "boson-moments"

    def test_json_mirror_of_non_finite_values_is_strict_json(self, capsys):
        # generating underflows to 0 and uv_ratio overflows to inf here
        argv = ["--format", "json", "overlap", "--spec", "scalar:0.05", "--L", "10", "--d", "10",
                "--l2", "1000", "--gamma1", "0.1,1", "--gamma2=-1"]
        assert main(argv) == 0

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        uv_ratio = payload["columns"].index("uv_ratio")
        assert "inf" in [row[uv_ratio] for row in payload["rows"]]
        # each JSON row prints as its CSV row
        assert main(argv[2:]) == 0
        csv_rows = capsys.readouterr().out.splitlines()[-2:]
        assert [",".join(_fmt(v) for v in row) for row in payload["rows"]] == csv_rows

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("command = boson-holevo\nL = 5\nd = 5\nl2 = 100\nnmax = 6\n")
        out = tmp_path / "o.csv"
        assert main(["--config", str(cfg), "--output", str(out)]) == 0
        body = out.read_text()
        assert "# L = 5" in body
        # explicit flags still win over the config file
        out2 = tmp_path / "o2.csv"
        assert main(["--config", str(cfg), "--output", str(out2), "--jobs", "2"]) == 0
        assert "# jobs = 2" in out2.read_text()

    @pytest.mark.parametrize("flag", ["--L=7", "--L 7"])
    def test_config_command_takes_flags_in_either_form(self, tmp_path, flag):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("command = boson-holevo\nL = 5\nl2 = 100\n")
        out = tmp_path / "o.csv"
        assert main(["--config", str(cfg), "--output", str(out)] + flag.split()) == 0
        assert "# L = 7.0" in out.read_text().splitlines()

    def test_config_format(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("command = boson-holevo\nl2 = 100\nformat = json\n")
        assert main(["--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["rows"][0][0] == "boson-closed-form"
        # an explicit flag still wins, and a bad value is rejected as a flag's would be
        assert main(["--config", str(cfg), "--format", "csv"]) == 0
        assert capsys.readouterr().out.startswith("# opens")
        cfg.write_text("command = boson-holevo\nformat = xml\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg)])
        assert exc.value.code == 2
        assert "invalid choice: 'xml'" in capsys.readouterr().err

    def test_config_seed(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("command = ed-verify\nl1 = 2\nd-sites = 2\nl2-sites = 2\nseed = 7\n")
        out, flag_out = tmp_path / "c.csv", tmp_path / "f.csv"
        assert main(["--config", str(cfg), "--output", str(out)]) == 0
        assert main(["--output", str(flag_out), "--seed", "7", "ed-verify", "--l1", "2",
                     "--d-sites", "2", "--l2-sites", "2"]) == 0
        assert "# seed = 7" in out.read_text().splitlines()
        assert out.read_text() == flag_out.read_text()

    def test_config_jobs(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("command = boson-holevo\nl2 = 100\njobs = 3\n")
        out = tmp_path / "o.csv"
        assert main(["--config", str(cfg), "--output", str(out)]) == 0
        assert "# jobs = 3" in out.read_text().splitlines()

    def test_config_rejects_a_key_no_parser_knows(self, tmp_path, capsys):
        # a misspelt l2 is a usage error, not a run at the default l2 = 100
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "o.csv"
        for text, argv in (("command = boson-holevo\nl2s = 250\n", []),
                           ("l2s = 250\n", ["boson-holevo"])):
            cfg.write_text(text)
            with pytest.raises(SystemExit) as exc:
                main(["--config", str(cfg), "--output", str(out)] + argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"config file {cfg}: 'l2s' is not an option of opens or of boson-holevo" in err
        assert not out.exists()
        # a flag's alias names it too: --gap is --d-sites
        cfg.write_text("command = lattice-overlap\ngap = 3\nl2-sites = 2\n")
        assert main(["--config", str(cfg), "--output", str(out)]) == 0
        assert "# d_sites = 3" in out.read_text().splitlines()

    def test_config_skips_comments_and_blank_lines(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a sweep\n\ncommand = boson-holevo  # trailing note\n   \n\tl2 = 100\n")
        out, flag_out = tmp_path / "c.csv", tmp_path / "f.csv"
        assert main(["--config", str(cfg), "--output", str(out)]) == 0
        assert main(["--output", str(flag_out), "boson-holevo", "--l2", "100"]) == 0
        assert out.read_text() == flag_out.read_text()

    @pytest.mark.parametrize("line", ["l2: 100", "l2 100", "boson-holevo"])
    def test_config_refuses_a_line_without_equals(self, tmp_path, capsys, line):
        # only key = value is read; a key: value line is a usage error, not guessed at
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"command = boson-holevo\n{line}  # note\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg)])
        assert exc.value.code == 2
        assert f"config file {cfg}: cannot parse config line {line!r}" in capsys.readouterr().err

    def test_a_missing_config_file_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "missing.cfg"
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "boson-holevo"])
        assert exc.value.code == 2
        assert f"config file {cfg}: [Errno 2] No such file or directory" in capsys.readouterr().err

    def test_config_output(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"command = boson-holevo\nl2 = 100\noutput = {out}\n")
        assert main(["--config", str(cfg)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text().startswith("# opens")

    @pytest.mark.filterwarnings("error")
    def test_averaged_purity_log_columns(self, tmp_path):
        # value underflows and uv_finite overflows on this grid, with no
        # warning; their logs do not
        out = tmp_path / "ap.csv"
        assert main(["--output", str(out), "averaged-purity", "--spec", "scalar:0.05",
                     "--L", "10", "--d", "10", "--l2", "1000", "--gamma", "0.05,0.1,1"]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        cols = lines[0].split(",")
        assert cols == ["route", "L", "d", "l2", "kind", "weight", "gamma", "value",
                        "normalized", "uv_finite", "log_value", "log_uv_finite"]
        rows = [dict(zip(cols, l.split(","))) for l in lines[1:]]
        assert [r["uv_finite"] for r in rows][1:] == ["inf", "inf"]
        assert rows[-1]["value"] == "0"
        for r in rows:
            assert np.isfinite([float(r["log_value"]), float(r["log_uv_finite"])]).all()

    def test_numerical_failure_records_diagnostics(self, tmp_path):
        out = tmp_path / "bad.csv"
        code = main(
            ["--output", str(out), "boson-holevo", "--L", "10", "--d", "10",
             "--eps", "-1.0", "--l2", "100"]
        )
        assert code == 1
        body = out.read_text()
        assert "# status = error" in body
        assert "GeometryError" in body

    @pytest.mark.parametrize("args, named", [
        (["boson-moments", "--eps", "nan"], "eps=nan"),
        (["boson-moments", "--eps", "inf"], "eps=inf"),
        (["boson-moments", "--l2", "inf"], "b=inf"),
        (["boson-moments", "--K", "nan"], "K=nan"),
        (["boson-time", "--t", "nan"], "t=nan"),
        (["boson-time", "--epsp", "nan"], "eps_prime=nan"),
        (CN_TABLE + ["--eps-reg", "nan"], "eps_reg=nan"),
        (CN_TABLE + ["--tol", "nan"], "tol=nan"),
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_non_finite_parameters_are_rejected(self, tmp_path, args, named):
        # nan fails every comparison, so each check is written to pass only
        # a finite value in range; a nan tol would switch the 32-vs-64 check off
        out = tmp_path / "nan.csv"
        assert main(["--output", str(out)] + args) == 1
        error = out.read_text().splitlines()[-1]
        assert named in error, error

    @pytest.mark.parametrize("args, named", [
        (["boson-moments", "--gamma", "nan,0.3", "--l2", "100"], "--gamma 'nan,0.3'"),
        (["overlap", "--gamma1", "nan", "--l2", "10"], "--gamma1 'nan'"),
        (["overlap", "--gamma2", "0.1,-inf", "--l2", "10"], "--gamma2 '0.1,-inf'"),
        (["lattice-moments", "--gamma", "nan,0.3", "--l2", "10"], "--gamma 'nan,0.3'"),
        (["uv-check", "--gamma", "nan", "--l2", "5"], "--gamma 'nan'"),
        (["averaged-purity", "--gamma", "inf", "--l2", "5"], "--gamma 'inf'"),
        (["boson-holevo", "--l2", "10:1"], "--l2 '10:1' gives no point"),
        (["boson-time", "--t", "1:10:0"], "--t '1:10:0' gives no point"),
        (["operator-mie", "--l2", "2:20:0"], "--l2 '2:20:0' gives no point"),
        (["overlap", "--gamma1", "1:0"], "--gamma1 '1:0' gives no point"),
        (["lattice-moments", "--l2", "20:10", "--compare", "cft"], "--l2 '20:10' gives no point"),
        (["boson-moments", "--gamma", ","], "--gamma ',' gives no point"),
        (["boson-holevo", "--l2", "nan:5"], "--l2 'nan:5' has a non-finite bound"),
        (["lattice-moments", "--l2", "inf:5"], "--l2 'inf:5' has a non-finite bound"),
        # one point past the bound: refused before any point is built
        (["cn-table", "--n", f"1:{GRID_POINTS + 1}"],
         f"--n '1:{GRID_POINTS + 1}' asks for {GRID_POINTS + 1} points"),
        (["boson-time", "--t", f"1:10:{GRID_POINTS + 1}"],
         f"--t '1:10:{GRID_POINTS + 1}' asks for {GRID_POINTS + 1} points"),
        (["boson-holevo", "--l2", f"1:100:{GRID_POINTS + 1}:log"],
         f"--l2 '1:100:{GRID_POINTS + 1}:log' asks for {GRID_POINTS + 1} points"),
        # malformed text
        (["boson-holevo", "--l2", "1:5:2.5"], "--l2 '1:5:2.5': '2.5' is not an integer count"),
        (["boson-holevo", "--l2", "a,b"], "--l2 'a,b': 'a' is not a number"),
        (["boson-holevo", "--l2", "1:10:3:lin"],
         "cannot parse --l2 '1:10:3:lin'; use lo:hi:count[:log]"),
        (["cn-table", "--n", "1:3:1e9"], "--n '1:3:1e9': '1e9' is not an integer count"),
        (["operator-m", "--spec", "scalar:abc"], "--spec 'scalar:abc': 'abc' is not a number"),
        # every range form: finite bounds, log bounds > 0, a count >= 0
        (["boson-holevo", "--l2", "0:10:log"], "--l2 '0:10:log' is a log range with a bound <= 0"),
        (["boson-holevo", "--l2=-1:10:5:log"],
         "--l2 '-1:10:5:log' is a log range with a bound <= 0"),
        (["boson-holevo", "--l2", "10:-100:log"],
         "--l2 '10:-100:log' is a log range with a bound <= 0"),
        (["boson-holevo", "--l2", "nan:100:3"], "--l2 'nan:100:3' has a non-finite bound"),
        (["cn-table", "--n", "1:nan:3"], "--n '1:nan:3' has a non-finite bound"),
        (["lattice-moments", "--l2", "10:inf:3"], "--l2 '10:inf:3' has a non-finite bound"),
        (["boson-holevo", "--l2", "10:100:-3"], "--l2 '10:100:-3' has a negative count"),
    ], ids=lambda v: v if isinstance(v, str) else " ".join(v))
    def test_non_finite_fluxes_and_empty_grids_are_rejected(self, tmp_path, args, named):
        # an error record naming the flag, raised before any point is
        # evaluated, so no numpy warning and no header-only table
        out = tmp_path / "bad.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--output", str(out)] + args) == 1
        lines = out.read_text().splitlines()
        assert "# status = error" in lines
        assert lines[-1].startswith("ValueError: ") and named in lines[-1], lines[-1]

    def test_boson_time_has_no_precision_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["boson-time", "--dps", "50"])
        assert exc.value.code == 2

    def test_boson_time_rejects_the_light_cone_and_cutoff_dominated_layouts(self, tmp_path):
        out = tmp_path / "w.csv"
        for t in ("5", "8", "16"):  # inside [a - L, b] = [5, 25]
            assert main(["--output", str(out), "boson-time", "--L", "10", "--d", "5",
                         "--l2", "10", "--t", t]) == 1
            assert "DomainError: t = " in out.read_text()
        with pytest.warns(RegimeWarning):
            code = main(["--output", str(out), "boson-time", "--L", "1", "--d", "3",
                         "--l2", "0.5", "--eps", "0.5", "--t", "1000"])
        assert code == 1
        assert "DomainError: single-copy diagonal" in out.read_text()

    def test_first_failing_point_in_grid_order_raises(self, tmp_path):
        # whatever the stage: the light-cone check, the samples or the geometry
        for args, error in (
            (["boson-time", "--L", "10", "--d", "5", "--l2", "10", "--t", "4,4.9,5.1,6,8,30"],
             "DomainError: t = 5.1 lies in the light-cone window [a - L, b] = [5, 25], "
             "where a shifted endpoint crosses A"),
            (["boson-holevo", "--L", "10", "--d", "10", "--l2", "10,1,-5,100"],
             "DomainError: single-copy diagonal m1 = -8.88e-16 <= 0: cutoff-dominated layout"),
            (["boson-holevo", "--L", "10", "--d", "10", "--l2", "10,-5,1,100"],
             "GeometryError: need 0 < L < a < b, got L=10.0, a=20.0, b=15.0"),
        ):
            for jobs in ("1", "2"):
                out = tmp_path / "e.csv"
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RegimeWarning)
                    assert main(["--output", str(out), "--jobs", jobs] + args) == 1
                assert out.read_text().splitlines()[-1] == error

    @pytest.mark.parametrize("args, entry", [
        (["boson-holevo", "--L", "10", "--d", "10", "--l2", "100", "--eps", "1e-200"], "single-copy diagonal m1 = inf"),
        (["boson-mie", "--l2", "100", "--eps", "1e-200"], "single-copy diagonal m1 = inf"),
        (["boson-moments", "--l2", "100", "--eps", "1e-200"], "diagonal M_00 = inf"),
        (["boson-time", "--t", "1000", "--eps", "1e-200"], "single-copy diagonal m1 = inf"),
        (["boson-holevo", "--L", "1e-200", "--eps", "0.5"], "single-copy diagonal m1 = -inf"),
        (["boson-holevo", "--l2", "1e300", "--eps", "0.5"], "single-copy diagonal m1 = nan"),
    ])
    def test_a_diagonal_out_of_the_float_range_is_refused(self, tmp_path, args, entry):
        # pa pb ~ 1 / eps^2 overflows below about eps = 1e-152, where chi_n
        # read 0 and the Mie ratio 1; no warning escapes on the way
        out = tmp_path / "o.csv"
        assert main(["--output", str(out)] + args) == 1
        eps = args[args.index("--eps") + 1]
        assert out.read_text().splitlines()[-1] == (
            f"DomainError: {entry} at eps = {eps}: the point-split diagonal "
            "2 log|n^2 s pa pb| left the float range")

    def test_an_add_back_out_of_the_float_range_is_refused_by_name(self, tmp_path):
        # where m11 read nan, inf or an OverflowError, every operator command
        # that reads it names the add-back
        base = ["--L", "1", "--d", "1", "--l2", "2"]
        for command in ("operator-m", "operator-mie", "averaged-purity", "cn-table"):
            for flags, value in ((["--eps-reg", "1e-160"], "nan at eps_reg = 1e-160"),
                                 (["--spec", "vector:0.2", "--eps-reg", "1e-300"], "inf at eps_reg = 1e-300"),
                                 (["--eps-reg", "1e300"], "inf at eps_reg = 1e+300")):
                out = tmp_path / "m.csv"
                assert main(["--output", str(out), command] + base + flags) == 1
                assert out.read_text().splitlines()[-1] == (
                    f"QuadratureError: flat-integral add-back m11 = {value}, length 2: not finite and positive")

    def test_continued_routes_need_n_max_six(self, tmp_path):
        message = ("ValueError: --nmax {}: a degree-4 continuation with a leave-one-out error "
                   "estimate needs nmax >= 6")
        for args in (["boson-holevo", "--l2", "10:1000:3:log"],
                     ["boson-time", "--t", "1000:100000:3:log"]):
            out = tmp_path / "n.csv"
            for nmax in ("3", "4", "5"):
                assert main(["--output", str(out)] + args + ["--nmax", nmax]) == 1
                assert out.read_text().splitlines()[-1] == message.format(nmax)
            assert main(["--output", str(out)] + args + ["--nmax", "6"]) == 0
            lines = out.read_text().splitlines()
            assert len([l for l in lines if l.startswith("boson-closed-form")]) == 3
            est = [l for l in lines if l.startswith("# max_error_estimate")]
            assert float(est[0].split("=")[1]) > 0.0

    def test_lattice_models_are_checked_when_parsed(self, capsys):
        for cmd in ("lattice-moments", "lattice-overlap", "ed-verify"):
            for model, complaint in (("foo", "unknown model 'foo'"), ("0.7", "unknown model '0.7'"),
                                     ("nan:1", "unknown model 'nan:1'"),
                                     ("inf:1", "unknown model 'inf:1'"),
                                     ("1:nan", "unknown model '1:nan'"),
                                     ("0.7:0.3", "ed-verify takes generic kappa:h")):
                if cmd == "ed-verify" and model == "0.7:0.3":
                    continue
                with pytest.raises(SystemExit) as exc:
                    main([cmd, "--model", model])
                assert exc.value.code == 2
                err = capsys.readouterr().err
                assert complaint in err, err
                if complaint.startswith("unknown"):
                    assert "xx (or tb, tight-binding), ising, or kappa:h" in err
        with pytest.raises(ValueError, match="kappa:h with two numbers"):
            _model_from_name("0.7:x")

    @pytest.mark.parametrize("cmd, flag, value", [
        (cmd, flag, value)
        for cmd in ("lattice-moments", "lattice-overlap", "ed-verify")
        for flag, value in (("--l1", "0"), ("--d-sites", "-1"), ("--l2-sites", "0"))
        if not (cmd == "lattice-moments" and flag == "--l2-sites")  # its --l2 grid: above
    ], ids=lambda v: v)
    def test_lattice_site_counts_are_refused_by_flag(self, tmp_path, cmd, flag, value):
        # once a bare "need ell1 >= 1, ell2 >= 1, d >= 0" from SubsystemLayout,
        # naming no flag; refused before any point runs
        out = tmp_path / "sites.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--output", str(out), cmd, flag, value]) == 1
        least = {"--l1": 1, "--d-sites": 0, "--l2-sites": 1}[flag]
        error = out.read_text().splitlines()[-1]
        assert error.startswith(f"ValueError: {flag} {value}: ")
        assert error.endswith(f" needs {flag[2:]} >= {least}"), error

    def test_ed_verify_passes(self, tmp_path):
        out = tmp_path / "ed.csv"
        code = main(
            ["--output", str(out), "ed-verify", "--model", "xx", "--l1", "2",
             "--d-sites", "1", "--l2-sites", "2", "--sites", "6", "--n", "2"]
        )
        assert code == 0
        assert "# verdict = pass" in out.read_text()

    def test_bare_ed_verify_passes(self, tmp_path):
        # its layout defaults must fit its 8-site default chain, which the
        # other lattice commands' l1 = d = 10 do not
        out = tmp_path / "ed.csv"
        assert main(["--output", str(out), "ed-verify"]) == 0
        header = out.read_text().splitlines()
        assert {"# sites = 8", "# l1 = 3", "# d_sites = 3", "# l2_sites = 2",
                "# verdict = pass"} <= set(header)

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_ed_verify_refuses_a_replica_range_with_no_moment(self, tmp_path, n):
        # --n 0 once printed no moment row and still passed
        out = tmp_path / "n.csv"
        assert main(["--output", str(out), "ed-verify", "--n", n]) == 1
        lines = out.read_text().splitlines()
        assert "# status = error" in lines
        assert lines[-1] == f"ValueError: --n {n}: a moment check needs n >= 1"

    @pytest.mark.parametrize("args, error", [
        (["operator-m", "--n", "0"], "--n 0: a replica matrix needs n >= 1"),
        (["cn-table", "--n", "0:3"], "--n '0:3' holds n = 0; each must be >= 1"),
        (["operator-mie", "--n", "1"], "--n 1: the entropy correction needs n >= 2"),
        (["boson-mie", "--n", "1"], "--n 1: the entropy correction needs n >= 2"),
        (["boson-mie", "--n", "0"], "--n 0: the entropy correction needs n >= 2"),
        (["boson-holevo", "--nmax", "5"], "--nmax 5: a degree-4 continuation with a "
         "leave-one-out error estimate needs nmax >= 6"),
        (["ed-verify", "--sites", "13"],
         "--sites 13: the layout needs at least 8 sites, the ED oracle holds at most 12"),
        (["ed-verify", "--sites", "7"],
         "--sites 7: the layout needs at least 8 sites, the ED oracle holds at most 12"),
        (["lattice-moments", "--l2", "0,5"], "--l2 '0,5' holds l2 = 0; each must be >= 1"),
    ], ids=lambda v: v if isinstance(v, str) else " ".join(v))
    def test_out_of_range_counts_are_refused_by_flag(self, tmp_path, args, error):
        # refused before any point runs, by the flag; the library calls behind
        # them name their own parameters, or none
        out = tmp_path / "n.csv"
        assert main(["--output", str(out)] + args) == 1
        lines = out.read_text().splitlines()
        assert "# status = error" in lines
        assert lines[-1] == f"ValueError: {error}"

    def test_ed_verify_reproducible_on_twelve_sites(self, tmp_path):
        # 12 sites take the sparse eigensolver route
        args = ["ed-verify", "--model", "ising", "--sites", "12", "--l1", "3",
                "--d-sites", "3", "--l2-sites", "5", "--n", "2"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["--output", str(out1)] + args) == 0
        assert main(["--output", str(out2)] + args) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_ed_verify_takes_a_negative_kappa_in_the_equals_form(self, tmp_path):
        # a separate word -0.5:1 would read as a flag, and argparse exits 2
        out = tmp_path / "ed.csv"
        assert main(["--output", str(out), "ed-verify", "--model=-0.5:1", "--sites", "8"]) == 0
        assert "# verdict = pass" in out.read_text().splitlines()

    def test_ed_verify_on_a_degenerate_chain_records_the_error(self, tmp_path):
        # the Kitaev chain at h = 0 holds an exact zero mode
        out = tmp_path / "ed.csv"
        assert main(["--output", str(out), "ed-verify", "--model", "1:0", "--sites", "12",
                     "--l1", "3", "--d-sites", "3", "--l2-sites", "5", "--n", "2"]) == 1
        body = out.read_text()
        assert "# status = error" in body
        assert body.splitlines()[-1].startswith(
            "SingularMatrixError: ground state degenerate, gap = ")

    # xx and the kappa = 0 chain 0:0.3 take the charge-block route, ising and
    # 0.7:0.3 the Pfaffian one
    @pytest.mark.parametrize("model", ["xx", "ising", "0.7:0.3", "0:0.3"])
    def test_ed_verify_reports_gap_and_residual(self, tmp_path, model):
        out = tmp_path / "ed.csv"
        assert main(["--output", str(out), "ed-verify", "--model", model, "--sites", "12",
                     "--l1", "3", "--d-sites", "3", "--l2-sites", "5", "--n", "4"]) == 0
        header = dict(line[2:].split(" = ") for line in out.read_text().splitlines()
                      if line.startswith("# ") and " = " in line)
        assert header["verdict"] == "pass"
        assert header["ed_gap"] == _fmt(EDOracle(_model_from_name(model), 12).gap)
        assert float(header["ed_residual"]) <= 1e-12

    def test_ed_verify_exit_code_follows_the_verdict(self, tmp_path, monkeypatch):
        out = tmp_path / "ed.csv"
        argv = ["--output", str(out), "ed-verify", "--l1", "2", "--d-sites", "2",
                "--l2-sites", "2"]
        real = cli.charged_moments_lattice
        monkeypatch.setattr(cli, "charged_moments_lattice", lambda *a: real(*a) + 1e-6)
        assert main(argv) == 1
        assert "# verdict = FAIL" in out.read_text().splitlines()

    @pytest.mark.parametrize("model,ell2", [("ising", 4), ("xx", 10)])
    def test_lattice_overlap_runs_on_both_presets(self, tmp_path, model, ell2):
        out = tmp_path / "ov.csv"
        assert main(["--output", str(out), "lattice-overlap", "--model", model,
                     "--l2-sites", str(ell2)]) == 0
        rows = [l.split(",") for l in out.read_text().splitlines() if l.startswith("lattice,")]
        assert len(rows) == (ell2 + 1) * (ell2 + 2) // 2
        assert all(np.isfinite([float(v) for v in r[-3:]]).all() for r in rows)

    def test_lattice_moments_with_cft_columns(self, tmp_path):
        out = tmp_path / "lat.csv"
        code = main(
            ["--output", str(out), "lattice-moments", "--model", "xx", "--l1", "4",
             "--d-sites", "4", "--gamma", "0.3,0.7", "--l2", "4,8", "--compare", "cft"]
        )
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0].split(",")[-2:] == ["cft_prediction", "fitted_constant"]
        assert len(lines) == 3

    def test_jobs_parallel_matches_serial(self, tmp_path, monkeypatch):
        # --jobs is accepted and recorded, but every sweep runs serially
        def no_thread(self):
            raise AssertionError(f"a sweep started thread {self.name}")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        body = lambda p: [l for l in p.read_text().splitlines() if not l.startswith("#")]
        for args in (
            ["boson-holevo", "--L", "10", "--d", "10", "--l2", "10:1000:4:log"],
            # the real-time tail, the other continued route
            ["boson-time", "--L", "10", "--d", "10", "--l2", "10", "--t", "1000:100000:6:log"],
            CN_TABLE,
            ["lattice-moments", "--model", "xx", "--l1", "4", "--d-sites", "4",
             "--gamma", "0.3,0.7", "--l2", "4,8,12"],
        ):
            out1, out2 = tmp_path / "s.csv", tmp_path / "p.csv"
            assert main(["--output", str(out1), "--jobs", "1"] + args) == 0
            assert main(["--output", str(out2), "--jobs", "3"] + args) == 0
            assert body(out1) == body(out2)
            assert "# jobs = 3" in out2.read_text().splitlines()

    def test_integer_grids_reject_repeated_points(self, tmp_path):
        # truncation to integers would evaluate n = 1,1,1,2,2,2,3 and l2 = 1
        # six times; the grid is refused before any point runs
        out = tmp_path / "r.csv"
        for args, error in (
            (CN_TABLE[:4] + ["1:3:7"] + CN_TABLE[5:],
             "ValueError: grid '1:3:7' repeats n = 1 once truncated to integers; "
             "give distinct integer points"),
            (["lattice-moments", "--l1", "4", "--d-sites", "4", "--l2", "1:10:20:log"],
             "ValueError: grid '1:10:20:log' repeats l2 = 1 once truncated to integers; "
             "give distinct integer points"),
        ):
            assert main(["--output", str(out)] + args) == 1
            assert out.read_text().splitlines()[-1] == error

    def test_cn_table_rejects_a_single_n(self, tmp_path, monkeypatch):
        # a linear fit through one point is undetermined: refused before any
        # matrix is built, and polyfit never runs to warn about it
        def no_build(*args):
            raise AssertionError("operator matrix built for a one-point grid")

        monkeypatch.setattr(cli, "build_M_operator", no_build)
        monkeypatch.setattr(cli, "build_M_operators", no_build)
        out = tmp_path / "one.csv"
        for grid in ("3", "1"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                argv = ["cn-table", "--L", "1", "--d", "1", "--l2", "2", "--n", grid]
                assert main(["--output", str(out)] + argv) == 1
            assert not [w for w in caught if issubclass(w.category, np.exceptions.RankWarning)]
            lines = out.read_text().splitlines()
            assert "# status = error" in lines
            assert lines[-1] == (f"ValueError: grid '{grid}' gives fewer than two n; the linear "
                                 "fit needs at least two distinct integer points")

    def test_cn_table_names_the_first_failing_n(self, tmp_path, monkeypatch):
        # the whole grid is built in one pass; its record names the first n
        # of the grid whose rule did not converge, and which entry
        monkeypatch.setattr(cft_operator, "GAUSS_NODES", 2)
        out = tmp_path / "q.csv"
        argv = ["cn-table", "--L", "1", "--d", "0.01", "--l2", "1000", "--spec", "scalar:0.75",
                "--n", "1:4"]
        assert main(["--output", str(out)] + argv) == 1
        assert out.read_text().splitlines()[-1].startswith(
            "QuadratureError: quadrature for n = 2, entry m=1 (tensor rule) did not converge")

    @pytest.mark.parametrize("jobs", ["0", "-3", "abc"])
    def test_bad_worker_counts_are_rejected_when_parsed(self, capsys, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["--jobs", jobs, "boson-holevo", "--l2", "100"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        want = f"argument --jobs: '{jobs}' is not a worker count; --jobs takes an integer >= 1"
        assert want in err, err

    def test_jobs_leave_warning_filters_alone(self, tmp_path):
        # a command leaves the process-wide warning filters as it found them
        before = list(warnings.filters)
        for args in (["boson-holevo", "--L", "10", "--d", "10", "--l2", "10:1000:4:log"],
                     CN_TABLE):
            for _ in range(3):
                assert main(["--output", str(tmp_path / "j.csv"), "--jobs", "2"] + args) == 0
        assert warnings.filters == before

    def test_warnings_are_recorded_in_the_provenance(self, tmp_path):
        # each distinct warning once, in the order first shown, in one line
        # that a command without warnings does not have; the warning still
        # reaches the caller's handler, and an error record carries it too
        out = tmp_path / "w.csv"
        regime = "RegimeWarning: (b-a)/(2 eps) = {} <= 1: logarithms change sign, " \
                 "cutoff-dominated regime"
        recorded = lambda: [l for l in out.read_text().splitlines() if l.startswith("# warnings")]
        with pytest.warns(RegimeWarning, match="cutoff-dominated regime"):
            assert main(["--output", str(out), "uv-check", "--l2", "1e-3", "--gamma", "0.1"]) == 0
        assert recorded() == ["# warnings = " + regime.format("0.001")]
        with pytest.warns(RegimeWarning) as caught:
            assert main(["--output", str(out), "boson-moments", "--l2", "0.5,0.5,0.8"]) == 0
        assert len(caught) == 6
        dominance = ("RegimeWarning: diagonal entry does not dominate the circulant row; the "
                     "weak-coupling expansion of the determinant is unreliable here")
        assert recorded() == ["# warnings = " + " | ".join(
            [regime.format("0.5"), dominance, regime.format("0.8")])]
        with pytest.warns(RegimeWarning):
            assert main(["--output", str(out), "boson-mie", "--l2", "0.5"]) == 1
        assert recorded() == ["# warnings = " + regime.format("0.5")]
        assert "# status = error" in out.read_text().splitlines()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--output", str(out), "uv-check", "--l2", "5"]) == 0
        assert recorded() == []

    def test_boson_commands_record_error_estimate(self, tmp_path):
        # the largest leave-one-out spread over the rows, the same at --jobs 2
        geo = lambda l2: Geometry(10.0, 20.0, 20.0 + l2, 0.5)
        for args, want in (
            (["boson-holevo", "--l2", "10,100,1000"],
             max(r.error_estimate for l2 in (10.0, 100.0, 1000.0)
                 for r in holevo_chi_sweep([geo(l2)]))),
            (["boson-time", "--l2", "10", "--t", "1000,30000"],
             max(r.error_estimate for t in (1000.0, 30000.0)
                 for r in holevo_chi_time_sweep([(geo(10.0), TimeParams(t, 1e-3))]))),
        ):
            outs = []
            for jobs in ("1", "2"):
                out = tmp_path / f"j{jobs}.csv"
                assert main(["--output", str(out), "--jobs", jobs] + args) == 0
                outs.append([l for l in out.read_text().splitlines() if not l.startswith("# jobs")])
            assert outs[0] == outs[1]
            assert want > 0.0
            assert [l for l in outs[0] if l.startswith("# max_error_estimate")] == [
                f"# max_error_estimate = {want:.12g}"]

    def test_boson_commands_record_continuation_degrees(self, tmp_path):
        # rows per degree left after the 4 -> 3 -> 2 fallback, as each point
        # alone reports it; the counts cover every row
        geo = lambda l2: Geometry(10.0, 20.0, 20.0 + l2, 0.5)
        for args, results in (
            (["boson-holevo", "--l2", "10,250,4000,100000"],
             [r for l2 in (10.0, 250.0, 4000.0, 1e5) for r in holevo_chi_sweep([geo(l2)])]),
            (["boson-time", "--l2", "10", "--t", "1000,30000,1000000"],
             [r for t in (1e3, 3e4, 1e6)
              for r in holevo_chi_time_sweep([(geo(10.0), TimeParams(t, 1e-3))])]),
        ):
            out = tmp_path / "d.csv"
            assert main(["--output", str(out)] + args) == 0
            lines = out.read_text().splitlines()
            rows = [l for l in lines if not l.startswith("#")][1:]
            (degrees,) = [l.split(" = ")[1] for l in lines if l.startswith("# continuation_degrees")]
            counts = dict(tuple(map(int, part.split(":"))) for part in degrees.split(";"))
            assert sum(counts.values()) == len(rows) == len(results)
            assert counts == {d: [r.degree for r in results].count(d) for d in counts}
            assert list(counts) == sorted(counts, reverse=True)

    def test_boson_sweep_rows_are_their_points_rows(self, tmp_path):
        # the points of a sweep share continuation stacks; each row must still be
        # the row of its point run alone (exact grid values: a log grid prints
        # l2 rounded)
        body = lambda p: [l for l in p.read_text().splitlines() if not l.startswith("#")][1:]
        for cmd, flag, grid in (("boson-holevo", "--l2", "10,250,4000,100000"),
                                ("boson-time", "--t", "1000,30000,1000000")):
            sweep, point = tmp_path / "s.csv", tmp_path / "p.csv"
            assert main(["--output", str(sweep), cmd, flag, grid]) == 0
            rows = []
            for x in grid.split(","):
                assert main(["--output", str(point), cmd, flag, x]) == 0
                rows += body(point)
            assert body(sweep) == rows

    def test_operator_commands_record_error_estimate(self, tmp_path):
        base = ["--L", "1", "--d", "1", "--spec", "scalar:1.25"]
        for args in (["operator-m", "--l2", "2", "--n", "3"],
                     ["cn-table", "--l2", "2", "--n", "1:3"],
                     ["operator-mie", "--l2", "2,4", "--n", "2"],
                     ["overlap", "--l2", "2", "--gamma1", "0.1,0.5", "--gamma2", "0.2"],
                     ["averaged-purity", "--l2", "2", "--gamma", "0.1,0.5"],
                     ["uv-check", "--l2", "2", "--gamma", "0.3"]):
            out = tmp_path / "e.csv"
            assert main(["--output", str(out)] + args + base) == 0
            est = [l for l in out.read_text().splitlines() if l.startswith("# max_error_estimate")]
            assert len(est) == 1
            assert 0.0 <= float(est[0].split("=")[1]) < 1e-8

    def test_cn_table_runs(self, tmp_path):
        out = tmp_path / "cn.csv"
        code = main(["--output", str(out)] + CN_TABLE)
        assert code == 0
        body = out.read_text()
        assert "# linear_fit_slope" in body
        rows = [l for l in body.splitlines() if l.startswith("operator-quadrature")]
        assert len(rows) == 3

    def test_operator_commands_need_no_adaptive_quadrature(self, tmp_path, monkeypatch):
        def no_quad(*args, **kwargs):
            raise AssertionError("adaptive quad called on the run-time path")

        monkeypatch.setattr(cft_operator.integrate, "quad", no_quad)
        base = ["--L", "1", "--d", "1", "--l2", "2"]
        for args in (CN_TABLE,
                     ["operator-m", "--n", "3", "--spec", "vector:0.25"] + base,
                     ["operator-mie", "--n", "2", "--spec", "scalar:1.45"] + base,
                     ["overlap", "--gamma1", "0.3", "--gamma2", "0.5"] + base,
                     ["averaged-purity", "--gamma", "0.3"] + base,
                     ["uv-check", "--spec", "scalar:0.75", "--gamma", "0.3"] + base):
            out = tmp_path / "q.csv"
            assert main(["--output", str(out)] + args) == 0, out.read_text()

    def test_operator_commands_take_no_dense_solve(self, tmp_path, monkeypatch):
        # every operator command reads M from its first row: C_n is n over the
        # row sum, so no command solves, inverts or conditions a dense matrix
        def refused(*args, **kwargs):
            raise AssertionError("dense solve on the run-time path")

        from opens import core

        for owner, name in ((core, "quadratic_form_cn"), (cft_operator, "quadratic_form_cn"),
                            (np.linalg, "solve"), (np.linalg, "cond")):
            monkeypatch.setattr(owner, name, refused)
        base = ["--L", "1", "--d", "1", "--l2", "2"]
        for args in (CN_TABLE,
                     ["operator-m", "--n", "3", "--spec", "vector:0.25"] + base,
                     ["operator-mie", "--n", "3", "--spec", "scalar:1.45"] + base,
                     ["overlap", "--gamma1", "0.3", "--gamma2", "0.5"] + base,
                     ["averaged-purity", "--gamma", "0.3"] + base,
                     ["uv-check", "--spec", "scalar:0.75", "--gamma", "0.3"] + base):
            out = tmp_path / "s.csv"
            assert main(["--output", str(out)] + args) == 0, out.read_text()

    def test_overlap_prints_the_logs_it_exponentiates(self, tmp_path):
        # the generating function underflows to 0 and the UV-finite ratio
        # overflows to inf here; their logs stay finite
        out = tmp_path / "o.csv"
        assert main(["--output", str(out), "overlap", "--spec", "scalar:0.05", "--L", "10",
                     "--d", "10", "--l2", "1000", "--gamma1", "0.1,1", "--gamma2=-1"]) == 0
        lines = [ln.split(",") for ln in out.read_text().splitlines() if not ln.startswith("#")]
        cols, rows = lines[0], lines[1:]
        assert cols[-4:] == ["generating", "uv_ratio", "log_generating", "log_uv_ratio"]
        assert len(rows) == 2
        for row in rows:
            assert row[-4:-2] == ["0", "inf"]
            assert all(np.isfinite(float(x)) for x in row[-2:])

    def test_one_operator_build_per_matrix(self, tmp_path, monkeypatch):
        # overlap, averaged-purity and uv-check read one n = 2 matrix, whatever
        # their grid, and operator-mie builds one per l2; cn-table builds its
        # whole n grid in one shared pass
        real, real_many, calls = cft_operator.build_M_operator, cft_operator.build_M_operators, []

        def counting(*args):
            calls.append(args[0].n)
            return real(*args)

        def counting_many(g, spec, cfg, ns):
            calls.append(tuple(ns))
            return real_many(g, spec, cfg, ns)

        monkeypatch.setattr(cli, "build_M_operator", counting)
        monkeypatch.setattr(cft_operator, "build_M_operator", counting)
        monkeypatch.setattr(cli, "build_M_operators", counting_many)
        for args, want in ((["overlap", "--gamma1", "0.1,0.5", "--gamma2", "0.2,0.4"], [2]),
                           (["averaged-purity", "--gamma", "0.1,0.5,2"], [2]),
                           (["uv-check", "--spec", "scalar:0.75", "--gamma", "0.3"], [2]),
                           (["operator-mie", "--n", "3", "--l2", "2,4,8"], [3, 3, 3]),
                           (["cn-table", "--n", "1:4"], [(1, 2, 3, 4)])):
            calls.clear()
            out = tmp_path / "b.csv"
            assert main(["--output", str(out)] + args + ["--L", "1", "--d", "1"]) == 0
            assert calls == want, args[0]

    def test_long_interval_operator_commands_print_no_nan(self, tmp_path):
        # averaged-purity's normalized column once printed nan where its two
        # exponentials underflow
        for args in (["operator-m", "--spec", "vector:0.45", "--l2", "1000"],
                     ["operator-mie", "--spec", "scalar:1.45", "--l2", "1000"],
                     ["averaged-purity", "--spec", "scalar:1.45", "--l2", "1000",
                      "--gamma", "0.1,0.5,2"]):
            out = tmp_path / "n.csv"
            assert main(["--output", str(out)] + args) == 0
            rows = [l for l in out.read_text().splitlines() if l.startswith("operator-quadrature,")]
            assert rows and not [r for r in rows if "nan" in r.split(",")], rows

    def test_heavy_vector_on_long_intervals(self, tmp_path):
        # the flat add-back of h_v = 0.45 is about 1e12 at l2 = 1000
        for args, nrows in ((["operator-m", "--l2", "1000", "--n", "2"], 2),
                            (["operator-mie", "--l2", "100", "--n", "3"], 1)):
            out = tmp_path / "v.csv"
            assert main(["--output", str(out)] + args
                        + ["--L", "1", "--d", "1", "--spec", "vector:0.45"]) == 0
            rows = [l for l in out.read_text().splitlines() if l.startswith("operator-quadrature")]
            assert len(rows) == nrows
            assert all(np.isfinite(float(v)) for r in rows for v in r.split(",")[5:])


def test_commands_import_only_the_scipy_they_run():
    # a fresh interpreter with nothing of scipy imported beforehand. Importing
    # the CLI loads no scipy, and no command does: the operator quadrature,
    # the lattice dressing solve, the ED oracle's Lanczos and the AAA poles
    # all run on numpy. No command loads mpmath either, and the tests'
    # oracles still reach quad on first use. Nor does any load numpy.ma,
    # which np.unique imports and which costs a first boson-holevo run
    # more than 10 ms.
    code = """
import io, sys
from contextlib import redirect_stdout
scipy_loaded = lambda: sorted(m for m in sys.modules if m.startswith("scipy"))
import opens.cli
assert "scipy" not in sys.modules and "numpy.ma" not in sys.modules, scipy_loaded()
with redirect_stdout(io.StringIO()):
    for argv in (["boson-moments", "--l2", "100"], ["boson-mie", "--l2", "50"],
                 ["boson-holevo", "--l2", "100"], ["boson-time", "--t", "1000"],
                 ["cn-table", "--L", "1", "--d", "1", "--l2", "2", "--n", "1:4"],
                 ["operator-m"], ["operator-mie", "--l2", "2,4"], ["overlap"],
                 ["averaged-purity"], ["uv-check"], ["lattice-moments", "--l2", "10"],
                 ["lattice-moments", "--model", "ising", "--l2", "10"],
                 ["lattice-overlap", "--model", "ising", "--l2-sites", "4"], ["ed-verify"],
                 ["ed-verify", "--model", "0.7:0.3", "--sites", "12", "--l1", "2",
                  "--d-sites", "2", "--l2-sites", "2"]):
        assert opens.cli.main(argv) == 0, argv
        assert "scipy" not in sys.modules, (argv, scipy_loaded())
        assert "numpy.ma" not in sys.modules, argv
assert "mpmath" not in sys.modules
from opens import cft_operator
from opens.core import Geometry
integrate = cft_operator.integrate
import scipy.integrate
assert integrate is scipy.integrate
entry = cft_operator.matrix_entry_offdiag(Geometry(1.0, 2.0, 4.0, 0.5, 3),
                                          cft_operator.OperatorSpec("scalar", 0.25), 1,
                                          cft_operator.QuadratureConfig())
assert abs(entry - 0.7516955011344182) <= 1e-12 * 0.7516955011344182, repr(entry)
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestSharedParser:
    """``main`` parses with one parser per process, a ``--config`` call included."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        cli._shared_parser.cache_clear()
        yield
        cli._shared_parser.cache_clear()

    def test_parser_is_built_once(self, tmp_path, monkeypatch):
        real, built = cli.build_parser, []

        def spy():
            built.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", spy)
        out = tmp_path / "s.csv"
        for args in (["boson-holevo", "--l2", "100"], ["boson-mie", "--l2", "50"],
                     ["boson-moments", "--l2", "100,200"], ["boson-holevo", "--l2", "200"]):
            assert main(["--output", str(out)] + args) == 0
        assert len(built) == 1
        cfg = tmp_path / "run.cfg"
        cfg.write_text("command = boson-holevo\nl2 = 100\n")
        assert main(["--config", str(cfg), "--output", str(out)]) == 0
        assert main(["--output", str(out), "boson-holevo", "--l2", "100"]) == 0
        assert len(built) == 1  # the config file's entries go in as flags, not as defaults

    def test_config_defaults_do_not_leak(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("command = boson-holevo\nL = 5\nl2 = 100\n")
        first, second = tmp_path / "c.csv", tmp_path / "p.csv"
        assert main(["--output", str(second), "boson-holevo", "--l2", "100"]) == 0
        assert main(["--config", str(cfg), "--output", str(first)]) == 0
        assert "# L = 5.0" in first.read_text().splitlines()
        assert main(["--output", str(second), "boson-holevo", "--l2", "100"]) == 0
        assert "# L = 10.0" in second.read_text().splitlines()
