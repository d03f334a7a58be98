"""Command-line interface: parsing, CSV emission, exit codes, round trips."""
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ansec
from ansec import SystemConfig, from_db, optimize_phi
from ansec.cli import RunSpec, main, parse_snr_db, read_run_csv

# two-decimal reference values for the equal-power critical-SNR table,
# keyed by (na, sigma_tilde2, kind); also exercised by the table1 command
TABLE_REFERENCE = {
    (2, 0.0, "exact"): 3.01, (4, 0.0, "exact"): -2.62, (6, 0.0, "exact"): -4.89,
    (8, 0.0, "exact"): -6.36, (10, 0.0, "exact"): -7.45,
    (2, 0.0, "bound"): 6.02, (4, 0.0, "bound"): -1.97, (6, 0.0, "bound"): -4.46,
    (8, 0.0, "bound"): -6.01, (10, 0.0, "bound"): -7.14,
    (2, 0.1, "exact"): 4.56, (4, 0.1, "exact"): -1.88, (6, 0.1, "exact"): -4.27,
    (8, 0.1, "exact"): -5.79, (10, 0.1, "exact"): -6.90,
    (2, 0.1, "bound"): 9.03, (4, 0.1, "bound"): -1.20, (6, 0.1, "bound"): -3.83,
    (8, 0.1, "bound"): -5.43, (10, 0.1, "bound"): -6.59,
    (2, 0.2, "exact"): 6.99, (4, 0.2, "exact"): -1.01, (6, 0.2, "exact"): -3.55,
    (8, 0.2, "exact"): -5.13, (10, 0.2, "exact"): -6.28,
    (2, 0.2, "bound"): math.inf, (4, 0.2, "bound"): -0.26, (6, 0.2, "bound"): -3.08,
    (8, 0.2, "bound"): -4.76, (10, 0.2, "bound"): -5.96,
}


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--output", str(out)])
    return code, out


class TestSnrRangeParsing:
    def test_scalar(self):
        assert parse_snr_db("10") == (10.0,)
        assert parse_snr_db("-2.62") == (-2.62,)

    def test_range_inclusive(self):
        assert parse_snr_db("0:20:5") == (0.0, 5.0, 10.0, 15.0, 20.0)

    def test_range_fractional_step(self):
        pts = parse_snr_db("0:2:0.5")
        assert len(pts) == 5
        assert pts[-1] == 2.0

    def test_range_endpoint_roundoff(self):
        # accumulated float steps must still include the stop value
        assert len(parse_snr_db("0:20:2")) == 11

    def test_singleton_range(self):
        assert parse_snr_db("3:3:1") == (3.0,)

    @pytest.mark.parametrize("bad", ["", "a", "1:5", "1:5:0", "1:5:-1", "5:1:1", "1:2:3:4"])
    def test_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_snr_db(bad)


class TestRunSpecValidation:
    def test_defaults(self):
        spec = RunSpec(command="rate")
        assert spec.na == 4 and spec.ne == 1
        assert spec.phi == 0.5
        assert spec.system.na == 4
        assert spec.csi_error is None

    def test_csi_error_property(self):
        spec = RunSpec(command="rate", sigma_tilde2=0.1)
        assert spec.csi_error is not None
        assert spec.csi_error.sigma_tilde2 == 0.1

    @pytest.mark.parametrize(
        "kw",
        [
            dict(na=2, ne=2), dict(na=1), dict(phi=0.0), dict(phi=1.0),
            dict(phi="maybe"), dict(sigma_tilde2=1.0), dict(samples=1),
            dict(seed=-1), dict(quad_order=1), dict(snr_db=()),
            dict(na=True), dict(ne=True), dict(samples=True), dict(seed=True),
            dict(quad_order=True),
        ],
    )
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            RunSpec(command="rate", **kw)

    def test_rejects_unknown_command(self):
        with pytest.raises(ValueError):
            RunSpec(command="frobnicate")


class TestTable1:
    def test_reference_values(self, tmp_path):
        code, out = run_to_file(tmp_path, "t1.csv", ["table1", "--phi", "0.5"])
        assert code == 0
        records = read_run_csv(str(out))
        assert len(records) == 30
        for rec in records:
            key = (int(rec["na"]), rec["sigma_tilde2"], rec["kind"])
            want = TABLE_REFERENCE[key]
            got = rec["p_c_db"]
            if math.isinf(want):
                assert math.isinf(got), key
            else:
                assert abs(got - want) <= 0.05, key

    def test_formatted_strings(self, capsys):
        assert main(["table1", "--phi", "0.5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "na,sigma_tilde2,kind,p_c_db"
        assert lines[1] == "2,0,exact,3.01"
        assert lines[2] == "2,0,bound,6.02"
        assert "2,0.2,bound,inf" in lines

    def test_needs_numeric_phi(self, capsys):
        assert main(["table1", "--phi", "opt"]) == 2
        assert "numeric --phi" in capsys.readouterr().err


class TestRateCommand:
    def test_break_even_row(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "rate.csv",
            ["rate", "--na", "4", "--ne", "1", "--snr-db", "-2.62", "--phi", "0.5"],
        )
        assert code == 0
        (rec,) = read_run_csv(str(out))
        assert rec["c"] <= 1e-3
        assert rec["c1"] > 1.0
        assert abs(rec["c1"] - rec["c2"]) <= 1e-3

    def test_rejects_range(self, capsys):
        assert main(["rate", "--snr-db", "0:10:5"]) == 2
        assert "use sweep" in capsys.readouterr().err

    def test_optimized_split(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "rate_opt.csv",
            ["rate", "--na", "8", "--snr-db", "20", "--phi", "opt"],
        )
        assert code == 0
        (rec,) = read_run_csv(str(out))
        assert 0.4 < rec["phi"] < 0.7


class TestSweepCommand:
    def test_range_rows(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "sweep.csv",
            ["sweep", "--na", "4", "--ne", "2", "--snr-db", "0:20:5", "--phi", "0.5"],
        )
        assert code == 0
        records = read_run_csv(str(out))
        assert [rec["snr_db"] for rec in records] == [0.0, 5.0, 10.0, 15.0, 20.0]
        cs = [rec["c"] for rec in records]
        assert cs == sorted(cs)

    def test_negative_range_as_separate_argument(self, tmp_path):
        # "-10:40:1" starts with a minus, which argparse takes for an option
        argv = ["sweep", "--na", "4", "--snr-db", "-10:40:1", "--phi", "0.5"]
        code, out = run_to_file(tmp_path, "neg.csv", argv)
        assert code == 0
        records = read_run_csv(str(out))
        assert [rec["snr_db"] for rec in records] == [float(v) for v in range(-10, 41)]
        code, joined = run_to_file(
            tmp_path, "joined.csv",
            ["sweep", "--na", "4", "--snr-db=-10:40:1", "--phi", "0.5"],
        )
        assert code == 0
        assert out.read_text() == joined.read_text()


class TestOptPhiCommands:
    def test_opt_phi_row(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "opt.csv", ["opt-phi", "--na", "2", "--snr-db", "30"]
        )
        assert code == 0
        (rec,) = read_run_csv(str(out))
        assert 0.49 <= rec["phi_star"] <= 0.51
        assert abs(rec["phi_star"] * rec["z_star"] - 1.0) <= 1e-9
        assert rec["converged"] is True

    def test_adaptive_row(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "adaptive.csv",
            ["opt-phi-adaptive", "--na", "4", "--snr-db", "10", "--quad-order", "32"],
        )
        assert code == 0
        (rec,) = read_run_csv(str(out))
        assert rec["quad_order"] == 32
        assert rec["c_adaptive"] > 0.5

    def test_adaptive_rejects_estimation_error(self, capsys):
        code = main(["opt-phi-adaptive", "--na", "4", "--snr-db", "10",
                     "--sigma-tilde2", "0.1"])
        assert code == 2
        assert "perfect CSI" in capsys.readouterr().err


class TestCriticalSnrCommand:
    def test_finite_exact_infinite_bound(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "crit.csv",
            ["critical-snr", "--na", "2", "--sigma-tilde2", "0.2", "--phi", "0.5"],
        )
        assert code == 0
        (rec,) = read_run_csv(str(out))
        assert abs(rec["p_c_exact_db"] - 6.99) <= 0.05
        assert math.isinf(rec["p_c_bound_db"])

    def test_needs_numeric_phi(self, capsys):
        assert main(["critical-snr", "--na", "4", "--phi", "opt"]) == 2
        assert "numeric --phi" in capsys.readouterr().err


class TestValidateCommand:
    def test_agreement_exit_zero(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "val.csv",
            ["validate", "--na", "4", "--ne", "2", "--snr-db", "10", "--phi", "0.5",
             "--samples", "100000", "--seed", "7"],
        )
        assert code == 0
        records = read_run_csv(str(out))
        assert [rec["quantity"] for rec in records] == ["c1", "c2"]
        for rec in records:
            assert rec["ok"] is True
            assert rec["abs_dev"] <= 3 * rec["stderr"]

    def test_estimation_error_adds_rate_row(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "val_err.csv",
            ["validate", "--na", "4", "--ne", "1", "--snr-db", "10", "--phi", "0.5",
             "--sigma-tilde2", "0.1", "--samples", "40000", "--seed", "11"],
        )
        records = read_run_csv(str(out))
        assert [rec["quantity"] for rec in records] == ["c1", "c2", "rate_imperfect"]
        assert code == 0

    def test_byte_identical_reruns(self, tmp_path):
        argv = ["validate", "--na", "3", "--ne", "2", "--snr-db", "5", "--phi", "0.4",
                "--samples", "20000", "--seed", "123"]
        _, first = run_to_file(tmp_path, "a.csv", argv)
        _, second = run_to_file(tmp_path, "b.csv", argv)
        assert first.read_bytes() == second.read_bytes()


class TestCsvRoundTrip:
    def test_stdout_matches_file(self, tmp_path, capsys):
        argv = ["rate", "--na", "4", "--snr-db", "10", "--phi", "0.5"]
        assert main(argv) == 0
        stdout_text = capsys.readouterr().out
        _, out = run_to_file(tmp_path, "roundtrip.csv", argv)
        assert stdout_text == out.read_text()

    def test_reader_types(self, tmp_path):
        _, out = run_to_file(
            tmp_path, "types.csv", ["opt-phi", "--na", "4", "--snr-db", "10"]
        )
        (rec,) = read_run_csv(str(out))
        assert isinstance(rec["na"], float)
        assert isinstance(rec["c_star"], float)
        assert isinstance(rec["converged"], bool)
        assert isinstance(rec["iterations"], float)


class TestConfigFile:
    def test_defaults_from_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# sweep defaults\nna = 6\nsnr-db = 0:10:5\nphi = 0.5\n")
        out = tmp_path / "out.csv"
        code = main(["sweep", "--config", str(cfg), "--output", str(out)])
        assert code == 0
        records = read_run_csv(str(out))
        assert len(records) == 3
        assert all(rec["na"] == 6.0 for rec in records)

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("na = 6\n")
        out = tmp_path / "out.csv"
        code = main(["rate", "--config", str(cfg), "--na", "8", "--snr-db", "10",
                     "--output", str(out)])
        assert code == 0
        (rec,) = read_run_csv(str(out))
        assert rec["na"] == 8.0

    def test_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("antennas = 6\n")
        assert main(["rate", "--config", str(cfg)]) == 2
        assert "antennas" in capsys.readouterr().err

    def test_bad_value_names_its_flag(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("na = abc\n")
        assert main(["rate", "--config", str(cfg)]) == 2
        assert "--na" in capsys.readouterr().err


def ansec_logging_state():
    loggers = [logging.getLogger("ansec")] + [
        logger for name, logger in logging.Logger.manager.loggerDict.items()
        if name.startswith("ansec.") and isinstance(logger, logging.Logger)
    ]
    return [(lg.name, lg.level, list(lg.handlers)) for lg in loggers], logging.getLogger().level


class TestDebugFlag:
    ARGV = ["opt-phi", "--na", "3", "--snr-db", "0:10:5"]

    def test_opt_phi_logs_each_grid_point(self, capsys, caplog):
        assert main(self.ARGV) == 0
        plain = capsys.readouterr()
        assert plain.err == ""
        assert main(self.ARGV + ["--debug"]) == 0
        debug = capsys.readouterr()
        assert debug.out == plain.out
        lines = debug.err.splitlines()
        assert len(lines) == 3 * 65
        assert all(re.fullmatch(r"phi=0\.\d{6} rate=\S+", line) for line in lines)
        # the records the solver logs once "ansec" is enabled for DEBUG
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="ansec"):
            for snr in (0.0, 5.0, 10.0):
                optimize_phi(SystemConfig(3, 1), from_db(snr))
        assert lines == [record.getMessage() for record in caplog.records]

    def test_rate_with_optimized_split_logs(self, capsys):
        assert main(["rate", "--phi", "opt", "--debug"]) == 0
        assert len(capsys.readouterr().err.splitlines()) == 65

    @pytest.mark.parametrize(
        "argv, code",
        [(ARGV + ["--debug"], 0), (["table1", "--phi", "opt", "--debug"], 2)],
    )
    def test_leaves_logging_as_found(self, argv, code, capsys):
        before = ansec_logging_state()
        assert main(argv) == code
        capsys.readouterr()
        assert ansec_logging_state() == before


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["rate", "--na", "2", "--ne", "4"],
            ["rate", "--phi", "1.5"],
            ["rate", "--snr-db", "10:0:1"],
            ["rate", "--samples", "1"],
        ],
    )
    def test_usage_errors(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err != ""

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_numerical_failure(self, monkeypatch, capsys):
        # a series past its term cap raises RuntimeError: one error line and
        # a code of its own, apart from usage errors and failed validation
        def failing(spec):
            raise RuntimeError("2F1 series failed to converge for b=2, c=8, y=0.99")

        monkeypatch.setitem(ansec.cli._COMMANDS, "critical-snr", ("", failing))
        assert main(["critical-snr", "--na", "8", "--ne", "4", "--phi", "0.5"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 2F1 series failed to converge for b=2, c=8, y=0.99\n"

    def test_missing_command(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_console_entry_point(self):
        # the installed script must wire to the same main; the child
        # imports the same ansec tree as this process
        tree = str(Path(ansec.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [tree, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from ansec.cli import main; sys.exit(main(sys.argv[1:]))",
             "critical-snr", "--na", "4", "--phi", "0.5"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("na,ne,phi,sigma_tilde2")
