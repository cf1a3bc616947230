import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from lensmimo import cli
from lensmimo.cli import main, parse_config_file
from lensmimo.errors import ConfigError
from lensmimo.experiments import preset


class TestConfigFile:
    def test_parses_keys_and_comments(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text(
            "# experiment\nscenario = fig5\ntrials=4  # small\nsnr_db = 0, 10, 20\n"
            "schemes = OPDM, UPA-eigenmode\nseed=3\n"
        )
        cfg = parse_config_file(str(p))
        assert cfg["scenario"] == "fig5"
        assert cfg["trials"] == "4"
        assert cfg["snr_db"] == "0, 10, 20"

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("scenario=fig5\ncolour=blue\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(p))

    def test_repeated_key(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("scenario=fig5\ntrials = 2\ntrials = 3\n")
        with pytest.raises(ConfigError, match=r"c\.cfg:3: repeated key 'trials'"):
            parse_config_file(str(p))

    def test_missing_equals(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("scenario fig5\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(p))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config_file("/no/such/file.cfg")


class TestMain:
    def test_sweep_writes_csv(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(
            ["sweep", "--scenario", "fig5", "--trials", "2", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "scheme,snr_db,se_bpshz,stderr,trials,flags"
        assert len(lines) > 1

    def test_sweep_repeat_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--scenario", "fig5", "--trials", "2", "--seed", "9"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_run_prints_csv(self, capsys):
        code = main(["run", "--scenario", "fig5", "--trials", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("scheme,snr_db,")

    def test_channel_output(self, capsys):
        assert main(["channel", "--scenario", "fig9", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("path,gain_real,")
        assert len(out.strip().split("\n")) == 4

    def test_response_output(self, tmp_path):
        out = tmp_path / "resp.csv"
        assert main(["response", "--scenario", "fig5", "--out", str(out)]) == 0
        assert out.read_text().startswith("spatial_freq,element,response")

    def test_config_file_flow(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario=fig5\ntrials=1\nsnr_db=0 10\nschemes=OPDM\n")
        assert main(["run", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().split("\n")) == 3  # header + 2 SNR points

    def test_cli_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario=fig5\ntrials=5\nschemes=OPDM\nsnr_db=0\n")
        assert main(["run", "--config", str(cfg), "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert out.strip().split("\n")[1].split(",")[4] == "2"

    def test_snr_db_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario=fig5\ntrials=1\nschemes=OPDM\nsnr_db=0\n")
        assert main(["run", "--config", str(cfg), "--snr-db", "5, 15, 25"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")[1:]
        assert [line.split(",")[1] for line in lines] == ["5", "15", "25"]

    def test_schemes_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario=fig5\ntrials=1\nschemes=OPDM\nsnr_db=0\n")
        assert main(["run", "--config", str(cfg), "--schemes", "UPA-eigenmode"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")[1:]
        assert [line.split(",")[0] for line in lines] == ["UPA-eigenmode"]

    def test_short_cyclic_prefix_exit_code(self, monkeypatch, capsys):
        # No setting reaches the delay spread, so stretch the preset's.
        def long_delay_preset(name, **overrides):
            stats = replace(preset(name).stats, max_excess_delay_s=200e-9)
            return preset(name, stats=stats, **overrides)

        monkeypatch.setattr(cli, "preset", long_delay_preset)
        assert main(["run", "--scenario", "fig6", "--trials", "1"]) == 2
        assert "cyclic prefix" in capsys.readouterr().err

    def test_extreme_snr_sweep_prints_every_row(self, capsys):
        # At 140 dB the antenna-space MMSE covariances of some fig9 trials
        # are singular in double precision; the path-space solve is not, so
        # the sweep keeps every scheme and SNR point.
        args = ["run", "--scenario", "fig9", "--trials", "30", "--snr-db", "0,140"]
        assert main(args) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")[1:]]
        assert len(rows) == 8
        assert all(row[4] == "30" for row in rows)
        se = {(row[0], row[1]): float(row[2]) for row in rows}
        assert se["PDM-MMSE", "140"] >= se["PDM-MRC", "140"]

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--snr-db", "", "snr_db"),
            ("--snr-db", "inf", "snr_db"),
            ("--snr-db", "nan", "snr_db"),
            ("--snr-db", "0,10,0", "snr_db"),
            ("--schemes", "", "schemes"),
            ("--schemes", "PDM-MRC,PDM-MRC", "schemes"),
            ("--seed", "-1", "seed"),
            ("--snr-db", "4000", "snr_db"),
            ("--snr-db", "3080", "snr_db"),
            ("--snr-db", "-4000", "snr_db"),
        ],
        ids=[
            "empty-snr",
            "inf-snr",
            "nan-snr",
            "repeated-snr",
            "empty-schemes",
            "repeated-scheme",
            "negative-seed",
            "overflowing-power",
            "infinite-power",
            "zero-power",
        ],
    )
    def test_malformed_sweep_grid_exit_code(self, flag, value, field, capsys):
        assert main(["run", "--scenario", "fig9", "--trials", "1", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {field} ")
        assert "Traceback" not in captured.err

    def test_non_finite_rate_exit_code(self):
        # At 2000 dB the transmit power is finite, but the PDM-MMSE
        # covariance entries pass 1e190 and the combiner directions
        # underflow to zero norm. The sweep is refused, naming the scheme,
        # instead of printing inf or nan. A fresh process runs the command
        # as a user would, with its worker pool; the error is all of stderr,
        # with no numpy warning before it.
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        args = ["run", "--scenario", "fig9", "--trials", "2", "--snr-db=2000"]
        done = subprocess.run(
            [sys.executable, "-m", "lensmimo.cli", *args],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 2, done.stderr
        assert done.stdout == ""
        assert done.stderr == (
            "error: PDM-MMSE: an MMSE combiner direction has zero or non-finite norm\n"
        )

    def test_malformed_sweep_grid_in_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario=fig9\ntrials=1\nsnr_db=\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: snr_db ")

    def test_negative_seed_refused_by_channel(self, capsys):
        assert main(["channel", "--scenario", "fig5", "--seed", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: seed ")

    def test_bad_sim_threads_exit_code(self, monkeypatch, capsys):
        monkeypatch.setenv("SIM_THREADS", "abc")
        assert main(["run", "--scenario", "fig5", "--trials", "2"]) == 2
        assert "SIM_THREADS" in capsys.readouterr().err

    def test_missing_scenario_is_config_error(self, capsys):
        assert main(["run"]) == 2
        assert "scenario" in capsys.readouterr().err

    def test_unknown_scenario_exit_code(self, capsys):
        assert main(["run", "--scenario", "nope"]) == 2

    def test_bad_config_value_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario=fig5\ntrials=many\n")
        assert main(["run", "--config", str(cfg)]) == 2

    def test_sweep_requires_out(self, capsys):
        assert main(["sweep", "--scenario", "fig5", "--trials", "1"]) == 2

    def test_io_error_exit_code(self, capsys):
        code = main(
            ["sweep", "--scenario", "fig5", "--trials", "1", "--out", "/no-dir/x.csv"]
        )
        assert code == 3
