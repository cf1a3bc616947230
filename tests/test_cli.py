import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from lensmimo import cli
from lensmimo.cli import main, parse_config_file
from lensmimo.errors import ConfigError
from lensmimo.experiments import _Block, preset


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

    def test_file_not_utf8(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_bytes(b"scenario = fig5\n# caf\xe9\n")
        with pytest.raises(ConfigError, match=r"c\.cfg' is not UTF-8 text"):
            parse_config_file(str(p))
        assert main(["run", "--config", str(p)]) == 2
        assert "is not UTF-8 text" in capsys.readouterr().err


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

    def test_channel_matches_trial_0_of_a_sweep(self, capsys):
        # `simulate channel` draws through sample_paths, a sweep block
        # through its random part alone: the same realization either way.
        assert main(["channel", "--scenario", "fig9", "--seed", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        paths = _Block(preset("fig9", seed=3), range(4)).paths
        assert len(lines) == paths.num_paths
        for l, line in enumerate(lines):
            g, delay = paths.gains[0, l], paths.delays_s[0, l]
            aoa, aod = paths.aoa_spatial_freqs[l], paths.aod_spatial_freqs[l]
            assert line == f"{l},{g.real:.12g},{g.imag:.12g},{delay:.12g},{aoa:.12g},{aod:.12g}"

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

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--rx-rf", "500", "rx_rf must be an integer between 1 and 200, the receive UPA"),
            ("--rx-rf", "0", "rx_rf must be an integer between 1 and 200, the receive UPA"),
            ("--tx-rf", "-3", "tx_rf must be an integer between 1 and 400, the transmit UPA"),
        ],
        ids=["rx-rf-500", "rx-rf-0", "tx-rf-minus-3"],
    )
    def test_rf_budget_beyond_the_upa_exit_code(self, monkeypatch, capsys, flag, value, message):
        # Refused with the config, before any trial is drawn or scored.
        def no_trials(*args):
            raise AssertionError("a trial ran before the RF budgets were checked")

        monkeypatch.setattr(cli, "run_experiment", no_trials)
        assert main(["run", "--scenario", "fig9", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message} element count; got {value}\n"

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
        # The transmit power is finite at these points, but a product leaves
        # double range: at 3020 dB the UPA-OFDM-selection budget times its
        # 512 subcarriers, at 3030 dB PDM-MRC's launched stream powers. The
        # sweep is refused, naming the scheme, instead of printing inf or
        # nan. A fresh process runs the command as a user would, with its
        # worker pool; the error is all of stderr, with no numpy warning
        # before it.
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        for snr, scheme in (("3020", "UPA-OFDM-selection"), ("3030", "PDM-MRC")):
            args = ["run", "--scenario", "fig9", "--trials", "2", f"--snr-db={snr}"]
            done = subprocess.run(
                [sys.executable, "-m", "lensmimo.cli", *args],
                env=dict(os.environ, PYTHONPATH=path),
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert done.returncode == 2, done.stderr
            assert done.stdout == ""
            message = rf"error: {scheme}: overflow encountered in \w+\n"
            assert re.fullmatch(message, done.stderr), done.stderr

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

    def test_num_paths_is_not_a_setting(self, tmp_path, capsys):
        # The path count is the length of the preset's AoD list.
        with pytest.raises(SystemExit) as info:
            main(["run", "--scenario", "fig9", "--num-paths", "3"])
        assert info.value.code == 2
        assert "unrecognized arguments: --num-paths 3" in capsys.readouterr().err
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario=fig9\nnum_paths=3\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "unknown key 'num_paths'" in capsys.readouterr().err

    def test_sweep_requires_out(self, capsys):
        assert main(["sweep", "--scenario", "fig5", "--trials", "1"]) == 2

    def test_io_error_exit_code(self, capsys):
        code = main(
            ["sweep", "--scenario", "fig5", "--trials", "1", "--out", "/no-dir/x.csv"]
        )
        assert code == 3
