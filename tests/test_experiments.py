import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lensmimo.channel import ChannelStats
from lensmimo.errors import ConfigError, InvalidInputError
from lensmimo.experiments import (
    CSV_HEADER,
    ExperimentConfig,
    preset,
    preset_names,
    rows_to_csv,
    run_experiment,
    sweep,
)


class TestPresets:
    def test_known_names_and_aliases(self):
        assert "fig5-narrowband-ideal" in preset_names()
        assert preset("fig5").scenario == "fig5-narrowband-ideal"
        assert preset("fig9-wideband-spread150").rx_rf == 6

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            preset("fig7")

    def test_overrides(self):
        cfg = preset("fig5", trials=7, seed=42)
        assert cfg.trials == 7 and cfg.seed == 42

    def test_preset_parameters(self):
        cfg = preset("fig9")
        assert (cfg.tx_aperture, cfg.rx_aperture) == (100.0, 50.0)
        assert (cfg.tx_azimuth_dim, cfg.rx_azimuth_dim) == (20.0, 10.0)
        assert cfg.stats.aoa_spread_deg == 150.0
        assert preset("fig10").stats.aoa_spread_deg == 10.0

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            preset("fig5", trials=0)
        with pytest.raises(InvalidInputError):
            preset("fig5", schemes=("OPDM", "magic"))
        with pytest.raises(InvalidInputError):
            preset("fig5", schemes=("UPA-OFDM-selection",))  # no RF budgets

    def test_repeated_snr_point_refused(self):
        with pytest.raises(InvalidInputError, match="snr_db lists 10 dB more than once"):
            preset("fig5", snr_db=(0.0, 10.0, 10.0))
        with pytest.raises(InvalidInputError, match="snr_db lists -0 dB"):
            preset("fig5", snr_db=(0.0, -0.0))

    def test_cyclic_prefix_must_cover_longest_tap(self):
        # 200 ns at 500 MHz is 100 samples, twice the 50-sample cyclic prefix.
        stats = replace(preset("fig6").stats, max_excess_delay_s=200e-9)
        with pytest.raises(InvalidInputError):
            preset("fig6", stats=stats)
        with pytest.raises(InvalidInputError):
            preset("fig9", stats=replace(preset("fig9").stats, max_excess_delay_s=200e-9))
        # Schemes without a cyclic prefix accept the long delay spread.
        assert preset("fig6", stats=stats, schemes=("OPDM",)).stats is stats


class TestRunExperiment:
    def test_row_count(self):
        cfg = preset("fig5", trials=3)
        rows = run_experiment(cfg, workers=1)
        assert len(rows) == len(cfg.schemes) * len(cfg.snr_db)

    def test_monotone_in_snr(self):
        cfg = preset("fig5", trials=5)
        rows = run_experiment(cfg, workers=1)
        for scheme in cfg.schemes:
            se = [r.se_bpshz for r in rows if r.scheme == scheme]
            assert all(a <= b + 1e-12 for a, b in zip(se, se[1:]))

    def test_worker_count_invariance(self):
        cfg = preset("fig9", trials=4)
        serial = run_experiment(cfg, workers=1)
        parallel = run_experiment(cfg, workers=2)
        assert serial == parallel

    def test_opdm_skip_flag_on_random_angles(self):
        cfg = ExperimentConfig(
            scenario="custom",
            tx_aperture=20.0,
            rx_aperture=20.0,
            tx_azimuth_dim=10.0,
            rx_azimuth_dim=10.0,
            stats=ChannelStats(aoa_spread_deg=150.0, aod_spread_deg=60.0),
            schemes=("OPDM",),
            snr_db=(10.0,),
            trials=3,
        )
        rows = run_experiment(cfg, workers=1)
        assert rows[0].trials == 0
        assert "opdm-skip:3" in rows[0].flags

    def test_grouping_fallback_flag(self):
        # Angles too close on both sides on every trial
        cfg = ExperimentConfig(
            scenario="custom",
            tx_aperture=20.0,
            rx_aperture=20.0,
            tx_azimuth_dim=10.0,
            rx_azimuth_dim=10.0,
            stats=ChannelStats(
                aoa_spatial_freqs=(0.0, 0.05, 0.1), aod_spatial_freqs=(0.0, 0.05, 0.1)
            ),
            schemes=("PDM-MMSE", "PDM-grouping"),
            snr_db=(10.0,),
            trials=2,
        )
        rows = run_experiment(cfg, workers=1)
        grouping = [r for r in rows if r.scheme == "PDM-grouping"][0]
        mmse = [r for r in rows if r.scheme == "PDM-MMSE"][0]
        assert "grouping-fallback:2" in grouping.flags
        assert grouping.se_bpshz == pytest.approx(mmse.se_bpshz)

    def test_sweeps_import_neither_numpy_ma_nor_scipy(self):
        # Either import would add to every sweep's start-up time (numpy.ma
        # alone costs ~15 ms, and np.unique pulls it in), so a fresh process
        # runs one trial of each preset and reports what got imported.
        script = (
            "import sys\n"
            "from lensmimo.experiments import preset, run_experiment\n"
            "for name in ('fig5', 'fig6', 'fig9', 'fig10'):\n"
            "    run_experiment(preset(name, trials=1), workers=1)\n"
            "print(sorted(m for m in ('numpy.ma', 'scipy') if m in sys.modules))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_stderr_nonnegative_finite(self):
        rows = run_experiment(preset("fig5", trials=4), workers=1)
        for r in rows:
            assert r.stderr >= 0 and np.isfinite(r.se_bpshz)


class TestSweep:
    def test_csv_shape_and_determinism(self, tmp_path):
        cfg = preset("fig5", trials=2, snr_db=(0.0, 10.0))
        out = tmp_path / "a.csv"
        sweep(cfg, str(out), workers=1)
        text = out.read_text()
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 2
        out2 = tmp_path / "b.csv"
        sweep(cfg, str(out2), workers=2)
        assert out2.read_bytes() == out.read_bytes()

    def test_unwritable_path(self):
        cfg = preset("fig5", trials=1, schemes=("OPDM",), snr_db=(0.0,))
        with pytest.raises(OSError):
            sweep(cfg, "/nonexistent-dir/out.csv", workers=1)

    def test_rows_to_csv_roundtrip_columns(self):
        rows = run_experiment(preset("fig5", trials=1, snr_db=(0.0,)), workers=1)
        text = rows_to_csv(rows)
        for line in text.strip().split("\n")[1:]:
            assert len(line.split(",")) == 6
