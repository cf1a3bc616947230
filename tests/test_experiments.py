import concurrent.futures
import itertools
import math
import os
import re
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lensmimo import channel, experiments, numerics
from lensmimo.channel import BANDWIDTH_HZ, NOISE_POWER, ChannelStats
from lensmimo.errors import ConfigError, InvalidInputError, NumericalError
from lensmimo.experiments import (
    CSV_HEADER,
    ExperimentConfig,
    preset,
    preset_names,
    rows_to_csv,
    run_experiment,
    sweep,
)
from lensmimo.grouping import group_channels, grouped_capacity
from lensmimo.numerics import waterfill_capacity
from lensmimo.opdm import path_gains
from lensmimo.upa import (
    OfdmConfig,
    eigenmode_capacity,
    ofdm_capacity,
    power_select_antennas,
    selected_link,
)


@pytest.fixture
def pools(monkeypatch):
    """The worker counts of the pools the sweeps start."""
    started = []

    class Spy(ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    return started


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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("trials", math.nan),
            ("trials", 2.5),
            ("trials", 2.0),
            ("trials", 0),
            ("delta", math.nan),
            ("delta", 1.5),
            ("seed", math.nan),
            ("seed", 3.0),
            ("seed", -1),
        ],
    )
    def test_integer_fields_must_be_integers(self, field, value):
        # NaN passes every comparison with a bound, and a float, integral or
        # not, is no trial count, seed or support width: all are refused
        # before a sweep starts. numpy integers are integers.
        with pytest.raises(InvalidInputError, match=f"^{field} must be an integer >= "):
            preset("fig9", **{field: value})
        assert preset("fig9", **{field: np.int64(3)}).__dict__[field] == 3

    @pytest.mark.parametrize(
        "field, value, count, side",
        [
            ("rx_rf", 500, 200, "receive"),
            ("rx_rf", 0, 200, "receive"),
            ("tx_rf", -3, 400, "transmit"),
            ("tx_rf", 401, 400, "transmit"),
            ("rx_rf", 2.5, 200, "receive"),
        ],
    )
    def test_rf_budgets_beyond_the_upa_refused(self, field, value, count, side):
        # fig9's UPAs have 4 * 50 receive and 4 * 100 transmit elements. A
        # fractional budget is no count of RF chains.
        with pytest.raises(InvalidInputError) as info:
            preset("fig9", **{field: value})
        assert str(info.value) == (
            f"{field} must be an integer between 1 and {count}, the {side} UPA element count; "
            f"got {value}"
        )
        # Full budgets are accepted, and the budgets are not checked when no
        # scheme selects antennas.
        assert preset("fig9", rx_rf=200, tx_rf=400).rx_rf == 200
        assert preset("fig9", schemes=("PDM-MRC",), **{field: value}).schemes == ("PDM-MRC",)

    @pytest.mark.parametrize("field", ["trials", "delta", "seed", "rx_rf", "tx_rf"])
    def test_bools_are_no_integers(self, field):
        # bool is an Integral, and True would act as 1 (False as seed 0).
        for value in (True, False):
            with pytest.raises(InvalidInputError, match=f"^{field} must be an integer"):
                preset("fig9", **{field: value})

    def test_path_count_is_the_aod_list_length(self):
        # No setting but the AoD list gives the path count.
        with pytest.raises(ConfigError, match="num_paths"):
            preset("fig9", num_paths=3)
        four = tuple(np.sin(np.deg2rad([-15.0, 10.0, 45.0, 60.0])).tolist())
        cfg = preset("fig9", stats=replace(preset("fig9").stats, aod_spatial_freqs=four))
        assert experiments._Block(cfg, range(2)).paths.gains.shape == (2, 4)
        # fig5 fixes three AoAs too, so four AoDs are refused.
        with pytest.raises(InvalidInputError, match="AoA list has 3 entries, the AoD list 4"):
            replace(preset("fig5").stats, aod_spatial_freqs=four)

    def test_arrays_of_the_configured_schemes_checked_when_built(self):
        # A receive aperture of 20.1 gives a valid lens but a UPA of 80.4
        # elements, and a receive azimuth of 10.5 a lens of 22 elements.
        with pytest.raises(InvalidInputError, match=r"4 \* aperture must be an integer"):
            preset("fig5", rx_aperture=20.1)
        with pytest.raises(InvalidInputError, match="odd element count"):
            preset("fig5", schemes=("OPDM",), rx_azimuth_dim=10.5)

    def test_repeated_snr_point_refused(self):
        with pytest.raises(InvalidInputError, match="snr_db lists 10 dB more than once"):
            preset("fig5", snr_db=(0.0, 10.0, 10.0))
        with pytest.raises(InvalidInputError, match="snr_db lists -0 dB"):
            preset("fig5", snr_db=(0.0, -0.0))

    def test_table_built_once(self, monkeypatch):
        preset("fig6", trials=2)  # builds the table unless an earlier call did
        built = []
        original = ExperimentConfig.__post_init__

        def counting(cfg):
            built.append(cfg.scenario)
            original(cfg)

        monkeypatch.setattr(ExperimentConfig, "__post_init__", counting)
        assert preset("fig6", trials=2).trials == 2
        assert built == ["fig6-wideband-ideal"]  # its own replace only
        with pytest.raises(InvalidInputError):
            preset("fig6", trials=0)  # the overrides are still validated

    def test_cyclic_prefix_must_cover_longest_tap(self):
        # 200 ns at 500 MHz is 100 samples, twice the 50-sample cyclic prefix.
        stats = replace(preset("fig6").stats, max_excess_delay_s=200e-9)
        with pytest.raises(InvalidInputError):
            preset("fig6", stats=stats)
        with pytest.raises(InvalidInputError):
            preset("fig9", stats=replace(preset("fig9").stats, max_excess_delay_s=200e-9))
        # Schemes without a cyclic prefix accept the long delay spread.
        assert preset("fig6", stats=stats, schemes=("OPDM",)).stats is stats

    def test_ofdm_numerology_is_no_setting(self):
        # One numerology for every sweep, whose 50-sample prefix is shorter
        # than its 512-sample symbol: the prefix check covers the symbol's.
        assert preset("fig6").ofdm == preset("fig9").ofdm == OfdmConfig(512, 50)
        with pytest.raises(ConfigError, match="unexpected keyword argument 'ofdm'"):
            preset("fig6", ofdm=OfdmConfig(64, 50))


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

    @pytest.mark.blas_threads
    def test_worker_count_invariance(self, monkeypatch, pools):
        # Blocks of 2 and a free pool: trials 2 and 3 run in the workers.
        monkeypatch.setattr(experiments, "_BLOCK", 2)
        monkeypatch.setattr(experiments, "_WORKER_COST_S", 0.0)
        cfg = preset("fig9", trials=4)
        serial = run_experiment(cfg, workers=1)
        parallel = run_experiment(cfg, workers=2)
        assert serial == parallel
        assert pools == [2]

    def test_lens_only_sweep_builds_no_upa(self):
        # Only the UPA schemes build the UPAs, which this aperture does not allow.
        cfg = preset("fig5", rx_aperture=20.1, schemes=("OPDM",), trials=2)
        rows = run_experiment(cfg, workers=1)
        assert [r.trials for r in rows] == [2] * len(cfg.snr_db)

    def test_short_sweep_starts_no_pool(self, pools):
        run_experiment(preset("fig9", trials=30), workers=2)
        assert pools == []

    @pytest.mark.parametrize("workers", [2.5, math.nan, 0])
    def test_bad_worker_count_refused(self, monkeypatch, workers):
        # Refused before the first block runs: a float is no process count.
        def no_block(*args):
            raise AssertionError("a block ran before the worker count was checked")

        monkeypatch.setattr(experiments, "_run_block", no_block)
        with pytest.raises(InvalidInputError, match="^worker count must be an integer >= 1, got "):
            run_experiment(preset("fig9", trials=2000), workers=workers)

    def test_bool_worker_count_refused(self, monkeypatch):
        # True would run one worker: a bool is no process count, whether
        # given as the argument or reached through resolve_workers.
        def no_block(*args):
            raise AssertionError("a block ran before the worker count was checked")

        monkeypatch.setattr(experiments, "_run_block", no_block)
        for workers in (True, False):
            with pytest.raises(InvalidInputError, match="^worker count must be an integer >= 1"):
                run_experiment(preset("fig9", trials=2000), workers=workers)
            with pytest.raises(InvalidInputError, match="^worker count must be an integer >= 1"):
                experiments.resolve_workers(workers)

    @pytest.mark.parametrize("factor, started", [(0.9, []), (1.1, [2])])
    def test_pool_only_when_it_saves_its_cost(self, monkeypatch, pools, factor, started):
        # The first block's 32 trials take block_s, so the pool is predicted
        # to save block_s / 2 on the other 32 at two workers, against a cost
        # of two workers.
        block_s = factor * 4 * experiments._WORKER_COST_S
        clock = itertools.cycle([0.0, block_s])
        monkeypatch.setattr(experiments, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
        cfg = preset("fig5", trials=64, seed=4)
        rows = run_experiment(cfg, workers=2)
        assert pools == started
        assert rows == run_experiment(cfg, workers=1)

    def test_opdm_skip_flag_on_random_angles(self):
        cfg = ExperimentConfig(
            scenario="custom",
            tx_aperture=20.0,
            rx_aperture=20.0,
            tx_azimuth_dim=10.0,
            rx_azimuth_dim=10.0,
            stats=ChannelStats(
                aoa_spread_deg=150.0,
                aod_spatial_freqs=(-0.49999999999999994, 0.0, 0.49999999999999994),
            ),
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

    @pytest.mark.parametrize("size", [1, 7, 32])
    @pytest.mark.parametrize(
        "overrides, scheme, flag",
        [
            ({"delta": 5}, "PDM-grouping", "grouping-fallback"),
            ({"schemes": ("OPDM",) + preset("fig9").schemes}, "OPDM", "opdm-skip"),
        ],
        ids=["fig9-delta5", "fig9-opdm"],
    )
    def test_geometry_flags_through_the_pool(
        self, monkeypatch, pools, overrides, scheme, flag, size
    ):
        # A flag follows from the geometry, so it counts all 40 trials,
        # in blocks of any size and through a forced 2-worker pool that the
        # first block of a fresh config object pickles its geometry to.
        # PDM-grouping falls back to the PDM-MMSE rates; OPDM reports 0
        # trials and rates of 0. The other schemes carry no flag.
        monkeypatch.setattr(experiments, "_BLOCK", size)
        monkeypatch.setattr(experiments, "_WORKER_COST_S", 0.0)
        cfg = preset("fig9", trials=40, seed=6, **overrides)
        serial = run_experiment(cfg, workers=1)
        parallel = run_experiment(replace(cfg), workers=2)
        assert rows_to_csv(parallel) == rows_to_csv(serial)
        assert pools == [2]
        for row in serial:
            assert row.flags == (f"{flag}:40" if row.scheme == scheme else "")
        flagged = [r for r in serial if r.scheme == scheme]
        if flag == "opdm-skip":
            assert all((r.trials, r.se_bpshz, r.stderr) == (0, 0.0, 0.0) for r in flagged)
        else:
            mmse = [(r.se_bpshz, r.stderr, r.trials) for r in serial if r.scheme == "PDM-MMSE"]
            assert [(r.se_bpshz, r.stderr, r.trials) for r in flagged] == mmse

    def test_sweeps_import_neither_numpy_ma_nor_scipy(self):
        # Either import would add to every sweep's start-up time (numpy.ma
        # alone costs ~15 ms, and np.unique pulls it in), so a fresh process
        # runs one trial of each preset and reports what got imported. Only
        # a sweep that forks loads the process pool and multiprocessing.
        modules = ("numpy.ma", "scipy", "concurrent.futures.process", "multiprocessing")
        script = (
            "import sys, lensmimo\n"
            f"print(sorted(m for m in {modules} if m in sys.modules))\n"
            "from lensmimo.experiments import preset, run_experiment\n"
            "for name in ('fig5', 'fig6', 'fig9', 'fig10'):\n"
            "    run_experiment(preset(name, trials=1), workers=1)\n"
            f"print(sorted(m for m in {modules} if m in sys.modules))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["[]", "[]"]

    def test_stderr_nonnegative_finite(self):
        rows = run_experiment(preset("fig5", trials=4), workers=1)
        for r in rows:
            assert r.stderr >= 0 and np.isfinite(r.se_bpshz)

    @pytest.mark.parametrize("trials", [1, 2, 70])
    def test_mean_and_stderr_are_numpys(self, trials):
        # Bit for bit ndarray.mean and std(ddof=1) / sqrt(n) of the rates.
        cfg = preset("fig9", trials=trials, seed=2)
        rows = run_experiment(cfg, workers=1)
        blocks = experiments._blocks(0, trials, experiments._BLOCK)
        results = np.concatenate([experiments._run_block(cfg, b) for b in blocks])
        for k, scheme in enumerate(cfg.schemes):
            rates = results[:, k]
            mean = rates.mean(axis=0)
            err = rates.std(axis=0, ddof=1) / np.sqrt(trials) if trials > 1 else 0 * mean
            got = [r for r in rows if r.scheme == scheme]
            assert [r.se_bpshz for r in got] == mean.tolist()
            assert [r.stderr for r in got] == err.tolist()


# Spatial frequencies 0, 1 and -0.5: on two UPA azimuth indices d apart the
# three paths' responses are parallel when d is a multiple of 4 (two of them
# when d is even), so a selected link's side ranks depend on its picks.
_COMMENSURATE = ChannelStats(aoa_spatial_freqs=(0.0, 1.0, -0.5), aod_spatial_freqs=(0.0, 1.0, -0.5))


class TestBlocks:
    @pytest.mark.blas_threads
    @pytest.mark.parametrize(
        "name, overrides",
        [
            ("fig5", {}),
            ("fig6", {}),
            ("fig9", {}),
            ("fig10", {}),
            ("fig9", {"delta": 5}),
            ("fig9", {"rx_rf": 15, "tx_rf": 15}),
            ("fig10", {"rx_rf": 1, "tx_rf": 1}),
            ("fig9", {"rx_rf": 12, "tx_rf": 12, "stats": _COMMENSURATE}),
            ("fig6", {"schemes": ("UPA-OFDM-selection",), "rx_rf": 6, "tx_rf": 6}),
            ("fig6", {"schemes": ("UPA-OFDM-selection",), "rx_rf": 40, "tx_rf": 40}),
        ],
        ids=[
            "fig5",
            "fig6",
            "fig9",
            "fig10",
            "fig9-delta5",
            "fig9-rf15",
            "fig10-rf1",
            "fig9-mixed-ranks",
            "fig6-selection-rf6",
            "fig6-selection-rf40",
        ],
    )
    def test_csv_independent_of_block_size(self, monkeypatch, name, overrides):
        # At 15 RF chains (> n_z = 10) the selected links have rank 2, whose
        # subcarriers take a quadratic; at 1 they have rank 1. At 12 chains with
        # _COMMENSURATE angles the 16 selected links have side ranks (1, 2),
        # (2, 1) and (2, 2). On fig6's orthogonal grid, 3 of the 16 links
        # at 6 chains have side ranks (2, 1), the rest (2, 2); at 40 chains
        # 8 of them take the narrowband route. Each block's links take one
        # capacity call, which splits them by side ranks and route.
        cfg = preset(name, trials=16, seed=3, **overrides)
        texts = []
        for size in (1, 7, cfg.trials):
            monkeypatch.setattr(experiments, "_BLOCK", size)
            texts.append(rows_to_csv(run_experiment(cfg, workers=1)))
        assert texts[0] == texts[1] == texts[2]
        if "delta" in overrides:  # no side separated at delta 5: every trial falls back
            assert "grouping-fallback:16" in texts[0]

    @pytest.mark.blas_threads
    @pytest.mark.parametrize(
        "name, overrides",
        [("fig6", {}), ("fig9", {"rx_rf": 15, "tx_rf": 15})],
        ids=["fig6", "fig9-rf15"],
    )
    def test_full_precision_rates_independent_of_block_size(self, name, overrides):
        # The CSV keeps 12 digits; the rates of every scheme must keep all
        # of theirs in blocks of 1, 7 and 32 trials: fig6's UPA-OFDM from
        # the characteristic polynomials on shared rows, and the rank-2
        # selected links of fig9 at 15 RF chains on rows per trial.
        cfg = preset(name, trials=32, seed=3, **overrides)
        rates = []
        for size in (1, 7, 32):
            blocks = [experiments._run_block(cfg, b) for b in experiments._blocks(0, 32, size)]
            rates.append([np.concatenate(blocks)[:, k] for k in range(len(cfg.schemes))])
        for scheme, one, seven, whole in zip(cfg.schemes, *rates):
            assert np.array_equal(one, seven) and np.array_equal(one, whole), scheme

    def test_geometry_built_once_per_config(self, monkeypatch):
        # A config builds its geometry at its first block: the support sets
        # once, and the rank-revealing factors on fig9's lens schemes as a
        # pair for each of its three single-path groups and the receive
        # factor alone of the support view (PDM-MMSE's path space). fig6's
        # UPA responses are orthogonal on both sides and take no factor.
        # Later blocks and sweeps of the same config object build none.
        # UPA-OFDM-selection's picked links still take one stacked pair per
        # block (one side-rank group per block, also at 15 RF chains), not a
        # pair per distinct pick.
        counts = {}

        def spy(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        spy(experiments, "support_sets")
        spy(channel, "_factor")

        def count(cfg):
            counts.update(support_sets=0, _factor=0)
            run_experiment(cfg, workers=1)
            return dict(counts)

        three = 3 * experiments._BLOCK
        lens = preset("fig9", trials=three, schemes=("PDM-MRC", "PDM-MMSE", "PDM-grouping"))
        assert count(lens) == {"support_sets": 1, "_factor": 7}
        assert count(lens) == {"support_sets": 0, "_factor": 0}
        assert count(preset("fig6", trials=three)) == {"support_sets": 0, "_factor": 0}
        selection = ("UPA-OFDM-selection",)
        assert count(preset("fig9", trials=three, schemes=selection)) == {
            "support_sets": 0,
            "_factor": 6,
        }
        rf15 = count(preset("fig9", trials=three, schemes=selection, rx_rf=15, tx_rf=15))
        assert rf15 == {"support_sets": 0, "_factor": 6}

    def test_mmse_evaluated_once_per_block(self, monkeypatch):
        # At delta 5 no side is separated, so PDM-grouping falls back on
        # every trial to the MMSE rates that PDM-MMSE computed.
        calls = []
        original = experiments.mmse_sinr

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(experiments, "mmse_sinr", spy)
        cfg = preset("fig9", delta=5)
        out = experiments._run_block(cfg, range(4))
        assert len(calls) == 1
        assert cfg._geometry.flags == {"PDM-grouping": "grouping-fallback"}
        mmse, grouping = (cfg.schemes.index(s) for s in ("PDM-MMSE", "PDM-grouping"))
        assert np.array_equal(out[:, grouping], out[:, mmse])

    def test_non_finite_rate_names_the_first_trial(self, monkeypatch):
        # Trials 4..7 in one block: a NaN for PDM-MRC in trial 6 and an inf
        # for UPA-OFDM-selection at the fourth SNR point of trial 5. The
        # error names the earlier trial, though PDM-MRC is listed first.
        # PDM-MRC returns its rates; the selection returns its one part,
        # whose rates come from the block's fill.
        original = experiments._EVALUATE["PDM-MRC"]

        def evaluate(block):
            rates = original(block)
            rates[2, 0] = np.nan
            return rates

        fill = experiments.waterfill_parts

        def poisoned_fill(parts, budgets, noise):
            rates = fill(parts, budgets, noise)
            rates[0][1, 3] = np.inf
            return rates

        monkeypatch.setitem(experiments._EVALUATE, "PDM-MRC", evaluate)
        monkeypatch.setattr(experiments, "waterfill_parts", poisoned_fill)
        cfg = preset("fig9", trials=8, schemes=("PDM-MRC", "UPA-OFDM-selection"))
        message = f"UPA-OFDM-selection rate at {cfg.snr_db[3]:g} dB SNR is not finite (trial 5)"
        with pytest.raises(NumericalError, match=re.escape(message)):
            experiments._run_block(cfg, range(4, 8))

    @pytest.mark.parametrize(
        "snr_db, scheme", [(3020.0, "UPA-OFDM-selection"), (3030.0, "PDM-MRC")]
    )
    def test_overflow_names_the_scheme(self, snr_db, scheme):
        # A finite budget whose products leave double range: the scheme's
        # overflow is an error that names it, not a numpy warning followed
        # by an inf rate. The schemes before it are scored.
        cfg = preset("fig9", trials=2, snr_db=(snr_db,))
        with pytest.raises(NumericalError, match=f"^{scheme}: overflow encountered in "):
            experiments._run_block(cfg, range(2))


def public_rates(cfg, trials):
    """Scheme -> the rates of each water-filled scheme of ``cfg`` from its
    public function, on a fresh copy of the config and its own geometry."""
    block = experiments._Block(replace(cfg), trials)
    geo, budgets = block.geo, block.geo.budgets
    rates = {}
    for scheme in cfg.schemes:
        if scheme == "OPDM" and scheme not in geo.flags:
            gains = path_gains(block.paths.gains, geo.tx, geo.rx)
            rates[scheme] = waterfill_capacity(gains, budgets, NOISE_POWER)
        elif scheme == "PDM-grouping" and scheme not in geo.flags:
            cores = group_channels(geo.groups, block.paths.gains)
            rates[scheme] = grouped_capacity(cores, budgets, NOISE_POWER)
        elif scheme == "UPA-eigenmode":
            rates[scheme] = eigenmode_capacity(block.upa, budgets, NOISE_POWER)
        elif scheme == "UPA-OFDM":
            rates[scheme] = ofdm_capacity(block.upa, budgets, NOISE_POWER, cfg.ofdm)
        elif scheme == "UPA-OFDM-selection":
            picks = power_select_antennas(block.upa, *geo.upas, cfg.rx_rf, cfg.tx_rf)
            link = selected_link(block.upa, *geo.upas, *picks)
            rates[scheme] = ofdm_capacity(link, budgets, NOISE_POWER, cfg.ofdm)
    return rates


class TestSharedFill:
    @pytest.mark.blas_threads
    @pytest.mark.parametrize(
        "name, overrides",
        [
            ("fig5", {}),
            ("fig6", {}),
            ("fig9", {}),
            ("fig10", {}),
            ("fig9", {"rx_rf": 15, "tx_rf": 15}),
            ("fig9", {"schemes": ("UPA-OFDM", "UPA-eigenmode", "PDM-grouping")}),
            ("fig6", {"schemes": experiments.SCHEMES, "rx_rf": 40, "tx_rf": 40}),
        ],
        ids=["fig5", "fig6", "fig9", "fig10", "fig9-rf15", "fig9-full-array", "fig6-all"],
    )
    def test_block_rates_equal_the_public_functions(self, name, overrides):
        # Each water-filled scheme's parts, filled with the other schemes'
        # in the block, give its public function's rates bit for bit. On
        # fig6 at 40 RF chains some selected links take the narrowband
        # route and some the subcarrier route: groups of other widths and
        # budget factors in one fill.
        cfg = preset(name, seed=4, **overrides)
        trials = range(3, 3 + 2 * experiments._BLOCK // 3)
        out = experiments._run_block(cfg, trials)
        if overrides.get("rx_rf") == 40:
            parts = experiments._Block(cfg, trials).upa_ofdm_selection()
            assert {(gains.shape[-1], f) for _, (gains, f, _) in parts} == {(3, 1), (1536, 512)}
        want = public_rates(cfg, trials)
        assert want
        for scheme, rates in want.items():
            assert np.array_equal(out[:, cfg.schemes.index(scheme)], rates), scheme

    @pytest.mark.parametrize(
        "name, calls", [("fig5", 1), ("fig6", 1), ("fig9", 2), ("fig10", 2)]
    )
    def test_one_waterfill_per_width_and_factor(self, monkeypatch, name, calls):
        # fig5 and fig6's two schemes water-fill L gains each at the budgets;
        # fig9 and fig10's grouping (L gains) and selection (512 subcarriers
        # at 512 times the budgets) take one call each, and the PDM stream
        # powers come from water_fill.
        seen = []
        original = numerics.waterfill_capacity

        def spy(*args):
            seen.append(np.shape(args[0]))
            return original(*args)

        monkeypatch.setattr(numerics, "waterfill_capacity", spy)
        cfg = preset(name, trials=64)
        run_experiment(cfg, workers=1)
        assert len(seen) == calls * 2  # two blocks

    def test_error_in_the_shared_fill_names_both_schemes(self, monkeypatch):
        def broken(*args):
            raise NumericalError("forced")

        monkeypatch.setattr(numerics, "waterfill_capacity", broken)
        with pytest.raises(NumericalError, match="^OPDM, UPA-OFDM: forced$"):
            experiments._run_block(preset("fig6"), range(2))
        # On fig9 the fills are the schemes' own: the first in part order fails.
        cfg = preset("fig9", schemes=("UPA-OFDM-selection", "PDM-grouping"))
        with pytest.raises(NumericalError, match="^UPA-OFDM-selection: forced$"):
            experiments._run_block(cfg, range(2))

    def test_error_while_forming_gains_names_the_scheme_alone(self, monkeypatch):
        def broken(block):
            raise NumericalError("forced")

        monkeypatch.setitem(experiments._EVALUATE, "UPA-OFDM", broken)
        with pytest.raises(NumericalError, match="^UPA-OFDM: forced$"):
            experiments._run_block(preset("fig6"), range(2))

    def test_block_route_needs_no_delay_refusal(self):
        # The block's UPA-OFDM skips ofdm_capacity's delay refusals: the
        # config refuses a longest tap past the cyclic prefix, the prefix is
        # shorter than the symbol, and no delay is negative. At the longest
        # tap a config admits the rates are the public function's.
        cp, n = ExperimentConfig.ofdm.cp_samples, ExperimentConfig.ofdm.subcarriers
        assert cp < n
        stats = replace(preset("fig9").stats, max_excess_delay_s=(cp + 0.49) / BANDWIDTH_HZ)
        with pytest.raises(InvalidInputError, match="cyclic prefix"):
            preset("fig9", stats=replace(stats, max_excess_delay_s=(cp + 0.51) / BANDWIDTH_HZ))
        cfg = preset("fig9", stats=stats, schemes=("UPA-OFDM", "UPA-OFDM-selection"))
        trials = range(experiments._BLOCK)
        delays = experiments._Block(cfg, trials).delays
        assert delays.min() >= 0 and delays.max() <= cp
        out = experiments._run_block(cfg, trials)
        for scheme, rates in public_rates(cfg, trials).items():
            assert np.array_equal(out[:, cfg.schemes.index(scheme)], rates), scheme

    def test_routes_of_the_shared_rows_decided_once_per_config(self, monkeypatch):
        decided = []
        original = experiments.link_route

        def spy(*args):
            decided.append(args[1:])
            return original(*args)

        monkeypatch.setattr(experiments, "link_route", spy)
        cfg = preset("fig5", trials=3 * experiments._BLOCK, schemes=("UPA-eigenmode", "UPA-OFDM"))
        run_experiment(cfg, workers=1)
        run_experiment(cfg, workers=1)
        assert decided == [(), (cfg.ofdm,)]


class TestSeeding:
    def test_uint32_words_give_the_list_form_generators(self):
        # numpy takes a uint32 array as its entropy words unchanged, and an
        # int below 2**32 as one word.
        for seed in (0, 1, 7, 12345, 2**31, 2**32 - 1):
            for t in (0, 1, 31, 32, 999, 2**20, 2**32 - 1):
                words = np.random.default_rng(np.array([seed, t], dtype=np.uint32))
                assert np.array_equal(
                    words.random(8), np.random.default_rng([seed, t]).random(8)
                ), (seed, t)

    @pytest.mark.parametrize(
        "seed, first",
        [(0, 0), (2**32 - 1, 2**32 - 3), (2**32, 5), (3, 2**32 - 1), (7, 2**40 + 3)],
    )
    def test_block_draws_are_those_of_the_list_form(self, seed, first):
        # Below 2**32 the block seeds from uint32 words; at or above it,
        # from the list, as README's determinism contract states.
        cfg = preset("fig9", seed=seed)
        trials = range(first, first + 3)
        paths = experiments._Block(cfg, trials).paths
        rngs = [np.random.default_rng([seed, t]) for t in trials]
        gains, delays = channel._draw_block(cfg.stats, rngs)
        assert np.array_equal(paths.gains, gains)
        assert np.array_equal(paths.delays_s, delays)


def _csv(cfg, workers=1):
    return rows_to_csv(run_experiment(cfg, workers=workers))


# Config objects kept for the whole session, so that their geometries are
# reused across sweeps, examples and tests; each differs in its geometry.
_REUSED = (
    preset("fig6", trials=3, seed=1),
    preset("fig9", trials=experiments._BLOCK + 3, seed=2),
    preset("fig9", trials=3, seed=2, delta=5),
    preset("fig9", trials=3, seed=2, rx_rf=15, tx_rf=15),
    preset("fig10", trials=3, seed=2),
    preset("fig9", trials=3, seed=2, stats=replace(preset("fig9").stats, aoa_spread_deg=40.0)),
)


@pytest.mark.blas_threads
class TestGeometry:
    @settings(max_examples=25, deadline=None)
    @given(order=st.lists(st.integers(0, len(_REUSED) - 1), min_size=2, max_size=8))
    def test_reused_configs_match_fresh_copies(self, order):
        # A fresh copy has no geometry yet: the sweeps of config objects
        # reused in any order must not read another config's geometry.
        for i in order:
            assert _csv(_REUSED[i]) == _csv(replace(_REUSED[i]))

    def test_cached_arrays_are_read_only(self):
        cfg = preset("fig9", trials=2, schemes=experiments.SCHEMES)
        run_experiment(cfg, workers=1)
        geo = cfg._geometry
        kept = [
            geo.budgets,
            geo.paths.aoa_spatial_freqs,
            geo.lens.rx,
            geo.sets.rx,
            geo.support.tx,
            geo.support.grams[0],
            geo.support.grams[1],
            geo.support.factors[0],
            geo.groups[0][0],
            geo.groups[0][1]._rows.svds[0][0],
            geo.upa.tx,
            geo.upa._rows.svds[1][1],
            geo.upa._rows.compounds,
        ]
        for array in kept:
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = array.flat[0]

    @pytest.mark.parametrize("name", ["fig6", "fig9"])
    def test_config_with_geometry_forks_and_matches_serial(self, monkeypatch, pools, name):
        # The pool pickles the config with every chunk of blocks, and the
        # geometry the serial sweep built with it.
        monkeypatch.setattr(experiments, "_BLOCK", 2)
        monkeypatch.setattr(experiments, "_WORKER_COST_S", 0.0)
        cfg = preset(name, trials=6, seed=5)
        serial = _csv(cfg)
        assert "_geometry" in vars(cfg)
        assert _csv(cfg, workers=2) == serial
        assert pools == [2]


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
