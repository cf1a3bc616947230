import math

import numpy as np
import pytest

from lensmimo.arrays import LensArrayConfig
from lensmimo.channel import ChannelStats, PathSet, path_responses, sample_paths
from lensmimo.errors import InvalidInputError

IDEAL = dict(aoa_spatial_freqs=(0.0, 0.2, -0.2), aod_spatial_freqs=(0.0, 0.2, -0.2))


class TestChannelStats:
    def test_angle_placement_exclusivity(self):
        with pytest.raises(InvalidInputError):
            ChannelStats()  # neither fixed list nor spread
        with pytest.raises(InvalidInputError):
            ChannelStats(aoa_spatial_freqs=(0.0,), aoa_spread_deg=10.0, aod_spread_deg=10.0)

    def test_mean_pathloss(self):
        stats = ChannelStats(**IDEAL)
        assert stats.mean_pathloss_db == pytest.approx(86.6 + 24.5 * 2)

    def test_mean_beta_is_lognormal_mean(self):
        stats = ChannelStats(**IDEAL)
        rng = np.random.default_rng(0)
        draws = 10.0 ** ((-stats.mean_pathloss_db - rng.normal(0, 8.0, 200_000)) / 10.0)
        assert stats.mean_beta == pytest.approx(draws.mean(), rel=0.02)

    def test_noise_power(self):
        stats = ChannelStats(**IDEAL)
        assert stats.noise_power == pytest.approx(10 ** (-174 / 10) * 500e6)

    def test_tx_power_snr_roundtrip(self):
        stats = ChannelStats(**IDEAL)
        p = stats.tx_power(20.0)
        assert p * stats.mean_beta / stats.noise_power == pytest.approx(100.0)

    def test_spread_placement(self):
        stats = ChannelStats(aoa_spread_deg=150.0, aod_spread_deg=60.0)
        aoa, aod = stats.placed_angles(3)
        assert np.allclose(aoa, np.sin(np.deg2rad([-75, 0, 75])))
        assert np.allclose(aod, np.sin(np.deg2rad([-30, 0, 30])))

    def test_fixed_placement_length_check(self):
        stats = ChannelStats(**IDEAL)
        with pytest.raises(InvalidInputError):
            stats.placed_angles(2)


class TestSamplePaths:
    def test_deterministic_given_seed(self):
        stats = ChannelStats(**IDEAL)
        a = sample_paths(stats, 3, np.random.default_rng(7))
        b = sample_paths(stats, 3, np.random.default_rng(7))
        assert np.array_equal(a.gains, b.gains)
        assert np.array_equal(a.delays_s, b.delays_s)

    def test_power_fractions_sum_to_beta(self):
        stats = ChannelStats(**IDEAL)
        rng = np.random.default_rng(1)
        for _ in range(100):
            paths = sample_paths(stats, 3, rng)
            beta = np.sum(np.abs(paths.gains) ** 2)
            # kappa fractions are normalized, so |alpha|^2 sums exactly to beta
            kappa = np.abs(paths.gains) ** 2 / beta
            assert kappa.sum() == pytest.approx(1.0)

    def test_delays_sorted_in_range(self):
        stats = ChannelStats(aoa_spread_deg=150.0, aod_spread_deg=60.0)
        rng = np.random.default_rng(2)
        for _ in range(50):
            paths = sample_paths(stats, 4, rng)
            assert np.all(np.diff(paths.delays_s) >= 0)
            assert np.all((paths.delays_s >= 0) & (paths.delays_s <= 100e-9))

    def test_narrowband_has_zero_delays(self):
        stats = ChannelStats(max_excess_delay_s=0.0, **IDEAL)
        paths = sample_paths(stats, 3, np.random.default_rng(3))
        assert np.all(paths.delays_s == 0)

    def test_num_paths_validation(self):
        stats = ChannelStats(**IDEAL)
        with pytest.raises(InvalidInputError):
            sample_paths(stats, 0, np.random.default_rng(0))


class TestPathSet:
    def test_focusing(self):
        paths = PathSet(
            gains=np.ones(2, complex),
            delays_s=np.zeros(2),
            aoa_spatial_freqs=np.array([0.36, -0.27]),
            aod_spatial_freqs=np.array([0.12, 0.24]),
        )
        rx = LensArrayConfig(10.0, 10.0)
        idx, eps = rx.focusing(paths.aoa_spatial_freqs)
        assert list(idx) == [4, -3]
        assert np.allclose(eps, [-0.4, 0.3])

    def test_delay_quantization(self):
        paths = PathSet(
            gains=np.ones(2, complex),
            delays_s=np.array([10e-9, 50.9e-9]),
            aoa_spatial_freqs=np.zeros(2),
            aod_spatial_freqs=np.zeros(2),
        )
        assert list(paths.delay_samples(500e6)) == [5, 25]


class TestChannelMatrices:
    def test_narrowband_matrix_single_path(self):
        tx = LensArrayConfig(10.0, 10.0)
        rx = LensArrayConfig(20.0, 10.0)
        paths = PathSet(
            gains=np.array([0.5 + 0.5j]),
            delays_s=np.zeros(1),
            aoa_spatial_freqs=np.array([0.17]),
            aod_spatial_freqs=np.array([-0.4]),
        )
        core = path_responses(paths, tx, rx, 500e6).cores()
        a_r = rx.responses([0.17])[0]
        a_t = tx.responses([-0.4])[0]
        h = paths.gains[0] * np.outer(a_r, a_t.conj())
        # One path: a 1 x 1 core carrying the one nonzero singular value of H.
        assert core.shape == (1, 1)
        assert abs(core[0, 0]) == pytest.approx(np.linalg.svd(h, compute_uv=False)[0], rel=1e-12)

    def test_tapped_merges_equal_delays(self):
        tx = LensArrayConfig(10.0, 10.0)
        rx = LensArrayConfig(10.0, 10.0)
        paths = PathSet(
            gains=np.array([1.0, 1j]),
            delays_s=np.array([10e-9, 10.4e-9]),  # both quantize to sample 5
            aoa_spatial_freqs=np.array([0.0, 0.3]),
            aod_spatial_freqs=np.array([0.0, 0.3]),
        )
        resp = path_responses(paths, tx, rx, 500e6).restrict(
            rx.positions([0, 3]), tx.positions([0, 3])
        )
        taps = resp.taps()
        assert len(taps) == 1
        assert taps[0][0] == 5
        assert resp.num_paths == 2
        path_taps = [
            g * np.outer(a_r, a_t.conj()) for g, a_r, a_t in zip(resp.gains, resp.rx, resp.tx)
        ]
        assert np.allclose(taps[0][1], path_taps[0] + path_taps[1])

    def test_subset_validation(self):
        tx = LensArrayConfig(10.0, 10.0)
        rx = LensArrayConfig(10.0, 10.0)
        paths = PathSet(
            gains=np.ones(1, complex),
            delays_s=np.zeros(1),
            aoa_spatial_freqs=np.array([0.0]),
            aod_spatial_freqs=np.array([0.0]),
        )
        resp = path_responses(paths, tx, rx, 500e6)
        with pytest.raises(InvalidInputError):
            resp.restrict(rx.positions([0, 11]), tx.positions([0]))
        with pytest.raises(InvalidInputError):
            resp.restrict(rx.positions([]), tx.positions([0]))
