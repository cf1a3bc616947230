import itertools
import math

import numpy as np
import pytest

from lensmimo.arrays import UpaConfig
from lensmimo.channel import PathSet, TappedChannel, path_responses
from lensmimo.errors import InvalidInputError, UnsupportedConfigurationError
from lensmimo.upa import (
    OfdmConfig,
    eigenmode_capacity,
    mimo_ofdm_capacity,
    ofdm_subchannels,
    power_select_antennas,
)


def flat_channel(h):
    return TappedChannel(taps=((0, np.asarray(h, complex)),))


class TestOfdmConfig:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            OfdmConfig(subcarriers=500)
        with pytest.raises(InvalidInputError):
            OfdmConfig(cp_samples=-1)


class TestEigenmodeCapacity:
    def test_scalar(self):
        assert eigenmode_capacity(np.array([[1.0]]), 3.0, 1.0) == pytest.approx(2.0)

    def test_rank_one(self):
        a = np.array([3.0, 4.0])  # singular value 5
        h = np.outer(a, [1.0])
        c = eigenmode_capacity(h, 2.0, 1.0)
        assert c == pytest.approx(math.log2(1 + 2.0 * 25.0))

    def test_zero_matrix(self):
        assert eigenmode_capacity(np.zeros((3, 3)), 1.0, 1.0) == 0.0


class TestOfdmSubchannels:
    def test_flat(self):
        h = np.arange(6, dtype=complex).reshape(2, 3)
        subs = ofdm_subchannels(flat_channel(h), 8)
        assert len(subs) == 8
        for hk in subs:
            assert np.allclose(hk, h)

    def test_pure_delay_is_all_pass(self):
        h = np.ones((2, 2), complex)
        tapped = TappedChannel(taps=((3, h),))
        subs = ofdm_subchannels(tapped, 16)
        for hk in subs:
            assert np.allclose(np.abs(hk), np.abs(h))

    def test_parseval(self):
        rng = np.random.default_rng(0)
        taps = tuple(
            (n, rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4)))
            for n in (0, 2, 5)
        )
        tapped = TappedChannel(taps=taps)
        subs = ofdm_subchannels(tapped, 32)
        lhs = sum(np.linalg.norm(hk) ** 2 for hk in subs) / 32
        rhs = sum(np.linalg.norm(m) ** 2 for _, m in taps)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_tap_beyond_symbol_rejected(self):
        h = np.ones((1, 1), complex)
        tapped = TappedChannel(taps=((8, h),))
        with pytest.raises(UnsupportedConfigurationError):
            ofdm_subchannels(tapped, 8)


class TestMimoOfdmCapacity:
    def test_flat_no_cp_equals_eigenmode(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        cfg = OfdmConfig(subcarriers=16, cp_samples=0)
        subs = ofdm_subchannels(flat_channel(h), 16)
        assert mimo_ofdm_capacity(subs, 2.0, 1.0, cfg) == pytest.approx(
            eigenmode_capacity(h, 2.0, 1.0), rel=1e-9
        )

    def test_flat_cp_overhead_factor_exact(self):
        rng = np.random.default_rng(2)
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        subs = ofdm_subchannels(flat_channel(h), 512)
        with_cp = mimo_ofdm_capacity(subs, 2.0, 1.0, OfdmConfig(512, 50))
        without = mimo_ofdm_capacity(subs, 2.0, 1.0, OfdmConfig(512, 0))
        assert with_cp == pytest.approx((512 / 562) * without, rel=1e-12)

    def test_phase_ramp_invariance(self):
        rng = np.random.default_rng(3)
        h = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        cfg = OfdmConfig(subcarriers=16, cp_samples=4)
        base = mimo_ofdm_capacity(ofdm_subchannels(flat_channel(h), 16), 1.0, 0.5, cfg)
        shifted = TappedChannel(taps=((2, h),))
        delayed = mimo_ofdm_capacity(ofdm_subchannels(shifted, 16), 1.0, 0.5, cfg)
        assert delayed == pytest.approx(base, rel=1e-9)

    def test_cp_never_helps(self):
        rng = np.random.default_rng(4)
        taps = tuple(
            (n, rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            for n in (0, 3)
        )
        tapped = TappedChannel(taps=taps)
        subs = ofdm_subchannels(tapped, 16)
        with_cp = mimo_ofdm_capacity(subs, 1.0, 1.0, OfdmConfig(16, 4))
        without = mimo_ofdm_capacity(subs, 1.0, 1.0, OfdmConfig(16, 0))
        assert with_cp <= (16 / 20) * without + 1e-12


class TestUpaChannel:
    def test_narrowband_matrix_energy(self):
        cfg = UpaConfig(20.0, 10.0)
        paths = PathSet(
            gains=np.array([2.0 + 0j]),
            delays_s=np.zeros(1),
            aoa_spatial_freqs=np.array([0.3]),
            aod_spatial_freqs=np.array([-0.2]),
        )
        h = path_responses(paths, cfg, cfg, 500e6).matrix()
        # rank-1 with singular value |alpha| * sqrt(A_R A_T)
        s = np.linalg.svd(h, compute_uv=False)
        assert s[0] == pytest.approx(2.0 * 20.0)
        assert np.all(s[1:] < 1e-12)

    def test_tapped_channel_merges(self):
        cfg = UpaConfig(20.0, 10.0)
        paths = PathSet(
            gains=np.ones(2, complex),
            delays_s=np.array([0.0, 1e-12]),
            aoa_spatial_freqs=np.array([0.0, 0.5]),
            aod_spatial_freqs=np.array([0.0, 0.5]),
        )
        responses = path_responses(paths, cfg, cfg, 500e6)
        tapped = responses.taps()
        assert len(tapped.taps) == 1 and responses.num_paths == 2


class TestPowerSelection:
    def test_full_budget_is_identity(self):
        rng = np.random.default_rng(5)
        h = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
        rows, cols = power_select_antennas(flat_channel(h), 4, 5)
        assert list(rows) == [0, 1, 2, 3]
        assert list(cols) == [0, 1, 2, 3, 4]

    def test_rank_one_separable(self):
        a = np.array([1.0, 3.0, 2.0, 0.5])
        b = np.array([0.2, 1.0, 0.7])
        rows, cols = power_select_antennas(flat_channel(np.outer(a, b)), 2, 2)
        assert set(rows) == {1, 2}
        assert set(cols) == {1, 2}

    def test_ties_prefer_lower_index(self):
        h = np.ones((3, 3), complex)
        rows, cols = power_select_antennas(flat_channel(h), 2, 2)
        assert list(rows) == [0, 1]
        assert list(cols) == [0, 1]

    def test_greedy_near_exhaustive_on_small_instance(self):
        # 3-path 8x8 channel: greedy retained energy vs brute force over all
        # 4-row/4-column subsets.
        rng = np.random.default_rng(6)
        h = sum(
            rng.standard_normal() * np.outer(
                np.exp(1j * math.pi * np.arange(8) * rng.uniform(-1, 1)),
                np.exp(1j * math.pi * np.arange(8) * rng.uniform(-1, 1)),
            )
            for _ in range(3)
        )
        tapped = flat_channel(h)
        rows, cols = power_select_antennas(tapped, 4, 4)
        greedy = np.linalg.norm(h[np.ix_(rows, cols)]) ** 2
        best = max(
            np.linalg.norm(h[np.ix_(r, c)]) ** 2
            for r in itertools.combinations(range(8), 4)
            for c in itertools.combinations(range(8), 4)
        )
        assert greedy >= 0.8 * best

    def test_capacity_monotone_in_budget(self):
        rng = np.random.default_rng(7)
        taps = tuple(
            (n, rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
            for n in (0, 2)
        )
        tapped = TappedChannel(taps=taps)
        cfg = OfdmConfig(subcarriers=16, cp_samples=4)
        caps = []
        for k in (2, 4, 6):
            rows, cols = power_select_antennas(tapped, k, k)
            sub = TappedChannel(taps=tuple((n, m[np.ix_(rows, cols)]) for n, m in taps))
            caps.append(mimo_ofdm_capacity(ofdm_subchannels(sub, 16), 1.0, 1.0, cfg))
        assert caps[0] <= caps[1] <= caps[2]

    def test_budget_validation(self):
        h = np.ones((2, 2), complex)
        with pytest.raises(InvalidInputError):
            power_select_antennas(flat_channel(h), 3, 1)
