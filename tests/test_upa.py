import itertools
import math

import numpy as np
import pytest

from lensmimo.arrays import UpaConfig
from lensmimo.channel import PathResponses, PathSet, path_responses
from lensmimo.errors import InvalidInputError, UnsupportedConfigurationError
from lensmimo.numerics import RANK_TOL, waterfill_capacity
from lensmimo.upa import OfdmConfig, eigenmode_capacity, ofdm_capacity, power_select_antennas


def flat_channel(h):
    return ((0, np.asarray(h, complex)),)


def random_responses(rng, num_paths, n_rx, n_tx, delays=None):
    def cn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    return PathResponses(
        rx=cn(num_paths, n_rx),
        tx=cn(num_paths, n_tx),
        gains=cn(num_paths),
        delays=np.zeros(num_paths, int) if delays is None else np.asarray(delays, int),
    )


def dense_channel(responses):
    """Oracle: the narrowband H = sum_l alpha_l a_R,l a_T,l^H (delays ignored)."""
    return np.einsum("l,lm,lq->mq", responses.gains, responses.rx, responses.tx.conj())


def oracle_subchannels(taps, subcarriers):
    """Per-subcarrier matrices H_k = sum_t tap_t exp(-j 2 pi k n_t / N)."""
    k = np.arange(subcarriers)[:, None, None]
    return sum(np.exp(-2j * np.pi * k * n / subcarriers) * mat for n, mat in taps)


def oracle_ofdm_capacity(responses, budget, noise, cfg):
    """MIMO-OFDM capacity from a full SVD of every dense subcarrier matrix."""
    n = cfg.subcarriers
    gains = []
    for h in oracle_subchannels(responses.taps(), n):
        s = np.linalg.svd(h, compute_uv=False)
        gains.append(np.where(s < RANK_TOL * s[0], 0.0, s) ** 2)
    rate = waterfill_capacity(np.concatenate(gains), n * budget, noise)
    return (n / (n + cfg.cp_samples)) * rate / n


class TestOfdmConfig:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            OfdmConfig(subcarriers=500)
        with pytest.raises(InvalidInputError):
            OfdmConfig(cp_samples=-1)


class TestEigenmodeCapacity:
    def test_scalar(self):
        one = np.ones((1, 1), complex)
        responses = PathResponses(rx=one, tx=one, gains=one[0], delays=np.zeros(1, int))
        assert eigenmode_capacity(responses, 3.0, 1.0) == pytest.approx(2.0)

    def test_rank_one(self):
        # H = [3, 4]^T: singular value 5
        responses = PathResponses(
            rx=np.array([[3.0, 4.0]], complex),
            tx=np.ones((1, 1), complex),
            gains=np.ones(1, complex),
            delays=np.zeros(1, int),
        )
        c = eigenmode_capacity(responses, 2.0, 1.0)
        assert c == pytest.approx(math.log2(1 + 2.0 * 25.0))

    def test_zero_matrix(self):
        responses = random_responses(np.random.default_rng(0), 2, 3, 3)
        zero = PathResponses(
            rx=responses.rx, tx=responses.tx, gains=np.zeros(2, complex), delays=responses.delays
        )
        assert eigenmode_capacity(zero, 1.0, 1.0) == 0.0

    def test_matches_full_matrix_svd(self):
        rng = np.random.default_rng(8)
        budgets = np.array([0.01, 1.0, 100.0])
        for num_paths, n_rx, n_tx in ((3, 8, 5), (4, 2, 6), (5, 3, 2), (2, 1, 1)):
            responses = random_responses(rng, num_paths, n_rx, n_tx)
            s = np.linalg.svd(dense_channel(responses), compute_uv=False)
            direct = waterfill_capacity(np.where(s < RANK_TOL * s[0], 0.0, s) ** 2, budgets, 1.0)
            assert np.allclose(eigenmode_capacity(responses, budgets, 1.0), direct, rtol=1e-9)


class TestOfdmSubchannels:
    """The per-subcarrier oracle the capacity tests below compare against,
    and the refusal of taps that do not fit in one OFDM symbol."""

    def test_flat(self):
        h = np.arange(6, dtype=complex).reshape(2, 3)
        subs = oracle_subchannels(flat_channel(h), 8)
        assert len(subs) == 8
        for hk in subs:
            assert np.allclose(hk, h)

    def test_pure_delay_is_all_pass(self):
        h = np.ones((2, 2), complex)
        subs = oracle_subchannels(((3, h),), 16)
        for hk in subs:
            assert np.allclose(np.abs(hk), np.abs(h))

    def test_parseval(self):
        rng = np.random.default_rng(0)
        taps = tuple(
            (n, rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4)))
            for n in (0, 2, 5)
        )
        subs = oracle_subchannels(taps, 32)
        lhs = sum(np.linalg.norm(hk) ** 2 for hk in subs) / 32
        rhs = sum(np.linalg.norm(m) ** 2 for _, m in taps)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_tap_beyond_symbol_rejected(self):
        responses = random_responses(np.random.default_rng(1), 2, 1, 1, delays=(0, 8))
        with pytest.raises(UnsupportedConfigurationError):
            ofdm_capacity(responses, 1.0, 1.0, OfdmConfig(subcarriers=8, cp_samples=0))


class TestMimoOfdmCapacity:
    def test_flat_no_cp_equals_eigenmode(self):
        responses = random_responses(np.random.default_rng(1), 3, 3, 3)
        cfg = OfdmConfig(subcarriers=16, cp_samples=0)
        assert ofdm_capacity(responses, 2.0, 1.0, cfg) == pytest.approx(
            eigenmode_capacity(responses, 2.0, 1.0), rel=1e-9
        )

    def test_flat_cp_overhead_factor_exact(self):
        responses = random_responses(np.random.default_rng(2), 2, 2, 2)
        with_cp = ofdm_capacity(responses, 2.0, 1.0, OfdmConfig(512, 50))
        without = ofdm_capacity(responses, 2.0, 1.0, OfdmConfig(512, 0))
        assert with_cp == pytest.approx((512 / 562) * without, rel=1e-12)

    def test_phase_ramp_invariance(self):
        responses = random_responses(np.random.default_rng(3), 3, 2, 3)
        cfg = OfdmConfig(subcarriers=16, cp_samples=4)
        base = ofdm_capacity(responses, 1.0, 0.5, cfg)
        shifted = PathResponses(
            rx=responses.rx, tx=responses.tx, gains=responses.gains, delays=responses.delays + 2
        )
        assert ofdm_capacity(shifted, 1.0, 0.5, cfg) == pytest.approx(base, rel=1e-9)

    def test_cp_never_helps(self):
        responses = random_responses(np.random.default_rng(4), 4, 2, 2, delays=(0, 0, 3, 3))
        with_cp = ofdm_capacity(responses, 1.0, 1.0, OfdmConfig(16, 4))
        without = ofdm_capacity(responses, 1.0, 1.0, OfdmConfig(16, 0))
        assert with_cp <= (16 / 20) * without + 1e-12

    def test_matches_per_subcarrier_svd_oracle(self):
        # Reduced L x L cores against a full SVD of every dense subcarrier
        # matrix, over draws with more paths than antennas on either side,
        # repeated delays and duplicate path directions.
        rng = np.random.default_rng(9)
        cfg = OfdmConfig(subcarriers=16, cp_samples=4)
        budgets = np.array([1e-3, 1.0, 1e3])
        seen = dict(more_paths_than_rx=0, more_paths_than_tx=0, shared_delay=0, duplicate=0)
        for _ in range(60):
            num_paths = int(rng.integers(1, 7))
            n_rx, n_tx = (int(v) for v in rng.integers(1, 9, size=2))
            responses = random_responses(
                rng, num_paths, n_rx, n_tx, delays=rng.integers(0, 4, size=num_paths)
            )
            if num_paths > 1 and rng.random() < 0.3:
                # Path 1 arrives and departs along path 0's directions.
                responses.rx[1] = responses.rx[0]
                responses.tx[1] = responses.tx[0]
                seen["duplicate"] += 1
            seen["more_paths_than_rx"] += num_paths > n_rx
            seen["more_paths_than_tx"] += num_paths > n_tx
            seen["shared_delay"] += len(set(responses.delays.tolist())) < num_paths
            oracle = [oracle_ofdm_capacity(responses, b, 0.5, cfg) for b in budgets]
            assert np.allclose(ofdm_capacity(responses, budgets, 0.5, cfg), oracle, rtol=1e-9)
        assert all(count > 0 for count in seen.values()), seen


class TestUpaChannel:
    def test_narrowband_matrix_energy(self):
        cfg = UpaConfig(20.0, 10.0)
        paths = PathSet(
            gains=np.array([2.0 + 0j]),
            delays_s=np.zeros(1),
            aoa_spatial_freqs=np.array([0.3]),
            aod_spatial_freqs=np.array([-0.2]),
        )
        core = path_responses(paths, cfg, cfg, 500e6).cores()
        # rank-1 with singular value |alpha| * sqrt(A_R A_T): the one entry
        # of its 1 x 1 path-space core
        assert core.shape == (1, 1)
        assert abs(core[0, 0]) == pytest.approx(2.0 * 20.0)

    def test_tapped_channel_merges(self):
        cfg = UpaConfig(20.0, 10.0)
        paths = PathSet(
            gains=np.ones(2, complex),
            delays_s=np.array([0.0, 1e-12]),
            aoa_spatial_freqs=np.array([0.0, 0.5]),
            aod_spatial_freqs=np.array([0.0, 0.5]),
        )
        responses = path_responses(paths, cfg, cfg, 500e6)
        assert len(responses.taps()) == 1 and responses.num_paths == 2


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
        rows, cols = power_select_antennas(flat_channel(h), 4, 4)
        greedy = np.linalg.norm(h[np.ix_(rows, cols)]) ** 2
        best = max(
            np.linalg.norm(h[np.ix_(r, c)]) ** 2
            for r in itertools.combinations(range(8), 4)
            for c in itertools.combinations(range(8), 4)
        )
        assert greedy >= 0.8 * best

    def test_capacity_monotone_in_budget(self):
        responses = random_responses(np.random.default_rng(7), 4, 6, 6, delays=(0, 0, 2, 2))
        cfg = OfdmConfig(subcarriers=16, cp_samples=4)
        caps = []
        for k in (2, 4, 6):
            rows, cols = power_select_antennas(responses.taps(), k, k)
            caps.append(ofdm_capacity(responses.restrict(rows, cols), 1.0, 1.0, cfg))
        assert caps[0] <= caps[1] <= caps[2]

    def test_budget_validation(self):
        h = np.ones((2, 2), complex)
        with pytest.raises(InvalidInputError):
            power_select_antennas(flat_channel(h), 3, 1)
