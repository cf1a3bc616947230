import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lensmimo.arrays import UpaConfig
from lensmimo.channel import PathResponses, PathSet, path_responses, sample_paths
from lensmimo.errors import InvalidInputError, UnsupportedConfigurationError
from lensmimo.experiments import preset
from lensmimo.numerics import RANK_TOL, waterfill_capacity
from lensmimo.upa import OfdmConfig, eigenmode_capacity, ofdm_capacity, power_select_antennas
from oracles import dense_channel, dense_taps


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


def oracle_subchannels(taps, subcarriers):
    """Per-subcarrier matrices H_k = sum_t tap_t exp(-j 2 pi k n_t / N)."""
    k = np.arange(subcarriers)[:, None, None]
    return sum(np.exp(-2j * np.pi * k * n / subcarriers) * mat for n, mat in taps)


def oracle_ofdm_capacity(responses, budget, noise, cfg):
    """MIMO-OFDM capacity from a full SVD of every dense subcarrier matrix."""
    n = cfg.subcarriers
    gains = []
    for h in oracle_subchannels(dense_taps(responses), n):
        s = np.linalg.svd(h, compute_uv=False)
        gains.append(np.where(s < RANK_TOL * s[0], 0.0, s) ** 2)
    rate = waterfill_capacity(np.concatenate(gains), n * budget, noise)
    return (n / (n + cfg.cp_samples)) * rate / n


def selected_link(cfg, seed, trial, n_rx_rf, n_tx_rf):
    """The UPA link a sweep of ``cfg`` selects in trial ``trial`` of seed
    ``seed`` under the given RF budgets."""
    rx = UpaConfig(cfg.rx_aperture, cfg.rx_azimuth_dim)
    tx = UpaConfig(cfg.tx_aperture, cfg.tx_azimuth_dim)
    paths = sample_paths(cfg.stats, cfg.num_paths, np.random.default_rng([seed, trial]))
    responses = path_responses(paths, tx, rx, cfg.stats.bandwidth_hz)
    return responses.restrict(*power_select_antennas(responses, rx, n_rx_rf, n_tx_rf))


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


class TestOfdmOracle:
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
        # Reduced r_R x r_T cores against a full SVD of every dense subcarrier
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

    def test_singular_subcarriers_take_the_svd(self, monkeypatch):
        # A subcarrier Gram squares its core's condition number. Path 1
        # duplicates path 0 (directions and gain) with a delay of N/2, so the
        # two cancel on every odd subcarrier and leave a rank-1 core, whose
        # second singular value is rounding noise. Those 8 subcarriers must
        # take the SVD of their cores under the RANK_TOL rule: from the Gram,
        # the noise would count as a mode at budgets 200 dB above the noise.
        rng = np.random.default_rng(10)
        cfg = OfdmConfig(subcarriers=16, cp_samples=4)
        responses = random_responses(rng, 3, 4, 5, delays=(0, 8, 3))
        responses.gains[1] = responses.gains[0]
        responses.rx[1], responses.tx[1] = responses.rx[0], responses.tx[0]
        svd_stacks = []
        cores = PathResponses.cores

        def spy(self, coeffs=None):
            svd_stacks.append(len(coeffs))
            return cores(self, coeffs)

        monkeypatch.setattr(PathResponses, "cores", spy)
        budgets = np.array([1.0, 1e10, 1e20])
        got = ofdm_capacity(responses, budgets, 1.0, cfg)
        oracle = [oracle_ofdm_capacity(responses, b, 1.0, cfg) for b in budgets]
        assert np.allclose(got, oracle, rtol=1e-9, atol=0.0)
        assert responses.ranks == (2, 2) and svd_stacks == [8]

    def test_non_finite_gains_refused(self):
        responses = random_responses(np.random.default_rng(11), 3, 4, 4)
        responses.gains[2] = np.nan
        assert min(responses.ranks) > 1
        with pytest.raises(InvalidInputError):
            ofdm_capacity(responses, 1.0, 1.0, OfdmConfig(subcarriers=8, cp_samples=0))

    @pytest.mark.parametrize("name", ["fig9", "fig10"])
    def test_selected_preset_links_match_per_subcarrier_svd_oracle(self, name):
        # The sweeps' selected links: rank 1 at budgets within one azimuth
        # index (1, 6), rank 2 across two (15 > n_z = 10), so the cores are
        # 1 x 1 or 2 x 2 and the oracle's dense subcarrier matrices are not.
        cfg = preset(name)
        budgets = np.array([cfg.stats.tx_power(s) for s in cfg.snr_db])
        noise = cfg.stats.noise_power
        ranks = set()
        for seed, trial, rf in itertools.product(range(3), range(4), (1, 6, 15)):
            picked = selected_link(cfg, seed, trial, rf, rf)
            ranks.add(picked.cores().shape)
            oracle = oracle_ofdm_capacity(picked, budgets, noise, cfg.ofdm)
            got = ofdm_capacity(picked, budgets, noise, cfg.ofdm)
            assert np.allclose(got, oracle, rtol=1e-9, atol=0.0)
        assert ranks == {(1, 1), (2, 2)}, ranks

    @pytest.mark.parametrize("name", ["fig9", "fig10"])
    def test_selected_link_has_one_by_one_subcarrier_cores(self, name):
        cfg = preset(name)
        n = cfg.ofdm.subcarriers
        for seed in range(3):
            picked = selected_link(cfg, seed, 0, cfg.rx_rf, cfg.tx_rf)
            phases = np.exp(-2j * np.pi * np.outer(np.arange(n), picked.delays) / n)
            assert picked.cores(picked.gains * phases).shape == (n, 1, 1)


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
        assert list(responses.delays) == [0, 0]
        assert len(dense_taps(responses)) == 1 and responses.num_paths == 2


def dense_energy(taps):
    """Squared channel magnitude of every antenna pair, summed over taps."""
    energy = np.zeros(taps[0][1].shape)
    for _, mat in taps:
        energy += np.abs(mat) ** 2
    return energy


def top(powers, k):
    """The k largest powers' indices, ties to the lower index, sorted."""
    return np.sort(np.lexsort((np.arange(len(powers)), -powers))[:k])


def oracle_power_select(taps, n_rx_rf, n_tx_rf):
    """Oracle: the power-based selection ranked on the whole dense tapped
    channel, every receive row and transmit column."""
    energy = dense_energy(taps)
    rows = top(energy.sum(axis=1), n_rx_rf)
    return rows, top(energy[rows].sum(axis=0), n_tx_rf)


def assert_top_up_to_ulps(picked, powers, k):
    """picked is the top-k of powers, or differs from it only among antennas
    whose powers lie within 4 ulps of the oracle's cut-off power."""
    expected = top(powers, k)
    assert len(picked) == k and np.all(np.diff(picked) > 0)
    if np.array_equal(picked, expected):
        return
    cutoff = powers[expected].min()
    differing = np.setxor1d(picked, expected)
    assert np.all(np.abs(powers[differing] - cutoff) <= 4 * np.spacing(cutoff)), (
        picked, expected, powers[differing] - cutoff
    )


def upa_with(count):
    """A count x 1 UPA grid (n_z = 1): one antenna per azimuth index."""
    return UpaConfig(aperture=count / 4.0, azimuth_dim=count / 2.0)


def single_path(a_rx, a_tx):
    """A one-path flat channel with H = outer(a_rx, conj(a_tx))."""
    return PathResponses(
        rx=np.asarray(a_rx, complex)[None, :],
        tx=np.asarray(a_tx, complex)[None, :],
        gains=np.ones(1, complex),
        delays=np.zeros(1, int),
    )


class TestPowerSelection:
    def test_full_budget_is_identity(self):
        responses = random_responses(np.random.default_rng(5), 4, 4, 5)
        rows, cols = power_select_antennas(responses, upa_with(4), 4, 5)
        assert list(rows) == [0, 1, 2, 3]
        assert list(cols) == [0, 1, 2, 3, 4]

    def test_rank_one_separable(self):
        a = np.array([1.0, 3.0, 2.0, 0.5])
        b = np.array([0.2, 1.0, 0.7])
        rows, cols = power_select_antennas(single_path(a, b), upa_with(4), 2, 2)
        assert set(rows) == {1, 2}
        assert set(cols) == {1, 2}

    def test_ties_prefer_lower_index(self):
        rows, cols = power_select_antennas(single_path(np.ones(3), np.ones(3)), upa_with(3), 2, 2)
        assert list(rows) == [0, 1]
        assert list(cols) == [0, 1]
        # A UPA has no elevation phase, so the n_z antennas of one azimuth
        # index tie exactly. At broadside every antenna ties.
        rx, tx = UpaConfig(2.0, 1.0), UpaConfig(3.0, 2.0)  # 2 x 4 and 4 x 3 grids
        for phi, exact in ((0.0, True), (0.3, False), (-0.7, False)):
            paths = PathSet(
                gains=np.array([0.5 - 1j]),
                delays_s=np.zeros(1),
                aoa_spatial_freqs=np.array([phi]),
                aod_spatial_freqs=np.array([-phi]),
            )
            rows, cols = power_select_antennas(path_responses(paths, tx, rx, 500e6), rx, 3, 2)
            # The first three of one azimuth index, the first two of another.
            assert list(rows) == [4 * (rows[0] // 4) + i for i in range(3)]
            assert list(cols) == [3 * (cols[0] // 3) + i for i in range(2)]
            if exact:
                assert list(rows) == [0, 1, 2] and list(cols) == [0, 1]

    def test_greedy_near_exhaustive_on_small_instance(self):
        # 3-path 8x8 channel: greedy retained energy vs brute force over all
        # 4-row/4-column subsets.
        rng = np.random.default_rng(6)
        ramps = [
            np.exp(1j * math.pi * np.arange(8)[None, :] * rng.uniform(-1, 1, size=(3, 1)))
            for _ in range(2)
        ]
        responses = PathResponses(
            rx=ramps[0], tx=ramps[1], gains=rng.standard_normal(3) + 0j, delays=np.zeros(3, int)
        )
        h = dense_channel(responses)
        rows, cols = power_select_antennas(responses, upa_with(8), 4, 4)
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
            rows, cols = power_select_antennas(responses, upa_with(6), k, k)
            caps.append(ofdm_capacity(responses.restrict(rows, cols), 1.0, 1.0, cfg))
        assert caps[0] <= caps[1] <= caps[2]

    def test_budget_validation(self):
        responses = single_path(np.ones(2), np.ones(2))
        with pytest.raises(InvalidInputError):
            power_select_antennas(responses, upa_with(2), 3, 1)
        with pytest.raises(InvalidInputError):
            power_select_antennas(responses, upa_with(2), 1, 0)
        with pytest.raises(InvalidInputError):  # responses of another array
            power_select_antennas(responses, upa_with(4), 1, 1)

    @pytest.mark.parametrize("name", ["fig9", "fig10"])
    def test_matches_dense_oracle_on_preset_draws(self, name):
        # The sweeps' own draws (trial t of seed s), at budgets within one
        # azimuth index (1, 6) and across two (15 > n_z = 10).
        cfg = preset(name)
        rx = UpaConfig(cfg.rx_aperture, cfg.rx_azimuth_dim)
        tx = UpaConfig(cfg.tx_aperture, cfg.tx_azimuth_dim)
        n_z = rx.grid_shape[1], tx.grid_shape[1]
        for seed, trial in itertools.product(range(5), range(30)):
            paths = sample_paths(cfg.stats, cfg.num_paths, np.random.default_rng([seed, trial]))
            responses = path_responses(paths, tx, rx, cfg.stats.bandwidth_hz)
            taps = dense_taps(responses)
            for rf in (1, 6, 15):
                rows, cols = power_select_antennas(responses, rx, rf, rf)
                want_rows, want_cols = oracle_power_select(taps, rf, rf)
                assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
                if rf <= min(n_z):
                    # One azimuth index per side: a rank-1, single-stream link.
                    assert len(set(rows // n_z[0])) == 1 and len(set(cols // n_z[1])) == 1
                    picked = responses.restrict(rows, cols)
                    assert np.linalg.matrix_rank(picked.rx) == 1
                    assert np.linalg.matrix_rank(picked.tx) == 1

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_dense_oracle_up_to_ulp_ties(self, data):
        # Random UPA shapes (n_z = 1 included) and draws whose delays often
        # share a tap. The dense oracle's flattened numpy kernels may round
        # a lane differently when Q is not a multiple of the SIMD width (see test_properties.py,
        # test_restrict_then_merge_equals_merge_then_index), so equal powers
        # may differ by an ulp or so there.
        def upa():
            n_y, n_z = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4))
            return UpaConfig(aperture=n_y * n_z / 4.0, azimuth_dim=n_y / 2.0)

        rx, tx = upa(), upa()
        n = data.draw(st.integers(1, 5))
        unit = st.floats(-1.0, 1.0)
        draws = [data.draw(st.lists(unit, min_size=n, max_size=n)) for _ in range(4)]
        delays = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        paths = PathSet(
            gains=np.array(draws[0]) + 1j * np.array(draws[1]),
            delays_s=np.sort(delays) / 500e6,
            aoa_spatial_freqs=np.array(draws[2]),
            aod_spatial_freqs=np.array(draws[3]),
        )
        responses = path_responses(paths, tx, rx, 500e6)
        k_rx = data.draw(st.integers(1, rx.element_count))
        k_tx = data.draw(st.integers(1, tx.element_count))
        rows, cols = power_select_antennas(responses, rx, k_rx, k_tx)
        energy = dense_energy(dense_taps(responses))
        assert_top_up_to_ulps(rows, energy.sum(axis=1), k_rx)
        assert_top_up_to_ulps(cols, energy[rows].sum(axis=0), k_tx)
