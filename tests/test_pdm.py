from dataclasses import replace

import numpy as np
import pytest

from lensmimo import pdm
from lensmimo.arrays import LensArrayConfig
from lensmimo.channel import ChannelStats, PathResponses, PathSet, path_responses, sample_paths
from lensmimo.errors import InvalidInputError, NumericalError
from lensmimo.experiments import preset, run_experiment
from lensmimo.numerics import water_fill
from lensmimo.pdm import mmse_combiners, mrc_combiners, mrt_precoders, pdm_sinr
from lensmimo.selection import support_sets
from oracles import StatisticalValidityError, ipc_coefficients, simulate_symbols, support_view

TX = LensArrayConfig(100.0, 20.0)
RX = LensArrayConfig(50.0, 10.0)
STATS = ChannelStats(
    aoa_spread_deg=150.0,
    aod_spatial_freqs=tuple(np.sin(np.deg2rad([-15.0, 10.0, 45.0]))),
)


def make_paths(aoa, aod, gains=None, delays=None):
    n = len(aoa)
    return PathSet(
        gains=np.ones(n, complex) if gains is None else np.asarray(gains, complex),
        delays_s=np.zeros(n) if delays is None else np.asarray(delays, float),
        aoa_spatial_freqs=np.asarray(aoa, float),
        aod_spatial_freqs=np.asarray(aod, float),
    )


def support_of(paths, sets=None):
    sets = support_sets(paths, TX, RX, 1) if sets is None else sets
    return support_view(path_responses(paths, TX, RX, 500e6), sets)


def link(paths, powers, noise, kind="MRC"):
    """The support view and the MRC or MMSE combiners of one realization."""
    support = support_of(paths)
    if kind == "MMSE":
        return support, mmse_combiners(support, powers, noise)
    return support, mrc_combiners(support)


class TestBeamformers:
    def test_unit_norm(self):
        support = support_of(sample_paths(STATS, 3, np.random.default_rng(0)))
        prec = mrt_precoders(support)
        comb = mrc_combiners(support)
        assert np.allclose(np.linalg.norm(prec, axis=1), 1.0)
        assert np.allclose(np.linalg.norm(comb, axis=1), 1.0)

    def test_pdm_sinr_validates_combiner_norms(self):
        support = support_of(sample_paths(STATS, 3, np.random.default_rng(0)))
        comb = 2.0 * mrc_combiners(support)
        with pytest.raises(InvalidInputError):
            pdm_sinr(support, comb, np.ones(3), STATS.noise_power)

    def test_mmse_unit_norm(self):
        support = support_of(sample_paths(STATS, 3, np.random.default_rng(1)))
        comb = mmse_combiners(support, np.ones(3), 1e-9)
        assert np.allclose(np.linalg.norm(comb, axis=1), 1.0)

    def test_underflowing_combiner_direction_is_refused(self):
        # Stream powers of 1e200 put the path-space covariance near 1e190,
        # so the solved directions underflow to zero norm: refused rather
        # than divided into nan combiners.
        support = support_of(sample_paths(STATS, 3, np.random.default_rng(1)))
        with pytest.raises(NumericalError, match="zero or non-finite norm"):
            mmse_combiners(support, np.full(3, 1e200), STATS.noise_power)

    def test_block_of_realizations_equals_one_call_each(self):
        # (T, L) gains with (T, B, L) powers: every realization's combiners
        # and SINRs are bit for bit those of its own call.
        draws = [sample_paths(STATS, 3, np.random.default_rng([4, t])) for t in range(5)]
        paths = replace(draws[0], gains=np.stack([p.gains for p in draws]))
        block = support_of(paths)
        budgets = np.array([STATS.tx_power(s) for s in (-10.0, 10.0, 30.0)])
        noise = STATS.noise_power
        powers = water_fill(np.abs(block.gains) ** 2 * RX.aperture * TX.aperture, budgets, noise)
        mrc, mmse = mrc_combiners(block), mmse_combiners(block, powers, noise)
        mrc_rates = pdm_sinr(block, mrc, powers, noise).sum_rate
        mmse_rates = pdm_sinr(block, mmse, powers, noise).sum_rate
        assert mmse.shape == (5, 3, 3, block.rx.shape[1]) and mmse_rates.shape == (5, 3)
        for t in range(5):
            one = replace(block, gains=block.gains[t])
            assert np.array_equal(mmse[t], mmse_combiners(one, powers[t], noise))
            assert np.array_equal(mrc_rates[t], pdm_sinr(one, mrc, powers[t], noise).sum_rate)
            assert np.array_equal(mmse_rates[t], pdm_sinr(one, mmse[t], powers[t], noise).sum_rate)

    def test_mmse_matches_per_stream_loop(self):
        # Reference: the interference weights of detector l summed term by
        # term, ISI of stream l via paths k != l plus every other stream via
        # every path, and the M_S x M_S covariance solved directly. Lens
        # draws have real responses, so complex random responses (with L
        # below and above M_S) check the conjugations too.
        noise = STATS.noise_power
        cases = [
            (
                support_of(sample_paths(STATS, 3, np.random.default_rng(seed))),
                STATS.tx_power(20) * np.array([0.5, 0.3, 0.2]),
                noise,
            )
            for seed in range(10)
        ]
        rng = np.random.default_rng(11)

        def cn(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        for num_paths, n_rx, n_tx in ((3, 5, 4), (4, 2, 6), (2, 6, 1), (1, 3, 3)):
            support = PathResponses(
                rx=cn(num_paths, n_rx),
                tx=cn(num_paths, n_tx),
                gains=cn(num_paths),
                delays=np.zeros(num_paths, int),
            )
            cases.append((support, rng.uniform(0.5, 2.0, num_paths), 0.1))
            # The same link on a 3-budget grid: one call, one row per budget.
            cases.append((support, rng.uniform(0.5, 2.0, (3, num_paths)), 0.1))

        def per_stream(support, powers, noise):
            n = support.num_paths
            g_t = support.tx.conj() @ mrt_precoders(support).T
            alpha_sq = np.abs(support.gains) ** 2
            reference = []
            for l in range(n):
                weights = np.zeros(n)
                for k in range(n):
                    for lp in range(n):
                        if (lp, k) != (l, l):
                            weights[k] += powers[lp] * alpha_sq[k] * np.abs(g_t[k, lp]) ** 2
                cov = (support.rx.T * weights) @ support.rx.conj() + noise * np.eye(
                    support.rx.shape[1]
                )
                v = np.linalg.solve(cov, support.rx[l])
                reference.append(v / np.linalg.norm(v))
            return reference

        for support, powers, noise in cases:
            comb = mmse_combiners(support, powers, noise)
            assert comb.shape == powers.shape + support.rx.shape[1:]
            for budget in np.ndindex(powers.shape[:-1]):
                reference = per_stream(support, powers[budget], noise)
                assert np.allclose(comb[budget], reference, rtol=0.0, atol=1e-9)

    def test_fig9_trial_makes_one_solve(self, monkeypatch):
        # One covariance per trial and budget: a fig9 trial's PDM-MMSE
        # combiners come from a single call on the (1, 9, r, r) stack of its
        # block (one trial) and default grid, with the L = 3 streams as the
        # columns of the right-hand sides.
        calls = []
        original = pdm.hermitian_solve

        def recording(c, b):
            calls.append((np.shape(c), np.shape(b)))
            return original(c, b)

        monkeypatch.setattr(pdm, "hermitian_solve", recording)
        run_experiment(preset("fig9", trials=1), workers=1)
        assert len(calls) == 1, calls
        (c_shape, b_shape), = calls
        r = c_shape[-1]
        assert 1 <= r <= 3
        assert c_shape == (1, 9, r, r) and b_shape == (1, 9, r, 3), calls


class TestAnalyticSinr:
    def test_separated_angles_reach_decoupled_snr(self):
        # Widely separated paths: gamma_l ~ p_l |alpha_l|^2 A_R A_T / noise.
        paths = make_paths([-0.8, 0.0, 0.8], [-0.9, 0.0, 0.9], gains=[1e-6, 2e-6, 3e-6])
        noise = 1e-7
        powers = np.array([1.0, 2.0, 0.5])
        support, comb = link(paths, powers, noise)
        report = pdm_sinr(support, comb, powers, noise)
        expected = powers * np.abs(paths.gains) ** 2 * RX.aperture * TX.aperture / noise
        assert np.allclose(report.gammas, expected, rtol=0.01)

    def test_homogeneity(self):
        paths = sample_paths(STATS, 3, np.random.default_rng(2))
        noise = STATS.noise_power
        powers = water_fill(np.abs(paths.gains) ** 2, STATS.tx_power(10), noise)
        support, comb = link(paths, powers, noise)
        base = pdm_sinr(support, comb, powers, noise).gammas
        scaled = pdm_sinr(support, comb, powers * 7.0, 7.0 * noise).gammas
        assert np.allclose(base, scaled, rtol=1e-9)

    def test_mmse_never_below_mrc(self):
        noise = STATS.noise_power
        for seed in range(20):
            paths = sample_paths(STATS, 3, np.random.default_rng(seed))
            powers = np.full(3, STATS.tx_power(15) / 3)
            support, mrc = link(paths, powers, noise)
            _, mmse = link(paths, powers, noise, kind="MMSE")
            g_mrc = pdm_sinr(support, mrc, powers, noise).gammas
            g_mmse = pdm_sinr(support, mmse, powers, noise).gammas
            assert np.all(g_mmse >= g_mrc * (1 - 1e-9))

    def test_zero_power_stream_has_zero_sinr(self):
        paths = sample_paths(STATS, 3, np.random.default_rng(3))
        powers = np.array([1.0, 0.0, 1.0])
        support, comb = link(paths, powers, STATS.noise_power)
        report = pdm_sinr(support, comb, powers, STATS.noise_power)
        assert report.gammas[1] == 0.0


class TestMmseExtremeSnr:
    def test_fig9_draws_at_140_db_are_finite_and_beat_mrc(self):
        # At 140 dB the noise floor vanishes against the path terms: the
        # antenna-space covariances of these fig9 trials are singular in
        # double precision (trial 27 passes its Cholesky factorization and
        # fails the solve). The path-space solve stays finite on them.
        cfg = preset("fig9")
        noise = cfg.stats.noise_power
        for trial in (2, 27):
            support = support_of(sample_paths(cfg.stats, 3, np.random.default_rng([0, trial])))
            gains = np.abs(support.gains) ** 2 * RX.aperture * TX.aperture
            powers = water_fill(gains, cfg.stats.tx_power(140.0), noise)
            mmse = mmse_combiners(support, powers, noise)
            assert np.all(np.isfinite(mmse))
            g_mmse = pdm_sinr(support, mmse, powers, noise).gammas
            g_mrc = pdm_sinr(support, mrc_combiners(support), powers, noise).gammas
            assert np.all(np.isfinite(g_mmse))
            assert np.all(g_mmse >= g_mrc * (1 - 1e-9))


class TestIpc:
    def test_symmetric_unit_diagonal_bounds(self):
        support = support_of(sample_paths(STATS, 3, np.random.default_rng(4)))
        ipc = ipc_coefficients(support, TX, RX)
        for rho in (ipc.rho_t, ipc.rho_r):
            assert np.allclose(rho, rho.T)
            assert np.all(rho >= 0)
            assert np.all(np.diag(rho) <= 1.0 + 1e-9)


class TestSymbolSimulation:
    def test_requires_enough_symbols(self):
        paths = sample_paths(STATS, 3, np.random.default_rng(5))
        noise = STATS.noise_power
        support, comb = link(paths, np.ones(3), noise)
        with pytest.raises(StatisticalValidityError):
            simulate_symbols(support, comb, np.ones(3), 100, np.random.default_rng(0), noise)

    def test_matches_analytic_sinr(self):
        noise = STATS.noise_power
        paths = sample_paths(STATS, 3, np.random.default_rng(6))
        powers = water_fill(
            np.abs(paths.gains) ** 2 * RX.aperture * TX.aperture, STATS.tx_power(10), noise
        )
        support, comb = link(paths, powers, noise)
        analytic = pdm_sinr(support, comb, powers, noise).gammas
        empirical = simulate_symbols(
            support, comb, powers, 100_000, np.random.default_rng(7), noise
        ).gammas
        active = powers > 0
        ratio_db = 10 * np.log10(empirical[active] / analytic[active])
        assert np.all(np.abs(ratio_db) < 0.5)

    def test_stream_count_must_match_paths(self):
        paths = sample_paths(STATS, 3, np.random.default_rng(8))
        noise = STATS.noise_power
        _, comb = link(paths, np.ones(3), noise)
        two = PathSet(
            gains=paths.gains[:2],
            delays_s=paths.delays_s[:2],
            aoa_spatial_freqs=paths.aoa_spatial_freqs[:2],
            aod_spatial_freqs=paths.aod_spatial_freqs[:2],
        )
        support = support_of(two, support_sets(paths, TX, RX, 1))
        with pytest.raises(InvalidInputError):
            simulate_symbols(support, comb, np.ones(3), 10_000, np.random.default_rng(0), noise)
