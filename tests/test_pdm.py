import math
from dataclasses import replace

import numpy as np
import pytest

from lensmimo import experiments
from lensmimo.arrays import LensArrayConfig
from lensmimo.channel import (
    NOISE_POWER,
    ChannelStats,
    PathResponses,
    PathSet,
    path_responses,
    sample_paths,
    tx_power,
)
from lensmimo.errors import DegenerateInputError, InvalidInputError, NumericalError
from lensmimo.experiments import preset, run_experiment
from lensmimo.numerics import water_fill
from lensmimo.pdm import mmse_sinr, mrc_sinr
from lensmimo.selection import support_sets
from oracles import (
    StatisticalValidityError,
    ipc_coefficients,
    mmse_combiners,
    mrc_combiners,
    mrt_precoders,
    pdm_sinr,
    simulate_symbols,
    support_view,
)

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
    return support_view(path_responses(paths, TX, RX), sets)


def link(paths, powers, noise, kind="MRC"):
    """The support view and the MRC or MMSE combiners of one realization."""
    support = support_of(paths)
    if kind == "MMSE":
        return support, mmse_combiners(support, powers, noise)
    return support, mrc_combiners(support)


class TestBeamformers:
    def test_unit_norm(self):
        support = support_of(sample_paths(STATS, np.random.default_rng(0)))
        prec = mrt_precoders(support)
        comb = mrc_combiners(support)
        assert np.allclose(np.linalg.norm(prec, axis=1), 1.0)
        assert np.allclose(np.linalg.norm(comb, axis=1), 1.0)

    def test_pdm_sinr_validates_combiner_norms(self):
        support = support_of(sample_paths(STATS, np.random.default_rng(0)))
        comb = 2.0 * mrc_combiners(support)
        with pytest.raises(InvalidInputError):
            pdm_sinr(support, comb, np.ones(3), NOISE_POWER)

    def test_mmse_unit_norm(self):
        support = support_of(sample_paths(STATS, np.random.default_rng(1)))
        comb = mmse_combiners(support, np.ones(3), 1e-9)
        assert np.allclose(np.linalg.norm(comb, axis=1), 1.0)

    def test_underflowing_combiner_direction_is_refused(self):
        # Stream powers of 1e200 put the path-space covariance near 1e190,
        # so the solved directions underflow to zero norm: refused rather
        # than divided into nan combiners.
        support = support_of(sample_paths(STATS, np.random.default_rng(1)))
        with pytest.raises(NumericalError, match="zero or non-finite norm"):
            mmse_combiners(support, np.full(3, 1e200), NOISE_POWER)

    def test_block_of_realizations_equals_one_call_each(self):
        # (T, L) gains with (T, B, L) powers: every realization's combiners
        # and SINRs are bit for bit those of its own call.
        draws = [sample_paths(STATS, np.random.default_rng([4, t])) for t in range(5)]
        gains = np.stack([p.gains for p in draws])
        paths = replace(draws[0], gains=gains, delays_s=np.tile(draws[0].delays_s, (5, 1)))
        block = support_of(paths)
        budgets = np.array([tx_power(s) for s in (-10.0, 10.0, 30.0)])
        noise = NOISE_POWER
        powers = water_fill(np.abs(block.gains) ** 2 * RX.aperture * TX.aperture, budgets, noise)
        mrc, mmse = mrc_combiners(block), mmse_combiners(block, powers, noise)
        mrc_rates = pdm_sinr(block, mrc, powers, noise).sum_rate
        mmse_rates = pdm_sinr(block, mmse, powers, noise).sum_rate
        assert mmse.shape == (5, 3, 3, block.rx.shape[1]) and mmse_rates.shape == (5, 3)
        for t in range(5):
            one = replace(block, gains=block.gains[t], delays=block.delays[t])
            assert np.array_equal(mmse[t], mmse_combiners(one, powers[t], noise))
            mrc_rate = pdm_sinr(one, mrc, powers[t], noise).sum_rate
            mmse_rate = pdm_sinr(one, mmse[t], powers[t], noise).sum_rate
            assert np.array_equal(mrc_rates[t], mrc_rate)
            assert np.array_equal(mmse_rates[t], mmse_rate)

    def test_mmse_matches_per_stream_loop(self):
        # Reference: the interference weights of detector l summed term by
        # term, ISI of stream l via paths k != l plus every other stream via
        # every path, and the M_S x M_S covariance solved directly. Lens
        # draws have real responses, so complex random responses (with L
        # below and above M_S) check the conjugations too.
        noise = NOISE_POWER
        cases = [
            (
                support_of(sample_paths(STATS, np.random.default_rng(seed))),
                tx_power(20) * np.array([0.5, 0.3, 0.2]),
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

    def test_fig9_block_mmse_rate_makes_no_linalg_call(self, monkeypatch):
        # The support view's factor and Grams and the water-filled powers
        # aside, the PDM-MMSE and PDM-MRC rates of a fig9 block come from
        # ufuncs and products alone: every numpy.linalg function and LAPACK
        # gufunc raises while they run.
        block = experiments._Block(preset("fig9", trials=30), range(30))
        block.support.factors, block.support.grams, block.pdm_powers  # built beforehand
        calls = []

        def refuse(name):
            def call(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"numpy.linalg.{name} called")

            return call

        for space in (np.linalg, np.linalg._umath_linalg):
            for name, value in list(vars(space).items()):
                if callable(value) and not name.startswith("_") and name != "LinAlgError":
                    monkeypatch.setattr(space, name, refuse(name))
        rates = [block.mmse_rates, block.pdm_mrc()]
        monkeypatch.undo()
        assert calls == []
        for rate in rates:
            assert rate.shape == (30, len(block.cfg.snr_db)) and np.all(np.isfinite(rate))


class TestMmseSinr:
    def test_equals_the_oracle_on_complex_supports(self):
        # Complex responses with L above, equal to and below M_S (r < L),
        # L = 1 to 5, on one budget and on a grid of budgets: both closed
        # forms match the SINR of the oracle's combiners, and MMSE's is
        # never below MRC's.
        rng = np.random.default_rng(12)

        def cn(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        shapes = ((3, 5, 4), (4, 2, 6), (5, 3, 7), (5, 8, 5), (4, 4, 4), (2, 6, 1), (1, 3, 3))
        for num_paths, n_rx, n_tx in shapes:
            support = PathResponses(
                rx=cn(num_paths, n_rx),
                tx=cn(num_paths, n_tx),
                gains=cn(num_paths),
                delays=np.zeros(num_paths, int),
            )
            assert support.factors[0].shape == (min(num_paths, n_rx), num_paths)
            for powers in (rng.uniform(0.5, 2.0, num_paths), rng.uniform(0.0, 2.0, (3, num_paths))):
                got = mmse_sinr(support, powers, 0.1)
                comb = mmse_combiners(support, powers, 0.1)
                want = pdm_sinr(support, comb, powers, 0.1).gammas
                assert got.shape == powers.shape
                assert np.allclose(got, want, rtol=1e-12, atol=0.0)
                mrc = mrc_sinr(support, powers, 0.1)
                want = pdm_sinr(support, mrc_combiners(support), powers, 0.1).gammas
                assert np.allclose(mrc, want, rtol=1e-12, atol=0.0)
                assert np.all(got >= mrc * (1 - 1e-12))

    def test_block_of_realizations_equals_one_call_each(self):
        draws = [sample_paths(STATS, np.random.default_rng([4, t])) for t in range(5)]
        gains = np.stack([p.gains for p in draws])
        paths = replace(draws[0], gains=gains, delays_s=np.tile(draws[0].delays_s, (5, 1)))
        block = support_of(paths)
        budgets = np.array([tx_power(s) for s in (-10.0, 10.0, 30.0)])
        gains = np.abs(block.gains) ** 2 * RX.aperture * TX.aperture
        powers = water_fill(gains, budgets, NOISE_POWER)
        gammas = mmse_sinr(block, powers, NOISE_POWER)
        assert gammas.shape == (5, 3, 3)
        for t in range(5):
            one = replace(block, gains=block.gains[t], delays=block.delays[t])
            assert np.array_equal(gammas[t], mmse_sinr(one, powers[t], NOISE_POWER))

    def test_zero_power_and_unreceived_streams_have_zero_sinr(self):
        # MMSE and MRC alike. A path no receive antenna sees: R_l = 0, so
        # its detector gets nothing and the others are scored as usual.
        support = support_of(sample_paths(STATS, np.random.default_rng(3)))
        dark = replace(support, rx=support.rx * np.array([[1.0], [0.0], [1.0]]))
        assert np.all(dark.grams[0][1] == 0.0)
        for sinr in (mmse_sinr, mrc_sinr):
            gammas = sinr(support, np.array([1.0, 0.0, 1.0]), NOISE_POWER)
            assert gammas[1] == 0.0 and np.all(gammas[[0, 2]] > 0)
            gammas = sinr(dark, np.ones(3), NOISE_POWER)
            assert gammas[1] == 0.0 and np.all(gammas[[0, 2]] > 0)

    def test_subnormal_power_scales_the_sinr_exactly(self):
        # Far below the noise a lone stream's SINR is linear in its power,
        # and a power-of-two scale is exact: p 2^-1000 (subnormal) gives
        # the SINR of p times 2^-1000 to one rounding, MMSE and MRC alike.
        support = support_of(sample_paths(STATS, np.random.default_rng(0)))
        powers = np.array([0.0, 0.0, 2.0**-40])
        for sinr in (mmse_sinr, mrc_sinr):
            tiny = sinr(support, powers * 2.0**-1000, NOISE_POWER)
            want = sinr(support, powers, NOISE_POWER) * 2.0**-1000
            assert tiny[2] > 0 and np.allclose(tiny, want, rtol=1e-12, atol=0.0)

    def test_refuses_bad_powers_and_a_singular_covariance(self):
        support = support_of(sample_paths(STATS, np.random.default_rng(3)))
        with pytest.raises(InvalidInputError):
            mmse_sinr(support, np.ones(2), NOISE_POWER)
        with pytest.raises(InvalidInputError):
            mmse_sinr(support, np.array([1.0, -1.0, 1.0]), NOISE_POWER)
        # A noise power that is not positive is refused before the
        # covariance it would leave singular is formed.
        with pytest.raises(InvalidInputError):
            mmse_sinr(support, np.zeros(3), 0.0)

    @pytest.mark.parametrize("sinr", [mmse_sinr, mrc_sinr])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refuses_non_finite_powers_before_any_arithmetic(self, sinr, bad):
        # One InvalidInputError of the power check, on one power and on a
        # budget grid, with every floating-point warning an error; and of
        # the noise check, for a noise power that is not positive and finite.
        support = support_of(sample_paths(STATS, np.random.default_rng(3)))
        for powers in (np.array([1.0, bad, 1.0]), np.array([[1.0, 1.0, 1.0], [1.0, 1.0, bad]])):
            with np.errstate(all="raise"), pytest.raises(InvalidInputError, match="^stream powers"):
                sinr(support, powers, NOISE_POWER)
        for noise in (bad, 0.0, -NOISE_POWER):
            for powers in (np.ones(3), np.ones((2, 3))):
                with np.errstate(all="raise"), pytest.raises(
                    InvalidInputError, match="^the noise power"
                ):
                    sinr(support, powers, noise)

    @pytest.mark.parametrize("sinr", [mmse_sinr, mrc_sinr])
    def test_refuses_a_zero_transmit_row(self, sinr):
        # A path that no selected transmit antenna sees has no MRT precoder.
        support = support_of(sample_paths(STATS, np.random.default_rng(3)))
        dark = replace(support, tx=support.tx * np.array([[1.0], [0.0], [1.0]]))
        with pytest.raises(DegenerateInputError, match="cannot form MRT precoder"):
            sinr(dark, np.ones(3), NOISE_POWER)


class TestMmseSaturation:
    @pytest.mark.parametrize("name", ["fig9", "fig10"])
    def test_2000_db_equals_200_db(self, name):
        # From 200 dB up PDM-MMSE is interference limited: its rate no
        # longer moves with the budget. At 2000 dB the covariances pass
        # 1e190 and C_l^{-1} R_l near 1e-190; the directions scaled to unit
        # C_l-norm stay near 1e-95, and the rate is scored.
        cfg = preset(name, trials=200, snr_db=(200.0, 2000.0), schemes=("PDM-MMSE",))
        low, high = run_experiment(cfg, workers=1)
        assert math.isfinite(high.se_bpshz)
        assert math.isclose(high.se_bpshz, low.se_bpshz, rel_tol=1e-12)

    def test_streams_whose_own_path_carries_no_interference(self):
        # Orthogonal AoDs: no stream leaks into another's path, so stream
        # l's own covariance C_l lacks path l, and with fig10's overlapping
        # AoAs it is singular in double precision from 130 dB. The
        # covariance of everything received is not, and gives the same
        # directions: every point is scored, and MMSE stays above MRC.
        base = preset("fig10")
        cfg = preset(
            "fig10",
            trials=64,
            snr_db=(30.0, 130.0, 200.0),
            schemes=("PDM-MRC", "PDM-MMSE"),
            stats=replace(base.stats, aod_spatial_freqs=(0.0, 0.2, -0.2)),
        )
        rows = run_experiment(cfg, workers=1)
        mrc, mmse = rows[:3], rows[3:]
        for a, b in zip(mrc, mmse):
            assert math.isfinite(b.se_bpshz) and b.se_bpshz >= a.se_bpshz


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
        assert np.allclose(mrc_sinr(support, powers, noise), expected, rtol=0.01)

    def test_homogeneity(self):
        paths = sample_paths(STATS, np.random.default_rng(2))
        noise = NOISE_POWER
        powers = water_fill(np.abs(paths.gains) ** 2, tx_power(10), noise)
        support, comb = link(paths, powers, noise)
        base = pdm_sinr(support, comb, powers, noise).gammas
        scaled = pdm_sinr(support, comb, powers * 7.0, 7.0 * noise).gammas
        assert np.allclose(base, scaled, rtol=1e-9)
        base = mrc_sinr(support, powers, noise)
        assert np.allclose(mrc_sinr(support, powers * 7.0, 7.0 * noise), base, rtol=1e-9)

    def test_mmse_never_below_mrc(self):
        noise = NOISE_POWER
        for seed in range(20):
            paths = sample_paths(STATS, np.random.default_rng(seed))
            powers = np.full(3, tx_power(15) / 3)
            support, mrc = link(paths, powers, noise)
            _, mmse = link(paths, powers, noise, kind="MMSE")
            g_mrc = pdm_sinr(support, mrc, powers, noise).gammas
            g_mmse = pdm_sinr(support, mmse, powers, noise).gammas
            assert np.all(g_mmse >= g_mrc * (1 - 1e-9))

    def test_zero_power_stream_has_zero_sinr(self):
        paths = sample_paths(STATS, np.random.default_rng(3))
        powers = np.array([1.0, 0.0, 1.0])
        support, comb = link(paths, powers, NOISE_POWER)
        report = pdm_sinr(support, comb, powers, NOISE_POWER)
        assert report.gammas[1] == 0.0


class TestMmseExtremeSnr:
    def test_fig9_draws_at_140_db_are_finite_and_beat_mrc(self):
        # At 140 dB the noise floor vanishes against the path terms: the
        # antenna-space covariances of these fig9 trials are singular in
        # double precision (trial 27 passes its Cholesky factorization and
        # fails the solve). The path-space solve stays finite on them.
        cfg = preset("fig9")
        noise = NOISE_POWER
        for trial in (2, 27):
            support = support_of(sample_paths(cfg.stats, np.random.default_rng([0, trial])))
            gains = np.abs(support.gains) ** 2 * RX.aperture * TX.aperture
            powers = water_fill(gains, tx_power(140.0), noise)
            mmse = mmse_combiners(support, powers, noise)
            assert np.all(np.isfinite(mmse))
            g_mmse = pdm_sinr(support, mmse, powers, noise).gammas
            g_mrc = pdm_sinr(support, mrc_combiners(support), powers, noise).gammas
            assert np.all(np.isfinite(g_mmse))
            assert np.all(g_mmse >= g_mrc * (1 - 1e-9))


class TestIpc:
    def test_symmetric_unit_diagonal_bounds(self):
        support = support_of(sample_paths(STATS, np.random.default_rng(4)))
        ipc = ipc_coefficients(support, TX, RX)
        for rho in (ipc.rho_t, ipc.rho_r):
            assert np.allclose(rho, rho.T)
            assert np.all(rho >= 0)
            assert np.all(np.diag(rho) <= 1.0 + 1e-9)


class TestSymbolSimulation:
    def test_requires_enough_symbols(self):
        paths = sample_paths(STATS, np.random.default_rng(5))
        noise = NOISE_POWER
        support, comb = link(paths, np.ones(3), noise)
        with pytest.raises(StatisticalValidityError):
            simulate_symbols(support, comb, np.ones(3), 100, np.random.default_rng(0), noise)

    def test_matches_analytic_sinr(self):
        noise = NOISE_POWER
        paths = sample_paths(STATS, np.random.default_rng(6))
        powers = water_fill(
            np.abs(paths.gains) ** 2 * RX.aperture * TX.aperture, tx_power(10), noise
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
        paths = sample_paths(STATS, np.random.default_rng(8))
        noise = NOISE_POWER
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
