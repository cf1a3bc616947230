"""Property tests for the factored channel core, the water-filling kernel
and the PDM combiners.

The channel properties draw random lens and UPA array pairs, 1-6 paths and
quantized delays that often coincide, and check every channel form against
a brute-force sum of per-path outer products. The water-filling properties
check the KKT conditions, monotonicity in the power budget and that one
call over a budget grid equals one call per budget, over budgets far wider
than the sweeps produce. The combiner property checks that MMSE never
loses to MRC on any stream.
"""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lensmimo.arrays import LensArrayConfig, UpaConfig, lens_response_spatial, upa_response
from lensmimo.channel import ChannelStats, PathSet, path_responses, sample_paths
from lensmimo.numerics import water_fill, waterfill_capacity
from lensmimo.pdm import LinkDesign, mmse_combiners, mrc_combiners, mrt_precoders, pdm_sinr
from lensmimo.selection import restrict_to_support, support_sets

RATE = 500e6
EXAMPLES = settings(max_examples=60, deadline=None)

unit_floats = st.floats(-1.0, 1.0)


@st.composite
def lens_configs(draw):
    # floor(2 * azimuth_dim) must be even for an odd element count.
    dim = draw(st.integers(1, 12)) + draw(st.floats(0.0, 0.49))
    return LensArrayConfig(aperture=draw(st.floats(0.5, 50.0)), azimuth_dim=dim)


@st.composite
def upa_configs(draw):
    n_y, n_z = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    return UpaConfig(aperture=n_y * n_z / 4.0, azimuth_dim=n_y / 2.0)


@st.composite
def path_sets(draw):
    n = draw(st.integers(1, 6))
    # Delays on a coarse grid of few samples, so paths often share a tap.
    samples = draw(st.lists(st.integers(0, 3) | st.integers(0, 40), min_size=n, max_size=n))
    gains = [complex(draw(unit_floats), draw(unit_floats)) for _ in range(n)]
    return PathSet(
        gains=np.array(gains, dtype=complex),
        delays_s=np.sort(np.array(samples, dtype=float)) / RATE,
        aoa_spatial_freqs=np.array(draw(st.lists(unit_floats, min_size=n, max_size=n))),
        aod_spatial_freqs=np.array(draw(st.lists(unit_floats, min_size=n, max_size=n))),
    )


def _scalar_response(config, spatial_freq):
    if isinstance(config, LensArrayConfig):
        return lens_response_spatial(config, spatial_freq)
    return upa_response(config, math.asin(spatial_freq))


array_pairs = st.one_of(
    st.tuples(lens_configs(), lens_configs()), st.tuples(upa_configs(), upa_configs())
)


@st.composite
def subsets(draw, size):
    picks = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=size, unique=True))
    return np.array(sorted(picks))


class TestPathResponses:
    @EXAMPLES
    @given(arrays=array_pairs, paths=path_sets())
    def test_matrix_is_sum_of_path_outer_products(self, arrays, paths):
        tx, rx = arrays
        brute = sum(
            alpha
            * np.outer(_scalar_response(rx, phi_r), _scalar_response(tx, phi_t).conj())
            for alpha, phi_r, phi_t in zip(
                paths.gains, paths.aoa_spatial_freqs, paths.aod_spatial_freqs
            )
        )
        h = path_responses(paths, tx, rx, RATE).matrix()
        assert h.shape == (rx.element_count, tx.element_count)
        assert np.allclose(h, brute, rtol=1e-12, atol=1e-12)

    @EXAMPLES
    @given(arrays=array_pairs, paths=path_sets())
    def test_taps_sum_to_matrix(self, arrays, paths):
        tx, rx = arrays
        responses = path_responses(paths, tx, rx, RATE)
        taps = responses.taps().taps
        delays = [n for n, _ in taps]
        assert delays == sorted(set(paths.delay_samples(RATE).tolist()))
        total = sum(mat for _, mat in taps)
        assert np.allclose(total, responses.matrix(), rtol=1e-12, atol=1e-12)

    @EXAMPLES
    @given(arrays=array_pairs, paths=path_sets(), data=st.data())
    def test_restrict_then_merge_equals_merge_then_index(self, arrays, paths, data):
        tx, rx = arrays
        rows = data.draw(subsets(rx.element_count))
        cols = data.draw(subsets(tx.element_count))
        responses = path_responses(paths, tx, rx, RATE)
        restricted = responses.restrict(rows, cols).taps().taps
        indexed = [(n, mat[np.ix_(rows, cols)]) for n, mat in responses.taps().taps]
        assert [n for n, _ in restricted] == [n for n, _ in indexed]
        # Same per-entry arithmetic, but numpy's vector kernels may round an
        # entry differently with the array's length: allow a few ulps of the
        # largest path term.
        term_scale = np.sum(
            np.abs(paths.gains)
            * np.abs(responses.rx).max(axis=1)
            * np.abs(responses.tx).max(axis=1)
        )
        for (_, a), (_, b) in zip(restricted, indexed):
            assert np.allclose(a, b, rtol=0.0, atol=8 * np.finfo(float).eps * term_scale)


gain_lists = st.lists(
    st.floats(1e-3, 1e3) | st.just(0.0), min_size=1, max_size=16
).filter(lambda g: any(v > 0 for v in g))
noises = st.floats(1e-2, 1e2)
# Budget as the SNR of the strongest channel alone, budget * max(g) / noise:
# -200..200 dB reaches far beyond the sweeps' SNR grid, array gains and
# shadowing (about -60..60 dB), where a budget could cancel against a floor.
best_snrs_db = st.floats(-200.0, 200.0)


class TestWaterFillProperties:
    @EXAMPLES
    @given(gains=gain_lists, noise=noises, best_snr_db=best_snrs_db)
    def test_kkt_conditions(self, gains, noise, best_snr_db):
        g = np.array(gains)
        budget = 10.0 ** (best_snr_db / 10.0) * noise / g.max()
        alloc = water_fill(g, budget, noise)
        mu = alloc.water_level
        positive = g > 0
        floors = noise / g[positive]
        powers = alloc.powers[positive]
        active = powers > 0
        assert np.all(alloc.powers >= 0)
        assert np.all(alloc.powers[~positive] == 0)
        # Active channels share one water level ...
        assert np.allclose(powers[active] + floors[active], mu, rtol=1e-9)
        # ... and every inactive floor lies at or above it.
        assert np.all(floors[~active] >= mu * (1 - 1e-9))
        assert math.isclose(alloc.powers.sum(), budget, rel_tol=1e-9)

    @EXAMPLES
    @given(gains=gain_lists, noise=noises, best_snr_db=best_snrs_db, factor=st.floats(1.0, 100.0))
    def test_capacity_monotone_in_power(self, gains, noise, best_snr_db, factor):
        budget = 10.0 ** (best_snr_db / 10.0) * noise / max(gains)
        low = waterfill_capacity(gains, budget, noise)
        high = waterfill_capacity(gains, budget * factor, noise)
        assert high >= low * (1 - 1e-12)

    @EXAMPLES
    @given(
        gains=gain_lists,
        noise=noises,
        best_snrs=st.lists(best_snrs_db, min_size=1, max_size=12),
    )
    def test_budget_grid_equals_one_call_per_budget(self, gains, noise, best_snrs):
        g = np.array(gains)
        budgets = 10.0 ** (np.array(best_snrs) / 10.0) * noise / g.max()
        grid = water_fill(g, budgets, noise)
        rates = waterfill_capacity(g, budgets, noise)
        for i, budget in enumerate(budgets):
            single = water_fill(g, budget, noise)
            assert np.array_equal(grid.powers[i], single.powers)
            assert grid.water_level[i] == single.water_level
            assert rates[i] == waterfill_capacity(g, budget, noise)


# The fig9/fig10 lens pair, with both AoA spreads of those presets.
PDM_TX = LensArrayConfig(100.0, 20.0)
PDM_RX = LensArrayConfig(50.0, 10.0)


class TestCombinerProperties:
    @EXAMPLES
    @given(
        spread=st.sampled_from([10.0, 150.0]),
        seed=st.integers(0, 2**32 - 1),
        snr_db=st.floats(-10.0, 30.0),
        shares=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    )
    def test_mmse_sinr_never_below_mrc(self, spread, seed, snr_db, shares):
        stats = ChannelStats(
            aoa_spread_deg=spread,
            aod_spatial_freqs=tuple(np.sin(np.deg2rad([-15.0, 10.0, 45.0]))),
        )
        paths = sample_paths(stats, 3, np.random.default_rng(seed))
        noise = stats.noise_power
        powers = stats.tx_power(snr_db) * np.array(shares)
        sets = support_sets(paths, PDM_TX, PDM_RX, 1)
        support = restrict_to_support(
            path_responses(paths, PDM_TX, PDM_RX, RATE), sets, PDM_TX, PDM_RX
        )
        gammas = {}
        for kind, combiners in (
            ("MRC", mrc_combiners(support)),
            ("MMSE", mmse_combiners(support, powers, noise)),
        ):
            design = LinkDesign(
                precoders=mrt_precoders(support),
                combiners=combiners,
                powers=powers,
                stream_delays=support.delays,
                combiner_kind=kind,
            )
            gammas[kind] = pdm_sinr(design, support, noise).gammas
        assert np.all(gammas["MMSE"] >= gammas["MRC"] * (1 - 1e-9))
