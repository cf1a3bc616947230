"""Property tests for the factored channel core, the support sets, the
water-filling kernel and the PDM combiners.

The channel properties draw random lens and UPA array pairs, 1-6 paths,
quantized delays that often coincide and angles that often repeat, and
check the path-space cores against a brute-force sum of per-path outer
products (by their singular values, and by a shape equal to the numerical
ranks of the two sides), and that restricting the responses to antenna
subsets and then forming the dense tapped oracle equals indexing the dense
oracle. The support-set properties check the vectorised subset masks
and separation flags against the per-path definition, and that a side
flagged separated has pairwise-disjoint subsets, also for angles chained at
the separation gap. The water-filling properties check the KKT
conditions, monotonicity in the power budget, that one call over a budget
grid equals one call per budget, and that one call over a stack of links
(zero gains, equal floors, all-zero rows) equals one call per link, bit
for bit, over budgets far wider than the sweeps produce. The combiner
properties check that the path-space MMSE combiners equal a dense
M_S x M_S solve, that MMSE never loses to MRC on any stream (up to
160 dB), and that one MMSE combiner and SINR call over a grid of
water-filled stream powers equals one call per budget.
"""
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lensmimo.arrays import LensArrayConfig, UpaConfig
from lensmimo.channel import ChannelStats, PathSet, path_responses, sample_paths
from lensmimo.errors import DegenerateInputError
from lensmimo.numerics import RANK_TOL, water_fill, waterfill_capacity
from lensmimo.pdm import mmse_combiners, mrc_combiners, mrt_precoders, pdm_sinr
from lensmimo.selection import support_sets
from oracles import antenna_indices, dense_taps, support_view

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


array_pairs = st.one_of(
    st.tuples(lens_configs(), lens_configs()), st.tuples(upa_configs(), upa_configs())
)


@st.composite
def repeats(draw, freqs):
    """The spatial frequencies with each one either kept or replaced by a
    copy of an earlier one."""
    out = np.array(freqs)
    for i in range(1, out.size):
        if draw(st.booleans()):
            out[i] = out[draw(st.integers(0, i - 1))]
    return out


@st.composite
def subsets(draw, size):
    picks = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=size, unique=True))
    return np.array(sorted(picks))


def numerical_rank(rows):
    """The number of singular values of a response matrix at or above
    RANK_TOL times its largest."""
    s = np.linalg.svd(rows, compute_uv=False)
    return int(np.count_nonzero(s >= RANK_TOL * s[0]))


class TestPathResponses:
    @EXAMPLES
    @given(arrays=array_pairs, paths=path_sets(), data=st.data())
    def test_cores_have_singular_values_of_path_sum(self, arrays, paths, data):
        tx, rx = arrays
        # Repeated response rows: AoAs and AoDs copied from earlier paths,
        # the UPA's n_z identical antennas per azimuth index, antenna subsets
        # (one azimuth index, as UPA selection picks) and L > M.
        paths = replace(
            paths,
            aoa_spatial_freqs=data.draw(repeats(paths.aoa_spatial_freqs)),
            aod_spatial_freqs=data.draw(repeats(paths.aod_spatial_freqs)),
        )
        rows = data.draw(subsets(rx.element_count))
        cols = data.draw(subsets(tx.element_count))
        responses = path_responses(paths, tx, rx, RATE).restrict(rows, cols)
        # Per-path coefficients of the narrowband channel and of a few
        # subcarriers of a 64-point OFDM symbol.
        phases = np.exp(-2j * np.pi * np.outer(np.arange(4), responses.delays) / 64)
        coeffs = paths.gains * phases
        ranks = (numerical_rank(responses.rx), numerical_rank(responses.tx))
        assert responses.cores().shape == ranks
        assert responses.cores(coeffs).shape == (4, *ranks)
        cases = [(responses.cores(), paths.gains)]
        cases += zip(responses.cores(coeffs), coeffs)
        scale = np.sum(
            np.abs(paths.gains)
            * np.linalg.norm(responses.rx, axis=1)
            * np.linalg.norm(responses.tx, axis=1)
        )
        for core, coeffs in cases:
            brute = sum(
                c * np.outer(rx.responses([phi_r])[0][rows], tx.responses([phi_t])[0][cols].conj())
                for c, phi_r, phi_t in zip(
                    coeffs, paths.aoa_spatial_freqs, paths.aod_spatial_freqs
                )
            )
            got = np.linalg.svd(core, compute_uv=False)
            want = np.linalg.svd(brute, compute_uv=False)
            # The dense sum has at most min(r_R, r_T) nonzero singular values.
            assert np.allclose(got, want[: got.size], rtol=0.0, atol=1e-12 * max(scale, 1.0))
            assert np.all(want[got.size :] <= 1e-12 * max(scale, 1.0))

    @EXAMPLES
    @given(arrays=array_pairs, paths=path_sets(), data=st.data())
    def test_restrict_then_merge_equals_merge_then_index(self, arrays, paths, data):
        tx, rx = arrays
        rows = data.draw(subsets(rx.element_count))
        cols = data.draw(subsets(tx.element_count))
        responses = path_responses(paths, tx, rx, RATE)
        restricted = dense_taps(responses.restrict(rows, cols))
        indexed = [(n, mat[np.ix_(rows, cols)]) for n, mat in dense_taps(responses)]
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


@st.composite
def gap_edge_freqs(draw, dim, delta, n):
    """n spatial frequencies chained at the separation gap 2 * delta / dim,
    each step moved by a few ulps either way, where the gap rule flips."""
    gap = 2.0 * delta / dim
    freqs = [draw(st.floats(-1.0, max(-1.0, 1.0 - (n - 1) * gap)))]
    for _ in range(n - 1):
        f = freqs[-1] + gap
        for _ in range(draw(st.integers(0, 3))):
            f = np.nextafter(f, draw(st.sampled_from([-2.0, 2.0])))
        freqs.append(float(np.clip(f, -1.0, 1.0)))
    return np.array(freqs)


@st.composite
def support_cases(draw):
    """A lens pair, a support radius and paths whose angles on each side are
    either arbitrary or chained at that side's separation gap."""
    tx, rx = draw(lens_configs()), draw(lens_configs())
    delta = draw(st.integers(1, 4))
    paths = draw(path_sets())
    n = paths.num_paths
    aoa = draw(st.just(paths.aoa_spatial_freqs) | gap_edge_freqs(rx.azimuth_dim, delta, n))
    aod = draw(st.just(paths.aod_spatial_freqs) | gap_edge_freqs(tx.azimuth_dim, delta, n))
    return tx, rx, delta, replace(paths, aoa_spatial_freqs=aoa, aod_spatial_freqs=aod)


def scalar_subset(config, phi, delta):
    """M_l by definition: the antenna indices m with |m - D * phi| < delta."""
    half = (config.element_count - 1) // 2
    center = config.azimuth_dim * float(phi)
    return tuple(m for m in range(-half, half + 1) if abs(m - center) < delta)


def scalar_separated(config, freqs, delta):
    """The gap rule by definition: every pair of paths more than
    2 * delta / D apart."""
    return all(
        abs(float(a) - float(b)) > 2.0 * delta / config.azimuth_dim
        for a, b in itertools.permutations(freqs, 2)
    )


def sides(paths, tx, rx, sets):
    return (
        (rx, paths.aoa_spatial_freqs, sets.rx, sets.rx_separated),
        (tx, paths.aod_spatial_freqs, sets.tx, sets.tx_separated),
    )


class TestSupportSetProperties:
    @EXAMPLES
    @given(case=support_cases())
    def test_matches_scalar_per_path_rule(self, case):
        tx, rx, delta, paths = case
        sets = support_sets(paths, tx, rx, delta)
        for config, freqs, mask, separated in sides(paths, tx, rx, sets):
            want = tuple(scalar_subset(config, phi, delta) for phi in freqs)
            assert mask.shape == (len(freqs), config.element_count)
            assert tuple(antenna_indices(config, row) for row in mask) == want
            assert antenna_indices(config, mask.any(axis=0)) == tuple(sorted(set().union(*want)))
            assert separated == scalar_separated(config, freqs, delta)

    @EXAMPLES
    @given(case=support_cases())
    def test_separated_side_has_disjoint_subsets(self, case):
        tx, rx, delta, paths = case
        sets = support_sets(paths, tx, rx, delta)
        for _, _, mask, separated in sides(paths, tx, rx, sets):
            if separated:
                for a, b in itertools.combinations(mask, 2):
                    assert not np.any(a & b)


gain_lists = st.lists(
    st.floats(1e-3, 1e3) | st.just(0.0), min_size=1, max_size=16
).filter(lambda g: any(v > 0 for v in g))
noises = st.floats(1e-2, 1e2)
# Budget as the SNR of the strongest channel alone, budget * max(g) / noise:
# -200..200 dB reaches far beyond the sweeps' SNR grid, array gains and
# shadowing (about -60..60 dB), where a budget could cancel against a floor.
best_snrs_db = st.floats(-200.0, 200.0)


@st.composite
def gain_stacks(draw):
    """(T, n) gains, one link per row: rows mix zero gains, gains drawn from
    a small pool (equal floors) and free ones, and may be all zero."""
    pool = draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=3))
    value = st.sampled_from(pool) | st.floats(1e-3, 1e3) | st.just(0.0)
    t, n = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    row = st.lists(value, min_size=n, max_size=n)
    return np.array(draw(st.lists(row, min_size=t, max_size=t)))


class TestWaterFillProperties:
    @EXAMPLES
    @given(gains=gain_lists, noise=noises, best_snr_db=best_snrs_db)
    def test_kkt_conditions(self, gains, noise, best_snr_db):
        g = np.array(gains)
        budget = 10.0 ** (best_snr_db / 10.0) * noise / g.max()
        powers = water_fill(g, budget, noise)
        positive = g > 0
        floors = noise / g[positive]
        p = powers[positive]
        active = p > 0
        assert np.all(powers >= 0)
        assert np.all(powers[~positive] == 0)
        # Active channels share one water level mu, read off the first ...
        levels = p[active] + floors[active]
        mu = levels[0]
        assert np.allclose(levels, mu, rtol=1e-9, atol=0.0)
        # ... and every inactive floor lies at or above it.
        assert np.all(floors[~active] >= mu * (1 - 1e-9))
        assert math.isclose(powers.sum(), budget, rel_tol=1e-9)

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
            assert np.array_equal(grid[i], single)
            assert rates[i] == waterfill_capacity(g, budget, noise)

    @EXAMPLES
    @given(
        gains=gain_stacks(),
        noise=noises,
        best_snrs=st.lists(best_snrs_db, min_size=1, max_size=6),
    )
    def test_stack_rows_equal_one_call_per_row(self, gains, noise, best_snrs):
        # Budgets as SNRs of the stack's strongest gain: down to -200 dB, far
        # below the first threshold step of every row.
        budgets = 10.0 ** (np.array(best_snrs) / 10.0) * noise / max(gains.max(), 1e-3)
        rates = waterfill_capacity(gains, budgets, noise)
        assert rates.shape == (len(gains), len(budgets))
        live = (gains > 0).any(axis=-1)
        for t, row in enumerate(gains):
            assert np.array_equal(rates[t], waterfill_capacity(row, budgets, noise))
        if not live.all():
            with pytest.raises(DegenerateInputError):
                water_fill(gains, budgets, noise)
            gains = gains[live]
        if len(gains):
            powers = water_fill(gains, budgets, noise)
            for t, row in enumerate(gains):
                assert np.array_equal(powers[t], water_fill(row, budgets, noise))


# The fig9/fig10 lens pair, with both AoA spreads of those presets.
PDM_TX = LensArrayConfig(100.0, 20.0)
PDM_RX = LensArrayConfig(50.0, 10.0)


def pdm_link(spread, seed):
    """Channel statistics and support view of one fig9/fig10-like draw."""
    stats = ChannelStats(
        aoa_spread_deg=spread,
        aod_spatial_freqs=tuple(np.sin(np.deg2rad([-15.0, 10.0, 45.0]))),
    )
    paths = sample_paths(stats, 3, np.random.default_rng(seed))
    sets = support_sets(paths, PDM_TX, PDM_RX, 1)
    return stats, support_view(path_responses(paths, PDM_TX, PDM_RX, RATE), sets)


def dense_mmse_combiners(support, powers, noise):
    """Oracle: v_l proportional to C_l^{-1} a_{R,l}, with the M_S x M_S
    covariance C_l summed term by term (ISI of stream l via paths k != l,
    every other stream via every path) and solved directly."""
    g_t = support.tx.conj() @ mrt_precoders(support).T  # g_t[k, l'] = a_{T,k}^H w_{l'}
    alpha_sq = np.abs(support.gains) ** 2
    n = support.num_paths
    combiners = []
    for l in range(n):
        weights = np.zeros(n)
        for k, lp in itertools.product(range(n), range(n)):
            if (lp, k) != (l, l):
                weights[k] += powers[lp] * alpha_sq[k] * np.abs(g_t[k, lp]) ** 2
        cov = (support.rx.T * weights) @ support.rx.conj() + noise * np.eye(support.rx.shape[1])
        v = np.linalg.solve(cov, support.rx[l])
        combiners.append(v / np.linalg.norm(v))
    return np.array(combiners)


class TestCombinerProperties:
    @EXAMPLES
    @given(
        spread=st.sampled_from([10.0, 150.0]),
        seed=st.integers(0, 2**32 - 1),
        snr_db=st.floats(-10.0, 30.0),
        shares=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    )
    def test_path_space_mmse_equals_dense_solve(self, spread, seed, snr_db, shares):
        stats, support = pdm_link(spread, seed)
        noise = stats.noise_power
        powers = stats.tx_power(snr_db) * np.array(shares)
        got = mmse_combiners(support, powers, noise)
        want = dense_mmse_combiners(support, powers, noise)
        overlap = np.abs(np.sum(got.conj() * want, axis=-1))
        assert np.all(1.0 - overlap <= 1e-12)
        rate = pdm_sinr(support, got, powers, noise).sum_rate
        dense_rate = pdm_sinr(support, want, powers, noise).sum_rate
        assert math.isclose(rate, dense_rate, rel_tol=1e-12)

    @EXAMPLES
    @given(
        spread=st.sampled_from([10.0, 150.0]),
        seed=st.integers(0, 2**32 - 1),
        snr_db=st.floats(-10.0, 160.0),
        shares=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    )
    def test_mmse_sinr_never_below_mrc(self, spread, seed, snr_db, shares):
        stats, support = pdm_link(spread, seed)
        noise = stats.noise_power
        powers = stats.tx_power(snr_db) * np.array(shares)
        g_mrc = pdm_sinr(support, mrc_combiners(support), powers, noise).gammas
        g_mmse = pdm_sinr(support, mmse_combiners(support, powers, noise), powers, noise).gammas
        assert np.all(g_mmse >= g_mrc * (1 - 1e-9))

    @EXAMPLES
    @given(
        spread=st.sampled_from([10.0, 150.0]),
        seed=st.integers(0, 2**32 - 1),
        snrs_db=st.lists(st.floats(-10.0, 30.0), min_size=1, max_size=12),
    )
    def test_power_grid_equals_one_call_per_budget(self, spread, seed, snrs_db):
        stats, support = pdm_link(spread, seed)
        noise = stats.noise_power
        gains = np.abs(support.gains) ** 2 * PDM_RX.aperture * PDM_TX.aperture
        budgets = np.array([stats.tx_power(s) for s in snrs_db])
        powers = water_fill(gains, budgets, noise)
        mrc = mrc_combiners(support)
        mmse = mmse_combiners(support, powers, noise)
        for kind, combiners in (("MRC", mrc), ("MMSE", mmse)):
            grid = pdm_sinr(support, combiners, powers, noise)
            assert grid.sum_rate.shape == budgets.shape
            for i, p in enumerate(powers):
                single_comb = mrc if kind == "MRC" else mmse_combiners(support, p, noise)
                if kind == "MMSE":
                    assert np.array_equal(mmse[i], single_comb)
                single = pdm_sinr(support, single_comb, p, noise)
                for field in ("gammas", "desired", "isi", "inter_stream"):
                    assert np.array_equal(getattr(grid, field)[i], getattr(single, field))
                assert grid.sum_rate[i] == single.sum_rate
