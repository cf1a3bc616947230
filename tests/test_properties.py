"""Property tests for the factored channel core, the support sets, the
water-filling kernel, the OFDM capacity and the PDM combiners.

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
for bit, over budgets far wider than the sweeps produce, and that the rate
from one cumulated log1p per gain is within a few n eps of the per-budget
sum of one log1p per channel, for gains over sixty decades. The OFDM
properties check that with mutually orthogonal responses on one side (as
on fig6's UPAs) the wideband rate, N / (N + cp) times the narrowband one,
equals the water-fill over every subcarrier; that with one side's rows
just within ORTHO_TOL of orthogonal the narrowband gains stay within the
Weyl bound of every subcarrier's, and just beyond it the subcarrier route
is taken; and that the subcarrier eigen-gains from the characteristic
polynomials match a per-subcarrier SVD of the cores. The
``charpoly_roots`` properties check the roots of the characteristic
polynomials of 1 x 1 to 3 x 3 matrices against LAPACK's eigvalsh, as far as the
polynomial's conditioning allows, on near-repeated, rank-deficient,
diagonal and zero matrices over sixty decades of scale.
The placement property checks that a block places one AoA of a spread
for each entry of any AoD list, and draws each trial's gains and delays
as that trial alone would. The combiner
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

from lensmimo import experiments
from lensmimo import upa as upa_module
from lensmimo.arrays import LensArrayConfig, UpaConfig
from lensmimo.channel import (
    BANDWIDTH_HZ,
    NOISE_POWER,
    ORTHO_TOL,
    ChannelStats,
    PathResponses,
    PathSet,
    path_responses,
    sample_paths,
    tx_power,
)
from lensmimo.errors import DegenerateInputError
from lensmimo.experiments import preset
from lensmimo.numerics import (
    RANK_TOL,
    charpoly_roots,
    eigen_gains,
    water_fill,
    waterfill_capacity,
)
from lensmimo.pdm import beamformers, mmse_combiners, mrc_combiners, mrt_precoders, pdm_sinr
from lensmimo.selection import support_sets
from lensmimo.upa import OfdmConfig, eigenmode_capacity, ofdm_capacity
from oracles import (
    antenna_indices,
    dense_taps,
    draw_one,
    principal_minor_sums,
    support_view,
    waterfill_rates,
)

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
        delays_s=np.sort(np.array(samples, dtype=float)) / BANDWIDTH_HZ,
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
        responses = path_responses(paths, tx, rx).restrict(rows, cols)
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
        responses = path_responses(paths, tx, rx)
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


class TestPlacementProperties:
    @EXAMPLES
    @given(
        aods=st.lists(unit_floats, min_size=1, max_size=12).map(tuple),
        spread=st.floats(0.0, 180.0),
        seed=st.integers(0, 2**32 - 1),
        first=st.integers(0, 100),
        count=st.integers(1, 5),
    )
    def test_block_places_a_spread_over_the_aod_list(self, aods, spread, seed, first, count):
        # The AoD list alone gives the path count: a block places L AoAs
        # over the spread, and each trial draws L paths as on its own.
        stats = ChannelStats(aoa_spread_deg=spread, aod_spatial_freqs=aods)
        trials = range(first, first + count)
        paths = experiments._Block(preset("fig9", stats=stats, seed=seed), trials).paths
        placed = np.sin(np.deg2rad(np.linspace(-spread / 2.0, spread / 2.0, len(aods))))
        assert np.array_equal(paths.aoa_spatial_freqs, placed)
        assert paths.aod_spatial_freqs.tolist() == list(aods)
        for i, t in enumerate(trials):
            gains, delays = draw_one(stats, np.random.default_rng([seed, t]))
            assert np.array_equal(paths.gains[i], gains)
            assert np.array_equal(paths.delays_s[i], delays)


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


# Largest |rate - oracle| / (oracle n eps) allowed for waterfill_capacity.
# Over 12000 random stacks (n up to 1536, gains over 60 decades, budgets over
# 80, many equal floors) the largest seen was 3.9.
CAPACITY_C = 8


@st.composite
def wide_gain_stacks(draw):
    """(T, n) gains, n up to 64, over sixty decades: rows mix zero gains,
    gains drawn from a small pool (equal floors) and free ones, and may be
    all zero."""
    decades = st.floats(-30.0, 30.0).map(lambda e: 10.0**e)
    pool = draw(st.lists(decades, min_size=1, max_size=3))
    value = st.sampled_from(pool) | decades | st.just(0.0)
    t, n = draw(st.integers(1, 4)), draw(st.integers(1, 64))
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

    @EXAMPLES
    @given(
        gains=wide_gain_stacks(),
        noise=noises,
        log_budgets=st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=9),
    )
    def test_capacity_equals_the_per_budget_log_sum(self, gains, noise, log_budgets):
        # The cumulated form against one log1p per channel and budget, within
        # CAPACITY_C n eps relative. Rates below 1e-280 are not compared: their
        # terms reach the subnormal range, where both forms lose digits.
        budgets = 10.0 ** np.array(log_budgets)
        rates = waterfill_capacity(gains, budgets, noise)
        want = waterfill_rates(gains, budgets, noise)
        bound = CAPACITY_C * gains.shape[-1] * np.finfo(float).eps
        normal = want > 1e-280
        assert np.all(np.abs(rates - want)[normal] <= bound * want[normal])
        assert np.all(rates[want == 0] == 0)


@st.composite
def orthogonal_side_links(draw):
    """Path responses whose rows on one side are mutually orthogonal (rows of
    a unitary, scaled), with free rows on the other side, gains of norm 0.1
    to 1 and integer delays below N = 2 ... 64 subcarriers, with the N and
    the cyclic prefix."""
    n_paths = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(n_paths, 8))
    square = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    orthogonal = np.linalg.qr(square)[0][:n_paths] * rng.uniform(0.5, 2.0, (n_paths, 1))
    other = rng.standard_normal((n_paths, draw(st.integers(1, 8)))) * (1 + 0j)
    other += 1j * rng.standard_normal(other.shape)
    rx, tx = (orthogonal, other) if draw(st.booleans()) else (other, orthogonal)
    n = 2 ** draw(st.integers(1, 6))
    gains = rng.uniform(0.1, 1.0, n_paths) * np.exp(2j * np.pi * rng.random(n_paths))
    delays = rng.integers(0, n, n_paths)
    ofdm = OfdmConfig(n, draw(st.integers(0, 20)))
    return PathResponses(rx=rx, tx=tx, gains=gains, delays=delays), ofdm


@st.composite
def near_orthogonal_links(draw):
    """Path responses of L = 2 ... 4 paths whose rows on one side all have
    the normalized Gram off-diagonal rho = ratio * ORTHO_TOL, as a function
    of the ratio, with the subcarrier count N: rows (u_l + s e^{j phi_l} w)
    times 0.5 ... 2 for orthonormal u_l and w, so that
    |a_l^H a_m| / (|a_l| |a_m|) = s^2 / (1 + s^2) = rho. The other side's
    rows are free, the gains of norm 0.1 to 1 and the delays below N."""
    n_paths = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(n_paths + 1, 8))
    square = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    basis = np.linalg.qr(square)[0][: n_paths + 1]
    phases = np.exp(2j * np.pi * rng.random((n_paths, 1)))
    scale = rng.uniform(0.5, 2.0, (n_paths, 1))
    other = rng.standard_normal((n_paths, draw(st.integers(1, 8)))) * (1 + 0j)
    other += 1j * rng.standard_normal(other.shape)
    on_rx = draw(st.booleans())
    n = 2 ** draw(st.integers(1, 6))
    gains = rng.uniform(0.1, 1.0, n_paths) * np.exp(2j * np.pi * rng.random(n_paths))
    delays = rng.integers(0, n, n_paths)

    def make(ratio):
        rho = ratio * ORTHO_TOL
        near = (basis[:-1] + np.sqrt(rho / (1 - rho)) * phases * basis[-1]) * scale
        rx, tx = (near, other) if on_rx else (other, near)
        return PathResponses(rx=rx, tx=tx, gains=gains, delays=delays)

    return make, n


@st.composite
def subcarrier_links(draw):
    """Responses of L = 1 ... 3 paths for the OFDM subcarrier eigen-gains,
    with their subcarrier count N: one trial's (L,) gains, a block's (T, L)
    gains on shared (L, k) rows, or (T, L, k) rows per trial. 1 to 4
    antennas a side give side ranks 1 to 3, lower where path 1 arrives
    along path 0. Path powers reach down to 1e-8 of the strongest, every
    gain is scaled by 10^e, e in -150..150, and the delays lie below 1 (all
    equal), 3 or N."""
    n_paths = draw(st.integers(1, 3))
    n_rx, n_tx = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    form = draw(st.sampled_from(["one trial", "shared rows", "rows per trial"]))
    lead = () if form == "one trial" else (draw(st.integers(1, 3)),)
    rows = lead if form == "rows per trial" else ()
    n = draw(st.sampled_from([2, 8, 64, 512]))
    powers = np.array(draw(st.lists(st.floats(0.0, 8.0), min_size=n_paths, max_size=n_paths)))
    scale = 10.0 ** draw(st.floats(-150.0, 150.0))
    spread = min(draw(st.sampled_from([1, 3, n])), n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rx, tx = (
        rng.standard_normal(rows + (n_paths, k)) + 1j * rng.standard_normal(rows + (n_paths, k))
        for k in (n_rx, n_tx)
    )
    if n_paths > 1 and draw(st.booleans()):
        rx[..., 1, :] = (1 + 1j) * rx[..., 0, :]
    gains = scale * 10.0 ** (-powers / 2) * np.exp(2j * np.pi * rng.random(lead + (n_paths,)))
    delays = rng.integers(0, spread, lead + (n_paths,))
    return PathResponses(rx=rx, tx=tx, gains=gains, delays=delays), n


class TestOfdmProperties:
    @settings(max_examples=200, deadline=None)
    @given(link=subcarrier_links())
    def test_subcarrier_gains_match_the_svd_oracle(self, link):
        # The roots of the characteristic polynomials, and the SVD of the
        # subcarriers that fall back, against the SVD of every subcarrier's
        # core on phases reduced modulo N, exact to rounding: within 1e-12
        # of the trial's largest gain. Most of that margin is the phase
        # table's: its entries carry an argument error of up to about
        # 1.1e-16 * 2 pi k d / N, 3.6e-13 for k d near N^2 at N = 512.
        responses, n = link
        table = upa_module._phase_table(n, int(responses.delays.max()))
        got = upa_module._subcarrier_gains(responses, table)
        k = np.arange(n)[:, None]
        phases = np.exp(-2j * np.pi * ((k * responses.delays[..., None, :]) % n) / n)
        want = eigen_gains(responses.cores(responses.gains[..., None, :] * phases))
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * want[..., :1].max(axis=-2, keepdims=True))

    @EXAMPLES
    @given(
        link=orthogonal_side_links(),
        snrs_db=st.lists(st.floats(-20.0, 40.0), min_size=1, max_size=5),
    )
    def test_orthogonal_side_gives_the_narrowband_rate(self, link, snrs_db):
        # With the responses on one side mutually orthogonal, every
        # subcarrier channel has the narrowband singular values (the phases
        # drop out of H(k)^H H(k) or H(k) H(k)^H), so the water-fill over all
        # N subcarriers at N P gives N times the narrowband rate at P.
        # ofdm_capacity takes the narrowband rate on such links; here it is
        # checked against the water-fill over every subcarrier.
        responses, ofdm = link
        budgets = 10.0 ** (np.array(snrs_db) / 10.0)
        n = ofdm.subcarriers
        assert responses.orthogonal
        got = ofdm_capacity(responses, budgets, 1.0, ofdm)
        narrowband = eigenmode_capacity(responses, budgets, 1.0)
        assert np.array_equal(got, n / (n + ofdm.cp_samples) * narrowband)
        wideband = upa_module._subcarrier_capacity(responses, budgets, 1.0, ofdm)
        assert np.allclose(got, wideband, rtol=1e-9, atol=0)

    def test_fig6_upa_links_are_this_case(self):
        # fig6's ideal spatial frequencies 0 and +-0.2 are 2 / n_y apart on
        # its 20-wide UPAs, so both sides' responses are orthogonal, and the
        # narrowband route gives the water-fill over every subcarrier.
        cfg = preset("fig6", trials=4)
        upa = experiments._Block(cfg, range(4)).upa
        for rows in (upa.rx, upa.tx):
            gram = rows.conj() @ rows.T
            assert np.allclose(gram, np.diag(np.diag(gram)), rtol=0, atol=1e-12)
        assert upa.orthogonal
        budgets = np.array([tx_power(s) for s in cfg.snr_db])
        got = ofdm_capacity(upa, budgets, NOISE_POWER, cfg.ofdm)
        wideband = upa_module._subcarrier_capacity(upa, budgets, NOISE_POWER, cfg.ofdm)
        assert np.allclose(got, wideband, rtol=1e-12, atol=0)

    @settings(max_examples=100, deadline=None)
    @given(link=near_orthogonal_links(), over=st.booleans())
    def test_near_orthogonal_links_take_the_route_of_their_side(self, link, over):
        # Every off-diagonal of one side's normalized Gram at half or twice
        # ORTHO_TOL. Under it, ofdm_capacity is the narrowband rate, whose
        # gains are within the Weyl bound of ORTHO_TOL's comment,
        # 2 (L - 1) tol / (1 - (L - 1) tol) of the trial's largest gain,
        # of the SVD of every subcarrier's core on phases reduced modulo N,
        # give or take a few eps of rounding. Over it, the subcarrier route.
        make, n = link
        responses = make(2.0 if over else 0.5)
        assert responses.orthogonal == (not over)
        ofdm = OfdmConfig(n, 4)
        budgets = np.array([1e-3, 1.0, 1e3])
        got = ofdm_capacity(responses, budgets, 1.0, ofdm)
        if over:
            wideband = upa_module._subcarrier_capacity(responses, budgets, 1.0, ofdm)
            assert np.array_equal(got, wideband)
            return
        rate = eigenmode_capacity(responses, budgets, 1.0)
        assert np.array_equal(got, n / (n + ofdm.cp_samples) * rate)
        k = np.arange(n)[:, None]
        phases = np.exp(-2j * np.pi * ((k * responses.delays[..., None, :]) % n) / n)
        want = eigen_gains(responses.cores(responses.gains[..., None, :] * phases))
        narrowband = eigen_gains(responses.cores())
        spread = (responses.num_paths - 1) * ORTHO_TOL
        bound = 2 * spread / (1 - spread) + 16 * np.finfo(float).eps
        assert bound <= 1e-12  # the subcarrier route's own allowance
        assert np.all(np.abs(narrowband - want) <= bound * want.max())


# Largest error allowed per root, in units of eps times lambda_1 plus eps
# times the first-order move e_1^r / |p'(lambda_i)| of a root of the
# characteristic polynomial p under a relative move of eps in its
# coefficients, with p'(lambda_i) the product of the gaps to the other
# roots. Over 30000 random stacks of the spectra below, the largest seen
# was 6.5; the sum and product of the roots were within 1 and 7.
EIGVALS_C = 32
SPECTRA = ("free", "double", "triple", "rank-1", "rank-2", "zero")


@st.composite
def hermitian_stacks(draw):
    """(n, r, r) Hermitian positive semidefinite stacks U diag(lam) U^H, r in
    1..3, U a random unitary or, for diagonal matrices, the identity. The
    spectra: free; two or three eigenvalues equal up to a relative 10^-k,
    k in 0..17 (so exactly equal too); rank 1 or rank 2; all zero. The
    whole stack is scaled by 10^e, e in -30..30."""
    r = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    spectrum = draw(st.sampled_from(SPECTRA))
    close = 10.0 ** -draw(st.integers(0, 17))
    scale = 10.0 ** draw(st.floats(-30.0, 30.0))
    diagonal = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.random((n, 1))
    lam = {
        "free": rng.random((n, 4)),
        "double": np.hstack((base, base * (1 + close), rng.random((n, 2)))),
        "triple": np.hstack((base * (1 + close * rng.random((n, 3))), rng.random((n, 1)))),
        "rank-1": np.hstack((base, np.zeros((n, 3)))),
        "rank-2": np.hstack((base, rng.random((n, 1)), np.zeros((n, 2)))),
        "zero": np.zeros((n, 4)),
    }[spectrum]
    lam = scale * rng.permuted(lam[:, :r], axis=-1)
    if diagonal:
        return lam[..., None] * np.eye(r)
    g = rng.standard_normal((n, r, r)) + 1j * rng.standard_normal((n, r, r))
    u = np.linalg.qr(g)[0]
    return (u * lam[:, None, :]) @ u.conj().swapaxes(-1, -2)


class TestCharpolyRootsProperties:
    @settings(max_examples=300, deadline=None)
    @given(mats=hermitian_stacks())
    def test_matches_eigvalsh(self, mats):
        # The roots of each characteristic polynomial against LAPACK's
        # eigvalsh of the matrix, as far as the coefficients determine them,
        # and their sum and product whatever the gaps between them.
        r, eps = mats.shape[-1], np.finfo(float).eps
        e = principal_minor_sums(mats)
        got = charpoly_roots(e)
        want = np.maximum(np.linalg.eigvalsh(mats)[..., ::-1], 0.0)
        top = want[..., :1]
        assert got.shape == want.shape and np.all(got >= 0)
        assert np.all(got[top[..., 0] == 0] == 0)
        gaps = np.abs(want[..., :, None] - want[..., None, :]) + np.eye(r)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            moved = np.where(top > 0, top**r / np.prod(gaps, axis=-1), 0.0)
        assert np.all(np.abs(got - want) <= EIGVALS_C * eps * (top + moved))
        assert np.all(np.abs(got.sum(axis=-1) - e[..., 0]) <= EIGVALS_C * eps * e[..., 0])
        assert np.all(np.abs(got.prod(axis=-1) - e[..., -1]) <= EIGVALS_C * eps * top[..., 0] ** r)

# The fig9/fig10 lens pair, with both AoA spreads of those presets.
PDM_TX = LensArrayConfig(100.0, 20.0)
PDM_RX = LensArrayConfig(50.0, 10.0)


def pdm_link(spread, seed):
    """Support view of one fig9/fig10-like draw."""
    stats = ChannelStats(
        aoa_spread_deg=spread,
        aod_spatial_freqs=tuple(np.sin(np.deg2rad([-15.0, 10.0, 45.0]))),
    )
    paths = sample_paths(stats, np.random.default_rng(seed))
    sets = support_sets(paths, PDM_TX, PDM_RX, 1)
    return support_view(path_responses(paths, PDM_TX, PDM_RX), sets)


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
        support = pdm_link(spread, seed)
        noise = NOISE_POWER
        powers = tx_power(snr_db) * np.array(shares)
        beams = beamformers(support)
        got = mmse_combiners(support, powers, noise, beams)
        want = dense_mmse_combiners(support, powers, noise)
        overlap = np.abs(np.sum(got.conj() * want, axis=-1))
        assert np.all(1.0 - overlap <= 1e-12)
        rate = pdm_sinr(support, got, powers, noise, beams).sum_rate
        dense_rate = pdm_sinr(support, want, powers, noise, beams).sum_rate
        assert math.isclose(rate, dense_rate, rel_tol=1e-12)

    @EXAMPLES
    @given(
        spread=st.sampled_from([10.0, 150.0]),
        seed=st.integers(0, 2**32 - 1),
        snr_db=st.floats(-10.0, 160.0),
        shares=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    )
    def test_mmse_sinr_never_below_mrc(self, spread, seed, snr_db, shares):
        support = pdm_link(spread, seed)
        noise = NOISE_POWER
        powers = tx_power(snr_db) * np.array(shares)
        beams = beamformers(support)
        g_mrc = pdm_sinr(support, mrc_combiners(support), powers, noise, beams).gammas
        mmse = mmse_combiners(support, powers, noise, beams)
        g_mmse = pdm_sinr(support, mmse, powers, noise, beams).gammas
        assert np.all(g_mmse >= g_mrc * (1 - 1e-9))

    @EXAMPLES
    @given(
        spread=st.sampled_from([10.0, 150.0]),
        seed=st.integers(0, 2**32 - 1),
        snrs_db=st.lists(st.floats(-10.0, 30.0), min_size=1, max_size=12),
    )
    def test_power_grid_equals_one_call_per_budget(self, spread, seed, snrs_db):
        support = pdm_link(spread, seed)
        noise = NOISE_POWER
        gains = np.abs(support.gains) ** 2 * PDM_RX.aperture * PDM_TX.aperture
        budgets = np.array([tx_power(s) for s in snrs_db])
        powers = water_fill(gains, budgets, noise)
        beams = beamformers(support)
        mrc = mrc_combiners(support)
        mmse = mmse_combiners(support, powers, noise, beams)
        for kind, combiners in (("MRC", mrc), ("MMSE", mmse)):
            grid = pdm_sinr(support, combiners, powers, noise, beams)
            assert grid.sum_rate.shape == budgets.shape
            for i, p in enumerate(powers):
                single_comb = mrc if kind == "MRC" else mmse_combiners(support, p, noise, beams)
                if kind == "MMSE":
                    assert np.array_equal(mmse[i], single_comb)
                single = pdm_sinr(support, single_comb, p, noise, beams)
                for field in ("gammas", "desired", "isi", "inter_stream"):
                    assert np.array_equal(getattr(grid, field)[i], getattr(single, field))
                assert grid.sum_rate[i] == single.sum_rate
