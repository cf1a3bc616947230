import math
from dataclasses import fields

import numpy as np
import pytest

from lensmimo.arrays import LensArrayConfig
from lensmimo.channel import (
    MEAN_BETA,
    MEAN_PATHLOSS_DB,
    NOISE_POWER,
    ChannelStats,
    PathResponses,
    PathSet,
    _draw_block,
    path_responses,
    sample_paths,
    tx_power,
)
from lensmimo.errors import InvalidInputError
from lensmimo.experiments import _Block, preset, rows_to_csv, run_experiment
from lensmimo.numerics import RANK_TOL
from oracles import dense_channel, dense_taps, draw_block_by_five_calls, draw_one

IDEAL = dict(aoa_spatial_freqs=(0.0, 0.2, -0.2), aod_spatial_freqs=(0.0, 0.2, -0.2))
# sin(-30 deg), 0 and sin(30 deg): three AoDs equally spaced over 60 degrees.
AODS_60 = (-0.49999999999999994, 0.0, 0.49999999999999994)


def spread_aods(num_paths):
    """num_paths AoDs equally spaced over 60 degrees, placed as a spread places AoAs."""
    return tuple(np.sin(np.deg2rad(np.linspace(-30.0, 30.0, num_paths))).tolist())


class TestChannelStats:
    def test_angle_placement_exclusivity(self):
        with pytest.raises(InvalidInputError, match="exactly one of AoA list / AoA spread"):
            ChannelStats(aod_spatial_freqs=(0.0,))  # neither AoA list nor spread
        with pytest.raises(InvalidInputError, match="exactly one of AoA list / AoA spread"):
            ChannelStats(aoa_spatial_freqs=(0.0,), aoa_spread_deg=10.0, aod_spatial_freqs=(0.0,))
        with pytest.raises(TypeError):
            ChannelStats(aoa_spread_deg=10.0)  # the AoD list is required
        with pytest.raises(TypeError):
            ChannelStats(aoa_spread_deg=10.0, aod_spread_deg=10.0)  # no AoD spread

    def test_only_the_scenario_settings_are_fields(self):
        # The 73 GHz fit is module constants; a preset sets these four.
        assert [f.name for f in fields(ChannelStats)] == [
            "max_excess_delay_s",
            "aoa_spatial_freqs",
            "aoa_spread_deg",
            "aod_spatial_freqs",
        ]

    def test_mean_pathloss(self):
        assert MEAN_PATHLOSS_DB == pytest.approx(86.6 + 24.5 * 2)

    def test_mean_beta_is_lognormal_mean(self):
        rng = np.random.default_rng(0)
        draws = 10.0 ** ((-MEAN_PATHLOSS_DB - rng.normal(0, 8.0, 200_000)) / 10.0)
        assert MEAN_BETA == pytest.approx(draws.mean(), rel=0.02)

    def test_noise_power(self):
        assert NOISE_POWER == pytest.approx(10 ** (-174 / 10) * 500e6)

    def test_tx_power_snr_roundtrip(self):
        assert tx_power(20.0) * MEAN_BETA / NOISE_POWER == pytest.approx(100.0)

    def test_spread_placement(self):
        stats = ChannelStats(aoa_spread_deg=150.0, aod_spatial_freqs=AODS_60)
        aoa, aod = stats.placed_angles()
        assert np.allclose(aoa, np.sin(np.deg2rad([-75, 0, 75])))
        assert aod.tolist() == list(AODS_60) and spread_aods(3) == AODS_60

    @pytest.mark.parametrize("spread", [360.0, 190.0, -20.0, math.nan, math.inf])
    def test_spread_outside_half_circle_refused(self, spread):
        # Beyond 180 degrees the sine folds the AoAs back (360 places all
        # three at 0), and a negative spread mirrors the placement.
        with pytest.raises(InvalidInputError, match=r"AoA spread must lie in \[0, 180\] degrees"):
            ChannelStats(aoa_spread_deg=spread, aod_spatial_freqs=AODS_60)

    @pytest.mark.parametrize("spread", [0.0, 180.0])
    def test_spread_bounds_accepted(self, spread):
        aoa, _ = ChannelStats(aoa_spread_deg=spread, aod_spatial_freqs=AODS_60).placed_angles()
        assert np.allclose(aoa, np.sin(np.deg2rad([-spread / 2, 0.0, spread / 2])))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ChannelStats(max_excess_delay_s=math.nan, **IDEAL),
            lambda: ChannelStats(max_excess_delay_s=math.inf, **IDEAL),
            lambda: ChannelStats(aoa_spatial_freqs=(0.0, math.nan, 0.2), aod_spatial_freqs=AODS_60),
            lambda: ChannelStats(aoa_spread_deg=10.0, aod_spatial_freqs=(0.0, math.nan, 0.2)),
            lambda: PathSet(
                gains=np.ones(2, complex),
                delays_s=np.array([0.0, math.nan]),
                aoa_spatial_freqs=np.zeros(2),
                aod_spatial_freqs=np.zeros(2),
            ),
            lambda: PathSet(
                gains=np.ones(2, complex),
                delays_s=np.array([math.inf, 0.0]),
                aoa_spatial_freqs=np.zeros(2),
                aod_spatial_freqs=np.zeros(2),
            ),
        ],
        ids=["max-delay-nan", "max-delay-inf", "aoa-nan", "aod-nan", "delay-nan", "delay-inf"],
    )
    def test_non_finite_parameters_refused(self, build):
        # NaN passes every ordering test that it fails to refuse, so a NaN
        # delay spread, angle or path delay used to be accepted and fail
        # later as a bare ValueError, OverflowError or a cast warning.
        with pytest.raises(InvalidInputError):
            build()

    def test_array_angle_lists_equal_tuples(self):
        # An ndarray AoA or AoD list places the angles a tuple places, and
        # gives fig10 the sweep of its own spread.
        aoa, aod = preset("fig10").stats.placed_angles()
        lists = [
            ChannelStats(aoa_spatial_freqs=tuple(aoa), aod_spatial_freqs=tuple(aod)),
            ChannelStats(aoa_spatial_freqs=aoa, aod_spatial_freqs=tuple(aod)),
            ChannelStats(aoa_spatial_freqs=aoa, aod_spatial_freqs=aod),
        ]
        for stats in lists:
            placed = stats.placed_angles()
            assert np.array_equal(placed[0], aoa) and np.array_equal(placed[1], aod)

        def csv(**overrides):
            return rows_to_csv(run_experiment(preset("fig10", trials=3, **overrides), workers=1))

        spread = csv()
        assert all(csv(stats=stats) == spread for stats in lists)

    def test_array_angle_lists_compare_and_hash_as_tuples(self):
        # Stats from ndarrays equal and hash as stats from tuples, so a
        # config holding either can be compared and put in a set.
        aoa, aod = preset("fig10").stats.placed_angles()
        arrays = ChannelStats(aoa_spatial_freqs=aoa, aod_spatial_freqs=aod)
        tuples = ChannelStats(aoa_spatial_freqs=tuple(aoa), aod_spatial_freqs=tuple(aod))
        spread = ChannelStats(aoa_spread_deg=10.0, aod_spatial_freqs=aod)
        assert arrays == tuples and hash(arrays) == hash(tuples)
        assert spread.aod_spatial_freqs == tuples.aod_spatial_freqs
        configs = {preset("fig10", stats=arrays), preset("fig10", stats=tuples)}
        assert configs == {preset("fig10", stats=tuples)}

    def test_fixed_placement_length_check(self):
        # The AoD list gives the path count; an AoA list of another length is refused.
        with pytest.raises(InvalidInputError, match="AoA list has 2 entries, the AoD list 3"):
            ChannelStats(aoa_spatial_freqs=(0.0, 0.2), aod_spatial_freqs=(0.0, 0.2, -0.2))
        with pytest.raises(InvalidInputError, match="AoA list has 3 entries, the AoD list 1"):
            ChannelStats(aoa_spatial_freqs=(0.0, 0.2, -0.2), aod_spatial_freqs=(0.0,))


class TestSamplePaths:
    def test_deterministic_given_seed(self):
        stats = ChannelStats(**IDEAL)
        a = sample_paths(stats, np.random.default_rng(7))
        b = sample_paths(stats, np.random.default_rng(7))
        assert np.array_equal(a.gains, b.gains)
        assert np.array_equal(a.delays_s, b.delays_s)

    def test_power_fractions_sum_to_beta(self):
        stats = ChannelStats(**IDEAL)
        rng = np.random.default_rng(1)
        for _ in range(100):
            paths = sample_paths(stats, rng)
            beta = np.sum(np.abs(paths.gains) ** 2)
            # kappa fractions are normalized, so |alpha|^2 sums exactly to beta
            kappa = np.abs(paths.gains) ** 2 / beta
            assert kappa.sum() == pytest.approx(1.0)

    def test_delays_sorted_in_range(self):
        stats = ChannelStats(aoa_spread_deg=150.0, aod_spatial_freqs=spread_aods(4))
        rng = np.random.default_rng(2)
        for _ in range(50):
            paths = sample_paths(stats, rng)
            assert paths.num_paths == 4
            assert np.all(np.diff(paths.delays_s) >= 0)
            assert np.all((paths.delays_s >= 0) & (paths.delays_s <= 100e-9))

    def test_narrowband_has_zero_delays(self):
        stats = ChannelStats(max_excess_delay_s=0.0, **IDEAL)
        paths = sample_paths(stats, np.random.default_rng(3))
        assert np.all(paths.delays_s == 0)

    @pytest.mark.parametrize(
        "lists",
        [
            dict(aoa_spread_deg=10.0, aod_spatial_freqs=np.zeros((3, 1))),
            dict(aoa_spread_deg=10.0, aod_spatial_freqs=np.float64(0.2)),
            dict(aoa_spatial_freqs=np.zeros((1, 3)), aod_spatial_freqs=(0.0, 0.2, -0.2)),
        ],
        ids=["aod-column", "aod-scalar", "aoa-row"],
    )
    def test_angle_lists_must_be_flat(self, lists):
        # A (3, 1) list used to pass the length check, and was stored as a
        # tuple of lists, which does not hash.
        with pytest.raises(InvalidInputError, match="one spatial frequency per path"):
            ChannelStats(**lists)

    def test_num_paths_validation(self):
        # The AoD list gives the path count, so an empty one is refused.
        with pytest.raises(InvalidInputError, match="at least one path"):
            ChannelStats(aoa_spread_deg=150.0, aod_spatial_freqs=())

    @pytest.mark.parametrize("num_paths", [1, 3, 8, 9, 17])
    def test_draws_equal_one_realization_at_a_time(self, num_paths):
        # A block's arithmetic on (T, L) arrays gives each trial the bits of
        # its own draws, and sample_paths those of its one generator. The
        # AoD list of num_paths entries gives the path count.
        stats = ChannelStats(aoa_spread_deg=150.0, aod_spatial_freqs=spread_aods(num_paths))
        cfg = preset("fig9", stats=stats, seed=11)
        for trials in (range(1), range(5, 38)):
            block = _Block(cfg, trials).paths
            assert block.gains.shape == (len(trials), num_paths)
            for i, t in enumerate(trials):
                gains, delays = draw_one(stats, np.random.default_rng([11, t]))
                assert np.array_equal(block.gains[i], gains)
                assert np.array_equal(block.delays_s[i], delays)
        one = sample_paths(stats, np.random.default_rng(4))
        gains, delays = draw_one(stats, np.random.default_rng(4))
        assert np.array_equal(one.gains, gains) and np.array_equal(one.delays_s, delays)


    @pytest.mark.parametrize("num_paths", [1, 3, 7])
    @pytest.mark.parametrize("seed", [0, 2**40 + 3])
    def test_block_draw_equals_the_five_call_draw(self, seed, num_paths):
        # Four draws per generator into the block's arrays, scaled on the
        # block, give the bits of the five separate draws, also with no
        # delay spread.
        for delay in (100e-9, 0.0):
            stats = ChannelStats(
                max_excess_delay_s=delay,
                aoa_spread_deg=150.0,
                aod_spatial_freqs=spread_aods(num_paths),
            )
            for count in (1, 2, 32):
                gains, delays = _draw_block(
                    stats, [np.random.default_rng([seed, t]) for t in range(count)]
                )
                want = draw_block_by_five_calls(
                    stats, [np.random.default_rng([seed, t]) for t in range(count)]
                )
                assert np.array_equal(gains, want[0]) and np.array_equal(delays, want[1])


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
        assert list(paths.delay_samples()) == [5, 25]

    def test_shapes_must_agree(self):
        # Delays must have the gains' shape, and each angle list one entry
        # per path; a mismatch used to surface later as a bare numpy error.
        ok = dict(
            gains=np.ones((4, 3), complex),
            delays_s=np.zeros((4, 3)),
            aoa_spatial_freqs=np.zeros(3),
            aod_spatial_freqs=np.zeros(3),
        )
        PathSet(**ok)
        for field, value in (
            ("delays_s", np.zeros(3)),
            ("delays_s", np.zeros((4, 2))),
            ("aoa_spatial_freqs", np.zeros(2)),
            ("aod_spatial_freqs", np.zeros((4, 3))),
        ):
            with pytest.raises(InvalidInputError):
                PathSet(**dict(ok, **{field: value}))


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
        core = path_responses(paths, tx, rx).cores()
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
        # Array positions 10 and 13 hold the antenna indices m = 0 and 3.
        resp = path_responses(paths, tx, rx).restrict([10, 13], [10, 13])
        assert list(resp.delays) == [5, 5]
        # Both paths on one tap, so that tap is the whole narrowband channel.
        taps = dense_taps(resp)
        assert len(taps) == 1
        assert taps[0][0] == 5
        assert resp.num_paths == 2
        assert np.allclose(taps[0][1], dense_channel(resp))

    def test_one_column_factor_gives_the_cores_of_the_svd(self):
        # Rows of one antenna are their own rank-1 factor, rows^T, where the
        # SVD gives S V^H = conj(u) rows^T for a unit u: the cores agree up
        # to that phase on each side. Trial 1 has a zero row (path 1 gives
        # no response), and trial 2 is all zero, of rank 1 either way.
        rng = np.random.default_rng(7)

        def cn(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        rx, tx, gains = cn(3, 3, 1), cn(3, 3, 4), cn(3, 3)
        rx[1, 1] = 0.0
        rx[2] = 0.0
        responses = PathResponses(rx=rx, tx=tx, gains=gains, delays=np.zeros((3, 3), int))
        assert responses.ranks == (1, 3)
        u, s, vh = np.linalg.svd(rx.swapaxes(-1, -2), full_matrices=False)
        assert (s >= RANK_TOL * s[..., :1]).all()
        r_tx = responses._rows.factors[1]
        want = (s[..., None] * vh * gains[:, None, :]) @ r_tx.conj().swapaxes(-1, -2)
        assert np.allclose(u.conj() * responses.cores(), want, rtol=1e-14, atol=1e-15)
        assert np.array_equal(responses._rows.factors[0], rx.swapaxes(-1, -2))
        assert not responses.cores()[2].any()

    def test_restrict_refuses_rows_per_trial(self):
        # Indexing (T, L, N) rows as (L, N) would take the trials for the
        # paths and the paths for the positions: (4, 3, 5) rows at positions
        # [0, 1] and [0, 2] would come back as (2, 4, 5), not (4, 3, 2).
        rng = np.random.default_rng(4)
        rows = rng.standard_normal((4, 3, 5)) + 0j
        responses = PathResponses(
            rx=rows, tx=rows.copy(), gains=np.ones((4, 3), complex), delays=np.zeros((4, 3), int)
        )
        with pytest.raises(InvalidInputError, match="rows per trial"):
            responses.restrict([0, 1], [0, 2])
