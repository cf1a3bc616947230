import numpy as np
import pytest

from lensmimo.arrays import LensArrayConfig
from lensmimo.channel import ChannelStats, PathSet, path_responses, sample_paths
from lensmimo.errors import InvalidInputError, UnsupportedConfigurationError
from lensmimo.grouping import (
    check_separation,
    group_channels,
    group_paths,
    grouped_capacity,
)
from lensmimo.numerics import eigen_gains, water_fill, waterfill_capacity
from lensmimo.pdm import LinkDesign, mmse_combiners, mrt_precoders, pdm_sinr
from lensmimo.selection import restrict_to_support, support_sets

TX = LensArrayConfig(10.0, 10.0)
RX = LensArrayConfig(10.0, 10.0)


def make_paths(aoa, aod, gains=None):
    n = len(aoa)
    return PathSet(
        gains=np.ones(n, complex) if gains is None else np.asarray(gains, complex),
        delays_s=np.zeros(n),
        aoa_spatial_freqs=np.asarray(aoa, float),
        aod_spatial_freqs=np.asarray(aod, float),
    )


# AoAs widely separated, AoDs of paths 2 and 3 too close (gap 0.12 < 0.2)
REFERENCE = make_paths([0.36, -0.27, 0.08], [-0.2, 0.12, 0.24], gains=[1e-6, 2e-6, 1.5e-6])


class TestCheckSeparation:
    def test_reference_instance_is_aoa_separated(self):
        assert check_separation(REFERENCE, TX, RX) == "aoa"

    def test_both_and_neither(self):
        wide = make_paths([-0.8, 0.0, 0.8], [-0.8, 0.0, 0.8])
        assert check_separation(wide, TX, RX) == "both"
        tight = make_paths([0.0, 0.05, 0.1], [0.0, 0.05, 0.1])
        assert check_separation(tight, TX, RX) == "neither"

    def test_aod_only(self):
        paths = make_paths([0.0, 0.05, 0.5], [-0.8, 0.0, 0.8])
        assert check_separation(paths, TX, RX) == "aod"

    def test_delta_validation(self):
        with pytest.raises(InvalidInputError):
            check_separation(REFERENCE, TX, RX, delta=0)


class TestGroupPaths:
    def test_reference_partition(self):
        sets = support_sets(REFERENCE, TX, RX, 1)
        part = group_paths(sets, "aoa")
        assert part.groups == ((0,), (1, 2))
        assert part.tx_subsets == ((-2,), (1, 2, 3))
        assert part.rx_subsets == ((3, 4), (-3, -2, 0, 1))

    def test_all_separated_gives_singletons(self):
        paths = make_paths([-0.8, 0.0, 0.8], [-0.8, 0.0, 0.8])
        sets = support_sets(paths, TX, RX, 1)
        part = group_paths(sets, "aoa")
        assert part.groups == ((0,), (1,), (2,))

    def test_rejects_unseparated_claim(self):
        tight = make_paths([0.0, 0.05, 0.1], [0.0, 0.05, 0.1])
        sets = support_sets(tight, TX, RX, 1)
        with pytest.raises(UnsupportedConfigurationError):
            group_paths(sets, "aoa")

    def test_side_validation(self):
        sets = support_sets(REFERENCE, TX, RX, 1)
        with pytest.raises(InvalidInputError):
            group_paths(sets, "upwards")


class TestGroupedCapacity:
    def test_single_group_equals_full_eigenmode(self):
        # Degenerate partition: everything in one group reproduces the
        # eigenmode capacity of the full reduced channel.
        sets = support_sets(REFERENCE, TX, RX, 1)
        part = group_paths(sets, "aoa")
        from lensmimo.grouping import GroupPartition

        merged = GroupPartition(
            groups=(tuple(range(3)),),
            rx_subsets=(sets.rx_union,),
            tx_subsets=(sets.tx_union,),
            separated_side="aoa",
        )
        mats = group_channels(path_responses(REFERENCE, TX, RX, 500e6), merged, TX, RX)
        assert len(mats) == 1
        direct = waterfill_capacity(eigen_gains(mats[0]), 2.0, 1e-10)
        grouped = grouped_capacity(mats, 2.0, 1e-10)
        assert grouped == pytest.approx(direct, rel=1e-12)

    def test_close_to_full_matrix_capacity(self):
        # Cross-group leakage through the discarded antennas is small.
        sets = support_sets(REFERENCE, TX, RX, 1)
        part = group_paths(sets, "aoa")
        responses = path_responses(REFERENCE, TX, RX, 500e6)
        mats = group_channels(responses, part, TX, RX)
        support = restrict_to_support(responses, sets, TX, RX)
        rx_resp, tx_resp = support.rx, support.tx
        h_full = sum(
            REFERENCE.gains[l] * np.outer(rx_resp[l], tx_resp[l].conj()) for l in range(3)
        )
        noise = 1e-12
        full = waterfill_capacity(eigen_gains(h_full), 1.0, noise)
        grouped = grouped_capacity(mats, 1.0, noise)
        assert abs(grouped - full) / full < 0.01

    def test_beats_mmse_rate(self):
        stats = ChannelStats(
            aoa_spread_deg=150.0,
            aod_spatial_freqs=tuple(np.sin(np.deg2rad([-15.0, 10.0, 45.0]))),
        )
        tx = LensArrayConfig(100.0, 20.0)
        rx = LensArrayConfig(50.0, 10.0)
        noise = stats.noise_power
        budget = stats.tx_power(20)
        checked = 0
        for seed in range(10):
            paths = sample_paths(stats, 3, np.random.default_rng(seed))
            side = check_separation(paths, tx, rx)
            if side == "neither":
                continue
            checked += 1
            sets = support_sets(paths, tx, rx, 1)
            part = group_paths(sets, "aoa" if side in ("both", "aoa") else "aod")
            responses = path_responses(paths, tx, rx, stats.bandwidth_hz)
            support = restrict_to_support(responses, sets, tx, rx)
            mats = group_channels(responses, part, tx, rx)
            grouped = grouped_capacity(mats, budget, noise)
            powers = water_fill(
                np.abs(paths.gains) ** 2 * rx.aperture * tx.aperture, budget, noise
            ).powers
            comb = mmse_combiners(support, powers, noise)
            design = LinkDesign(
                precoders=mrt_precoders(support),
                combiners=comb,
                powers=powers,
                stream_delays=np.zeros(3, int),
                combiner_kind="MMSE",
            )
            mmse_rate = pdm_sinr(design, support, noise).sum_rate
            assert grouped >= mmse_rate * (1 - 1e-9)
        assert checked > 0
