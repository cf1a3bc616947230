from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lensmimo.arrays import LensArrayConfig
from lensmimo.channel import ChannelStats, PathSet, path_responses, sample_paths
from lensmimo.errors import UnsupportedConfigurationError
from lensmimo.grouping import _components, group_channels, grouped_capacity
from lensmimo.numerics import eigen_gains, water_fill, waterfill_capacity
from lensmimo.pdm import mmse_combiners, pdm_sinr
from lensmimo.selection import SupportSets, support_sets
from oracles import antenna_indices, dense_channel, support_view

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


def separation(paths):
    sets = support_sets(paths, TX, RX, 1)
    return sets.rx_separated, sets.tx_separated


def restricted_matrix(responses, group, rx_sub, tx_sub):
    """Dense channel of the paths in ``group`` over the antennas whose
    indices m are listed in rx_sub / tx_sub."""
    rx_pos = np.flatnonzero(np.isin(RX.element_indices, rx_sub))
    tx_pos = np.flatnonzero(np.isin(TX.element_indices, tx_sub))
    return dense_channel(responses.restrict(rx_pos, tx_pos, group))


def assert_same_eigen_gains(core, matrix):
    """A group core carries the nonzero eigen-gains of its dense matrix,
    which has only rank-rule zeros beyond them."""
    got, want = eigen_gains(core), eigen_gains(matrix)
    assert np.all(want[got.size :] == 0.0)
    assert np.allclose(got, want[: got.size], rtol=1e-12, atol=0.0)


class TestSeparation:
    """The 2 * delta / D gap rule, as recorded by ``support_sets``."""

    def test_reference_instance_is_aoa_separated(self):
        assert separation(REFERENCE) == (True, False)

    def test_both_and_neither(self):
        wide = make_paths([-0.8, 0.0, 0.8], [-0.8, 0.0, 0.8])
        assert separation(wide) == (True, True)
        tight = make_paths([0.0, 0.05, 0.1], [0.0, 0.05, 0.1])
        assert separation(tight) == (False, False)

    def test_aod_only(self):
        paths = make_paths([0.0, 0.05, 0.5], [-0.8, 0.0, 0.8])
        assert separation(paths) == (False, True)


class TestGroupChannels:
    """The groups ``group_channels`` forms: transmit-overlap components when
    the AoAs are separated, receive-overlap components when only the AoDs
    are."""

    def test_reference_partition(self):
        responses = path_responses(REFERENCE, TX, RX, 500e6)
        mats = group_channels(responses, support_sets(REFERENCE, TX, RX, 1))
        expected = (
            restricted_matrix(responses, (0,), (3, 4), (-2,)),
            restricted_matrix(responses, (1, 2), (-3, -2, 0, 1), (1, 2, 3)),
        )
        assert len(mats) == len(expected)
        for got, want in zip(mats, expected):
            assert_same_eigen_gains(got, want)

    def test_all_separated_gives_singletons(self):
        paths = make_paths([-0.8, 0.0, 0.8], [-0.8, 0.0, 0.8])
        sets = support_sets(paths, TX, RX, 1)
        responses = path_responses(paths, TX, RX, 500e6)
        mats = group_channels(responses, sets)
        assert len(mats) == 3
        for l, got in enumerate(mats):
            rx_sub, tx_sub = antenna_indices(RX, sets.rx[l]), antenna_indices(TX, sets.tx[l])
            want = restricted_matrix(responses, (l,), rx_sub, tx_sub)
            assert_same_eigen_gains(got, want)

    def test_groups_by_receive_overlap_when_only_aods_separated(self):
        # AoAs 0 and 0.05 share receive antennas; the AoDs are far apart.
        paths = make_paths([0.0, 0.05, 0.5], [-0.8, 0.0, 0.8])
        sets = support_sets(paths, TX, RX, 1)
        responses = path_responses(paths, TX, RX, 500e6)
        mats = group_channels(responses, sets)
        expected = (
            restricted_matrix(responses, (0, 1), (0, 1), (-8, 0)),
            restricted_matrix(responses, (2,), (5,), (8,)),
        )
        assert tuple(antenna_indices(RX, row) for row in sets.rx[:2]) == ((0,), (0, 1))
        assert len(mats) == len(expected)
        for got, want in zip(mats, expected):
            assert_same_eigen_gains(got, want)

    def test_rejects_unseparated_claim(self):
        tight = make_paths([0.0, 0.05, 0.1], [0.0, 0.05, 0.1])
        sets = support_sets(tight, TX, RX, 1)
        with pytest.raises(UnsupportedConfigurationError):
            group_channels(path_responses(tight, TX, RX, 500e6), sets)


def union_find_components(members):
    """Oracle: connected components of the pairwise-intersection graph of
    the mask rows, by union-find over Python sets of positions; components
    in the order of their first path."""
    subsets = [set(np.flatnonzero(row).tolist()) for row in members]
    n = len(subsets)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if subsets[i] & subsets[j]:
                parent[find(i)] = find(j)
    comps = {}
    for i in range(n):
        comps.setdefault(find(i), []).append(i)
    return sorted(comps.values(), key=min)


@st.composite
def sparse_masks(draw, num_paths=None):
    """(L, N) masks whose rows mark a few random positions (possibly none),
    so overlaps, chains and isolated paths all occur."""
    n = draw(st.integers(1, 7)) if num_paths is None else num_paths
    width = draw(st.integers(1, 12))
    members = np.zeros((n, width), dtype=bool)
    for row in members:
        row[draw(st.lists(st.integers(0, width - 1), max_size=3))] = True
    return members


class _RecordingResponses:
    """Stands in for PathResponses: each group's ``cores()`` returns the
    positions (``group_channels`` passes them as boolean masks) and paths it
    was restricted to."""

    def restrict(self, rx_pos, tx_pos, paths):
        picked = (np.flatnonzero(rx_pos).tolist(), np.flatnonzero(tx_pos).tolist(), list(paths))
        return SimpleNamespace(cores=lambda: picked)


class TestComponents:
    @pytest.mark.parametrize(
        "members, want",
        [
            ([[True, True, False]], [[0]]),
            ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]], [[0], [1], [2]]),
            ([[1, 1, 0], [0, 1, 1], [1, 0, 1]], [[0, 1, 2]]),
            # Path 0 meets path 2 only through path 3, the last row.
            ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 1, 0]], [[0, 2, 3], [1]]),
        ],
        ids=["one-path", "no-overlap", "all-overlapping", "chained-through-last"],
    )
    def test_fixed_partitions(self, members, want):
        members = np.array(members, dtype=bool)
        assert [g.tolist() for g in _components(members)] == want == union_find_components(members)

    @settings(max_examples=300, deadline=None)
    @given(members=sparse_masks())
    def test_matches_union_find(self, members):
        assert [g.tolist() for g in _components(members)] == union_find_components(members)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), aoa_separated=st.booleans())
    def test_group_positions_are_the_union_of_its_rows(self, data, aoa_separated):
        rx = data.draw(sparse_masks())
        tx = data.draw(sparse_masks(num_paths=len(rx)))
        sets = SupportSets(rx=rx, tx=tx, rx_separated=aoa_separated, tx_separated=True)
        groups = union_find_components(tx if aoa_separated else rx)
        want = [
            (
                sorted(set().union(*(np.flatnonzero(rx[l]).tolist() for l in group))),
                sorted(set().union(*(np.flatnonzero(tx[l]).tolist() for l in group))),
                group,
            )
            for group in groups
        ]
        assert group_channels(_RecordingResponses(), sets) == want


class TestGroupedCapacity:
    def test_single_group_equals_full_eigenmode(self):
        # Degenerate partition: everything in one group reproduces the
        # eigenmode capacity of the full reduced channel.
        sets = support_sets(REFERENCE, TX, RX, 1)
        responses = path_responses(REFERENCE, TX, RX, 500e6)
        mats = [dense_channel(support_view(responses, sets))]
        direct = waterfill_capacity(eigen_gains(mats[0]), 2.0, 1e-10)
        grouped = grouped_capacity(mats, 2.0, 1e-10)
        assert grouped == pytest.approx(direct, rel=1e-12)

    def test_close_to_full_matrix_capacity(self):
        # Cross-group leakage through the discarded antennas is small.
        sets = support_sets(REFERENCE, TX, RX, 1)
        responses = path_responses(REFERENCE, TX, RX, 500e6)
        mats = group_channels(responses, sets)
        support = support_view(responses, sets)
        rx_resp, tx_resp = support.rx, support.tx
        h_full = sum(
            REFERENCE.gains[l] * np.outer(rx_resp[l], tx_resp[l].conj()) for l in range(3)
        )
        noise = 1e-12
        full = waterfill_capacity(eigen_gains(h_full), 1.0, noise)
        grouped = grouped_capacity(mats, 1.0, noise)
        assert abs(grouped - full) / full < 0.01

    def test_fig9_fixture_grouping_at_least_mmse(self):
        """Regression fixture, not an invariant: on these 10 fixed fig9 draws
        at 20 dB, grouping reaches the PDM-MMSE rate. Over other draws MMSE
        can beat grouping (sinc-tail leakage outside the support sets; see
        ROADMAP aim 3), so a failure here after a change to the draws or the
        geometry needs a look at the numbers, not a looser tolerance."""
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
            sets = support_sets(paths, tx, rx, 1)
            responses = path_responses(paths, tx, rx, stats.bandwidth_hz)
            try:
                mats = group_channels(responses, sets)
            except UnsupportedConfigurationError:
                continue
            checked += 1
            support = support_view(responses, sets)
            grouped = grouped_capacity(mats, budget, noise)
            powers = water_fill(np.abs(paths.gains) ** 2 * rx.aperture * tx.aperture, budget, noise)
            comb = mmse_combiners(support, powers, noise)
            mmse_rate = pdm_sinr(support, comb, powers, noise).sum_rate
            assert grouped >= mmse_rate * (1 - 1e-9)
        assert checked > 0
