import numpy as np
import pytest

from lensmimo.arrays import LensArrayConfig
from lensmimo.channel import PathSet, path_responses, sample_paths
from lensmimo.errors import InvalidInputError, UnsupportedConfigurationError
from lensmimo.experiments import preset
from lensmimo.grouping import group_channels
from lensmimo.selection import support_sets
from oracles import antenna_indices, support_view


def make_paths(aoa, aod):
    n = len(aoa)
    return PathSet(
        gains=np.ones(n, complex),
        delays_s=np.zeros(n),
        aoa_spatial_freqs=np.asarray(aoa, float),
        aod_spatial_freqs=np.asarray(aod, float),
    )


class TestSupportSets:
    def test_three_path_reference_instance(self):
        tx = LensArrayConfig(10.0, 10.0)
        rx = LensArrayConfig(10.0, 10.0)
        paths = make_paths([0.36, -0.27, 0.08], [-0.2, 0.12, 0.24])
        sets = support_sets(paths, tx, rx, delta=1)
        assert tuple(antenna_indices(rx, row) for row in sets.rx) == ((3, 4), (-3, -2), (0, 1))
        assert tuple(antenna_indices(tx, row) for row in sets.tx) == ((-2,), (1, 2), (2, 3))
        assert antenna_indices(rx, sets.rx.any(axis=0)) == (-3, -2, 0, 1, 3, 4)
        assert antenna_indices(tx, sets.tx.any(axis=0)) == (-2, 1, 2, 3)

    def test_exact_focus_gives_singleton(self):
        cfg = LensArrayConfig(10.0, 10.0)
        sets = support_sets(make_paths([0.3], [0.3]), cfg, cfg, delta=1)
        assert antenna_indices(cfg, sets.rx[0]) == (3,)

    def test_sets_contain_focusing_index_and_are_nonempty(self):
        cfg = LensArrayConfig(10.0, 10.0)
        rng = np.random.default_rng(0)
        for phi in rng.uniform(-1, 1, 100):
            sets = support_sets(make_paths([phi], [phi]), cfg, cfg, delta=1)
            assert sets.rx[0].any()
            nearest = int(np.clip(round(10.0 * phi), -10, 10))
            assert nearest in antenna_indices(cfg, sets.rx[0])

    def test_edge_angles_clip_to_array(self):
        cfg = LensArrayConfig(10.0, 10.0)
        sets = support_sets(make_paths([0.999], [0.999]), cfg, cfg, delta=1)
        # D * phi = 9.99: index 11 lies outside the array, so the mask over
        # the 21 positions keeps only 9 and 10.
        assert sets.rx.shape == (1, cfg.element_count)
        assert antenna_indices(cfg, sets.rx[0]) == (9, 10)

    def test_larger_delta_grows_sets(self):
        cfg = LensArrayConfig(10.0, 10.0)
        paths = make_paths([0.123], [0.123])
        small = support_sets(paths, cfg, cfg, delta=1)
        big = support_sets(paths, cfg, cfg, delta=3)
        assert set(antenna_indices(cfg, small.rx[0])) < set(antenna_indices(cfg, big.rx[0]))

    def test_delta_validation(self):
        cfg = LensArrayConfig(10.0, 10.0)
        with pytest.raises(InvalidInputError):
            support_sets(make_paths([0.0], [0.0]), cfg, cfg, delta=0)

    def test_gap_rule_is_stricter_than_disjoint_subsets(self):
        # Pinned so that the separation test is not swapped for subset
        # disjointness unnoticed: that would change results. On a fig9 draw
        # with delta = 5 the AoAs sin(-75, 0, 75 deg) are 0.966 apart, below
        # 2 * delta / D = 1, yet their receive subsets do not overlap.
        cfg = preset("fig9", delta=5)
        tx = LensArrayConfig(cfg.tx_aperture, cfg.tx_azimuth_dim)
        rx = LensArrayConfig(cfg.rx_aperture, cfg.rx_azimuth_dim)
        paths = sample_paths(cfg.stats, cfg.num_paths, np.random.default_rng([cfg.seed, 0]))
        sets = support_sets(paths, tx, rx, cfg.delta)
        assert tuple(antenna_indices(rx, row) for row in sets.rx) == (
            tuple(range(-10, -4)),
            tuple(range(-4, 5)),
            tuple(range(5, 11)),
        )
        assert not sets.rx_separated and not sets.tx_separated
        with pytest.raises(UnsupportedConfigurationError):
            group_channels(path_responses(paths, tx, rx, 500e6), sets)


class TestRestrictToSupport:
    def test_shapes_and_values(self):
        tx = LensArrayConfig(100.0, 20.0)
        rx = LensArrayConfig(50.0, 10.0)
        paths = make_paths([0.36, -0.27], [0.12, 0.52])
        sets = support_sets(paths, tx, rx, delta=1)
        support = support_view(path_responses(paths, tx, rx, 500e6), sets)
        rx_union, tx_union = sets.rx.any(axis=0), sets.tx.any(axis=0)
        assert support.rx.shape == (2, rx_union.sum())
        assert support.tx.shape == (2, tx_union.sum())
        full = rx.responses([0.36])[0]
        assert np.allclose(support.rx[0], full[rx_union])

    def test_captures_most_energy(self):
        # Even at the worst half-integer misalignment the delta=1 subset
        # retains at least 2*sinc(1/2)^2 = 81% of the response energy.
        cfg = LensArrayConfig(10.0, 10.0)
        rng = np.random.default_rng(1)
        for phi in rng.uniform(-0.9, 0.9, 50):
            paths = make_paths([phi], [phi])
            sets = support_sets(paths, cfg, cfg, delta=1)
            support = support_view(path_responses(paths, cfg, cfg, 500e6), sets)
            rx_resp = support.rx
            assert np.linalg.norm(rx_resp[0]) ** 2 / cfg.aperture >= 0.81
