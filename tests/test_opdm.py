import math

import numpy as np
import pytest

from lensmimo.arrays import LensArrayConfig
from lensmimo.channel import PathSet, path_responses
from lensmimo.experiments import _Geometry, preset, run_experiment
from lensmimo.numerics import waterfill_capacity
from lensmimo.opdm import is_ideal, path_gains
from lensmimo.upa import eigenmode_capacity


def ideal_paths(gains=(1.0, 0.5j, 0.25)):
    return PathSet(
        gains=np.asarray(gains, complex),
        delays_s=np.zeros(len(gains)),
        aoa_spatial_freqs=np.array([0.0, 0.2, -0.2]),
        aod_spatial_freqs=np.array([0.0, 0.2, -0.2]),
    )


TX = LensArrayConfig(20.0, 10.0)
RX = LensArrayConfig(20.0, 10.0)


def opdm_gains(paths):
    """The OPDM sub-channel gains of ideal-angle paths."""
    assert is_ideal(paths, TX, RX)
    return path_gains(paths.gains, TX, RX)


class TestDecompose:
    def test_gains(self):
        gains = opdm_gains(ideal_paths())
        assert np.allclose(gains, np.array([1.0, 0.25, 0.0625]) * 400.0)

    def test_misaligned_angles_rejected(self):
        paths = PathSet(
            gains=np.ones(2, complex),
            delays_s=np.zeros(2),
            aoa_spatial_freqs=np.array([0.0, 0.25]),
            aod_spatial_freqs=np.array([0.0, 0.2]),
        )
        assert is_ideal(paths, TX, RX) is False

    def test_duplicate_indices_rejected(self):
        paths = PathSet(
            gains=np.ones(2, complex),
            delays_s=np.zeros(2),
            aoa_spatial_freqs=np.array([0.2, 0.2]),
            aod_spatial_freqs=np.array([0.0, 0.2]),
        )
        assert is_ideal(paths, TX, RX) is False

    @pytest.mark.parametrize(
        "name, ideal", [("fig5", True), ("fig6", True), ("fig9", False), ("fig10", False)]
    )
    def test_presets_match_their_opdm_skip_flags(self, name, ideal):
        # A sweep skips OPDM, and flags every trial, exactly where the
        # preset's angles are not ideal.
        cfg = preset(name, schemes=("OPDM",), trials=2, snr_db=(0.0,))
        geo = _Geometry(cfg)
        assert is_ideal(geo.paths, geo.tx, geo.rx) is ideal
        (row,) = run_experiment(cfg, workers=1)
        assert row.flags == ("" if ideal else "opdm-skip:2")


class TestCapacity:
    def test_equal_gains_closed_form(self):
        paths = ideal_paths(gains=(1.0, 1.0, 1.0))
        c = waterfill_capacity(opdm_gains(paths), 3.0, 1.0)
        assert c == pytest.approx(3 * math.log2(1 + 1.0 * 400.0), rel=1e-12)

    def test_matches_full_matrix_eigenmode(self):
        # With ideal angles the rank-1 path terms are orthogonal, so the
        # full-matrix eigenmode capacity equals the decoupled WF capacity.
        rng = np.random.default_rng(0)
        for _ in range(10):
            gains = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            paths = ideal_paths(gains)
            direct = eigenmode_capacity(path_responses(paths, TX, RX), 2.0, 1.0)
            decoupled = waterfill_capacity(opdm_gains(paths), 2.0, 1.0)
            assert direct == pytest.approx(decoupled, rel=1e-9)

    def test_capacity_monotone_in_power(self):
        caps = waterfill_capacity(opdm_gains(ideal_paths()), [0.1, 1.0, 10.0], 1.0)
        assert caps[0] < caps[1] < caps[2]
