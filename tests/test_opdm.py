import math

import numpy as np
import pytest

from lensmimo.arrays import LensArrayConfig
from lensmimo.channel import PathSet, path_responses
from lensmimo.errors import IdealAngleError
from lensmimo.numerics import waterfill_capacity
from lensmimo.opdm import opdm_decompose
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


class TestDecompose:
    def test_gains(self):
        gains = opdm_decompose(ideal_paths(), TX, RX)
        assert np.allclose(gains, np.array([1.0, 0.25, 0.0625]) * 400.0)

    def test_misaligned_angles_rejected(self):
        paths = PathSet(
            gains=np.ones(2, complex),
            delays_s=np.zeros(2),
            aoa_spatial_freqs=np.array([0.0, 0.25]),
            aod_spatial_freqs=np.array([0.0, 0.2]),
        )
        with pytest.raises(IdealAngleError):
            opdm_decompose(paths, TX, RX)

    def test_duplicate_indices_rejected(self):
        paths = PathSet(
            gains=np.ones(2, complex),
            delays_s=np.zeros(2),
            aoa_spatial_freqs=np.array([0.2, 0.2]),
            aod_spatial_freqs=np.array([0.0, 0.2]),
        )
        with pytest.raises(IdealAngleError):
            opdm_decompose(paths, TX, RX)


class TestCapacity:
    def test_equal_gains_closed_form(self):
        paths = ideal_paths(gains=(1.0, 1.0, 1.0))
        c = waterfill_capacity(opdm_decompose(paths, TX, RX), 3.0, 1.0)
        assert c == pytest.approx(3 * math.log2(1 + 1.0 * 400.0), rel=1e-12)

    def test_matches_full_matrix_eigenmode(self):
        # With ideal angles the rank-1 path terms are orthogonal, so the
        # full-matrix eigenmode capacity equals the decoupled WF capacity.
        rng = np.random.default_rng(0)
        for _ in range(10):
            gains = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            paths = ideal_paths(gains)
            direct = eigenmode_capacity(path_responses(paths, TX, RX), 2.0, 1.0)
            decoupled = waterfill_capacity(opdm_decompose(paths, TX, RX), 2.0, 1.0)
            assert direct == pytest.approx(decoupled, rel=1e-9)

    def test_capacity_monotone_in_power(self):
        caps = waterfill_capacity(opdm_decompose(ideal_paths(), TX, RX), [0.1, 1.0, 10.0], 1.0)
        assert caps[0] < caps[1] < caps[2]
