import math

import numpy as np
import pytest

from lens_oracle import AccuracyError, LensOracleConfig, lens_response_oracle
from lensmimo.arrays import LensArrayConfig, UpaConfig
from lensmimo.errors import InvalidInputError
from lensmimo.experiments import preset


class TestLensArrayConfig:
    def test_element_count(self):
        cfg = LensArrayConfig(aperture=20.0, azimuth_dim=10.0)
        assert cfg.element_count == 21
        assert cfg.element_indices[0] == -10
        assert cfg.element_indices[-1] == 10

    def test_even_count_rejected(self):
        with pytest.raises(InvalidInputError):
            LensArrayConfig(aperture=10.0, azimuth_dim=9.5)

    def test_positive_required(self):
        with pytest.raises(InvalidInputError):
            LensArrayConfig(aperture=-1.0, azimuth_dim=10.0)

    @pytest.mark.parametrize(
        "kind, aperture, azimuth_dim",
        [
            (LensArrayConfig, math.nan, 10.0),
            (LensArrayConfig, math.inf, 10.0),
            (LensArrayConfig, 20.0, math.nan),
            (LensArrayConfig, 20.0, math.inf),
            (UpaConfig, math.nan, 10.0),
            (UpaConfig, 20.0, math.inf),
        ],
    )
    def test_non_finite_geometry_refused(self, kind, aperture, azimuth_dim):
        # Refused as invalid input, not accepted (a NaN aperture) or left to
        # a bare ValueError or OverflowError from the element count.
        with pytest.raises(InvalidInputError, match="positive and finite"):
            kind(aperture, azimuth_dim)

    def test_non_finite_preset_geometry_refused(self):
        with pytest.raises(InvalidInputError, match="positive and finite"):
            preset("fig9", rx_azimuth_dim=math.nan)


class TestLensResponse:
    def test_focused_angle_is_one_hot(self):
        cfg = LensArrayConfig(aperture=20.0, azimuth_dim=10.0)
        resp = cfg.responses([0.3])[0]  # focuses exactly on m = 3
        expected = np.zeros(21)
        expected[13] = math.sqrt(20.0)
        assert np.allclose(resp, expected)

    def test_sinc_profile(self):
        cfg = LensArrayConfig(aperture=10.0, azimuth_dim=10.0)
        phi = 0.123
        resp = cfg.responses([phi])[0]
        m = cfg.element_indices
        assert np.allclose(resp, math.sqrt(10.0) * np.sinc(m - 10.0 * phi))

    def test_range_validation(self):
        cfg = LensArrayConfig(aperture=10.0, azimuth_dim=10.0)
        with pytest.raises(InvalidInputError):
            cfg.responses([1.2])
        with pytest.raises(InvalidInputError):
            cfg.focusing([0.0, -1.2])

    def test_energy_mostly_on_two_nearest_elements(self):
        # Worst case misalignment 1/2: the two flanking antennas hold
        # 2*sinc(1/2)^2 of the (normalized) energy, about 0.81.
        cfg = LensArrayConfig(aperture=10.0, azimuth_dim=10.0)
        resp = cfg.responses([0.25])[0]  # focusing point 2.5
        top2 = np.sort(np.abs(resp) ** 2)[-2:].sum()
        assert top2 / cfg.aperture >= 0.81


class TestFocusing:
    """``LensArrayConfig.focusing``: focusing index and misalignment."""

    def test_examples(self):
        idx, eps = LensArrayConfig(10.0, 10.0).focusing([0.3, 0.25, -0.26])
        assert idx.tolist() == [3, 3, -3]
        assert eps == pytest.approx([0.0, -0.5, 0.4])

    def test_misalignment_range(self):
        phi = np.random.default_rng(0).uniform(-1, 1, 200)
        idx, eps = LensArrayConfig(17.0, 17.0).focusing(phi)
        assert idx.dtype.kind == "i"
        assert np.all((-0.5 <= eps) & (eps <= 0.5))
        assert np.allclose(idx + eps, 17.0 * phi)


class TestUpa:
    def test_config_grid(self):
        cfg = UpaConfig(aperture=20.0, azimuth_dim=10.0)
        assert cfg.element_count == 80
        assert cfg.grid_shape == (20, 4)

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            UpaConfig(aperture=20.3, azimuth_dim=10.0)
        with pytest.raises(InvalidInputError):
            UpaConfig(aperture=20.0, azimuth_dim=10.3)

    def test_response_norm_is_aperture(self):
        cfg = UpaConfig(aperture=20.0, azimuth_dim=10.0)
        for aoa in (-1.0, 0.0, 0.7):
            resp = cfg.responses([math.sin(aoa)])[0]
            assert np.linalg.norm(resp) ** 2 == pytest.approx(cfg.aperture)

    def test_phase_ramp(self):
        cfg = UpaConfig(aperture=20.0, azimuth_dim=10.0)
        aoa = 0.3
        resp = cfg.responses([math.sin(aoa)])[0]
        n_y, n_z = cfg.grid_shape
        grid = resp.reshape(n_y, n_z)
        assert np.allclose(grid, grid[:, :1])  # flat along elevation
        ratio = grid[1:, 0] / grid[:-1, 0]
        assert np.allclose(ratio, np.exp(1j * math.pi * math.sin(aoa)))


class TestOracle:
    def test_first_order_matches_closed_form(self):
        cfg = LensArrayConfig(aperture=10.0, azimuth_dim=10.0)
        oracle = LensOracleConfig(quad_points=2048, phase_mode="first-order")
        for phi, theta in ((0.0, 0.0), (0.2, 0.35), (-0.5, 0.5)):
            val = lens_response_oracle(cfg, oracle, math.asin(phi), theta)
            closed = math.sqrt(10.0) * np.sinc(10.0 * (theta - phi))
            assert abs(val - closed) < 1e-6

    def test_exact_mode_error_shrinks_with_focal_ratio(self):
        cfg = LensArrayConfig(aperture=10.0, azimuth_dim=10.0)
        phi, theta = 0.1, 0.15
        closed = math.sqrt(10.0) * np.sinc(10.0 * (theta - phi))
        errs = []
        for fr in (5.0, 20.0, 80.0):
            oracle = LensOracleConfig(focal_ratio=fr, quad_points=128, phase_mode="exact")
            errs.append(abs(lens_response_oracle(cfg, oracle, math.asin(phi), theta) - closed))
        assert errs[0] > errs[1] > errs[2]

    def test_unconverged_quadrature_raises(self):
        # A large aperture with the minimum point count leaves the midpoint
        # rule visibly unconverged under Richardson doubling.
        cfg = LensArrayConfig(aperture=200.0, azimuth_dim=200.0)
        oracle = LensOracleConfig(quad_points=64, phase_mode="exact", focal_ratio=2.0)
        with pytest.raises(AccuracyError):
            lens_response_oracle(cfg, oracle, math.asin(0.9), -0.85)

    def test_oracle_config_validation(self):
        with pytest.raises(InvalidInputError):
            LensOracleConfig(focal_ratio=0.5)
        with pytest.raises(InvalidInputError):
            LensOracleConfig(quad_points=10)
        with pytest.raises(InvalidInputError):
            LensOracleConfig(phase_mode="quadratic")
