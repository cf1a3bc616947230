"""Antenna array geometry and responses.

A lens antenna array places its elements on the focal arc of an EM lens so
that the element spatial angles m / D (D = aperture width in wavelengths)
are equally spaced in [-1, 1]. Its response to a plane wave is a shifted
sinc in the antenna index; the peak element is set by the angle of arrival.
The focal-arc field can also be obtained by direct numerical integration of
the plane-wave input over the lens aperture, which serves as an independent
oracle for the closed form. A conventional uniform planar array (UPA) with
half-wavelength spacing is provided as a benchmark.

Each array type computes its responses for a vector of spatial frequencies
at once (``config.responses``). ``LensArrayConfig.focusing`` is the one
home of the lens focusing rule: path l lands on antenna round(D * phi_l),
off by a misalignment in [-1/2, 1/2].
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, InvalidInputError

_FIRST_ORDER = "first-order"
_EXACT = "exact"


def _spatial_freqs(spatial_freqs) -> np.ndarray:
    f = np.asarray(spatial_freqs, dtype=float)
    if not np.all(np.abs(f) <= 1.0):
        raise InvalidInputError("spatial frequency must lie in [-1, 1]")
    return f


@dataclass(frozen=True)
class LensArrayConfig:
    """One lens array side: effective aperture A and azimuth dimension D.

    aperture:    A = D_y * D_z / lambda^2 (dimensionless power gain).
    azimuth_dim: D = D_y / lambda (sets the angular resolution 1/D).
    """

    aperture: float
    azimuth_dim: float

    def __post_init__(self) -> None:
        if self.aperture <= 0 or self.azimuth_dim <= 0:
            raise InvalidInputError("aperture and azimuth_dim must be positive")
        if self.element_count % 2 == 0:
            raise InvalidInputError(
                "azimuth_dim must give an odd element count (1 + floor(2*azimuth_dim))"
            )

    @property
    def element_count(self) -> int:
        return 1 + int(math.floor(2.0 * self.azimuth_dim))

    @property
    def element_indices(self) -> np.ndarray:
        half = (self.element_count - 1) // 2
        return np.arange(-half, half + 1)

    def positions(self, indices) -> np.ndarray:
        """Array positions 0..M-1 of a non-empty subset of antenna indices m."""
        indices = np.asarray(indices, dtype=int)
        half = (self.element_count - 1) // 2
        if indices.size == 0:
            raise InvalidInputError("antenna subset must be non-empty")
        if np.any(np.abs(indices) > half):
            raise InvalidInputError("antenna subset index outside the array")
        return indices + half

    def focusing(self, spatial_freqs) -> tuple[np.ndarray, np.ndarray]:
        """Per-path (focusing index, misalignment): D * phi split into its
        nearest integer antenna index and a remainder in [-1/2, 1/2]."""
        x = _spatial_freqs(spatial_freqs) * self.azimuth_dim
        index = np.floor(x + 0.5)
        return index.astype(int), x - index

    def responses(self, spatial_freqs) -> np.ndarray:
        """(L, M) lens responses, row l for spatial frequency spatial_freqs[l]."""
        f = _spatial_freqs(spatial_freqs)
        m = self.element_indices
        return (
            math.sqrt(self.aperture) * np.sinc(m[None, :] - self.azimuth_dim * f[:, None])
        ).astype(complex)


@dataclass(frozen=True)
class UpaConfig:
    """Uniform planar array with half-wavelength spacing and the same
    physical dimensions (aperture) as a lens array of interest.

    element_count = 4 * aperture; grid is n_y x n_z with n_y = 2 * azimuth_dim.
    """

    aperture: float
    azimuth_dim: float

    def __post_init__(self) -> None:
        if self.aperture <= 0 or self.azimuth_dim <= 0:
            raise InvalidInputError("aperture and azimuth_dim must be positive")
        count = 4.0 * self.aperture
        if abs(count - round(count)) > 1e-9:
            raise InvalidInputError("4 * aperture must be an integer element count")
        n_y = 2.0 * self.azimuth_dim
        if abs(n_y - round(n_y)) > 1e-9:
            raise InvalidInputError("2 * azimuth_dim must be an integer grid width")
        if round(count) % round(n_y) != 0:
            raise InvalidInputError("element count must be divisible by the grid width")

    @property
    def element_count(self) -> int:
        return int(round(4.0 * self.aperture))

    @property
    def grid_shape(self) -> tuple[int, int]:
        n_y = int(round(2.0 * self.azimuth_dim))
        return n_y, self.element_count // n_y

    def responses(self, spatial_freqs) -> np.ndarray:
        """(L, count) steering vectors, row l for spatial frequency spatial_freqs[l].

        Entry (i_y, i_z) is sqrt(A / count) * exp(j*pi*i_y*phi); the
        elevation dimension carries no phase (zero elevation angles). The
        flattened order is i_y-major. Every row has norm^2 equal to the
        aperture exactly.
        """
        f = _spatial_freqs(spatial_freqs)
        n_y, n_z = self.grid_shape
        amp = math.sqrt(self.aperture / self.element_count)
        ramp = np.exp(1j * math.pi * np.arange(n_y)[None, :] * f[:, None])
        return amp * np.repeat(ramp, n_z, axis=1)


@dataclass(frozen=True)
class LensOracleConfig:
    """Settings for the aperture-integration oracle.

    focal_ratio is F / D_y; the first-order phase mode drops the curvature
    terms that vanish as focal_ratio grows, the exact mode keeps them.
    """

    focal_ratio: float = 10.0
    quad_points: int = 256
    phase_mode: str = _FIRST_ORDER

    def __post_init__(self) -> None:
        if self.focal_ratio <= 1:
            raise InvalidInputError("focal_ratio must exceed 1")
        if self.quad_points < 64:
            raise InvalidInputError("quad_points must be at least 64")
        if self.phase_mode not in (_FIRST_ORDER, _EXACT):
            raise InvalidInputError(f"unknown phase_mode {self.phase_mode!r}")


def _focal_arc_field(
    config: LensArrayConfig,
    oracle: LensOracleConfig,
    phi_tilde: float,
    theta_tilde: float,
    n: int,
) -> complex:
    """Composite-midpoint aperture integral of the incident plane wave,
    evaluated at focal-arc position theta_tilde (wavelength = 1)."""
    d_y = config.azimuth_dim
    d_z = config.aperture / config.azimuth_dim
    h_y = d_y / n
    y = -d_y / 2 + (np.arange(n) + 0.5) * h_y
    if oracle.phase_mode == _FIRST_ORDER:
        # Phase is linear in y and independent of z: the z integral is flat.
        integrand = np.exp(2j * np.pi * y * (phi_tilde - theta_tilde))
        return complex(math.sqrt(d_z / d_y) * h_y * integrand.sum())
    focal = oracle.focal_ratio * d_y
    h_z = d_z / n
    z = -d_z / 2 + (np.arange(n) + 0.5) * h_z
    r2 = focal**2 + y[:, None] ** 2 + z[None, :] ** 2
    # Lens phase profile (common constant dropped) plus the exact
    # aperture-to-focal-arc propagation distance.
    psi = 2 * np.pi * (np.sqrt(r2 + 2 * y[:, None] * focal * theta_tilde) - np.sqrt(r2))
    source = np.exp(2j * np.pi * y * phi_tilde) / math.sqrt(d_y * d_z)
    return complex((source[:, None] * np.exp(-1j * psi)).sum() * h_y * h_z)


def lens_response_oracle(
    config: LensArrayConfig,
    oracle: LensOracleConfig,
    aoa: float,
    theta_tilde: float,
) -> complex:
    """Focal-arc field at observation angle theta_tilde = sin(theta) by
    numerical integration over the lens aperture.

    Midpoint sums at n, 2n and 4n points per axis are Richardson
    extrapolated; if the extrapolated value still changes by more than 1e-6
    under doubling, an AccuracyError is raised.
    """
    if not -math.pi / 2 <= aoa <= math.pi / 2:
        raise InvalidInputError("aoa must lie in [-pi/2, pi/2]")
    if not -1.0 <= theta_tilde <= 1.0:
        raise InvalidInputError("theta_tilde must lie in [-1, 1]")
    phi_tilde = math.sin(aoa)
    n = oracle.quad_points
    m1 = _focal_arc_field(config, oracle, phi_tilde, theta_tilde, n)
    m2 = _focal_arc_field(config, oracle, phi_tilde, theta_tilde, 2 * n)
    m3 = _focal_arc_field(config, oracle, phi_tilde, theta_tilde, 4 * n)
    r1 = (4 * m2 - m1) / 3
    r2 = (4 * m3 - m2) / 3
    if abs(r2 - r1) > 1e-6:
        raise AccuracyError(
            f"aperture quadrature not converged: doubling changed the result by {abs(r2 - r1):.3e}"
        )
    return r2
