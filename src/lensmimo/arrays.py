"""Antenna array geometry and responses.

A lens antenna array places its elements on the focal arc of an EM lens so
that the element spatial angles m / D (D = aperture width in wavelengths)
are equally spaced in [-1, 1]. Its response to a plane wave is a shifted
sinc in the antenna index; the peak element is set by the angle of arrival.
A conventional uniform planar array (UPA) with half-wavelength spacing is
provided as a benchmark.

Each array type computes its responses for a vector of spatial frequencies
at once (``config.responses``). ``LensArrayConfig.focusing`` is the one
home of the lens focusing rule: path l lands on antenna round(D * phi_l),
off by a misalignment in [-1/2, 1/2].
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


def _spatial_freqs(spatial_freqs) -> np.ndarray:
    f = np.asarray(spatial_freqs, dtype=float)
    if not np.all(np.abs(f) <= 1.0):  # NaN fails too
        raise InvalidInputError(f"spatial frequencies must lie in [-1, 1], got {f.tolist()}")
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
        if not (0 < self.aperture < math.inf and 0 < self.azimuth_dim < math.inf):  # NaN fails
            raise InvalidInputError("aperture and azimuth_dim must be positive and finite")
        if self.element_count % 2 == 0:
            raise InvalidInputError(
                "azimuth_dim must give an odd element count (1 + floor(2*azimuth_dim))"
            )

    @property
    def element_count(self) -> int:
        return 1 + int(math.floor(2.0 * self.azimuth_dim))

    @property
    def element_indices(self) -> np.ndarray:
        """Antenna index m of each array position 0..M-1; antenna subsets are
        boolean masks over the positions (``selection.SupportSets``)."""
        half = (self.element_count - 1) // 2
        return np.arange(-half, half + 1)

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
        if not (0 < self.aperture < math.inf and 0 < self.azimuth_dim < math.inf):  # NaN fails
            raise InvalidInputError("aperture and azimuth_dim must be positive and finite")
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
