"""Aperture-integration oracle for the lens array response.

The focal-arc field of a lens array can be obtained by direct numerical
integration of the plane-wave input over the lens aperture, an independent
reference for the closed-form sinc response of ``LensArrayConfig.responses``.
Midpoint quadrature with Richardson extrapolation and a cross-resolution
accuracy check; the tests compare it against the closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from lensmimo.arrays import LensArrayConfig
from lensmimo.errors import InvalidInputError, LensMimoError

_FIRST_ORDER = "first-order"
_EXACT = "exact"


class AccuracyError(LensMimoError):
    """A quadrature did not converge to the requested accuracy."""


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
