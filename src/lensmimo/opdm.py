"""Orthogonal path division multiplexing: with ideal (exactly focused,
distinct) AoAs/AoDs the MIMO link decouples into L parallel SISO AWGN
channels, one per multi-path, with power gains |alpha_l|^2 A_R A_T. Its
rate is ``numerics.waterfill_capacity`` over those gains."""
from __future__ import annotations

import numpy as np

from .arrays import LensArrayConfig
from .channel import PathSet
from .errors import IdealAngleError

_IDEAL_TOL = 1e-9


def check_ideal(paths: PathSet, tx: LensArrayConfig, rx: LensArrayConfig) -> None:
    """Raise IdealAngleError unless the angles are ideal: every misalignment
    vanishes (|eps| < 1e-9) and the focusing indices are distinct on both
    sides. Only the angles are read, so a sweep checks once per geometry."""
    m_idx, eps_r = rx.focusing(paths.aoa_spatial_freqs)
    q_idx, eps_t = tx.focusing(paths.aod_spatial_freqs)
    if np.any(np.abs(eps_r) > _IDEAL_TOL) or np.any(np.abs(eps_t) > _IDEAL_TOL):
        raise IdealAngleError(
            "angles are not ideal (nonzero misalignment); use the pdm module"
        )
    if len(set(m_idx)) < paths.num_paths or len(set(q_idx)) < paths.num_paths:
        raise IdealAngleError("duplicate focusing indices; paths are not separable")


def path_gains(gains: np.ndarray, tx: LensArrayConfig, rx: LensArrayConfig) -> np.ndarray:
    """|alpha_l|^2 A_R A_T for path gains alpha of shape (L,) or (T, L): the
    OPDM sub-channel gains, and the gains PDM water-fills its powers over."""
    return np.abs(gains) ** 2 * rx.aperture * tx.aperture


def opdm_decompose(paths: PathSet, tx: LensArrayConfig, rx: LensArrayConfig) -> np.ndarray:
    """Power gains |alpha_l|^2 A_R A_T (``path_gains``) of the L parallel
    SISO sub-channels of an ideal-angle channel: (L,), or (T, L) for a
    block of realizations.

    Path delays are perfectly compensated at the receiver, so the same
    gains hold for narrow-band and wide-band operation. Angles that are not
    ideal (``check_ideal``) raise IdealAngleError (use the PDM transceiver
    for arbitrary angles).
    """
    check_ideal(paths, tx, rx)
    return path_gains(paths.gains, tx, rx)
