"""Orthogonal path division multiplexing: with ideal (exactly focused,
distinct) AoAs/AoDs, ``is_ideal``, the MIMO link decouples into L parallel
SISO AWGN channels, one per multi-path, with power gains |alpha_l|^2 A_R A_T
(``path_gains``). Path delays are perfectly compensated at the receiver, so
the same gains hold for narrow-band and wide-band operation. Its rate is
``numerics.waterfill_capacity`` over those gains; where the angles are not
ideal OPDM does not apply (use the ``pdm`` transceivers)."""
from __future__ import annotations

import numpy as np

from .arrays import LensArrayConfig
from .channel import PathSet

_IDEAL_TOL = 1e-9


def is_ideal(paths: PathSet, tx: LensArrayConfig, rx: LensArrayConfig) -> bool:
    """Whether the angles are ideal: every misalignment vanishes
    (|eps| <= 1e-9) and the focusing indices are distinct on both sides.
    Only the angles are read, so a sweep checks once per geometry."""
    m_idx, eps_r = rx.focusing(paths.aoa_spatial_freqs)
    q_idx, eps_t = tx.focusing(paths.aod_spatial_freqs)
    return bool(
        np.all(np.abs(eps_r) <= _IDEAL_TOL)
        and np.all(np.abs(eps_t) <= _IDEAL_TOL)
        and len(set(m_idx)) == len(set(q_idx)) == paths.num_paths
    )


def path_gains(gains: np.ndarray, tx: LensArrayConfig, rx: LensArrayConfig) -> np.ndarray:
    """|alpha_l|^2 A_R A_T for path gains alpha of shape (L,) or (T, L): the
    OPDM sub-channel gains, and the gains PDM water-fills its powers over."""
    return np.abs(gains) ** 2 * rx.aperture * tx.aperture
