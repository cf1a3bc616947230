"""AoA/AoD-based antenna selection: per-path supporting antenna subsets as
boolean masks over array positions, and which link sides are
angle-separated. Both depend only on the path angles. The unions of the
masks, passed to ``PathResponses.restrict``, give the view every PDM
transceiver works on; path grouping reads the masks and the separation
flags."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import LensArrayConfig
from .channel import PathSet
from .errors import InvalidInputError


@dataclass(frozen=True)
class SupportSets:
    """Per-path supporting antenna subsets and the angle separation of each
    side.

    ``rx`` (L, M) and ``tx`` (L, Q) are boolean masks over array positions:
    row l marks M_l / Q_l, the antennas within (strict) distance delta of
    path l's focusing point; each row is non-empty and marks its focusing
    index. The selected union M_S / Q_S is ``mask.any(axis=0)``. A side is
    separated when all its pairwise spatial-frequency gaps exceed
    2 * delta / D. That implies pairwise-disjoint subsets on that side, but
    is not implied by it: D = 10, delta = 1 and AoAs 0.05, 0.24 give the
    disjoint subsets (0, 1) and (2, 3) with a gap of only 0.19.
    """

    rx: np.ndarray
    tx: np.ndarray
    rx_separated: bool
    tx_separated: bool


def _side(config: LensArrayConfig, freqs: np.ndarray, delta: int):
    """One side's per-path subset mask and its separation flag."""
    indices = config.element_indices
    members = np.abs(indices[None, :] - config.azimuth_dim * freqs[:, None]) < delta
    gaps = np.abs(freqs[:, None] - freqs[None, :])
    off = ~np.eye(len(freqs), dtype=bool)
    separated = bool(np.all(gaps[off] > 2.0 * delta / config.azimuth_dim))
    return members, separated


def support_sets(
    paths: PathSet, tx: LensArrayConfig, rx: LensArrayConfig, delta: int = 1
) -> SupportSets:
    """Supporting antenna subsets for every path and the separation of each
    side.

    Indices at exactly distance delta are excluded; indices falling outside
    the physical array are clipped away (the set stays non-empty since the
    nearest in-range antenna is within 1/2 < delta of the focusing point).
    """
    if delta < 1:
        raise InvalidInputError("delta must be a positive integer")
    rx_mask, rx_separated = _side(rx, paths.aoa_spatial_freqs, delta)
    tx_mask, tx_separated = _side(tx, paths.aod_spatial_freqs, delta)
    return SupportSets(
        rx=rx_mask, tx=tx_mask, rx_separated=rx_separated, tx_separated=tx_separated
    )

