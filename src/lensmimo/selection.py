"""AoA/AoD-based antenna selection: per-path supporting antenna subsets,
their unions, which link sides are angle-separated, and a realization's
path responses restricted to those unions (the view every PDM transceiver
works on). Path grouping reads the subsets and the separation flags."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import LensArrayConfig
from .channel import PathResponses, PathSet
from .errors import InvalidInputError


@dataclass(frozen=True)
class SupportSets:
    """Per-path supporting antenna subsets, their unions and the angle
    separation of each side.

    M_l / Q_l contain the antennas within (strict) distance delta of the
    path's focusing point; each is non-empty and holds its focusing index.
    A side is separated when all its pairwise spatial-frequency gaps exceed
    2 * delta / D. That implies pairwise-disjoint subsets on that side, but
    is not implied by it: D = 10, delta = 1 and AoAs 0.05, 0.24 give the
    disjoint subsets (0, 1) and (2, 3) with a gap of only 0.19.
    """

    rx_sets: tuple[tuple[int, ...], ...]
    tx_sets: tuple[tuple[int, ...], ...]
    rx_union: tuple[int, ...]
    tx_union: tuple[int, ...]
    rx_separated: bool
    tx_separated: bool


def _side(config: LensArrayConfig, freqs: np.ndarray, delta: int):
    """One side's per-path subsets, their union and its separation flag."""
    indices = config.element_indices
    members = np.abs(indices[None, :] - config.azimuth_dim * freqs[:, None]) < delta
    sets = tuple(tuple(indices[row].tolist()) for row in members)
    union = tuple(indices[members.any(axis=0)].tolist())
    gaps = np.abs(freqs[:, None] - freqs[None, :])
    off = ~np.eye(len(freqs), dtype=bool)
    separated = bool(np.all(gaps[off] > 2.0 * delta / config.azimuth_dim))
    return sets, union, separated


def support_sets(
    paths: PathSet, tx: LensArrayConfig, rx: LensArrayConfig, delta: int = 1
) -> SupportSets:
    """Supporting antenna subsets for every path, their unions and the
    separation of each side.

    Indices at exactly distance delta are excluded; indices falling outside
    the physical array are clipped away (the set stays non-empty since the
    nearest in-range antenna is within 1/2 < delta of the focusing point).
    """
    if delta < 1:
        raise InvalidInputError("delta must be a positive integer")
    rx_sets, rx_union, rx_separated = _side(rx, paths.aoa_spatial_freqs, delta)
    tx_sets, tx_union, tx_separated = _side(tx, paths.aod_spatial_freqs, delta)
    return SupportSets(
        rx_sets=rx_sets,
        tx_sets=tx_sets,
        rx_union=rx_union,
        tx_union=tx_union,
        rx_separated=rx_separated,
        tx_separated=tx_separated,
    )


def restrict_to_support(
    responses: PathResponses, sets: SupportSets, tx: LensArrayConfig, rx: LensArrayConfig
) -> PathResponses:
    """A realization's lens responses seen by the selected antennas only:
    rows over the receive union M_S and the transmit union Q_S."""
    return responses.restrict(rx.positions(sets.rx_union), tx.positions(sets.tx_union))
