"""AoA/AoD-based antenna selection: per-path supporting antenna subsets,
their unions, and a realization's path responses restricted to those unions
(the view every PDM transceiver works on)."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import LensArrayConfig
from .channel import PathResponses, PathSet
from .errors import InvalidInputError


@dataclass(frozen=True)
class SupportSets:
    """Per-path supporting antenna subsets and their unions.

    M_l / Q_l contain the antennas within (strict) distance delta of the
    path's focusing point; each is non-empty and holds its focusing index.
    """

    rx_sets: tuple[tuple[int, ...], ...]
    tx_sets: tuple[tuple[int, ...], ...]
    rx_union: tuple[int, ...]
    tx_union: tuple[int, ...]
    delta: int


def _per_path_sets(config: LensArrayConfig, spatial_freqs, delta: int):
    indices = config.element_indices
    sets = []
    for phi in spatial_freqs:
        center = config.azimuth_dim * phi
        members = indices[np.abs(indices - center) < delta]
        sets.append(tuple(int(m) for m in members))
    return tuple(sets)


def support_sets(
    paths: PathSet, tx: LensArrayConfig, rx: LensArrayConfig, delta: int = 1
) -> SupportSets:
    """Supporting antenna subsets for every path and their unions.

    Indices at exactly distance delta are excluded; indices falling outside
    the physical array are clipped away (the set stays non-empty since the
    nearest in-range antenna is within 1/2 < delta of the focusing point).
    """
    if delta < 1:
        raise InvalidInputError("delta must be a positive integer")
    rx_sets = _per_path_sets(rx, paths.aoa_spatial_freqs, delta)
    tx_sets = _per_path_sets(tx, paths.aod_spatial_freqs, delta)
    rx_union = tuple(sorted({m for s in rx_sets for m in s}))
    tx_union = tuple(sorted({q for s in tx_sets for q in s}))
    return SupportSets(
        rx_sets=rx_sets, tx_sets=tx_sets, rx_union=rx_union, tx_union=tx_union, delta=delta
    )


def restrict_to_support(
    responses: PathResponses, sets: SupportSets, tx: LensArrayConfig, rx: LensArrayConfig
) -> PathResponses:
    """A realization's lens responses seen by the selected antennas only:
    rows over the receive union M_S and the transmit union Q_S."""
    return responses.restrict(rx.positions(sets.rx_union), tx.positions(sets.tx_union))
