"""Path grouping: when one link side has sufficiently separated angles,
paths whose supporting subsets overlap on the other side are merged into
groups, reducing the link to parallel small MIMO AWGN channels (one per
group) with eigenmode transmission and a single global power budget."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import LensArrayConfig
from .channel import PathResponses, PathSet
from .errors import InvalidInputError, UnsupportedConfigurationError
from .numerics import eigen_gains, waterfill_capacity
from .selection import SupportSets


@dataclass(frozen=True)
class GroupPartition:
    """Connected components of the support-set overlap relation.

    ``groups`` are disjoint path-index sets covering all paths; the
    per-group antenna subsets partition M_S and Q_S. ``separated_side``
    records which side's separation justifies the decomposition.
    """

    groups: tuple[tuple[int, ...], ...]
    rx_subsets: tuple[tuple[int, ...], ...]
    tx_subsets: tuple[tuple[int, ...], ...]
    separated_side: str  # "aoa" or "aod"


def check_separation(
    paths: PathSet, tx: LensArrayConfig, rx: LensArrayConfig, delta: int = 1
) -> str:
    """Which link sides have all pairwise angle gaps above 2*delta/dim.

    Returns one of "both", "aoa", "aod", "neither". A side being separated
    is equivalent to its per-path support subsets being pairwise disjoint.
    """
    if delta < 1:
        raise InvalidInputError("delta must be a positive integer")

    def separated(freqs: np.ndarray, dim: float) -> bool:
        gaps = np.abs(freqs[:, None] - freqs[None, :])
        off = ~np.eye(len(freqs), dtype=bool)
        return bool(np.all(gaps[off] > 2.0 * delta / dim))

    aoa_ok = separated(paths.aoa_spatial_freqs, rx.azimuth_dim)
    aod_ok = separated(paths.aod_spatial_freqs, tx.azimuth_dim)
    if aoa_ok and aod_ok:
        return "both"
    if aoa_ok:
        return "aoa"
    if aod_ok:
        return "aod"
    return "neither"


def _components(subsets: tuple[tuple[int, ...], ...]) -> list[list[int]]:
    """Connected components of the pairwise-intersection graph (union-find)."""
    n = len(subsets)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if set(subsets[i]) & set(subsets[j]):
                parent[find(i)] = find(j)
    comps: dict[int, list[int]] = {}
    for i in range(n):
        comps.setdefault(find(i), []).append(i)
    return sorted(comps.values(), key=min)


def group_paths(sets: SupportSets, separated_side: str) -> GroupPartition:
    """Partition paths by support-set overlap on the non-separated side.

    ``separated_side`` is "aoa" (group by transmit overlap) or "aod"
    (group by receive overlap). Raises if the claimed separated side's
    subsets are in fact overlapping, which means neither side qualifies.
    """
    if separated_side not in ("aoa", "aod"):
        raise InvalidInputError("separated_side must be 'aoa' or 'aod'")
    check_subsets = sets.rx_sets if separated_side == "aoa" else sets.tx_sets
    group_subsets = sets.tx_sets if separated_side == "aoa" else sets.rx_sets
    for comp in _components(check_subsets):
        if len(comp) > 1:
            raise UnsupportedConfigurationError(
                "the claimed separated side has overlapping support subsets; "
                "path grouping is undefined when neither side is separated"
            )
    groups = tuple(tuple(c) for c in _components(group_subsets))
    rx_subsets = tuple(
        tuple(sorted({m for l in g for m in sets.rx_sets[l]})) for g in groups
    )
    tx_subsets = tuple(
        tuple(sorted({q for l in g for q in sets.tx_sets[l]})) for g in groups
    )
    return GroupPartition(
        groups=groups,
        rx_subsets=rx_subsets,
        tx_subsets=tx_subsets,
        separated_side=separated_side,
    )


def group_channels(
    responses: PathResponses,
    partition: GroupPartition,
    tx: LensArrayConfig,
    rx: LensArrayConfig,
) -> list[np.ndarray]:
    """Per-group MIMO matrices H_g = sum over group paths of alpha a_R a_T^H
    restricted to the group's antenna subsets.

    ``responses`` are the realization's full lens responses. Path delays are
    removed by per-subset compensation (receive side when the AoAs are
    separated, transmit-side pre-compensation when the AoDs are), so the
    matrices describe delay-free MIMO AWGN channels in both cases.
    """
    return [
        responses.restrict(rx.positions(rx_sub), tx.positions(tx_sub), group).matrix()
        for group, rx_sub, tx_sub in zip(
            partition.groups, partition.rx_subsets, partition.tx_subsets
        )
    ]


def grouped_capacity(group_channels_list, budgets, noise: float) -> np.ndarray:
    """Eigenmode water-filling capacity across all groups under one budget,
    for each budget.

    Pools the eigen-gains of every group matrix and water-fills the total
    transmit power over them globally.
    """
    gains = np.concatenate([eigen_gains(h) for h in group_channels_list])
    return waterfill_capacity(gains, budgets, noise)
