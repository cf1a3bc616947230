"""Path grouping: when one link side has separated angles (see
``selection.SupportSets``), paths whose supporting subsets overlap on the
other side are merged into groups, reducing the link to parallel small MIMO
AWGN channels (one per group) with eigenmode transmission and a single
global power budget."""
from __future__ import annotations

import numpy as np

from .arrays import LensArrayConfig
from .channel import PathResponses
from .errors import UnsupportedConfigurationError
from .numerics import eigen_gains, waterfill_capacity
from .selection import SupportSets


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


def group_channels(
    responses: PathResponses,
    sets: SupportSets,
    tx: LensArrayConfig,
    rx: LensArrayConfig,
) -> list[np.ndarray]:
    """Per-group MIMO matrices H_g = sum over group paths of alpha a_R a_T^H
    restricted to the group's antenna subsets.

    Paths are grouped by transmit-subset overlap when the AoAs are
    separated, else by receive-subset overlap when the AoDs are; with
    neither side separated grouping is undefined and
    UnsupportedConfigurationError is raised. ``responses`` are the
    realization's full lens responses. Path delays are removed by
    per-subset compensation (receive side when the AoAs are separated,
    transmit-side pre-compensation when the AoDs are), so the matrices
    describe delay-free MIMO AWGN channels in both cases.
    """
    if sets.rx_separated:
        groups = _components(sets.tx_sets)
    elif sets.tx_separated:
        groups = _components(sets.rx_sets)
    else:
        raise UnsupportedConfigurationError(
            "neither side is angle-separated; path grouping is undefined"
        )
    mats = []
    for group in groups:
        rx_pos = rx.positions(sorted({m for l in group for m in sets.rx_sets[l]}))
        tx_pos = tx.positions(sorted({q for l in group for q in sets.tx_sets[l]}))
        mats.append(responses.restrict(rx_pos, tx_pos, group).matrix())
    return mats


def grouped_capacity(group_channels_list, budgets, noise: float) -> np.ndarray:
    """Eigenmode water-filling capacity across all groups under one budget,
    for each budget.

    Pools the eigen-gains of every group matrix and water-fills the total
    transmit power over them globally.
    """
    gains = np.concatenate([eigen_gains(h) for h in group_channels_list])
    return waterfill_capacity(gains, budgets, noise)
