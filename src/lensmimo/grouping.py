"""Path grouping: when one link side has separated angles (see
``selection.SupportSets``), paths whose supporting subset masks overlap on
the other side are merged into groups, reducing the link to parallel small
MIMO AWGN channels (one per group) with eigenmode transmission and a single
global power budget. With neither side separated there are no groups
(``path_groups`` gives None) and grouping does not apply."""
from __future__ import annotations

import numpy as np

from .channel import PathResponses
from .numerics import eigen_gains, waterfill_capacity
from .selection import SupportSets


def _components(members: np.ndarray) -> list[np.ndarray]:
    """Connected components of the subset-overlap graph of an (L, N) mask:
    paths whose rows share a position, closed transitively by squaring the
    overlap matrix. Each component lists its paths in ascending order, and
    components come in the order of their first path."""
    reach = (members @ members.T) | np.eye(len(members), dtype=bool)
    while not np.array_equal(wider := reach @ reach, reach):
        reach = wider
    # Every path of a component has the component's row; the first path is
    # the one whose row starts at itself.
    firsts = np.flatnonzero(reach.argmax(axis=1) == np.arange(len(reach)))
    return [np.flatnonzero(reach[l]) for l in firsts]


def path_groups(
    responses: PathResponses, sets: SupportSets
) -> list[tuple[np.ndarray, PathResponses]] | None:
    """The path groups: (path indices, the responses of those paths
    restricted to the group's antenna subsets, the union of its rows of the
    support masks) for each group.

    Paths are grouped by transmit-subset overlap when the AoAs are
    separated, else by receive-subset overlap when the AoDs are; with
    neither side separated grouping is undefined and the result is None.
    Only the angles fix the groups and their rows, so a sweep forms them
    once for all its blocks.
    """
    if sets.rx_separated:
        groups = _components(sets.tx)
    elif sets.tx_separated:
        groups = _components(sets.rx)
    else:
        return None
    return [
        (group, responses.restrict(sets.rx[group].any(axis=0), sets.tx[group].any(axis=0), group))
        for group in groups
    ]


def group_channels(groups: list[tuple[np.ndarray, PathResponses]], gains) -> list[np.ndarray]:
    """Per-group MIMO channels H_g = sum over group paths of alpha a_R a_T^H
    restricted to the group's antenna subsets, for the groups of
    ``path_groups`` and path gains alpha of one realization, (L,), or of a
    block, (T, L): each group's path-space core (``PathResponses.cores``),
    (r_R, r_T) or (T, r_R, r_T), which has the singular values of H_g.

    Path delays are removed by per-subset compensation (receive side when
    the AoAs are separated, transmit-side pre-compensation when the AoDs
    are), so the matrices describe delay-free MIMO AWGN channels in both
    cases.
    """
    return [part.cores(gains[..., paths]) for paths, part in groups]


def grouped_capacity(group_channels_list, budgets, noise: float) -> np.ndarray:
    """Eigenmode water-filling capacity across all groups under one budget,
    for each budget (and each realization of a block).

    Pools the eigen-gains of every group channel and water-fills the total
    transmit power over them globally.
    """
    gains = np.concatenate([eigen_gains(h) for h in group_channels_list], axis=-1)
    return waterfill_capacity(gains, budgets, noise)
