"""Conventional uniform-planar-array benchmark: narrowband eigenmode
capacity, wideband MIMO-OFDM capacity with cyclic-prefix overhead, and
power-based antenna selection under an RF-chain budget.

The UPA channel itself is ``channel.path_responses`` on a UpaConfig pair,
and no M x Q matrix is formed. The eigenmode capacity takes its singular
values from the path-space core of ``PathResponses.cores`` (r_R x r_T, the
numerical ranks of the receive and transmit responses). Where the
responses of either side are mutually orthogonal (within
``channel.ORTHO_TOL``, as on fig5 and fig6), every OFDM subcarrier has the
narrowband singular values, and the OFDM capacity is N / (N + cp) times
the eigenmode capacity. Elsewhere it takes them per subcarrier, for at
most three paths, as the roots of the characteristic polynomial of each
core's Gram (``PathResponses.charpoly``, ``numerics.charpoly_roots``): a
few ufunc passes over (trials, subcarriers) arrays, no matrix per
subcarrier. A subcarrier whose roots are ill-separated (GRAM_TOL), or a
link of more paths, takes the SVD of its cores. Its subcarrier
phases e^{-j 2 pi k n / N} come from a cached read-only table per
subcarrier count N, one row per integer delay n up to the longest met so
far (at most N rows; 51 x 512 at the presets, 418 KB). Both capacities
take a block of realizations at once, and so does the antenna
selection: it ranks the channel energy of one antenna per azimuth index
on both sides, from an n_y,R x n_y,T tap per distinct path delay formed
from the path terms, with no loop over the realizations and each one's
picks bit for bit those of its own call. The link it selects at the
fig9/fig10 budgets has rank 1, so its subcarrier cores are 1 x 1; each
realization's picked link keeps response rows of its own, (T, L, k),
which ``ofdm_capacity`` reads as it reads a block's shared rows.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .arrays import UpaConfig
from .channel import PathResponses
from .errors import InvalidInputError
from .numerics import charpoly_roots, eigen_gains, waterfill_capacity

# Smallest second root, relative to the first, that ofdm_capacity takes from a
# subcarrier's characteristic polynomial (a core singular-value ratio of 1e-3).
GRAM_TOL = 1e-6


@dataclass(frozen=True)
class OfdmConfig:
    """OFDM numerology: subcarrier count (a power of two, at least 2; one
    subcarrier is the narrowband link of UPA-eigenmode) and cyclic prefix.

    The cyclic prefix must cover the longest channel tap so that the
    per-subcarrier channels are exactly parallel (no residual ISI); the
    sample rate is the channel bandwidth (``channel.BANDWIDTH_HZ``).
    """

    subcarriers: int = 512
    cp_samples: int = 50

    def __post_init__(self) -> None:
        for field in ("subcarriers", "cp_samples"):
            value = getattr(self, field)
            if not isinstance(value, numbers.Integral):  # NaN, inf and 512.0 fail
                raise InvalidInputError(f"{field} must be an integer, got {value!r}")
        n = self.subcarriers
        if n < 2 or (n & (n - 1)) != 0:
            raise InvalidInputError("subcarrier count must be a power of two, at least 2")
        if self.cp_samples < 0:
            raise InvalidInputError("cp_samples must be non-negative")


def eigenmode_capacity(responses: PathResponses, budgets, noise: float) -> np.ndarray:
    """SVD eigenmode transmission with water-filling over the narrowband
    channel H = sum_l alpha_l a_R,l a_T,l^H (delays ignored): sum of
    log2(1 + p_i s_i^2 / sigma^2), for each budget (and each realization of
    a block)."""
    return waterfill_capacity(eigen_gains(responses.cores()), budgets, noise)


def ofdm_capacity(
    responses: PathResponses, budgets, noise: float, ofdm: OfdmConfig
) -> np.ndarray:
    """MIMO-OFDM spectral efficiency, for each per-subcarrier budget (and
    each realization of a block).

    A global power budget N*P is water-filled over the eigen-gains of all
    N subcarrier channels H_k = sum_l alpha_l e^{-j 2 pi k n_l / N}
    a_R,l a_T,l^H, and the sum rate is discounted by the CP overhead factor
    N/(N+cp). A path delay of N samples or more is refused, and so is a
    negative one.

    Where the response rows of either side are mutually orthogonal
    (``PathResponses.orthogonal``, within ``channel.ORTHO_TOL``) the path
    phases drop out of H_k^H H_k or H_k H_k^H, so every subcarrier has the
    narrowband gains: N copies of them water-filled at N P give N times the
    narrowband rate at P, and the rate is N/(N+cp) times
    ``eigenmode_capacity``, within the Weyl bound of ORTHO_TOL's comment (4e-14
    of the largest gain at three paths). The rows decide, so a block's
    shared rows decide once for every trial and sweep of them; rows per
    trial decide per trial, and each part of a mixed stack takes its own
    route.

    Elsewhere, with (T, L) gains and delays the T realizations share the
    factors of the response rows and the compound Grams of
    ``PathResponses.charpoly``, and their T * N subcarriers take one
    ``charpoly_roots`` call (see ``_subcarrier_gains``).

    The phases are rows of the table of N, built with the per-entry
    expression -2j pi (k d), divided by N, exponentiated, so every phase is
    bit for bit the one-exponential-per-entry value. The table grows to
    the longest delay + 1 rows and never shrinks, whatever the cyclic
    prefix; a pool worker forked after a call inherits it.
    """
    n, delays = ofdm.subcarriers, responses.delays
    if np.any(delays >= n):
        raise InvalidInputError("channel tap delay reaches or exceeds the OFDM symbol length")
    if np.any(delays < 0):
        raise InvalidInputError("path delays must be non-negative")
    narrow = np.broadcast_to(responses.orthogonal, delays.shape[:-1])
    if narrow.all():
        return (n / (n + ofdm.cp_samples)) * eigenmode_capacity(responses, budgets, noise)
    if narrow.any():  # rows per trial, some orthogonal: each part takes its route
        rates = np.empty(narrow.shape + np.shape(budgets))
        for part in (narrow, ~narrow):
            index = np.nonzero(part)
            rates[index] = ofdm_capacity(responses.trials(index), budgets, noise, ofdm)
        return rates
    return _subcarrier_capacity(responses, budgets, noise, ofdm)


def _subcarrier_capacity(
    responses: PathResponses, budgets, noise: float, ofdm: OfdmConfig, table=None
) -> np.ndarray:
    """``ofdm_capacity`` by its subcarrier route, whatever the rows: N P
    water-filled over the eigen-gains of every subcarrier on the cached
    phase table of N, or on ``table``, and discounted by N/(N+cp)."""
    n = ofdm.subcarriers
    if table is None:
        table = _phase_table(n, int(responses.delays.max()))
    gains = _subcarrier_gains(responses, table)
    rate = waterfill_capacity(
        gains.reshape(gains.shape[:-2] + (-1,)), n * np.asarray(budgets, dtype=float), noise
    )
    return (n / (n + ofdm.cp_samples)) * rate / n


# Subcarrier count N -> read-only table of exp(-j 2 pi k d / N), row d for
# the delays d = 0 ... D met so far, column k for the subcarriers. It only
# grows, to (longest delay + 1) x N; forked workers inherit it.
_PHASES: dict[int, np.ndarray] = {}


def _phase_table(n: int, longest: int) -> np.ndarray:
    """The phase table of N = n subcarriers with at least the rows
    0 ... longest, each entry formed as in the per-path expression
    -2j pi (k d), divided by N, then exponentiated, so bit for bit the same.
    A longer delay adds only the missing rows to a copy of the table."""
    table = _PHASES.get(n, np.empty((0, n), dtype=complex))
    if len(table) <= longest:
        rows = np.multiply(-2j * np.pi, np.arange(len(table), longest + 1)[:, None] * np.arange(n))
        rows /= n
        np.exp(rows, out=rows)
        table = np.concatenate((table, rows))
        table.flags.writeable = False
        _PHASES[n] = table
    return table


def _subcarrier_gains(responses: PathResponses, table: np.ndarray) -> np.ndarray:
    """eigen_gains of the cores of every subcarrier, (..., N, r), for the
    phase table of N subcarriers. Up to three paths they are the roots of
    ``responses.charpoly(table)``, each trial's gains scaled exactly, by a
    power of two, to a largest magnitude in [1/2, 1), so that no product of
    six gains overflows or underflows. A subcarrier whose second root is
    below GRAM_TOL times its first takes the SVD of its core instead (the
    RANK_TOL rule of ``eigen_gains``); above that, every root is accurate
    relative to itself. More paths take the SVD on every subcarrier.
    """
    if responses.num_paths > 3:
        # C-ordered with alpha first: numpy's complex multiply rounds by layout.
        coeffs = table[responses.delays].swapaxes(-1, -2).copy()
        np.multiply(responses.gains[..., None, :], coeffs, out=coeffs)
        return eigen_gains(responses.cores(coeffs))
    _, exponent = np.frexp(np.abs(responses.gains).max(axis=-1, keepdims=True))
    scaled = responses.with_paths(responses.gains * np.ldexp(1.0, -exponent), responses.delays)
    gains = np.ldexp(charpoly_roots(scaled.charpoly(table)), 2 * exponent[..., None])
    ill = (gains[..., 1:2] < GRAM_TOL * gains[..., :1]).any(axis=-1)  # none at rank 1
    if ill.any():
        *lead, k = np.nonzero(ill)
        part = responses.trials(tuple(lead))
        coeffs = np.multiply(part.gains, table[part.delays, k[:, None]])
        gains[ill] = eigen_gains(part.cores(coeffs))
    return gains


def power_select_antennas(
    responses: PathResponses, rx_array: UpaConfig, tx_array: UpaConfig, n_rx_rf: int, n_tx_rf: int
) -> tuple[np.ndarray, np.ndarray]:
    """Two-stage power-based selection under RF-chain budgets, on the UPA
    responses of one realization, (L,) gains and delays, or of a block,
    (T, L), and the two arrays: (..., n_rx_rf) receive rows and
    (..., n_tx_rf) transmit columns, ascending.

    Picks the n_rx_rf receive antennas with the largest squared channel
    magnitude summed over path delays and transmit antennas, then the n_tx_rf
    transmit antennas on the channel seen by the picked receive antennas.
    Ties go to the lower antenna index.

    The UPA carries no elevation phase, so the n_z antennas of one azimuth
    index (i_y-major: i_y*n_z ... i_y*n_z + n_z - 1) have identical
    responses and powers, on either side. The taps are formed once per
    block over one antenna per azimuth index on both sides (n_y,R x n_y,T
    per delay) and repeated back to full transmit rows before the row
    sums, so that they round as they would on the whole array; a trial's
    picks are bit for bit those of its own call. The row sums (numpy's
    pairwise sum over each contiguous full transmit row), the sorts, the
    gather of the picked rows and their column sums all take the whole
    block at once, each trial reduced in the order of its own call.

    So with each budget at most its array's n_z (6 of 10 on fig9/fig10),
    the lower-index rule takes every pick of a side from one azimuth index,
    each side sees every path with one phase on all its picks, and the
    selected link has rank 1: UPA-OFDM-selection is a single-stream
    baseline. ROADMAP's "A fair conventional baseline" keeps several.
    """
    n_rx, n_tx = responses.rx.shape[-1], responses.tx.shape[-1]
    if n_rx != rx_array.element_count:
        raise InvalidInputError("receive responses do not match the receive array size")
    if n_tx != tx_array.element_count:
        raise InvalidInputError("transmit responses do not match the transmit array size")
    if not (1 <= n_rx_rf <= n_rx and 1 <= n_tx_rf <= n_tx):
        raise InvalidInputError("RF budgets must be between 1 and the array size")
    z_rx, z_tx = rx_array.grid_shape[1], tx_array.grid_shape[1]
    energy = _tap_energy(responses, z_rx, z_tx)
    # Row i of energy stands for receive antennas i*n_z,R ... and its
    # column j for transmit antennas j*n_z,T ...; the row sums run over the
    # full transmit rows, the column sums over the picked rows.
    row_sums = np.repeat(energy, z_tx, axis=-1).sum(axis=-1)
    rows = _strongest(np.repeat(row_sums, z_rx, axis=-1), n_rx_rf)
    picked = np.take_along_axis(energy, rows[..., None] // z_rx, axis=-2)
    cols = _strongest(np.repeat(picked.sum(axis=-2), z_tx, axis=-1), n_tx_rf)
    return rows, cols


def _tap_energy(responses: PathResponses, z_rx: int, z_tx: int) -> np.ndarray:
    """Channel energy summed over the taps, (..., n_y,R, n_y,T), for one
    antenna per azimuth index on both sides (every n_z-th response entry).

    One tap per distinct delay: alpha_l (a_R,l a_T,l^H) summed in path
    order, alpha the first operand, and |tap|^2 added in ascending delay
    order, as the near-tied picks depend on this arithmetic to the last
    bit. A stable sort by delay puts each tap's paths next to each other.
    """
    product = responses.rx[:, ::z_rx, None] * responses.tx[:, None, ::z_tx].conj()
    order = np.argsort(responses.delays, axis=-1, kind="stable")
    gains = np.take_along_axis(responses.gains, order, axis=-1)
    delays = np.take_along_axis(responses.delays, order, axis=-1)
    ends = np.ones(delays.shape, dtype=bool)  # the last path of each tap
    ends[..., :-1] = delays[..., 1:] != delays[..., :-1]
    energy = np.zeros(gains.shape[:-1] + product.shape[1:])
    for j in range(delays.shape[-1]):
        term = gains[..., j, None, None] * product[order[..., j]]
        tap = term if j == 0 else np.where(ends[..., j - 1, None, None], term, tap + term)
        np.add(energy, np.abs(tap) ** 2, out=energy, where=ends[..., j, None, None])
    return energy


def _strongest(power: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries along the last axis, ascending;
    ties go to the lower index (a stable sort of the negated powers)."""
    return np.sort(np.argsort(-power, axis=-1, kind="stable")[..., :k], axis=-1)
