"""Conventional uniform-planar-array benchmark: narrowband eigenmode
capacity, wideband MIMO-OFDM capacity with cyclic-prefix overhead, and
power-based antenna selection under an RF-chain budget.

The UPA channel itself is ``channel.path_responses`` on a UpaConfig pair,
and no M x Q matrix is formed. The eigenmode capacity takes its singular
values from the path-space core of ``PathResponses.cores`` (r_R x r_T, the
numerical ranks of the receive and transmit responses). The OFDM capacity
takes them per subcarrier as the eigenvalues of the r x r Grams of
``PathResponses.grams`` (r = min(r_R, r_T)), with one Hermitian eigensolve
of the whole stack; a rank-1 link, or a subcarrier whose Gram is too
ill-conditioned (GRAM_TOL), takes its cores instead. The antenna
selection ranks the channel energy of one receive antenna per azimuth
index, an n_y x Q tap per distinct path delay formed from the path terms;
the link it selects at the fig9/fig10 budgets has rank 1, so its
subcarrier cores are 1 x 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import UpaConfig
from .channel import PathResponses
from .errors import InvalidInputError, UnsupportedConfigurationError
from .numerics import eigen_gains, waterfill_capacity

# Smallest eigenvalue of a subcarrier Gram, relative to its largest, that
# ofdm_capacity takes from the Gram (a core singular-value ratio of 1e-3).
GRAM_TOL = 1e-6


@dataclass(frozen=True)
class OfdmConfig:
    """OFDM numerology: subcarrier count and cyclic-prefix length.

    The cyclic prefix must cover the longest channel tap so that the
    per-subcarrier channels are exactly parallel (no residual ISI); the
    sample rate is the channel bandwidth (``ChannelStats.bandwidth_hz``).
    """

    subcarriers: int = 512
    cp_samples: int = 50

    def __post_init__(self) -> None:
        n = self.subcarriers
        if n < 1 or (n & (n - 1)) != 0:
            raise InvalidInputError("subcarrier count must be a power of two")
        if self.cp_samples < 0:
            raise InvalidInputError("cp_samples must be non-negative")


def eigenmode_capacity(responses: PathResponses, budgets, noise: float) -> np.ndarray:
    """SVD eigenmode transmission with water-filling over the narrowband
    channel H = sum_l alpha_l a_R,l a_T,l^H (delays ignored): sum of
    log2(1 + p_i s_i^2 / sigma^2), for each budget."""
    return waterfill_capacity(eigen_gains(responses.cores()), budgets, noise)


def ofdm_capacity(
    responses: PathResponses, budgets, noise: float, ofdm: OfdmConfig
) -> np.ndarray:
    """MIMO-OFDM spectral efficiency, for each per-subcarrier budget.

    A global power budget N*P is water-filled over the eigen-gains of all
    N subcarrier channels H_k = sum_l alpha_l e^{-j 2 pi k n_l / N}
    a_R,l a_T,l^H, and the sum rate is discounted by the CP overhead factor
    N/(N+cp). A path delay of N samples or more is refused.
    """
    n = ofdm.subcarriers
    if np.any(responses.delays >= n):
        raise UnsupportedConfigurationError(
            "channel tap delay reaches or exceeds the OFDM symbol length"
        )
    phases = np.exp(-2j * np.pi * np.outer(np.arange(n), responses.delays) / n)
    if min(responses.ranks) == 1:
        # One singular value per subcarrier: eigen_gains takes the norm.
        gains = eigen_gains(responses.cores(phases))
    else:
        gains = _gram_eigen_gains(responses, phases)
    rate = waterfill_capacity(gains, n * np.asarray(budgets, dtype=float), noise)
    return (n / (n + ofdm.cp_samples)) * rate / n


def _gram_eigen_gains(responses: PathResponses, phases: np.ndarray) -> np.ndarray:
    """eigen_gains of ``responses.cores(phases)``, from the eigenvalues of
    ``responses.grams(phases)``: (K, r) non-increasing, clipped at 0.

    A Gram squares its core's condition number, so a subcarrier whose
    smallest eigenvalue is below GRAM_TOL times its largest takes the SVD of
    its core instead, under the RANK_TOL rule of ``eigen_gains``. Above that
    threshold every singular value is far above RANK_TOL of the largest.
    """
    grams = responses.grams(phases)
    if not np.all(np.isfinite(grams)):
        raise InvalidInputError("eigen_gains input contains non-finite entries")
    gains = np.linalg.eigvalsh(grams)[:, ::-1]
    ill = gains[:, -1] < GRAM_TOL * gains[:, 0]
    gains = np.maximum(gains, 0.0)
    if ill.any():
        gains[ill] = eigen_gains(responses.cores(phases[ill]))
    return gains


def power_select_antennas(
    responses: PathResponses, rx_array: UpaConfig, n_rx_rf: int, n_tx_rf: int
) -> tuple[np.ndarray, np.ndarray]:
    """Two-stage power-based selection under RF-chain budgets, on the UPA
    responses of one realization and its receive array.

    Picks the n_rx_rf receive antennas with the largest squared channel
    magnitude summed over path delays and transmit antennas, then the n_tx_rf
    transmit antennas on the channel seen by the picked receive antennas.
    Ties go to the lower antenna index.

    The UPA carries no elevation phase, so the n_z receive antennas of one
    azimuth index (i_y-major: i_y*n_z ... i_y*n_z + n_z - 1) have identical
    responses and powers. The ranking reads only the n_y x Q tap matrices
    of one antenna per azimuth index, with full transmit rows so that each
    row sum rounds as it would on the whole array.

    Transmit antennas of one azimuth index tie in the same way. So with each
    budget at most its array's n_z (6 of 10 on fig9/fig10), the lower-index
    rule takes every pick of a side from one azimuth index, each side sees
    every path with one phase on all its picks, and the selected link has
    rank 1: UPA-OFDM-selection is a single-stream baseline. A rule that
    keeps several streams is ROADMAP item 5.
    """
    n_rx, n_tx = responses.rx.shape[1], responses.tx.shape[1]
    if n_rx != rx_array.element_count:
        raise InvalidInputError("receive responses do not match the receive array size")
    if not (1 <= n_rx_rf <= n_rx and 1 <= n_tx_rf <= n_tx):
        raise InvalidInputError("RF budgets must be between 1 and the array size")
    n_z = rx_array.grid_shape[1]
    # Energy row i_y stands for receive antennas i_y*n_z ... i_y*n_z + n_z - 1.
    sub = responses.restrict(np.arange(0, n_rx, n_z), np.arange(n_tx))
    energy = np.zeros((n_rx // n_z, n_tx))
    # One tap per distinct delay: alpha_l (a_R,l a_T,l^H) summed in path
    # order, alpha the first operand, as the near-tied picks depend on this
    # arithmetic to the last bit. sorted(set()) rather than np.unique, which
    # imports numpy.ma (~15 ms) on its first call.
    for n in sorted(set(sub.delays.tolist())):
        on = sub.delays == n
        tap = sub.gains[on, None, None] * (sub.rx[on, :, None] * sub.tx[on, None, :].conj())
        energy += np.abs(tap.sum(axis=0)) ** 2
    row_power = np.repeat(energy.sum(axis=1), n_z)
    # lexsort: primary key descending power, secondary ascending index
    rows = np.sort(np.lexsort((np.arange(n_rx), -row_power))[:n_rx_rf])
    col_power = energy[rows // n_z].sum(axis=0)
    cols = np.sort(np.lexsort((np.arange(n_tx), -col_power))[:n_tx_rf])
    return rows, cols
