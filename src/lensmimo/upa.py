"""Conventional uniform-planar-array benchmark: narrowband eigenmode
capacity, wideband MIMO-OFDM capacity with cyclic-prefix overhead, and
power-based antenna selection under an RF-chain budget.

The UPA channel itself is ``channel.path_responses`` on a UpaConfig pair.
Both capacities read those per-path factors directly: with A_R^T = Q_R R_R
and A_T^T = Q_T R_T (thin QR), every subcarrier channel
H_k = Q_R R_R diag(alpha_l e^{-j 2 pi k n_l / N}) R_T^H Q_T^H has the
singular values of its at most L x L core, so no M x Q matrix is formed.
``PathResponses.taps()`` feeds only the antenna selection.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import PathResponses
from .errors import InvalidInputError, UnsupportedConfigurationError
from .numerics import eigen_gains, waterfill_capacity


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


def _cores(responses: PathResponses, phases: np.ndarray) -> np.ndarray:
    """Stacked cores R_R diag(alpha * phases[k]) R_T^H, one per row of the
    (K, L) ``phases``; core k has the singular values of
    A_R^T diag(alpha * phases[k]) A_T^*."""
    r_rx = np.linalg.qr(responses.rx.T, mode="r")
    r_tx = np.linalg.qr(responses.tx.T, mode="r")
    return (r_rx * (responses.gains * phases)[:, None, :]) @ r_tx.conj().T


def eigenmode_capacity(responses: PathResponses, budgets, noise: float) -> np.ndarray:
    """SVD eigenmode transmission with water-filling over the narrowband
    channel H = sum_l alpha_l a_R,l a_T,l^H (delays ignored): sum of
    log2(1 + p_i s_i^2 / sigma^2), for each budget."""
    flat = np.ones((1, responses.num_paths))
    return waterfill_capacity(eigen_gains(_cores(responses, flat)), budgets, noise)


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
    gains = eigen_gains(_cores(responses, phases))
    rate = waterfill_capacity(gains, n * np.asarray(budgets, dtype=float), noise)
    return (n / (n + ofdm.cp_samples)) * rate / n


def power_select_antennas(
    taps: tuple[tuple[int, np.ndarray], ...], n_rx_rf: int, n_tx_rf: int
) -> tuple[np.ndarray, np.ndarray]:
    """Two-stage power-based selection under RF-chain budgets, on the
    (delay, matrix) taps of ``PathResponses.taps()``.

    Picks the n_rx_rf rows with the largest squared channel magnitude summed
    over taps and columns, then the n_tx_rf columns on the row-restricted
    channel. Ties go to the lower antenna index.
    """
    n_rx, n_tx = taps[0][1].shape
    if not (1 <= n_rx_rf <= n_rx and 1 <= n_tx_rf <= n_tx):
        raise InvalidInputError("RF budgets must be between 1 and the array size")
    energy = np.zeros((n_rx, n_tx))
    for _, mat in taps:
        energy += np.abs(mat) ** 2
    row_power = energy.sum(axis=1)
    # lexsort: primary key descending power, secondary ascending index
    rows = np.sort(np.lexsort((np.arange(n_rx), -row_power))[:n_rx_rf])
    col_power = energy[rows].sum(axis=0)
    cols = np.sort(np.lexsort((np.arange(n_tx), -col_power))[:n_tx_rf])
    return rows, cols
