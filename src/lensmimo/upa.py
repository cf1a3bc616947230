"""Conventional uniform-planar-array benchmark: narrowband eigenmode
capacity, wideband MIMO-OFDM capacity with cyclic-prefix overhead, and
power-based antenna selection under an RF-chain budget.

The UPA channel itself is ``channel.path_responses`` on a UpaConfig pair:
its ``matrix()`` feeds the eigenmode capacity, its ``taps()`` the OFDM one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import TappedChannel
from .errors import InvalidInputError, UnsupportedConfigurationError
from .numerics import RANK_TOL, svd, water_fill, waterfill_capacity


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


def _eigen_gains(h: np.ndarray) -> np.ndarray:
    s, _, _ = svd(h)
    if s.size and s[0] > 0:
        s = np.where(s < RANK_TOL * s[0], 0.0, s)
    return s**2


def eigenmode_capacity(h: np.ndarray, power: float, noise: float) -> float:
    """SVD eigenmode transmission with water-filling: sum of
    log2(1 + p_i s_i^2 / sigma^2) over the channel's singular values."""
    gains = _eigen_gains(np.asarray(h))
    if not np.any(gains > 0):
        return 0.0
    return waterfill_capacity(gains, power, noise)


def ofdm_subchannels(tapped: TappedChannel, subcarriers: int) -> list[np.ndarray]:
    """Frequency-domain subchannels H_k = sum_t tap_t exp(-j 2 pi k n_t / N)."""
    if any(n >= subcarriers for n, _ in tapped.taps):
        raise UnsupportedConfigurationError(
            "channel tap delay reaches or exceeds the OFDM symbol length"
        )
    k = np.arange(subcarriers)
    out = [np.zeros(tapped.taps[0][1].shape, dtype=complex) for _ in k]
    for n, mat in tapped.taps:
        phase = np.exp(-2j * np.pi * k * n / subcarriers)
        for i in range(subcarriers):
            out[i] = out[i] + phase[i] * mat
    return out


def ofdm_eigen_gains(subchannels: list[np.ndarray]) -> np.ndarray:
    """Pooled squared singular values of every subcarrier matrix."""
    return np.concatenate([_eigen_gains(h) for h in subchannels])


def ofdm_capacity_from_gains(
    gains: np.ndarray, power: float, noise: float, cfg: OfdmConfig
) -> float:
    """MIMO-OFDM spectral efficiency from pooled eigen-gains: a global power
    budget N*P is water-filled over all subcarrier eigen-gains and the sum
    rate is discounted by the CP overhead factor N/(N+cp)."""
    n = cfg.subcarriers
    if not np.any(gains > 0):
        return 0.0
    alloc = water_fill(gains, n * power, noise)
    active = gains > 0
    rate = np.log2(1.0 + alloc.powers[active] * gains[active] / noise).sum()
    return (n / (n + cfg.cp_samples)) * rate / n


def mimo_ofdm_capacity(
    subchannels: list[np.ndarray], power: float, noise: float, cfg: OfdmConfig
) -> float:
    """MIMO-OFDM spectral efficiency of the given subcarrier matrices."""
    if len(subchannels) != cfg.subcarriers:
        raise InvalidInputError("subchannel count must equal the subcarrier count")
    return ofdm_capacity_from_gains(ofdm_eigen_gains(subchannels), power, noise, cfg)


def power_select_antennas(
    tapped: TappedChannel, n_rx_rf: int, n_tx_rf: int
) -> tuple[np.ndarray, np.ndarray]:
    """Two-stage power-based selection under RF-chain budgets.

    Picks the n_rx_rf rows with the largest squared channel magnitude summed
    over taps and columns, then the n_tx_rf columns on the row-restricted
    channel. Ties go to the lower antenna index.
    """
    n_rx, n_tx = tapped.taps[0][1].shape
    if not (1 <= n_rx_rf <= n_rx and 1 <= n_tx_rf <= n_tx):
        raise InvalidInputError("RF budgets must be between 1 and the array size")
    energy = np.zeros((n_rx, n_tx))
    for _, mat in tapped.taps:
        energy += np.abs(mat) ** 2
    row_power = energy.sum(axis=1)
    # lexsort: primary key descending power, secondary ascending index
    rows = np.sort(np.lexsort((np.arange(n_rx), -row_power))[:n_rx_rf])
    col_power = energy[rows].sum(axis=0)
    cols = np.sort(np.lexsort((np.arange(n_tx), -col_power))[:n_tx_rf])
    return rows, cols
