"""Path division multiplexing for arbitrary AoAs/AoDs.

Per-path maximal-ratio transmission at the transmitter, per-stream MRC or
MMSE combining at the receiver, the exact per-stream SINR decomposition
(desired / inter-symbol / inter-stream / noise), inter-path contamination
coefficients, and a symbol-level wideband Monte Carlo simulation.

Every function works on one realization's PathResponses restricted to the
selected antennas M_S x Q_S (``selection.restrict_to_support``): row l of
its receive/transmit responses is path l seen by those antennas.

All SINRs here use exactly normalized beamformers.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .arrays import LensArrayConfig
from .channel import PathResponses
from .errors import (
    DegenerateInputError,
    InvalidInputError,
    NumericalError,
    StatisticalValidityError,
)
from .numerics import hermitian_solve

_UNIT_TOL = 1e-12


@dataclass(frozen=True)
class LinkDesign:
    """Per-stream transceiver configuration over the selected antennas."""

    precoders: np.ndarray  # (L, |Q_S|), unit-norm rows
    combiners: np.ndarray  # (L, |M_S|), unit-norm rows
    powers: np.ndarray  # (L,), non-negative
    stream_delays: np.ndarray  # (L,) integer symbol delays n_l
    combiner_kind: str = "MRC"

    def __post_init__(self) -> None:
        for name, mat in (("precoder", self.precoders), ("combiner", self.combiners)):
            norms = np.linalg.norm(mat, axis=1)
            if np.any(np.abs(norms - 1.0) > _UNIT_TOL):
                raise InvalidInputError(f"every {name} must be unit-norm")
        if np.any(self.powers < 0):
            raise InvalidInputError("stream powers must be non-negative")
        if self.combiner_kind not in ("MRC", "MMSE"):
            raise InvalidInputError("combiner_kind must be 'MRC' or 'MMSE'")


@dataclass(frozen=True)
class IpcMatrix:
    """Inter-path contamination coefficients on each link side."""

    rho_t: np.ndarray  # (L, L), symmetric, in [0, 1 + finite-array slack]
    rho_r: np.ndarray


@dataclass(frozen=True)
class SinrReport:
    """Per-stream SINR and its power decomposition (linear units)."""

    gammas: np.ndarray
    desired: np.ndarray
    isi: np.ndarray
    inter_stream: np.ndarray
    noise: np.ndarray

    @property
    def sum_rate(self) -> float:
        """Achievable sum rate sum_l log2(1 + gamma_l) in bps/Hz."""
        return float(np.log2(1.0 + self.gammas).sum())


def _normalized_rows(rows: np.ndarray, what: str) -> np.ndarray:
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms == 0):
        raise DegenerateInputError(f"zero restricted response; cannot form {what}")
    return rows / norms[:, None]


def mrt_precoders(support: PathResponses) -> np.ndarray:
    """Unit-norm per-path MRT precoders over Q_S (exact normalization)."""
    return _normalized_rows(support.tx, "MRT precoder")


def mrc_combiners(support: PathResponses) -> np.ndarray:
    """Unit-norm per-path MRC combiners over M_S."""
    return _normalized_rows(support.rx, "MRC combiner")


def ipc_coefficients(
    support: PathResponses, tx: LensArrayConfig, rx: LensArrayConfig
) -> IpcMatrix:
    """Transmit/receive inter-path contamination coefficients.

    rho[l, l'] = |sum over the union subset of the two paths' normalized
    sinc responses|^2; it vanishes for sufficiently separated angles.
    """
    inner_t = (support.tx.conj() @ support.tx.T).real / tx.aperture
    inner_r = (support.rx.conj() @ support.rx.T).real / rx.aperture
    return IpcMatrix(rho_t=inner_t**2, rho_r=inner_r**2)


def mmse_combiners(support: PathResponses, powers, noise: float) -> np.ndarray:
    """Per-stream MMSE combiners v_l proportional to C_l^{-1} a_{R,l}.

    C_l collects the ISI covariance of stream l via the other paths, the
    inter-stream covariance of all other streams via every path, and the
    noise floor. Falls back to MRC with a warning if C_l is singular
    (reachable only in noise-free degenerate setups).
    """
    powers = np.asarray(powers, dtype=float)
    rx_resp = support.rx
    tx_resp = support.tx
    precoders = _normalized_rows(tx_resp, "MRT precoder")
    # launched[k, l'] = p_l' |a_{T,k}^H w_l'|^2: stream l' launched into path k.
    launched = powers * np.abs(tx_resp.conj() @ precoders.T) ** 2
    num_paths = support.num_paths
    other = ~np.eye(num_paths, dtype=bool)
    # At detector l, path k carries every stream l' != k as interference,
    # and stream k too unless k == l (then it is the desired signal). Summed
    # without a subtraction: weights[l, k] = |alpha_k|^2 (sum_{l' != k}
    # launched[k, l'] + [k != l] launched[k, k]).
    crossing = np.where(other, launched, 0.0).sum(axis=1)
    own = np.where(other, np.diag(launched), 0.0)
    weights = np.abs(support.gains) ** 2 * (crossing + own)
    combiners = np.empty((num_paths, rx_resp.shape[1]), dtype=complex)
    for l in range(num_paths):
        cov = (rx_resp.T * weights[l]) @ rx_resp.conj() + noise * np.eye(rx_resp.shape[1])
        try:
            direction = hermitian_solve(cov, rx_resp[l])
        except NumericalError:
            warnings.warn("singular MMSE covariance; falling back to MRC", RuntimeWarning)
            direction = rx_resp[l]
        combiners[l] = direction / np.linalg.norm(direction)
    return combiners


def pdm_sinr(design: LinkDesign, support: PathResponses, noise: float) -> SinrReport:
    """Exact analytic per-stream SINR for the given transceiver design.

    The coefficient of stream l' arriving via path k at detector l is
    sqrt(p_l') * alpha_k * (v_l^H a_{R,k}) * (a_{T,k}^H w_{l'}); desired is
    (l, l, l), ISI collects k != l for stream l, inter-stream collects all
    paths of every other stream.
    """
    g_r = design.combiners.conj() @ support.rx.T  # g_r[l, k] = v_l^H a_{R,k}
    g_t = support.tx.conj() @ design.precoders.T  # g_t[k, l'] = a_{T,k}^H w_{l'}
    num_paths = support.num_paths
    amp = np.sqrt(np.asarray(design.powers, dtype=float))
    # power[l, l', k] = |c|^2 at detector l for stream l' via path k
    power = (
        (amp[None, :] ** 2)[:, :, None]
        * (np.abs(support.gains) ** 2)[None, None, :]
        * (np.abs(g_r) ** 2)[:, None, :]
        * (np.abs(g_t.T) ** 2)[None, :, :]
    )
    idx = np.arange(num_paths)
    desired = power[idx, idx, idx]
    isi = power[idx, idx, :].sum(axis=1) - desired
    inter = power.sum(axis=(1, 2)) - power[idx, idx, :].sum(axis=1)
    denom = isi + inter + noise
    with np.errstate(divide="ignore", invalid="ignore"):
        gammas = np.where(denom > 0, desired / np.where(denom > 0, denom, 1.0), np.inf)
    gammas = np.where(desired == 0, 0.0, gammas)
    return SinrReport(
        gammas=gammas,
        desired=desired,
        isi=isi,
        inter_stream=inter,
        noise=np.full(num_paths, float(noise)),
    )


def simulate_symbols(
    design: LinkDesign,
    support: PathResponses,
    n_symbols: int,
    rng,
    noise: float,
) -> SinrReport:
    """Symbol-level Monte Carlo SINR measurement.

    Draws i.i.d. unit-variance circular complex Gaussian symbols per stream,
    propagates each signal group (desired / ISI / inter-stream) separately
    through every path at its delay, samples detector l at its stream delay,
    and reports empirical powers. Delays wrap circularly, which leaves the
    stationary powers unchanged.
    """
    if n_symbols < 10_000:
        raise StatisticalValidityError("n_symbols must be at least 10^4")
    rng = np.random.default_rng(rng)
    num_streams = len(design.powers)
    if support.num_paths != num_streams:
        raise InvalidInputError("PDM expects one stream per path")
    symbols = (
        rng.standard_normal((num_streams, n_symbols))
        + 1j * rng.standard_normal((num_streams, n_symbols))
    ) / np.sqrt(2.0)
    n_rx = support.rx.shape[1]
    noise_vec = np.sqrt(noise / 2.0) * (
        rng.standard_normal((n_rx, n_symbols)) + 1j * rng.standard_normal((n_rx, n_symbols))
    )
    amp = np.sqrt(np.asarray(design.powers, dtype=float))
    # g_t[k, l'] = a_{T,k}^H w_{l'} sqrt(p_l'): stream l' launched into path k.
    g_t = support.tx.conj() @ (amp[:, None] * design.precoders).T
    desired = np.empty(num_streams)
    isi = np.empty(num_streams)
    inter = np.empty(num_streams)
    noise_pow = np.empty(num_streams)
    for l in range(num_streams):
        v = design.combiners[l]
        lag = int(design.stream_delays[l])
        sig_desired = np.zeros(n_symbols, dtype=complex)
        sig_isi = np.zeros(n_symbols, dtype=complex)
        sig_inter = np.zeros(n_symbols, dtype=complex)
        for k, n_k in enumerate(support.delays):
            via_path = support.gains[k] * (v.conj() @ support.rx[k])
            for lp in range(num_streams):
                out = via_path * g_t[k, lp] * np.roll(symbols[lp], n_k - lag)
                if lp == l and k == l:
                    sig_desired += out
                elif lp == l:
                    sig_isi += out
                else:
                    sig_inter += out
        desired[l] = np.mean(np.abs(sig_desired) ** 2)
        isi[l] = np.mean(np.abs(sig_isi) ** 2)
        inter[l] = np.mean(np.abs(sig_inter) ** 2)
        noise_pow[l] = np.mean(np.abs(v.conj() @ noise_vec) ** 2)
    denom = isi + inter + noise_pow
    with np.errstate(divide="ignore", invalid="ignore"):
        gammas = np.where(denom > 0, desired / np.where(denom > 0, denom, 1.0), np.inf)
    return SinrReport(gammas=gammas, desired=desired, isi=isi, inter_stream=inter, noise=noise_pow)
