"""Path division multiplexing for arbitrary AoAs/AoDs.

Per-path maximal-ratio transmission (MRT) at the transmitter, per-stream MRC
or MMSE combining at the receiver, the exact per-stream SINR decomposition
(desired / inter-symbol / inter-stream / noise), inter-path contamination
coefficients, and a symbol-level wideband Monte Carlo simulation.

Every function works on one realization's PathResponses restricted to the
selected antennas M_S x Q_S (``selection.restrict_to_support``): row l of
its receive/transmit responses is path l seen by those antennas. Stream l
is sent on path l with the MRT precoder of that path and detected at that
path's delay. Stream powers have shape (..., L): a leading axis (one row
per power budget) evaluates a whole SNR grid in one call, with the MRT
precoders and their path couplings g_t formed once. The MMSE covariances
have rank L plus noise, so the combiners are solved in the L-dimensional
path space of the receive responses, never as M_S x M_S systems.

All SINRs here use exactly normalized beamformers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import LensArrayConfig
from .channel import PathResponses
from .errors import DegenerateInputError, InvalidInputError, StatisticalValidityError
from .numerics import hermitian_solve

_UNIT_TOL = 1e-12


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
    def sum_rate(self) -> np.ndarray:
        """Achievable sum rate sum_l log2(1 + gamma_l) in bps/Hz, one value
        per leading index of the stream powers."""
        return (np.log1p(self.gammas) / np.log(2.0)).sum(axis=-1)


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


def _check_streams(support: PathResponses, combiners: np.ndarray, powers: np.ndarray) -> None:
    streams = (support.num_paths,)
    if powers.shape[-1:] != streams or combiners.shape[-2:-1] != streams:
        raise InvalidInputError("PDM expects one stream per path")
    if np.any(np.abs(np.linalg.norm(combiners, axis=-1) - 1.0) > _UNIT_TOL):
        raise InvalidInputError("every combiner must be unit-norm")
    if np.any(powers < 0):
        raise InvalidInputError("stream powers must be non-negative")


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

    C_l = A^T W_l A^* + sigma^2 I collects, through the receive responses
    A (L x M_S), the ISI of stream l via the other paths, all other streams
    via every path (the diagonal weights W_l) and the noise floor. With the
    thin QR A^T = Q R (r = min(L, M_S)), C_l^{-1} a_{R,l} =
    Q (R W_l R^H + sigma^2 I_r)^{-1} R e_l, so only r x r systems are
    solved, all in one stacked call. ``powers`` has shape (..., L); the
    result has shape (..., L, M_S). A path-space system that is still
    singular in double precision raises ``hermitian_solve``'s
    NumericalError.
    """
    powers = np.asarray(powers, dtype=float)
    # launched[..., k, l'] = p_l' |a_{T,k}^H w_l'|^2: stream l' launched into path k.
    launched = powers[..., None, :] * np.abs(support.tx.conj() @ mrt_precoders(support).T) ** 2
    other = ~np.eye(support.num_paths, dtype=bool)
    # At detector l, path k carries every stream l' != k as interference,
    # and stream k too unless k == l (then it is the desired signal). Summed
    # without a subtraction: weights[..., l, k] = |alpha_k|^2 (sum_{l' != k}
    # launched[k, l'] + [k != l] launched[k, k]).
    crossing = np.where(other, launched, 0.0).sum(axis=-1)[..., None, :]
    own = np.where(other, np.diagonal(launched, axis1=-2, axis2=-1)[..., None, :], 0.0)
    weights = np.abs(support.gains) ** 2 * (crossing + own)
    q, r = np.linalg.qr(support.rx.T)
    cov = (r * weights[..., None, :]) @ r.conj().T + noise * np.eye(r.shape[0])
    directions = hermitian_solve(cov, np.broadcast_to(r.T, cov.shape[:-1])) @ q.T
    return directions / np.linalg.norm(directions, axis=-1, keepdims=True)


def pdm_sinr(support: PathResponses, combiners, powers, noise: float) -> SinrReport:
    """Exact analytic per-stream SINR under per-path MRT precoding.

    The coefficient of stream l' arriving via path k at detector l is
    sqrt(p_l') * alpha_k * (v_l^H a_{R,k}) * (a_{T,k}^H w_{l'}); desired is
    (l, l, l), ISI collects k != l for stream l, inter-stream collects all
    paths of every other stream. ``powers`` has shape (..., L) and
    ``combiners`` (L, M_S) or (..., L, M_S); every report field has the
    broadcast shape (..., L).
    """
    combiners = np.asarray(combiners)
    powers = np.asarray(powers, dtype=float)
    _check_streams(support, combiners, powers)
    g_r = combiners.conj() @ support.rx.T  # g_r[..., l, k] = v_l^H a_{R,k}
    g_t = support.tx.conj() @ mrt_precoders(support).T  # g_t[k, l'] = a_{T,k}^H w_{l'}
    amp = np.sqrt(powers)
    # power[..., l, l', k] = |c|^2 at detector l for stream l' via path k
    power = (
        (amp**2)[..., None, :, None]
        * np.abs(support.gains) ** 2
        * (np.abs(g_r) ** 2)[..., :, None, :]
        * np.abs(g_t.T) ** 2
    )
    idx = np.arange(support.num_paths)
    desired = power[..., idx, idx, idx]
    own_stream = power[..., idx, idx, :].sum(axis=-1)
    isi = own_stream - desired
    inter = power.sum(axis=(-2, -1)) - own_stream
    denom = isi + inter + noise
    with np.errstate(divide="ignore", invalid="ignore"):
        gammas = np.where(denom > 0, desired / np.where(denom > 0, denom, 1.0), np.inf)
    gammas = np.where(desired == 0, 0.0, gammas)
    return SinrReport(
        gammas=gammas,
        desired=desired,
        isi=isi,
        inter_stream=inter,
        noise=np.full(desired.shape, float(noise)),
    )


def simulate_symbols(
    support: PathResponses,
    combiners,
    powers,
    n_symbols: int,
    rng,
    noise: float,
) -> SinrReport:
    """Symbol-level Monte Carlo SINR measurement.

    Draws i.i.d. unit-variance circular complex Gaussian symbols per stream,
    propagates each signal group (desired / ISI / inter-stream) separately
    through every path at its delay under per-path MRT precoding, samples
    detector l at the delay of path l, and reports empirical powers. Delays wrap circularly, which leaves the
    stationary powers unchanged.
    """
    if n_symbols < 10_000:
        raise StatisticalValidityError("n_symbols must be at least 10^4")
    combiners = np.asarray(combiners)
    powers = np.asarray(powers, dtype=float)
    _check_streams(support, combiners, powers)
    rng = np.random.default_rng(rng)
    num_streams = support.num_paths
    symbols = (
        rng.standard_normal((num_streams, n_symbols))
        + 1j * rng.standard_normal((num_streams, n_symbols))
    ) / np.sqrt(2.0)
    n_rx = support.rx.shape[1]
    noise_vec = np.sqrt(noise / 2.0) * (
        rng.standard_normal((n_rx, n_symbols)) + 1j * rng.standard_normal((n_rx, n_symbols))
    )
    amp = np.sqrt(powers)
    # g_t[k, l'] = a_{T,k}^H w_{l'} sqrt(p_l'): stream l' launched into path k.
    g_t = support.tx.conj() @ (amp[:, None] * mrt_precoders(support)).T
    desired = np.empty(num_streams)
    isi = np.empty(num_streams)
    inter = np.empty(num_streams)
    noise_pow = np.empty(num_streams)
    for l in range(num_streams):
        v = combiners[l]
        lag = int(support.delays[l])
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
