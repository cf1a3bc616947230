"""Path division multiplexing for arbitrary AoAs/AoDs.

Per-path maximal-ratio transmission (MRT) at the transmitter, per-stream MRC
or MMSE combining at the receiver, and the exact per-stream SINR
decomposition (desired / inter-symbol / inter-stream / noise). The
symbol-level Monte Carlo check of that decomposition and the inter-path
contamination coefficients are test oracles and live with the tests.

Every function works on PathResponses restricted to the selected antennas
M_S x Q_S (the unions of the ``selection.SupportSets`` masks): row l of its
receive/transmit responses is path l seen by those antennas. Stream l is
sent on path l with the MRT precoder of that path and detected at that
path's delay. The MRT precoders, the MRC combiners and the couplings
|a_T,k^H w_l|^2 depend only on the rows, so they are formed once for every
realization and budget. The gains are of one realization, (L,), or of a block, (T, L);
stream powers carry the same leading axes followed by any budget axes,
(T, B, L) for a block on an SNR grid, and every result broadcasts over
them. The MMSE combiners of all L streams come from one covariance of rank
L plus noise per realization and budget, solved in the L-dimensional path
space of the receive responses, never as an M_S x M_S system.

All SINRs here use exactly normalized beamformers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import PathResponses
from .errors import DegenerateInputError, InvalidInputError, NumericalError
from .numerics import hermitian_solve

_UNIT_TOL = 1e-12


@dataclass(frozen=True)
class SinrReport:
    """Per-stream SINR and its signal and interference powers (linear
    units); the noise term is the noise power the caller passed."""

    gammas: np.ndarray
    desired: np.ndarray
    isi: np.ndarray
    inter_stream: np.ndarray

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


def _path_power(support: PathResponses, powers: np.ndarray) -> np.ndarray:
    """|alpha_k|^2 with an axis for each budget axis of ``powers``, so that it
    broadcasts over their (trials..., budgets..., L) shape."""
    g2 = np.abs(support.gains) ** 2
    return g2.reshape(g2.shape[:-1] + (1,) * (powers.ndim - g2.ndim) + g2.shape[-1:])


def _launched(support: PathResponses, powers) -> np.ndarray:
    """launched[..., k, l'] = p_l' |a_{T,k}^H w_l'|^2: stream l' launched into path k."""
    coupling = np.abs(support.tx.conj() @ mrt_precoders(support).T) ** 2
    return np.asarray(powers, dtype=float)[..., None, :] * coupling


def mmse_combiners(support: PathResponses, powers, noise: float) -> np.ndarray:
    """Per-stream MMSE combiners v_l proportional to C_l^{-1} a_{R,l}.

    C_l, the ISI and inter-stream interference of stream l plus noise, is
    C = A^T diag(t) A^* + sigma^2 I (A the L x M_S receive responses, t_k
    all power through path k) less stream l's desired term, so by the
    matrix inversion lemma C_l^{-1} a_{R,l} is a positive multiple of
    C^{-1} a_{R,l}. With the thin QR A^T = Q R (r = min(L, M_S)) that is
    Q (R diag(t) R^H + sigma^2 I_r)^{-1} R e_l: one r x r system per budget,
    with the L columns of R as right-hand sides. ``PathResponses.cores``
    does not keep the basis Q, so this is the one other path-space
    factorization. ``powers`` has the gains' leading axes followed by any
    budget axes, (..., L); the result is (..., L, M_S). A system still
    singular in double precision, or a combiner direction whose norm is
    zero or not finite (at budgets so large that the solution underflows),
    raises NumericalError.
    """
    powers = np.asarray(powers, dtype=float)
    through = _path_power(support, powers) * _launched(support, powers).sum(axis=-1)
    q, r = np.linalg.qr(support.rx.T)
    cov = (r * through[..., None, :]) @ r.conj().T + noise * np.eye(r.shape[0])
    rhs = np.broadcast_to(r, cov.shape[:-2] + r.shape)
    directions = hermitian_solve(cov, rhs).swapaxes(-2, -1) @ q.T
    norms = np.linalg.norm(directions, axis=-1, keepdims=True)
    if not np.all((norms > 0) & np.isfinite(norms)):
        raise NumericalError("an MMSE combiner direction has zero or non-finite norm")
    return directions / norms


def pdm_sinr(support: PathResponses, combiners, powers, noise: float) -> SinrReport:
    """Exact analytic per-stream SINR under per-path MRT precoding.

    Stream l' reaches detector l via path k with power |alpha_k|^2
    |v_l^H a_{R,k}|^2 p_l' |a_{T,k}^H w_{l'}|^2; desired is (l, l, l), ISI
    collects k != l for stream l, inter-stream all paths of every other
    stream. ``powers`` has the gains' leading axes followed by any budget
    axes, (..., L), and ``combiners`` is (L, M_S) or (..., L, M_S); every
    report field has the broadcast shape (..., L).
    """
    combiners = np.asarray(combiners)
    powers = np.asarray(powers, dtype=float)
    streams = (support.num_paths,)
    if powers.shape[-1:] != streams or combiners.shape[-2:-1] != streams:
        raise InvalidInputError("PDM expects one stream per path")
    if np.any(np.abs(np.linalg.norm(combiners, axis=-1) - 1.0) > _UNIT_TOL):
        raise InvalidInputError("every combiner must be unit-norm")
    if np.any(powers < 0):
        raise InvalidInputError("stream powers must be non-negative")
    # reach[..., l, k] = |alpha_k|^2 |v_l^H a_{R,k}|^2: path k at detector l.
    alpha2 = _path_power(support, powers)[..., None, :]
    reach = alpha2 * np.abs(combiners.conj() @ support.rx.T) ** 2
    launched = _launched(support, powers)
    own = reach * launched.swapaxes(-2, -1)  # own[..., l, k]: stream l via path k
    desired = np.diagonal(own, axis1=-2, axis2=-1)
    # Masked sums, not totals minus the desired term: a strong stream's own
    # power would swamp the interference and noise it is compared with.
    off = 1.0 - np.eye(support.num_paths)
    isi = (own * off).sum(axis=-1)
    # others[..., k, l] = sum over l' != l of launched[..., k, l'].
    others = launched @ off
    inter = (reach * others.swapaxes(-2, -1)).sum(axis=-1)
    denom = isi + inter + noise
    with np.errstate(divide="ignore", invalid="ignore"):
        gammas = np.where(denom > 0, desired / np.where(denom > 0, denom, 1.0), np.inf)
    gammas = np.where(desired == 0, 0.0, gammas)
    return SinrReport(gammas=gammas, desired=desired, isi=isi, inter_stream=inter)
