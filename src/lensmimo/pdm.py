"""Path division multiplexing for arbitrary AoAs/AoDs.

Per-path maximal-ratio transmission (MRT) at the transmitter, per-stream MRC
or MMSE combining at the receiver, and their per-stream SINRs. The
antenna-space SINR decomposition (desired / inter-symbol / inter-stream /
noise) with its symbol-level Monte Carlo check, the inter-path
contamination coefficients and the MRC and MMSE combiners themselves are
test oracles and live with the tests.

Every function works on PathResponses restricted to the selected antennas
M_S x Q_S (the unions of the ``selection.SupportSets`` masks): row l of its
receive/transmit responses is path l seen by those antennas. Stream l is
sent on path l with the MRT precoder of that path and detected at that
path's delay. The MRT couplings |a_T,k^H w_l|^2, the R factor of the thin
QR of the receive rows with its outer-product table, and the MRC reach
table (a ``Beamformers``, from ``beamformers``) depend only on the rows,
so they are formed once for every realization and budget, and a sweep
forms them once for all its blocks; ``mrc_sinr`` and ``mmse_sinr`` take
them as an argument. The gains are of one realization, (L,), or of a
block, (T, L); stream powers carry the same leading axes followed by any
budget axes, (T, B, L) for a block on an SNR grid, and every result
broadcasts over them. Both SINRs are those of a path-space direction x_l
(a_R,l = Q R_l): s_l |x_l^H R_l|^2 / (sum_k t_k^(l) |x_l^H R_k|^2 +
sigma^2 |x_l|^2), s_l the power stream l sends through path l and
t_k^(l) all other power through path k. MRC's x_l = R_l / |R_l| does not
depend on the powers; MMSE's maximizes the ratio, which is then the form
s_l a_R,l^H C_l^{-1} a_R,l of stream l's interference plus noise
covariance C_l (Tse and Viswanath, Fundamentals of Wireless
Communication, 2005, sec. 8.3).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import PathResponses
from .errors import DegenerateInputError, InvalidInputError
from .numerics import normalized_solve


def sum_rate(gammas) -> np.ndarray:
    """Achievable sum rate sum_l log2(1 + gamma_l) in bps/Hz, one value per
    leading index of the (..., L) SINRs."""
    return (np.log1p(gammas) / np.log(2.0)).sum(axis=-1)


def _normalized_rows(rows: np.ndarray, what: str) -> np.ndarray:
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms == 0):
        raise DegenerateInputError(f"zero restricted response; cannot form {what}")
    return rows / norms[:, None]


def mrt_precoders(support: PathResponses) -> np.ndarray:
    """Unit-norm per-path MRT precoders over Q_S (exact normalization)."""
    return _normalized_rows(support.tx, "MRT precoder")


@dataclass(frozen=True)
class Beamformers:
    """What the SINRs read of a support view's rows alone, the same for
    every realization on that view."""

    coupling: np.ndarray  # (L, L): coupling[k, l] = |a_T,k^H w_l|^2, w the MRT precoders
    r: np.ndarray  # (r, L): A^T = Q R, the thin QR of the receive rows A, r = min(L, M_S)
    outer: np.ndarray  # (L, r * r): outer[k, i r + j] = R_ik conj(R_jk)
    mrc_reach: np.ndarray  # (L, L): |R_l^H R_k|^2 / |R_l|^2 at [l, k], row l 0 where R_l = 0


def beamformers(support: PathResponses) -> Beamformers:
    """The ``Beamformers`` of a support view. Real receive rows (the lens
    responses) give a real R, and real products downstream."""
    coupling = np.abs(support.tx.conj() @ mrt_precoders(support).T) ** 2
    r = np.linalg.qr(support.rx.T, mode="r")
    if not r.imag.any():
        r = r.real
    outer = (r[:, None, :] * r.conj()).reshape(-1, r.shape[1]).T.copy()
    inner = r.conj().T @ r  # inner[l, k] = R_l^H R_k = a_R,l^H a_R,k
    norms = inner.diagonal().real
    mrc_reach = np.abs(inner) ** 2 / np.where(norms > 0, norms, 1.0)[:, None]
    return Beamformers(coupling=coupling, r=r, outer=outer, mrc_reach=mrc_reach)


def _path_power(support: PathResponses, powers: np.ndarray) -> np.ndarray:
    """|alpha_k|^2 with an axis for each budget axis of ``powers``, so that it
    broadcasts over their (trials..., budgets..., L) shape."""
    g2 = np.abs(support.gains) ** 2
    return g2.reshape(g2.shape[:-1] + (1,) * (powers.ndim - g2.ndim) + g2.shape[-1:])


def _launched(coupling: np.ndarray, powers) -> np.ndarray:
    """launched[..., k, l'] = p_l' |a_{T,k}^H w_l'|^2: stream l' launched into path k."""
    return np.asarray(powers, dtype=float)[..., None, :] * coupling


def _checked_powers(support: PathResponses, powers) -> np.ndarray:
    powers = np.asarray(powers, dtype=float)
    if powers.shape[-1:] != (support.num_paths,):
        raise InvalidInputError("PDM expects one stream per path")
    if not np.all((powers >= 0) & (powers < np.inf)):  # NaN fails both
        raise InvalidInputError("stream powers must be finite and non-negative")
    return powers


def mrc_sinr(support: PathResponses, powers, noise: float, beams: Beamformers) -> np.ndarray:
    """Per-stream SINR of PDM-MRC detection, v_l = a_R,l / |a_R,l|: that of
    the path-space direction x_l = R_l / |R_l|, whose reach is the geometry's
    ``beams.mrc_reach``. An unreceived path (R_l = 0) has SINR 0. ``powers``
    is (..., L), the gains' leading axes then any budget axes, as is the
    result; ``noise`` is positive.
    """
    powers = _checked_powers(support, powers)
    launched = _launched(beams.coupling, powers) * _path_power(support, powers)[..., None]
    return _sinr(launched, beams.mrc_reach, noise)


def mmse_sinr(support: PathResponses, powers, noise: float, beams: Beamformers) -> np.ndarray:
    """Per-stream SINR of PDM-MMSE detection, with no M_S-long combiner.

    Stream l's interference plus noise covariance in the path space of A^T
    = Q R is C_l = R diag(t^(l)) R^H + sigma^2 I, t_k^(l) = |alpha_k|^2
    sum_l' p_l' |a_T,k^H w_l'|^2 over every (k, l') but (l, l). Its MMSE
    direction C_l^{-1} R_l is parallel to x_l = C^{-1} R_l, C that of
    everything received (the matrix inversion lemma): one factor per trial
    and budget for every stream, and a C_l singular in double precision
    (where path l carries no interference) is never factored. gamma_l =
    s_l R_l^H C_l^{-1} R_l is taken as the SINR of x_l, s_l |x_l^H R_l|^2 /
    (sum_k t_k^(l) |x_l^H R_k|^2 + sigma^2 |x_l|^2), s_l the (l, l) term:
    non-negative sums, stationary at the optimum, so x_l's rounding enters
    squared, unlike in the form itself or in 1 - s u from C. ``powers`` is
    (..., L), the gains' leading axes then any budget axes, as is the
    result. A singular C raises NumericalError.
    """
    powers = _checked_powers(support, powers)
    launched = _launched(beams.coupling, powers) * _path_power(support, powers)[..., None]
    r, m = beams.r, beams.r.shape[0]
    total = _sum_last(launched)
    cov = noise * np.eye(m).ravel()
    for k, row in enumerate(beams.outer):  # C = R diag(total) R^H + sigma^2 I
        cov = cov + total[..., k, None] * row
    x = normalized_solve(cov.reshape(cov.shape[:-1] + (1, m, m)), r.T)
    reach = np.abs(x.conj() @ r) ** 2  # reach[..., l, k] = |x_l^H R_k|^2
    return _sinr(launched, reach, noise * _sum_last(np.abs(x) ** 2))


def _sinr(launched: np.ndarray, reach: np.ndarray, noise) -> np.ndarray:
    """s_l |x_l^H R_l|^2 / (sum_k t_k^(l) |x_l^H R_k|^2 + sigma^2 |x_l|^2) of
    launched[..., k, l'] = |alpha_k|^2 p_l' |a_T,k^H w_l'|^2 (s_l its (l, l)
    entry, t_k^(l) the sum of its row k but (l, l)), reach[..., l, k] =
    |x_l^H R_k|^2 and noise = sigma^2 |x_l|^2, broadcast together."""
    # through[..., l, k] = t_k^(l): masked sums, not totals less stream l's
    # own term, which could swamp the interference it is compared with.
    own = np.eye(launched.shape[-1])
    through = _sum_last(launched[..., None, :, :] * (1.0 - own[:, :, None] * own[:, None, :]))
    signal = np.diagonal(launched * reach, axis1=-2, axis2=-1)
    interference = _sum_last(through * reach) + noise
    # With sigma > 0, 0 / 0 only where R_l = 0: that stream is not received.
    return signal / np.where(interference > 0, interference, 1.0)


def _sum_last(terms: np.ndarray) -> np.ndarray:
    """terms.sum(axis=-1) added term by term in order: for a few terms
    several times faster than numpy's reduction."""
    total = terms[..., 0]
    for j in range(1, terms.shape[-1]):
        total = total + terms[..., j]
    return total
