"""Path division multiplexing for arbitrary AoAs/AoDs.

Per-path maximal-ratio transmission (MRT) at the transmitter, per-stream MRC
or MMSE combining at the receiver, and the exact per-stream SINR
decomposition (desired / inter-symbol / inter-stream / noise). The
symbol-level Monte Carlo check of that decomposition, the inter-path
contamination coefficients and the MMSE combiners themselves are test
oracles and live with the tests.

Every function works on PathResponses restricted to the selected antennas
M_S x Q_S (the unions of the ``selection.SupportSets`` masks): row l of its
receive/transmit responses is path l seen by those antennas. Stream l is
sent on path l with the MRT precoder of that path and detected at that
path's delay. The MRC combiners, the MRT couplings |a_T,k^H w_l|^2 and
the R factor of the thin QR of the receive rows with its outer-product
table (the last two a ``Beamformers``, from ``beamformers``) depend only on
the rows, so they are formed once for every realization and budget, and a
sweep forms them once for all its blocks; ``mmse_sinr`` and ``pdm_sinr``
take them as an argument. The gains are of one realization, (L,), or of a
block, (T, L); stream powers carry the same leading axes followed by any
budget axes, (T, B, L) for a block on an SNR grid, and every result
broadcasts over them. The MMSE SINR is the form s_l a_{R,l}^H C_l^{-1}
a_{R,l} of stream l's interference plus noise covariance C_l (Tse and
Viswanath, Fundamentals of Wireless Communication, 2005, sec. 8.3.3).

All SINRs here use exactly normalized beamformers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import PathResponses
from .errors import DegenerateInputError, InvalidInputError
from .numerics import normalized_solve

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
        return sum_rate(self.gammas)


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


def mrc_combiners(support: PathResponses) -> np.ndarray:
    """Unit-norm per-path MRC combiners over M_S."""
    return _normalized_rows(support.rx, "MRC combiner")


@dataclass(frozen=True)
class Beamformers:
    """What the SINRs read of a support view's rows alone, the same for
    every realization on that view."""

    coupling: np.ndarray  # (L, L): coupling[k, l] = |a_T,k^H w_l|^2, w the MRT precoders
    r: np.ndarray  # (r, L): A^T = Q R, the thin QR of the receive rows A, r = min(L, M_S)
    outer: np.ndarray  # (L, r * r): outer[k, i r + j] = R_ik conj(R_jk)


def beamformers(support: PathResponses) -> Beamformers:
    """The ``Beamformers`` of a support view. Real receive rows (the lens
    responses) give a real R, and real products downstream."""
    coupling = np.abs(support.tx.conj() @ mrt_precoders(support).T) ** 2
    r = np.linalg.qr(support.rx.T, mode="r")
    if not r.imag.any():
        r = r.real
    outer = (r[:, None, :] * r.conj()).reshape(-1, r.shape[1]).T.copy()
    return Beamformers(coupling=coupling, r=r, outer=outer)


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
    if np.any(powers < 0):
        raise InvalidInputError("stream powers must be non-negative")
    return powers


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
    # launched[..., k, l'] = |alpha_k|^2 p_l' |a_T,k^H w_l'|^2.
    launched = _launched(beams.coupling, powers) * _path_power(support, powers)[..., None]
    r, m = beams.r, beams.r.shape[0]
    total = _sum_last(launched)
    cov = noise * np.eye(m).ravel()
    for k, row in enumerate(beams.outer):  # C = R diag(total) R^H + sigma^2 I
        cov = cov + total[..., k, None] * row
    x = normalized_solve(cov.reshape(cov.shape[:-1] + (1, m, m)), r.T)
    reach = np.abs(x.conj() @ r) ** 2  # reach[..., l, k] = |x_l^H R_k|^2
    # through[..., l, k] = t_k^(l): masked sums, not totals less stream l's
    # own term, which could swamp the interference it is compared with.
    own = np.eye(support.num_paths)
    through = _sum_last(launched[..., None, :, :] * (1.0 - own[:, :, None] * own[:, None, :]))
    signal = np.diagonal(launched * reach, axis1=-2, axis2=-1)
    interference = _sum_last(through * reach) + noise * _sum_last(np.abs(x) ** 2)
    # 0 / 0 only where R_l = 0: that stream is not received.
    return signal / np.where(interference > 0, interference, 1.0)


def _sum_last(terms: np.ndarray) -> np.ndarray:
    """terms.sum(axis=-1) added term by term in order: for a few terms
    several times faster than numpy's reduction."""
    total = terms[..., 0]
    for j in range(1, terms.shape[-1]):
        total = total + terms[..., j]
    return total


def pdm_sinr(
    support: PathResponses, combiners, powers, noise: float, beams: Beamformers
) -> SinrReport:
    """Exact analytic per-stream SINR under per-path MRT precoding.

    Stream l' reaches detector l via path k with power |alpha_k|^2
    |v_l^H a_{R,k}|^2 p_l' |a_{T,k}^H w_{l'}|^2; desired is (l, l, l), ISI
    collects k != l for stream l, inter-stream all paths of every other
    stream. ``powers`` has the gains' leading axes followed by any budget
    axes, (..., L), and ``combiners`` is (L, M_S) or (..., L, M_S); every
    report field has the broadcast shape (..., L). ``beams`` are
    ``beamformers(support)``.
    """
    combiners = np.asarray(combiners)
    powers = _checked_powers(support, powers)
    if combiners.shape[-2:-1] != (support.num_paths,):
        raise InvalidInputError("PDM expects one stream per path")
    if np.any(np.abs(np.linalg.norm(combiners, axis=-1) - 1.0) > _UNIT_TOL):
        raise InvalidInputError("every combiner must be unit-norm")
    # reach[..., l, k] = |alpha_k|^2 |v_l^H a_{R,k}|^2: path k at detector l.
    alpha2 = _path_power(support, powers)[..., None, :]
    reach = alpha2 * np.abs(combiners.conj() @ support.rx.T) ** 2
    launched = _launched(beams.coupling, powers)
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
