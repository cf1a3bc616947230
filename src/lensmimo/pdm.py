"""Path division multiplexing for arbitrary AoAs/AoDs.

Per-path maximal-ratio transmission (MRT) at the transmitter, per-stream MRC
or MMSE combining at the receiver, and their per-stream SINRs. The
antenna-space SINR decomposition (desired / inter-symbol / inter-stream /
noise) with its symbol-level Monte Carlo check, the inter-path
contamination coefficients and the MRT precoders and MRC and MMSE
combiners themselves are test oracles and live with the tests.

Every function works on PathResponses restricted to the selected antennas
M_S x Q_S (the unions of the ``selection.SupportSets`` masks): row l of its
receive/transmit responses is path l seen by those antennas. Stream l is
sent on path l with the MRT precoder w_l = a_T,l / |a_T,l| and detected at
that path's delay. Both SINRs take the view, the powers and the noise, and
read what the view's rows fix, formed once per sweep: the Grams G[l, m] =
a_l^H a_m (``grams``), which give the MRT couplings |a_T,k^H w_l|^2 =
|G_T[k, l]|^2 / G_T[l, l], and the receive factor A^T = U R, U
orthonormal (``rx_factor``). The gains are of one realization, (L,), or of
a block, (T, L); stream powers carry the same leading axes followed by
any budget axes, (T, B, L) for a block on an SNR grid, and every result
broadcasts over them. Both SINRs are those of a path-space direction x_l
(a_R,l = U R_l): s_l |x_l^H R_l|^2 / (sum_k t_k^(l) |x_l^H R_k|^2 +
sigma^2 |x_l|^2), s_l the power stream l sends through path l and
t_k^(l) all other power through path k. MRC's x_l = R_l / |R_l| does not
depend on the powers; MMSE's maximizes the ratio, which is then the form
s_l a_R,l^H C_l^{-1} a_R,l of stream l's interference plus noise
covariance C_l (Tse and Viswanath, Fundamentals of Wireless
Communication, 2005, sec. 8.3).
"""
from __future__ import annotations

import numpy as np

from .channel import PathResponses
from .errors import DegenerateInputError, InvalidInputError
from .numerics import normalized_solve


def sum_rate(gammas) -> np.ndarray:
    """Achievable sum rate sum_l log2(1 + gamma_l) in bps/Hz, one value per
    leading index of the (..., L) SINRs."""
    return (np.log1p(gammas) / np.log(2.0)).sum(axis=-1)


def _launched(support: PathResponses, powers, noise) -> tuple[np.ndarray, ...]:
    """The checked powers p (..., L), the power a watt of stream l launches
    into path l, |alpha_l|^2 G_T[l, l] (broadcast with p), and the powers
    launched into the paths, [..., k, l'] = |alpha_k|^2 p_l' |a_T,k^H
    w_l'|^2, with MRT couplings |G_T[k, l']|^2 / G_T[l', l']."""
    powers = np.asarray(powers, dtype=float)
    if powers.shape[-1:] != (support.num_paths,):
        raise InvalidInputError("PDM expects one stream per path")
    if not np.all((powers >= 0) & (powers < np.inf)):  # NaN fails both
        raise InvalidInputError("stream powers must be finite and non-negative")
    if not 0.0 < noise < np.inf:  # NaN fails too
        raise InvalidInputError(f"the noise power must be positive and finite, got {noise:g}")
    gram = support.grams[1]
    norms = gram.diagonal(0, -2, -1).real
    if not norms.all():
        raise DegenerateInputError("zero restricted response; cannot form MRT precoder")
    coupling = np.abs(gram) ** 2 / norms[..., None, :]
    g2 = np.abs(support.gains) ** 2  # |alpha_k|^2, with an axis for each budget axis
    g2 = g2.reshape(g2.shape[:-1] + (1,) * (powers.ndim - g2.ndim) + g2.shape[-1:])
    own = np.diagonal(coupling, axis1=-2, axis2=-1) * g2
    return powers, own, powers[..., None, :] * coupling * g2[..., None]


def mrc_sinr(support: PathResponses, powers, noise: float) -> np.ndarray:
    """Per-stream SINR of PDM-MRC detection, v_l = a_R,l / |a_R,l|: that of
    the path-space direction x_l = R_l / |R_l|, whose reach |R_l^H R_k|^2 /
    |R_l|^2 is |G_R[l, k]|^2 / G_R[l, l]. An unreceived path (R_l = 0) has
    SINR 0. ``powers`` is (..., L), the gains' leading axes then any budget
    axes, as is the result; ``noise`` is positive and finite.
    """
    powers, own, launched = _launched(support, powers, noise)
    gram = support.grams[0]
    norms = gram.diagonal(0, -2, -1).real
    reach = np.abs(gram) ** 2 / np.where(norms > 0, norms, 1.0)[..., :, None]
    return _sinr(powers, own, launched, reach, noise)


def mmse_sinr(support: PathResponses, powers, noise: float) -> np.ndarray:
    """Per-stream SINR of PDM-MMSE detection, with no M_S-long combiner.

    Stream l's interference plus noise covariance in the path space of A^T
    = U R (``PathResponses.rx_factor``) is C_l = R
    diag(t^(l)) R^H + sigma^2 I, t_k^(l) = |alpha_k|^2 sum_l' p_l'
    |a_T,k^H w_l'|^2 over every (k, l') but (l, l). Its MMSE direction
    C_l^{-1} R_l is parallel to x_l = C^{-1} R_l, C that of everything
    received (the matrix inversion lemma): one factor per trial and budget
    for every stream, and a C_l singular in double precision (where path l
    carries no interference) is never factored. gamma_l = s_l R_l^H
    C_l^{-1} R_l is taken as the SINR of x_l, s_l |x_l^H R_l|^2 / (sum_k
    t_k^(l) |x_l^H R_k|^2 + sigma^2 |x_l|^2), s_l the (l, l) term:
    non-negative sums, stationary at the optimum, so x_l's rounding enters
    squared, unlike in the form itself or in 1 - s u from C. ``powers`` is
    (..., L), the gains' leading axes then any budget axes, as is the
    result; ``noise`` is positive and finite. A singular C raises
    NumericalError.
    """
    powers, own, launched = _launched(support, powers, noise)
    r = support.rx_factor
    if not r.imag.any():  # real receive rows (the lens responses): real products
        r = r.real
    m = r.shape[0]
    total = _sum_last(launched)
    cov = noise * np.eye(m).ravel()
    # C = R diag(total) R^H + sigma^2 I, one path's outer product R_k R_k^H at a time.
    for k, row in enumerate((r[:, None, :] * r.conj()).reshape(-1, r.shape[1]).T):
        cov = cov + total[..., k, None] * row
    x = normalized_solve(cov.reshape(cov.shape[:-1] + (1, m, m)), r.T)
    reach = np.abs(x.conj() @ r) ** 2  # reach[..., l, k] = |x_l^H R_k|^2
    return _sinr(powers, own, launched, reach, noise * _sum_last(np.abs(x) ** 2))


def _sinr(powers, own, launched: np.ndarray, reach: np.ndarray, noise) -> np.ndarray:
    """s_l |x_l^H R_l|^2 / (sum_k t_k^(l) |x_l^H R_k|^2 + sigma^2 |x_l|^2) of
    launched[..., k, l'] = |alpha_k|^2 p_l' |a_T,k^H w_l'|^2 (s_l its (l, l)
    entry, t_k^(l) the sum of its row k but (l, l)), reach[..., l, k] =
    |x_l^H R_k|^2 and noise = sigma^2 |x_l|^2, broadcast together, with
    s_l = powers[..., l] own[..., l]."""
    # through[..., l, k] = t_k^(l): masked sums, not totals less stream l's
    # own term, which could swamp the interference it is compared with.
    eye = np.eye(launched.shape[-1])
    through = _sum_last(launched[..., None, :, :] * (1.0 - eye[:, :, None] * eye[:, None, :]))
    interference = _sum_last(through * reach) + noise
    # p_l multiplies last: a subnormal p_l leaves the SINR one rounding
    # off, not the many of a subnormal s_l times |x_l^H R_l|^2.
    signal = own * np.diagonal(reach, axis1=-2, axis2=-1)
    # With sigma > 0, 0 / 0 only where R_l = 0: that stream is not received.
    return powers * (signal / np.where(interference > 0, interference, 1.0))


def _sum_last(terms: np.ndarray) -> np.ndarray:
    """terms.sum(axis=-1) added term by term in order: for a few terms
    several times faster than numpy's reduction."""
    total = terms[..., 0]
    for j in range(1, terms.shape[-1]):
        total = total + terms[..., j]
    return total
