"""Reference computations the tests check the package against.

Dense forms of the factored channel (the tapped delay line and the
narrowband matrix, as sums of per-path outer products), the paper's
antenna indices m of a support mask row, the PDM support view, the inter-path contamination
coefficients of the PDM support view, and a symbol-level Monte Carlo
measurement of the PDM SINR decomposition. None of them feeds a sweep, so
they live here and not in the package.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lensmimo.errors import InvalidInputError
from lensmimo.pdm import SinrReport, mrt_precoders


class StatisticalValidityError(InvalidInputError):
    """Too few Monte Carlo samples for a statistically meaningful result."""


def antenna_indices(config, row):
    """The antenna indices m of a boolean mask row over array positions."""
    return tuple(config.element_indices[row].tolist())


def support_view(responses, sets):
    """The responses over the unions M_S x Q_S of the support masks: the view
    the PDM transceivers work on, as a sweep builds it once per block."""
    return responses.restrict(sets.rx.any(axis=0), sets.tx.any(axis=0))


def dense_taps(responses):
    """Tapped delay line: one (delay, matrix) pair per distinct path delay,
    in increasing delay order; paths with equal delay share one tap.

    Each tap adds the rank-1 terms alpha * (a_R a_T^H) to zero in path
    order, alpha the first operand of the product: the arithmetic of the
    antenna selection's tap energies, so the selection can be checked pick
    for pick.
    """
    out = []
    for n in sorted(set(responses.delays.tolist())):
        on = responses.delays == n
        h = np.zeros((responses.rx.shape[1], responses.tx.shape[1]), dtype=complex)
        for alpha, a_r, a_t in zip(responses.gains[on], responses.rx[on], responses.tx[on]):
            term = np.outer(a_r, a_t.conj())
            h += np.multiply(alpha, term, out=term)
        out.append((n, h))
    return tuple(out)


def dense_channel(responses):
    """The narrowband H = sum_l alpha_l a_R,l a_T,l^H (delays ignored)."""
    return np.einsum("l,lm,lq->mq", responses.gains, responses.rx, responses.tx.conj())


@dataclass(frozen=True)
class IpcMatrix:
    """Inter-path contamination coefficients on each link side."""

    rho_t: np.ndarray  # (L, L), symmetric, in [0, 1 + finite-array slack]
    rho_r: np.ndarray


def ipc_coefficients(support, tx, rx) -> IpcMatrix:
    """Transmit/receive inter-path contamination coefficients of the
    support-restricted lens responses.

    rho[l, l'] = |sum over the union subset of the two paths' normalized
    sinc responses|^2; it vanishes for sufficiently separated angles.
    """
    inner_t = (support.tx.conj() @ support.tx.T).real / tx.aperture
    inner_r = (support.rx.conj() @ support.rx.T).real / rx.aperture
    return IpcMatrix(rho_t=inner_t**2, rho_r=inner_r**2)


def simulate_symbols(support, combiners, powers, n_symbols: int, rng, noise: float) -> SinrReport:
    """Symbol-level Monte Carlo SINR measurement.

    Draws i.i.d. unit-variance circular complex Gaussian symbols per stream,
    propagates each signal group (desired / ISI / inter-stream) separately
    through every path at its delay under per-path MRT precoding, samples
    detector l at the delay of path l, and reports empirical powers. Delays
    wrap circularly, which leaves the stationary powers unchanged.
    """
    if n_symbols < 10_000:
        raise StatisticalValidityError("n_symbols must be at least 10^4")
    combiners = np.asarray(combiners)
    powers = np.asarray(powers, dtype=float)
    num_streams = support.num_paths
    if powers.shape != (num_streams,) or combiners.shape[0] != num_streams:
        raise InvalidInputError("PDM expects one stream per path")
    if np.any(powers < 0):
        raise InvalidInputError("stream powers must be non-negative")
    rng = np.random.default_rng(rng)
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
    return SinrReport(gammas=gammas, desired=desired, isi=isi, inter_stream=inter)
