"""Reference computations the tests check the package against.

Dense forms of the factored channel (the tapped delay line and the
narrowband matrix, as sums of per-path outer products), the paper's
antenna indices m of a support mask row, the PDM support view, the
inter-path contamination coefficients of the PDM support view, and a
symbol-level Monte Carlo measurement of the PDM SINR decomposition. None
of them feeds a sweep, so they live here and not in the package. Three more keep the per-element,
per-trial and per-matrix forms of kernels the package batches: the OFDM
subcarrier coefficients, the antenna ranking of the power-based selection,
and the subcarrier eigen-gains by one LAPACK eigensolve per subcarrier;
the characteristic polynomials of Hermitian matrices as sums of principal
minors.
The water-filling rate as a per-budget sum of one log1p per channel, its
threshold search by one ``searchsorted`` per link, the random draws of one
realization at a time and of a block by five draws per generator, the
antenna-level forms of the selection (a sort
of every antenna, the antennas of azimuth picks, and a picked link of one
row per picked antenna) keep the forms the package had before it shared
or reduced that work. The PDM SINRs keep their antenna-space long form:
the MRT precoders a_T,l / |a_T,l| with their couplings, the MRC combiners
a_R,l / |a_R,l| and the PDM-MMSE combiners, from one
Hermitian solve per realization and budget in path space, each M_S long,
scored by ``pdm_sinr``, the exact per-stream decomposition into desired,
inter-symbol and inter-stream power of any unit-norm combiners, which
``simulate_symbols`` measures symbol by symbol. ``pdm.mrc_sinr`` and
``pdm.mmse_sinr`` take the same SINRs in path space with no combiner.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from lensmimo.channel import (
    DELAY_POWER_EXPONENT,
    MEAN_PATHLOSS_DB,
    PER_PATH_SHADOWING_STD_DB,
    SHADOWING_STD_DB,
    PathResponses,
)
from lensmimo.errors import DegenerateInputError, InvalidInputError, NumericalError
from lensmimo.numerics import RANK_TOL, water_fill
from lensmimo.pdm import sum_rate
from lensmimo.upa import ofdm_capacity


class StatisticalValidityError(InvalidInputError):
    """Too few Monte Carlo samples for a statistically meaningful result."""


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


def _path_power(support, powers: np.ndarray) -> np.ndarray:
    """|alpha_k|^2 with an axis for each budget axis of ``powers``, so that it
    broadcasts over their (trials..., budgets..., L) shape."""
    g2 = np.abs(support.gains) ** 2
    return g2.reshape(g2.shape[:-1] + (1,) * (powers.ndim - g2.ndim) + g2.shape[-1:])


def _normalized_rows(rows: np.ndarray, what: str) -> np.ndarray:
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms == 0):
        raise DegenerateInputError(f"zero restricted response; cannot form {what}")
    return rows / norms[:, None]


def mrt_precoders(support: PathResponses) -> np.ndarray:
    """Unit-norm per-path MRT precoders over Q_S (exact normalization)."""
    return _normalized_rows(support.tx, "MRT precoder")


def mrt_launched(support, powers) -> np.ndarray:
    """launched[..., k, l'] = p_l' |a_{T,k}^H w_l'|^2, stream l' launched
    into path k, of the antenna-space MRT precoders w."""
    coupling = np.abs(support.tx.conj() @ mrt_precoders(support).T) ** 2
    return np.asarray(powers, dtype=float)[..., None, :] * coupling


def mrc_combiners(support) -> np.ndarray:
    """Unit-norm per-path MRC combiners over M_S."""
    return _normalized_rows(support.rx, "MRC combiner")


def pdm_sinr(support, combiners, powers, noise: float) -> SinrReport:
    """Exact analytic per-stream SINR under per-path MRT precoding.

    Stream l' reaches detector l via path k with power |alpha_k|^2
    |v_l^H a_{R,k}|^2 p_l' |a_{T,k}^H w_{l'}|^2; desired is (l, l, l), ISI
    collects k != l for stream l, inter-stream all paths of every other
    stream. ``powers`` has the gains' leading axes followed by any budget
    axes, (..., L), and ``combiners`` is (L, M_S) or (..., L, M_S); every
    report field has the broadcast shape (..., L). The MRT couplings are
    those of the antenna-space precoders (``mrt_launched``).
    """
    combiners = np.asarray(combiners)
    powers = np.asarray(powers, dtype=float)
    if combiners.shape[-2:-1] + powers.shape[-1:] != (support.num_paths,) * 2:
        raise InvalidInputError("PDM expects one stream per path")
    if not np.all((powers >= 0) & (powers < np.inf)):
        raise InvalidInputError("stream powers must be finite and non-negative")
    if np.any(np.abs(np.linalg.norm(combiners, axis=-1) - 1.0) > _UNIT_TOL):
        raise InvalidInputError("every combiner must be unit-norm")
    # reach[..., l, k] = |alpha_k|^2 |v_l^H a_{R,k}|^2: path k at detector l.
    alpha2 = _path_power(support, powers)[..., None, :]
    reach = alpha2 * np.abs(combiners.conj() @ support.rx.T) ** 2
    launched = mrt_launched(support, powers)
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


def ofdm_coefficients(gains, delays, subcarriers):
    """(..., N, L) subcarrier coefficients alpha_l e^{-j 2 pi k n_l / N} of
    (..., L) gains and integer delays, one complex exponential per entry:
    -2j pi (k n_l), divided by N, exponentiated, then alpha_l times it."""
    n = subcarriers
    coeffs = np.multiply(-2j * np.pi, np.arange(n)[:, None] * delays[..., None, :])
    coeffs /= n
    np.exp(coeffs, out=coeffs)
    np.multiply(gains[..., None, :], coeffs, out=coeffs)
    return coeffs


def eigvalsh_subcarrier_gains(responses, coeffs):
    """The (..., N, r) subcarrier eigen-gains of the cores of ``coeffs`` by
    one LAPACK eigensolve per subcarrier: eigvalsh of the Gram of each core
    on its smaller side, r = min(r_R, r_T), descending, clipped at 0, and
    under the RANK_TOL rule of ``eigen_gains`` on the singular values."""
    cores = responses.cores(coeffs)
    if cores.shape[-2] > cores.shape[-1]:
        cores = cores.conj().swapaxes(-1, -2)
    gains = np.maximum(np.linalg.eigvalsh(cores @ cores.conj().swapaxes(-1, -2))[..., ::-1], 0.0)
    return np.where(gains < RANK_TOL**2 * gains[..., :1], 0.0, gains)


def principal_minor_sums(mats):
    """(..., r) coefficients e_1 ... e_r of the characteristic polynomials
    of (..., r, r) Hermitian matrices: the sums of their principal j x j
    minors, each a Leibniz sum (np.linalg.det goes through a logarithm,
    which loses digits at extreme scales)."""
    def det(a):
        j = a.shape[-1]
        return sum(
            (-1) ** sum(x > y for x, y in itertools.combinations(perm, 2))
            * np.prod([a[..., i, k] for i, k in enumerate(perm)], axis=0)
            for perm in itertools.permutations(range(j))
        ).real

    r = mats.shape[-1]
    e = [
        sum(det(mats[..., s, :][..., s]) for s in itertools.combinations(range(r), j))
        for j in range(1, r + 1)
    ]
    return np.stack(e, axis=-1)


def rank_per_trial(energy, z_rx, z_tx, n_rx_rf, n_tx_rf):
    """The power-based antenna picks of (..., n_y,R, n_y,T) tap energies
    (one antenna per azimuth index on each side), one trial at a time:
    rows by descending row power over the full transmit rows, then columns
    by descending power over the picked rows, ties to the lower index."""
    n_rx, n_tx = energy.shape[-2] * z_rx, energy.shape[-1] * z_tx
    rows = np.empty(energy.shape[:-2] + (n_rx_rf,), dtype=int)
    cols = np.empty(energy.shape[:-2] + (n_tx_rf,), dtype=int)
    for t in np.ndindex(energy.shape[:-2]):
        row_power = np.repeat(np.repeat(energy[t], z_tx, axis=-1).sum(axis=-1), z_rx)
        rows[t] = np.sort(np.lexsort((np.arange(n_rx), -row_power))[:n_rx_rf])
        col_power = np.repeat(energy[t][rows[t] // z_rx].sum(axis=0), z_tx)
        cols[t] = np.sort(np.lexsort((np.arange(n_tx), -col_power))[:n_tx_rf])
    return rows, cols


def strongest_antennas(power, z, k):
    """The k antennas of largest power, ascending, ties to the lower
    antenna, for the (..., n_y) powers of azimuth indices of z antennas
    each: a stable sort of the n_y * z antennas' repeated powers."""
    antennas = np.argsort(-np.repeat(power, z, axis=-1), axis=-1, kind="stable")
    return np.sort(antennas[..., :k], axis=-1)


def antennas(index, count, z):
    """The ascending (..., k) antenna picks of (..., g) picked azimuth
    indices of z antennas each and their pick counts: the count lowest
    antennas i*z, i*z + 1, ... of each index i."""
    g = index.shape[-1]
    flat = [
        np.concatenate([i * z + np.arange(m) for i, m in zip(row, counts)])
        for row, counts in zip(index.reshape(-1, g), count.reshape(-1, g))
    ]
    return np.array(flat).reshape(index.shape[:-1] + (-1,))


def antenna_link_rates(responses, rows, cols, budgets, noise, ofdm):
    """(T, B) UPA-OFDM rates of the picked antennas' link with one response
    row per picked antenna, ``responses.restrict(rows, cols)``."""
    return ofdm_capacity(responses.restrict(rows, cols), budgets, noise, ofdm)


def water_levels_by_search(g, b, noise):
    """``numerics._water_levels`` with one ``searchsorted`` of the budgets
    per link for the active counts, in place of one search of every link
    at once: the same five arrays."""
    n = g.shape[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        floors = noise / g.reshape(-1, n)
        ranked = np.sort(floors, axis=-1)
        lowest = ranked[:, :1]
        d = ranked - lowest
        thresholds = np.empty_like(d)
        thresholds[:, 0] = 0.0
        steps = np.multiply(np.arange(1, n), d[:, 1:] - d[:, :-1], out=thresholds[:, 1:])
        np.add.accumulate(steps, axis=-1, out=steps)
    flat = b.reshape(-1)
    active = np.empty((len(d), flat.size), dtype=np.intp)
    for row, count in zip(thresholds, active):
        count[:] = np.searchsorted(row, flat)
    filled = np.add.accumulate(d, axis=-1)[np.arange(len(d))[:, None], active - 1]
    level = (flat + filled) / active
    return floors, lowest, d, active, level


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


def waterfill_rates(gains, budgets, noise):
    """The water-filling rate of ``numerics.waterfill_capacity`` from the
    powers of ``water_fill``: log2(1 + p_i g_i / noise) per channel, budget
    and link, summed over the channels. A link whose gains are all zero has
    rate 0."""
    g = np.asarray(gains, dtype=float)
    silent = np.all(g == 0, axis=-1, keepdims=True)
    powers = water_fill(np.where(silent, 1.0, g), budgets, noise)
    g = g.reshape(g.shape[:-1] + (1,) * np.ndim(budgets) + g.shape[-1:])
    return (np.log1p(powers * g / noise) / np.log(2.0)).sum(axis=-1)


def draw_one(stats, rng):
    """(L,) gains and delays in s of one realization, all of its arithmetic
    on its own draws, in the order ``channel.sample_paths`` draws them; L is
    the length of the AoD list."""
    num_paths = len(stats.aod_spatial_freqs)
    shadowing = rng.normal(0.0, SHADOWING_STD_DB)
    beta_db = -(MEAN_PATHLOSS_DB + shadowing)
    beta = 10.0 ** (beta_db / 10.0)
    u = rng.random(num_paths)
    z = rng.normal(0.0, PER_PATH_SHADOWING_STD_DB, num_paths)
    raw = u ** (DELAY_POWER_EXPONENT - 1.0) * 10.0 ** (-0.1 * z)
    kappa = raw / raw.sum()
    eta = rng.uniform(0.0, 2.0 * np.pi, num_paths)
    delays = np.sort(rng.uniform(0.0, stats.max_excess_delay_s, num_paths))
    return np.sqrt(beta * kappa) * np.exp(1j * eta), delays


def draw_block_by_five_calls(stats, rngs):
    """(T, L) gains and delays in s of ``channel._draw_block`` in the form
    it had before it filled the block's arrays in place: five draws per
    generator, normal, random, normal and two uniforms, each a new array,
    stacked through tuples, then the same arithmetic on the block."""
    num_paths = len(stats.aod_spatial_freqs)
    draws = [
        (
            rng.normal(0.0, SHADOWING_STD_DB),
            rng.random(num_paths),
            rng.normal(0.0, PER_PATH_SHADOWING_STD_DB, num_paths),
            rng.uniform(0.0, 2.0 * np.pi, num_paths),
            rng.uniform(0.0, stats.max_excess_delay_s, num_paths),
        )
        for rng in rngs
    ]
    shadowing, u, z, eta, delays = zip(*draws)
    beta = np.array([10.0 ** (-(MEAN_PATHLOSS_DB + s) / 10.0) for s in shadowing])
    raw = np.array(u) ** (DELAY_POWER_EXPONENT - 1.0) * 10.0 ** (-0.1 * np.array(z))
    kappa = raw / raw.sum(axis=-1, keepdims=True)
    gains = np.sqrt(beta[:, None] * kappa) * np.exp(1j * np.array(eta))
    return gains, np.sort(np.array(delays), axis=-1)


def hermitian_solve(c, b) -> np.ndarray:
    """Solve C X = B for each Hermitian positive definite C of a (..., m, m)
    stack, with k right-hand sides as the columns of B, of shape (..., m, k).

    Raises NumericalError if any matrix of the stack is singular or
    indefinite in double precision.
    """
    cm = np.asarray(c, dtype=complex)
    bm = np.asarray(b, dtype=complex)
    if cm.ndim < 2 or cm.shape[-1] != cm.shape[-2] or bm.shape[:-1] != cm.shape[:-1]:
        raise InvalidInputError("hermitian_solve expects C of (..., m, m) and B of (..., m, k)")
    if not (np.all(np.isfinite(cm)) and np.all(np.isfinite(bm))):
        raise InvalidInputError("hermitian_solve input contains non-finite entries")
    # Frobenius norms of each matrix scaled by its largest entry, so that
    # squaring entries beyond 1e154 cannot overflow.
    peak = np.abs(cm).max(axis=(-2, -1), keepdims=True)
    unit = cm / np.where(peak > 0, peak, 1.0)
    scale = np.linalg.norm(unit, axis=(-2, -1))
    skew = np.linalg.norm(unit - unit.conj().swapaxes(-2, -1), axis=(-2, -1))
    if np.any(skew > 1e-12 * scale):
        raise InvalidInputError("C is not Hermitian to within 1e-12")
    try:
        np.linalg.cholesky(cm)  # positive definiteness check
        return np.linalg.solve(cm, bm)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"C is singular or indefinite (condition number {np.linalg.cond(cm).max():.3e})"
        ) from exc


def mmse_combiners(support, powers, noise: float) -> np.ndarray:
    """Per-stream MMSE combiners v_l proportional to C_l^{-1} a_{R,l}, whose
    ``pdm_sinr`` is the SINR ``pdm.mmse_sinr`` takes in closed form.

    C_l, the ISI and inter-stream interference of stream l plus noise, is
    C = A^T diag(t) A^* + sigma^2 I (A the L x M_S receive responses, t_k
    all power through path k) less stream l's desired term, so by the
    matrix inversion lemma C_l^{-1} a_{R,l} is a positive multiple of
    C^{-1} a_{R,l}. With the thin QR A^T = Q R (r = min(L, M_S)) that is
    Q (R diag(t) R^H + sigma^2 I_r)^{-1} R e_l: one r x r system per budget,
    with the L columns of R as right-hand sides. ``powers`` has the gains'
    leading axes followed by any budget axes, (..., L); the result is
    (..., L, M_S). The MRT couplings are those of ``mrt_launched``. A
    system still singular in double precision, or a combiner direction
    whose norm is zero or not finite (at budgets so large that the solution
    underflows), raises NumericalError.
    """
    powers = np.asarray(powers, dtype=float)
    through = _path_power(support, powers) * mrt_launched(support, powers).sum(axis=-1)
    q, r = np.linalg.qr(support.rx.T)
    cov = (r * through[..., None, :]) @ r.conj().T + noise * np.eye(r.shape[0])
    rhs = np.broadcast_to(r, cov.shape[:-2] + r.shape)
    directions = hermitian_solve(cov, rhs).swapaxes(-2, -1) @ q.T
    norms = np.linalg.norm(directions, axis=-1, keepdims=True)
    if not np.all((norms > 0) & np.isfinite(norms)):
        raise NumericalError("an MMSE combiner direction has zero or non-finite norm")
    return directions / norms
