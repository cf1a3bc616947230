"""Sparse multi-path mmWave channel: the stochastic 73 GHz generator (path
loss, shadowing, per-path power fractions) and the factored per-path
response core that every scheme reads. No dense channel matrix or tapped
delay line is built; the tests keep a dense oracle of their own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arrays import LensArrayConfig, UpaConfig
from .errors import InvalidInputError
from .numerics import RANK_TOL

_LN10_OVER_10 = math.log(10.0) / 10.0


@dataclass(frozen=True)
class ChannelStats:
    """Stochastic channel model parameters (73 GHz measurement fit).

    Angle placement: exactly one of (fixed spatial-frequency list, angular
    spread in degrees) must be set per side. With a spread, the L path
    angles are equally spaced in [-spread/2, spread/2].
    """

    pathloss_intercept_db: float = 86.6
    pathloss_exponent: float = 2.45
    shadowing_std_db: float = 8.0
    delay_power_exponent: float = 3.0
    per_path_shadowing_std_db: float = 4.0
    distance_m: float = 100.0
    bandwidth_hz: float = 500e6
    noise_density_dbm_hz: float = -174.0
    max_excess_delay_s: float = 100e-9
    aoa_spatial_freqs: tuple[float, ...] | None = None
    aoa_spread_deg: float | None = None
    aod_spatial_freqs: tuple[float, ...] | None = None
    aod_spread_deg: float | None = None

    def __post_init__(self) -> None:
        if self.distance_m <= 0 or self.bandwidth_hz <= 0:
            raise InvalidInputError("distance and bandwidth must be positive")
        if self.max_excess_delay_s < 0:
            raise InvalidInputError("max excess delay must be non-negative")
        for fixed, spread, name in (
            (self.aoa_spatial_freqs, self.aoa_spread_deg, "AoA"),
            (self.aod_spatial_freqs, self.aod_spread_deg, "AoD"),
        ):
            if (fixed is None) == (spread is None):
                raise InvalidInputError(
                    f"exactly one of fixed list / angular spread must be set for {name}"
                )
            if fixed is not None and any(abs(v) > 1.0 for v in fixed):
                raise InvalidInputError(f"{name} spatial frequencies must lie in [-1, 1]")

    @property
    def mean_pathloss_db(self) -> float:
        """Distance-dependent path loss in dB, excluding shadowing."""
        return self.pathloss_intercept_db + 10.0 * self.pathloss_exponent * math.log10(
            self.distance_m
        )

    @property
    def mean_beta(self) -> float:
        """Analytic mean of the linear large-scale gain over lognormal shadowing."""
        return 10.0 ** (-self.mean_pathloss_db / 10.0) * math.exp(
            (_LN10_OVER_10 * self.shadowing_std_db) ** 2 / 2.0
        )

    @property
    def noise_power(self) -> float:
        """Receiver noise power (linear mW) = N0 * W."""
        return 10.0 ** (self.noise_density_dbm_hz / 10.0) * self.bandwidth_hz

    def tx_power(self, snr_db: float) -> float:
        """Transmit power (mW) for a target average SNR = P * E[beta] / sigma^2."""
        return 10.0 ** (snr_db / 10.0) * self.noise_power / self.mean_beta

    def placed_angles(self, num_paths: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-path AoA and AoD spatial frequencies under the placement rule."""
        out = []
        for fixed, spread, name in (
            (self.aoa_spatial_freqs, self.aoa_spread_deg, "AoA"),
            (self.aod_spatial_freqs, self.aod_spread_deg, "AoD"),
        ):
            if fixed is not None:
                if len(fixed) != num_paths:
                    raise InvalidInputError(
                        f"{name} list has {len(fixed)} entries for {num_paths} paths"
                    )
                out.append(np.asarray(fixed, dtype=float))
            else:
                angles = np.linspace(-spread / 2.0, spread / 2.0, num_paths)
                out.append(np.sin(np.deg2rad(angles)))
        return out[0], out[1]


@dataclass(frozen=True)
class PathSet:
    """The L multi-path parameters of one channel realization."""

    gains: np.ndarray  # complex linear amplitudes alpha_l
    delays_s: np.ndarray
    aoa_spatial_freqs: np.ndarray
    aod_spatial_freqs: np.ndarray

    def __post_init__(self) -> None:
        if self.num_paths < 1:
            raise InvalidInputError("a PathSet needs at least one path")
        if np.any(self.delays_s < 0):
            raise InvalidInputError("path delays must be non-negative")

    @property
    def num_paths(self) -> int:
        return len(self.gains)

    def delay_samples(self, sample_rate_hz: float) -> np.ndarray:
        """Path delays quantized to integer symbol intervals."""
        return np.rint(self.delays_s * sample_rate_hz).astype(int)


@dataclass(frozen=True)
class PathResponses:
    """The factored channel of one realization, over some antennas:
    H(n) = sum_l alpha_l a_R,l a_T,l^H [n == n_l].

    Every scheme reads these per-path factors: ``cores`` is the
    rank-revealing path-space reduction that carries the singular values
    of H = A_R^T diag(alpha) A_T^* (and of each OFDM subcarrier channel) in
    an r_R x r_T matrix, ``grams`` the Hermitian Grams of the subcarrier
    cores that carry their squared singular values, and ``restrict`` the
    same paths seen by fewer antennas.
    """

    rx: np.ndarray  # (L, M) receive response rows a_R,l
    tx: np.ndarray  # (L, Q) transmit response rows a_T,l
    gains: np.ndarray  # (L,) complex alpha_l
    delays: np.ndarray  # (L,) integer sample delays n_l

    @property
    def num_paths(self) -> int:
        return len(self.gains)

    def restrict(self, rx_pos, tx_pos, paths=None) -> PathResponses:
        """Responses at the given receive/transmit array positions, for all
        paths or only the listed path indices."""
        keep = slice(None) if paths is None else np.asarray(paths, dtype=int)
        return PathResponses(
            rx=self.rx[keep][:, np.asarray(rx_pos, dtype=int)],
            tx=self.tx[keep][:, np.asarray(tx_pos, dtype=int)],
            gains=self.gains[keep],
            delays=self.delays[keep],
        )

    @cached_property
    def _factors(self) -> tuple[np.ndarray, np.ndarray]:
        """The rank-revealing factors (R_R, R_T) of the receive and transmit
        rows, computed on first use and shared by ``ranks``, ``cores`` and
        ``grams``; the rows must not be changed in place after that."""
        return _factor(self.rx), _factor(self.tx)

    @property
    def ranks(self) -> tuple[int, int]:
        """Numerical ranks (r_R, r_T) of the receive and transmit responses."""
        r_rx, r_tx = self._factors
        return len(r_rx), len(r_tx)

    def cores(self, phases=None) -> np.ndarray:
        """Path-space cores R_R diag(alpha * phases) R_T^H of the channel.

        The rank-revealing factors A_R^T = U_R R_R and A_T^T = U_T R_T of the
        response rows (``_factor``, orthonormal U) give
        A_R^T diag(c) A_T^* = U_R R_R diag(c) R_T^H U_T^H, so the r_R x r_T
        core has its singular values, where r_R and r_T are the numerical
        ranks of the two sides (at most L). Without ``phases`` the result is
        the core of the narrowband H (delays ignored); a (K, L) ``phases``
        gives a (K, r_R, r_T) stack, core k for the per-path coefficients
        alpha * phases[k].
        """
        r_rx, r_tx = self._factors
        coeffs = self.gains if phases is None else self.gains * phases
        return (r_rx * coeffs[..., None, :]) @ r_tx.conj().T

    def grams(self, phases) -> np.ndarray:
        """Hermitian Grams of the smaller side of each core of
        ``cores(phases)``: a (K, r, r) stack, r = min(r_R, r_T), whose
        eigenvalues are the squared singular values of the cores.

        With c_k = alpha * phases[k], W_k = c_k c_k^H, R the smaller side's
        factor and Gamma = P^H P the L x L Gram of the larger side's factor
        P, G_k = R (W_k o Gamma) R^H (o the entrywise product). For the
        transmit side both factors are conjugated, which conjugates G_k and
        keeps its eigenvalues. The stack is one (K, L^2) @ (L^2, r^2)
        product. A Gram squares the condition number of its core.
        """
        r_rx, r_tx = self._factors
        if len(r_rx) <= len(r_tx):
            small, large = r_rx, r_tx
        else:
            small, large = r_tx.conj(), r_rx.conj()
        gamma = large.conj().T @ large
        # kernel[(l, m), (i, j)] = R[i, l] Gamma[l, m] R[j, m]^*
        kernel = np.einsum("il,lm,jm->lmij", small, gamma, small.conj())
        c = self.gains * phases
        w = c[:, :, None] * c[:, None, :].conj()
        r, n = small.shape
        return (w.reshape(len(c), n * n) @ kernel.reshape(n * n, r * r)).reshape(-1, r, r)


def _factor(rows: np.ndarray) -> np.ndarray:
    """The r x L factor S V^H of the thin SVD rows.T = U S V^H, keeping the
    r singular values at or above RANK_TOL times the largest."""
    _, s, vh = np.linalg.svd(rows.T, full_matrices=False)
    keep = s >= RANK_TOL * s[0]
    return s[keep, None] * vh[keep]


def sample_paths(stats: ChannelStats, num_paths: int, rng) -> PathSet:
    """Draw one stochastic channel realization.

    alpha_l = sqrt(beta * kappa_l) * exp(j*eta_l) with lognormal-shadowed
    large-scale gain beta and normalized per-path power fractions kappa_l;
    delays are i.i.d. uniform over [0, T_m], sorted ascending. Angles follow
    the placement rule in ``stats``.
    """
    if num_paths < 1:
        raise InvalidInputError("num_paths must be at least 1")
    rng = np.random.default_rng(rng)
    shadowing = rng.normal(0.0, stats.shadowing_std_db)
    beta_db = -(stats.mean_pathloss_db + shadowing)
    beta = 10.0 ** (beta_db / 10.0)
    u = rng.random(num_paths)
    z = rng.normal(0.0, stats.per_path_shadowing_std_db, num_paths)
    raw = u ** (stats.delay_power_exponent - 1.0) * 10.0 ** (-0.1 * z)
    kappa = raw / raw.sum()
    eta = rng.uniform(0.0, 2.0 * np.pi, num_paths)
    delays = np.sort(rng.uniform(0.0, stats.max_excess_delay_s, num_paths))
    aoa, aod = stats.placed_angles(num_paths)
    return PathSet(
        gains=np.sqrt(beta * kappa) * np.exp(1j * eta),
        delays_s=delays,
        aoa_spatial_freqs=aoa,
        aod_spatial_freqs=aod,
    )


def path_responses(
    paths: PathSet,
    tx: LensArrayConfig | UpaConfig,
    rx: LensArrayConfig | UpaConfig,
    sample_rate_hz: float,
) -> PathResponses:
    """Per-path responses of a realization on a transmit/receive array pair
    (lens or UPA), with delays quantized at sample_rate_hz."""
    return PathResponses(
        rx=rx.responses(paths.aoa_spatial_freqs),
        tx=tx.responses(paths.aod_spatial_freqs),
        gains=paths.gains,
        delays=paths.delay_samples(sample_rate_hz),
    )
