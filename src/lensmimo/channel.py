"""Sparse multi-path mmWave channel: the stochastic 73 GHz generator (path
loss, shadowing, per-path power fractions) and the factored per-path
response core that every scheme reads. No dense channel matrix or tapped
delay line is built; the tests keep a dense oracle of their own.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property, reduce

import numpy as np

from .arrays import LensArrayConfig, UpaConfig, _spatial_freqs
from .errors import InvalidInputError
from .numerics import RANK_TOL

# The 73 GHz measurement fit (Akdeniz et al., IEEE JSAC 2014) of every
# scenario, at 100 m over a 500 MHz band, which is also the delay sample rate.
PATHLOSS_INTERCEPT_DB = 86.6
PATHLOSS_EXPONENT = 2.45
SHADOWING_STD_DB = 8.0
DELAY_POWER_EXPONENT = 3.0
PER_PATH_SHADOWING_STD_DB = 4.0
DISTANCE_M = 100.0
BANDWIDTH_HZ = 500e6
NOISE_DENSITY_DBM_HZ = -174.0

# The path loss in dB without shadowing, the analytic mean of the linear
# large-scale gain over lognormal shadowing, and the noise power N0 W in mW.
MEAN_PATHLOSS_DB = PATHLOSS_INTERCEPT_DB + 10.0 * PATHLOSS_EXPONENT * math.log10(DISTANCE_M)
MEAN_BETA = 10.0 ** (-MEAN_PATHLOSS_DB / 10.0) * math.exp(
    (math.log(10.0) / 10.0 * SHADOWING_STD_DB) ** 2 / 2.0
)
NOISE_POWER = 10.0 ** (NOISE_DENSITY_DBM_HZ / 10.0) * BANDWIDTH_HZ

# tol: the largest |a_l^H a_m| / (|a_l| |a_m|), l != m, of response rows that
# count as mutually orthogonal (``PathResponses.orthogonal``). With receive rows
# within it, their Gram is N (I + F) N, N = diag |a_R,l|, F zero on the
# diagonal and ||F||_2 <= (L - 1) tol by its row sums, and every subcarrier's
# H(k)^H H(k) is the phase-free P = sum_l |alpha_l|^2 |a_R,l|^2 a_T,l a_T,l^H
# plus B^H F B with B^H B = P (transmit rows the same way round). By Weyl each
# squared singular value, narrowband or of a subcarrier, is within
# (L - 1) tol ||P|| of P's, so the narrowband gains are within
# 2 (L - 1) tol / (1 - (L - 1) tol) of a trial's largest gain of every
# subcarrier's: 4e-14 at three paths, inside the 1e-12 that the subcarrier
# route is held to up to 50 paths. fig5 and fig6's UPA rows reach 2e-16, the
# rounding of their exactly orthogonal grid; fig9 and fig10's 0.035 or more.
ORTHO_TOL = 1e-14


def tx_power(snr_db: float) -> float:
    """Transmit power (mW) for a target average SNR = P * E[beta] / sigma^2."""
    return 10.0 ** (snr_db / 10.0) * NOISE_POWER / MEAN_BETA


@dataclass(frozen=True, kw_only=True)
class ChannelStats:
    """Per-scenario channel settings: excess-delay spread and path angles.

    The length of the AoD spatial-frequency list is the path count L. The
    AoAs are exactly one of a list of L spatial frequencies or an angular
    spread in degrees, from 0 to 180, over which the L AoAs are equally
    spaced in [-spread/2, spread/2].
    """

    max_excess_delay_s: float = 100e-9
    aoa_spatial_freqs: tuple[float, ...] | None = None
    aoa_spread_deg: float | None = None
    aod_spatial_freqs: tuple[float, ...]

    def __post_init__(self) -> None:
        if not 0.0 <= self.max_excess_delay_s < math.inf:  # NaN fails too
            raise InvalidInputError(
                f"max excess delay must be finite and non-negative, got {self.max_excess_delay_s:g}"
            )
        num_paths, aoa = len(self.aod_spatial_freqs), self.aoa_spatial_freqs
        if num_paths < 1:
            raise InvalidInputError("the AoD list must give at least one path")
        if (aoa is None) == (self.aoa_spread_deg is None):
            raise InvalidInputError("exactly one of AoA list / AoA spread must be set")
        if aoa is not None and len(aoa) != num_paths:
            raise InvalidInputError(f"AoA list has {len(aoa)} entries, the AoD list {num_paths}")
        spread = self.aoa_spread_deg
        if spread is not None and not 0.0 <= spread <= 180.0:  # NaN fails too
            raise InvalidInputError(f"the AoA spread must lie in [0, 180] degrees, got {spread:g}")
        for fixed in (aoa or (), self.aod_spatial_freqs):
            _spatial_freqs(fixed)

    def placed_angles(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-path AoA and AoD spatial frequencies under the placement rule."""
        aod = np.asarray(self.aod_spatial_freqs, dtype=float)
        if self.aoa_spatial_freqs is not None:
            return np.asarray(self.aoa_spatial_freqs, dtype=float), aod
        angles = np.linspace(-self.aoa_spread_deg / 2.0, self.aoa_spread_deg / 2.0, len(aod))
        return np.sin(np.deg2rad(angles)), aod


@dataclass(frozen=True)
class PathSet:
    """The L multi-path parameters of one channel realization, or of a block
    of realizations that share their angles: gains and delays (in s) of
    one shape, (L,) or (T, L), and angles of shape (L,). Other shapes are
    refused."""

    gains: np.ndarray  # complex linear amplitudes alpha_l
    delays_s: np.ndarray
    aoa_spatial_freqs: np.ndarray
    aod_spatial_freqs: np.ndarray

    def __post_init__(self) -> None:
        if self.num_paths < 1:
            raise InvalidInputError("a PathSet needs at least one path")
        if np.shape(self.delays_s) != np.shape(self.gains):
            raise InvalidInputError(
                f"path delays of shape {np.shape(self.delays_s)} do not match gains of shape "
                f"{np.shape(self.gains)}"
            )
        for name in ("aoa_spatial_freqs", "aod_spatial_freqs"):
            if np.shape(getattr(self, name)) != (self.num_paths,):
                raise InvalidInputError(
                    f"{name} of shape {np.shape(getattr(self, name))} does not list one angle "
                    f"for each of the {self.num_paths} paths"
                )
        if not np.all((self.delays_s >= 0) & (self.delays_s < np.inf)):  # NaN fails too
            raise InvalidInputError("path delays must be finite and non-negative")

    @property
    def num_paths(self) -> int:
        return self.gains.shape[-1]

    def delay_samples(self) -> np.ndarray:
        """Path delays quantized to integer sample intervals at BANDWIDTH_HZ."""
        return np.rint(self.delays_s * BANDWIDTH_HZ).astype(int)


@dataclass(frozen=True)
class PathResponses:
    """The factored channel over some antennas:
    H(n) = sum_l alpha_l a_R,l a_T,l^H [n == n_l].

    The response rows are geometry, fixed by the path angles. The gains
    and delays are of one realization, (L,), or of a block, (T, L) with a
    leading trial axis; every method works on all T at once. The rows,
    (..., L, N), carry none or all of the gains' leading axes and broadcast
    against them: a block's (L, N) rows are shared and factored once (and
    ``with_paths`` pairs them with other gains and delays), and (T, L, N) rows give each trial antennas of its own (the
    selected UPA links), one stacked SVD per side. Every trial must have
    the same side ranks (``by_rank`` splits a block that does not).

    Every scheme reads these per-path factors: ``cores`` is the
    rank-revealing path-space reduction that carries the singular values
    of H = A_R^T diag(alpha) A_T^* (and of each OFDM subcarrier channel) in
    an r_R x r_T matrix, ``charpoly`` the characteristic polynomials of the
    subcarrier cores' Grams, whose roots are their squared singular values,
    ``orthogonal`` whether one side's rows make every subcarrier's singular
    values the narrowband ones, and ``restrict`` the same paths seen by
    fewer antennas.
    """

    rx: np.ndarray  # (..., L, M) receive response rows a_R,l
    tx: np.ndarray  # (..., L, Q) transmit response rows a_T,l
    gains: np.ndarray  # (L,) or (T, L) complex alpha_l
    delays: np.ndarray  # (L,) or (T, L) integer sample delays n_l

    @property
    def num_paths(self) -> int:
        return self.rx.shape[-2]

    def restrict(self, rx_pos, tx_pos, paths=None) -> PathResponses:
        """Responses at the given receive/transmit array positions (index
        arrays or boolean masks), for all paths or only the listed path
        indices. Position arrays of shape (T, k) pick k positions per
        trial and give (T, L, k) rows. The rows must be a block's shared
        (L, N) rows: rows with a trial axis are refused."""
        if self.rx.ndim != 2:
            raise InvalidInputError("restrict takes shared (L, N) rows, not rows per trial")
        keep = slice(None) if paths is None else np.asarray(paths, dtype=int)
        return PathResponses(
            rx=np.moveaxis(self.rx[keep][:, rx_pos], 0, -2),
            tx=np.moveaxis(self.tx[keep][:, tx_pos], 0, -2),
            gains=self.gains[..., keep],
            delays=self.delays[..., keep],
        )

    def trials(self, index: tuple) -> PathResponses:
        """The given trials, a tuple of index arrays into the gains' leading
        axes, with the SVDs taken so far; rows without those axes stay shared."""
        def pick(a, core=2):  # a has all of the indexed leading axes or none
            return a[index[len(index) + core - a.ndim :]]

        part = PathResponses(pick(self.rx), pick(self.tx), self.gains[index], self.delays[index])
        if "svds" in vars(self._rows):
            # Seeds the part's cached_property, as its first use would.
            svds = tuple((pick(f), pick(keep, 1)) for f, keep in self._rows.svds)
            part._rows.__dict__["svds"] = svds
        return part

    def with_paths(self, gains: np.ndarray, delays: np.ndarray) -> PathResponses:
        """The same response rows with other gains and delays, sharing what
        the rows fix (``_Rows``): whichever of them first needs a factor
        computes it for all, so a sweep factors its geometry's rows once."""
        part = PathResponses(self.rx, self.tx, gains, delays)
        part.__dict__["_rows"] = self._rows
        return part

    def by_rank(self) -> list[tuple[np.ndarray, PathResponses]]:
        """Responses with (T, L) gains split into groups of trials with the
        same side ranks (r_R, r_T): (trial indices, their responses) pairs
        in ascending rank order, all factored from one stacked SVD per side.
        Shared (L, N) rows give one group of every trial."""
        lead = self.gains.shape[:-1]
        ranks = np.stack(
            [np.broadcast_to(keep.sum(axis=-1), lead) for _, keep in self._rows.svds], axis=-1
        )
        pairs = sorted(set(map(tuple, ranks.tolist())))
        groups = (np.flatnonzero((ranks == pair).all(axis=-1)) for pair in pairs)
        return [(index, self.trials((index,))) for index in groups]

    @cached_property
    def _rows(self) -> _Rows:
        return _Rows(self.rx, self.tx)

    @property
    def ranks(self) -> tuple[int, int]:
        """Numerical ranks (r_R, r_T) of the receive and transmit responses."""
        r_rx, r_tx = self._rows.factors
        return r_rx.shape[-2], r_tx.shape[-2]

    @property
    def orthogonal(self) -> np.ndarray:
        """Whether the response rows of either side are mutually orthogonal
        within ORTHO_TOL: one bool for shared (L, N) rows, (T,) for rows per
        trial, each trial's from its own rows alone."""
        return self._rows.orthogonal

    def cores(self, coeffs=None) -> np.ndarray:
        """Path-space cores R_R diag(c) R_T^H for per-path coefficients c.

        The rank-revealing factors A_R^T = U_R R_R and A_T^T = U_T R_T of the
        response rows (``_factor``, orthonormal U) give
        A_R^T diag(c) A_T^* = U_R R_R diag(c) R_T^H U_T^H, so the r_R x r_T
        core has its singular values, where r_R and r_T are the numerical
        ranks of the two sides (at most L). ``coeffs`` of shape (..., L)
        gives a (..., r_R, r_T) stack; without it c is the gains, (L,) or
        (T, L), and the cores are those of the narrowband H (delays
        ignored). An OFDM subcarrier k takes c = alpha * phases[k]. With
        (T, L, N) rows, ``coeffs`` is (T, ..., L).
        """
        r_rx, r_tx = self._rows.factors
        c = self.gains if coeffs is None else coeffs
        # The coefficients' extra (subcarrier) axes go just before (r, L).
        axes = tuple(range(r_rx.ndim - 2, c.ndim - 1))
        r_rx, r_tx = np.expand_dims(r_rx, axes), np.expand_dims(r_tx, axes)
        return (r_rx * c[..., None, :]) @ r_tx.conj().swapaxes(-1, -2)

    def charpoly(self, table) -> np.ndarray:
        """The elementary symmetric functions e_1 ... e_r of the squared
        singular values of the OFDM subcarrier cores, ``cores(coeffs)`` for
        c_l(k) = alpha_l table[n_l, k] with table[d, k] = e^{-j 2 pi k d / N}:
        the coefficients of their characteristic polynomials, (..., N, r),
        r = min(r_R, r_T), for L <= 3 paths.

        By Cauchy-Binet, e_j(k) = sum_{S, S'} c_S conj(c_S') M[S, S'] over
        the j-subsets of the paths (c_S the product over S, M from
        ``_Rows.compounds``), and two j-subsets of L <= 3 paths differ in one
        path each, l in S and m in S'. So e_j(k) is a constant plus
        2 Re sum_p z_jp e^{-j 2 pi k d_p / N} over the path pairs p = (l, m),
        l < m, d_p = n_l - n_m (e_L is constant): one (r, P) @ (P, N) product
        per trial on P table rows, conjugated where d_p < 0.
        """
        if self.num_paths > 3:
            raise InvalidInputError("charpoly takes at most three paths")
        m, rank = self._rows.compounds, min(self.ranks)
        subsets, starts, diff, left, right = _charpoly_plan(self.num_paths, rank)
        d = self.delays @ diff
        padded = np.concatenate((self.gains, np.ones(self.gains.shape[:-1] + (1,))), axis=-1)
        a = reduce(np.multiply, (padded[..., path] for path in subsets.T))  # alpha_S
        const = np.add.reduceat((a * a.conj()).real * m.diagonal(0, -2, -1).real, starts, axis=-1)
        # M's weights copied out to the trials' shape: numpy's complex
        # multiply rounds a broadcast operand unlike a whole one.
        weights = np.broadcast_to(m[..., left, right], a.shape[:-1] + left.shape).copy()
        z = (a[..., left] * a[..., right].conj() * weights).reshape(a.shape[:-1] + (rank, -1))
        z = 2 * np.where(d[..., None, :] < 0, z.conj(), z)
        # Formed as (..., r, N), so that each e_j is contiguous.
        return np.add((z @ table[np.abs(d)]).real, const[..., None]).swapaxes(-1, -2)


@cache
def _charpoly_plan(n: int, r: int) -> tuple[np.ndarray, ...]:
    """Read-only index arrays of ``PathResponses.charpoly`` for n <= 3 paths
    and rank r: the subsets of ``_Rows.compounds`` padded to r paths with
    -1, the first subset of each size, the (n, P) delay differences of the
    path pairs, and the subsets (S, S') of each z_jp. Where e_j has no term
    on p (j = n), they are of two sizes, where M is 0."""
    subsets = [s for j in range(1, r + 1) for s in itertools.combinations(range(n), j)]
    pairs = list(itertools.combinations(range(n), 2))
    diff = np.array([[(i == l) - (i == o) for l, o in pairs] for i in range(n)], dtype=int)
    left, right = np.zeros((r, len(pairs)), dtype=int), np.full((r, len(pairs)), len(subsets) - 1)
    for (i, s), (k, t) in itertools.combinations(enumerate(subsets), 2):
        if len(s) == len(t):
            (l,), (o,) = set(s) - set(t), set(t) - set(s)
            p = pairs.index((min(l, o), max(l, o)))
            left[len(s) - 1, p], right[len(s) - 1, p] = (i, k) if l < o else (k, i)
    padded = np.array([s + (-1,) * (r - len(s)) for s in subsets])
    starts = np.cumsum([0] + [math.comb(n, j) for j in range(1, r)])
    plan = padded, starts, diff, left.reshape(-1), right.reshape(-1)
    for a in plan:
        a.flags.writeable = False
    return plan


class _Rows:
    """What the response rows of a PathResponses alone fix, each part
    computed on first use and read-only: the ``_factor`` SVDs, the
    rank-revealing factors, the compound Grams and whether a side's rows are
    orthogonal. Every PathResponses on the
    same rows (``with_paths``) shares one. The rows must not be changed in
    place after first use."""

    def __init__(self, rx: np.ndarray, tx: np.ndarray) -> None:
        self.rx, self.tx = rx, tx

    @cached_property
    def svds(self) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """``_factor`` of the receive and transmit rows."""
        svds = _factor(self.rx), _factor(self.tx)
        for factor, keep in svds:
            factor.flags.writeable = keep.flags.writeable = False
        return svds

    @cached_property
    def factors(self) -> tuple[np.ndarray, np.ndarray]:
        """The rank-revealing factors (R_R, R_T) of the receive and transmit
        rows, shared by ``ranks``, ``cores`` and ``compounds``: the rows of
        S V^H kept by ``_factor``, (..., r, L) with the rows' leading axes."""
        out = []
        for factor, keep in self.svds:
            rank = keep.sum(axis=-1)
            if np.any(rank != rank.flat[0]):
                raise InvalidInputError("the trials' response ranks differ; split them by_rank")
            out.append(factor[..., : rank.flat[0], :])
        return out[0], out[1]

    @cached_property
    def orthogonal(self) -> np.ndarray:
        """``PathResponses.orthogonal``: per side, the Gram of the rows as
        entrywise products summed over contiguous antenna rows, so that a
        trial's decision takes the same bits in any stack."""
        def side(rows):
            rows = np.ascontiguousarray(rows)
            gram = (rows.conj()[..., :, None, :] * rows[..., None, :, :]).sum(axis=-1)
            norms = np.sqrt(gram.diagonal(0, -2, -1).real)
            small = np.abs(gram) <= ORTHO_TOL * norms[..., :, None] * norms[..., None, :]
            return (small | np.eye(rows.shape[-2], dtype=bool)).all(axis=(-2, -1))

        orthogonal = np.asarray(side(self.rx) | side(self.tx))
        orthogonal.flags.writeable = False
        return orthogonal

    @cached_property
    def compounds(self) -> np.ndarray:
        """M of ``PathResponses.charpoly``, (..., n_S, n_S) over the
        j-subsets S of the L <= 3 paths, j = 1 ... min(r_R, r_T), in the
        order of ``_charpoly_plan``: M_j = conj(P_j(R_R)) o P_j(R_T)
        (o entrywise) on the block of the j-subsets, 0 across sizes, where
        P_j(R) = C_j(R)^H C_j(R) for the j x j minors C_j(R) of the factor R
        itself, Leibniz sums that give stacked factors each one's bits."""
        r_rx, r_tx = self.factors
        subsets, starts = _charpoly_plan(r_rx.shape[-1], min(r_rx.shape[-2], r_tx.shape[-2]))[:2]
        m = np.zeros(r_rx.shape[:-2] + (len(subsets),) * 2, dtype=complex)
        for j, start in enumerate(starts, 1):
            gram = []  # P_j of each side
            for factor in self.factors:
                rows, cols = (
                    np.array(list(itertools.combinations(range(k), j))) for k in factor.shape[-2:]
                )
                sub = factor[..., rows[:, None, :, None], cols[None, :, None, :]]
                minors = sum(
                    (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
                    * reduce(np.multiply, (sub[..., i, k] for i, k in enumerate(perm)))
                    for perm in itertools.permutations(range(j))
                )
                gram.append((minors.conj()[..., None] * minors[..., None, :]).sum(axis=-3))
            end = start + gram[0].shape[-1]
            m[..., start:end, start:end] = gram[0].conj() * gram[1]
        m.flags.writeable = False
        return m


def _factor(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The n x L factor S V^H of the thin SVD rows^T = U S V^H of (L, N)
    rows, n = min(L, N), and the mask of its rows whose singular values are
    at or above RANK_TOL times the largest (a leading run, as S is sorted).
    A (T, L, N) stack takes one stacked SVD and gives (T, n, L) and (T, n).
    """
    _, s, vh = np.linalg.svd(rows.swapaxes(-1, -2), full_matrices=False)
    return s[..., None] * vh, s >= RANK_TOL * s[..., :1]


def sample_paths(stats: ChannelStats, rng) -> PathSet:
    """Draw one stochastic channel realization.

    alpha_l = sqrt(beta * kappa_l) * exp(j*eta_l) with lognormal-shadowed
    large-scale gain beta and normalized per-path power fractions kappa_l;
    delays are i.i.d. uniform over [0, T_m], sorted ascending. Angles follow
    the placement rule in ``stats``, which takes no random numbers: a sweep
    draws only the gains and delays of each trial and places the angles
    once per config.
    """
    gains, delays = _draw_block(stats, [np.random.default_rng(rng)])
    aoa, aod = stats.placed_angles()
    return PathSet(gains=gains[0], delays_s=delays[0], aoa_spatial_freqs=aoa, aod_spatial_freqs=aod)


def _draw_block(stats: ChannelStats, rngs) -> tuple[np.ndarray, np.ndarray]:
    """The random part of ``sample_paths`` for T realizations, one generator
    each: (T, L) gains and delays in s.

    Each generator makes only its five draws: the shadowing, then L each of
    the delay-power uniforms, the per-path shadowings, the phases and the
    delays. The rest runs once on the block's arrays, each realization's
    values bit for bit those of a block of one. beta = 10^(beta_dB / 10)
    is a Python float power per realization, as numpy's vectorised power
    may round it differently.
    """
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


def path_responses(
    paths: PathSet,
    tx: LensArrayConfig | UpaConfig,
    rx: LensArrayConfig | UpaConfig,
) -> PathResponses:
    """Per-path responses of a realization, or of a block, on a
    transmit/receive array pair (lens or UPA), with the delays in samples
    at BANDWIDTH_HZ (``PathSet.delay_samples``)."""
    return PathResponses(
        rx=rx.responses(paths.aoa_spatial_freqs),
        tx=tx.responses(paths.aod_spatial_freqs),
        gains=paths.gains,
        delays=paths.delay_samples(),
    )
