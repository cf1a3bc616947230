"""Shared numerical kernels: eigen-gains, exact water-filling, Hermitian solve.

Every capacity the sweeps report is water-filling over parallel gains:
OPDM's per-path gains, and the eigenmodes of the path-space cores
(``PathResponses.cores``, r_R x r_T for side ranks r_R and r_T) of each
path group and of the UPA channels; the PDM stream powers are water-filled
the same way. ``eigen_gains`` turns a stack of matrices into squared
singular values under one rank rule; the UPA-OFDM subcarriers take theirs
from Hermitian Grams instead (``upa.ofdm_capacity``), and fall back to
``eigen_gains`` where a Gram is ill-conditioned. ``water_fill`` returns the
powers for a whole grid of power budgets, and for a stack of links (the
trials of a block), at once. ``hermitian_solve`` solves a stack of
Hermitian positive definite systems (the PDM MMSE covariances in path
space, one per trial and budget, with a column per stream) in one call and
refuses a singular one. All functions are pure and thread-safe.
"""
from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError, InvalidInputError, NumericalError

# Singular values below RANK_TOL * s_max of their own matrix are treated as
# exact zeros in downstream capacity sums.
RANK_TOL = 1e-12


def eigen_gains(mats) -> np.ndarray:
    """Squared singular values of each matrix of a (..., m, n) stack.

    Returns shape (..., min(m, n)), non-increasing along the last axis;
    singular values below RANK_TOL times the largest one of the same matrix
    are set to zero. A matrix with one row or one column has one singular
    value, its norm, which is taken without an SVD.
    """
    m = np.asarray(mats)
    if m.ndim < 2 or m.size == 0:
        raise InvalidInputError("eigen_gains expects a non-empty (..., m, n) stack")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("eigen_gains input contains non-finite entries")
    if min(m.shape[-2:]) == 1:
        s = np.linalg.norm(m, axis=(-2, -1))[..., None]
    else:
        s = np.linalg.svd(m, compute_uv=False)
    s = np.where(s < RANK_TOL * s[..., :1], 0.0, s)
    return s**2


def water_fill(gains, budgets, noise: float) -> np.ndarray:
    """Exact water-filling power allocation over parallel channels.

    For each budget P, maximizes sum log2(1 + p_i g_i / noise) s.t.
    sum p_i = P, p_i >= 0. ``gains`` has shape (..., n): the last axis holds
    the n channels of one link, and any leading axes (the trials of a block)
    are independent links. ``budgets`` is a scalar or an array; the result
    holds the non-negative powers of each link and budget, of shape
    gains.shape[:-1] + budgets.shape + (n,). Channels with zero gain get
    zero power; a link whose gains are all zero is an error. Each link's
    powers are bit for bit those of a call with that link alone.

    Finite-step solution: with the floors noise/g_i sorted and shifted by
    the lowest, d_1 = 0 <= d_2 <= ..., the k best channels are active
    exactly when P > T_k = sum_{j<=k} (d_k - d_j). The level above the
    lowest floor is then (P + sum_{j<=k} d_j) / k and p_i = level - d_i, so
    a budget far below the floors is never lost to cancellation. A zero
    gain has an infinite floor: it sorts last, and its threshold is never
    below a budget.
    """
    g = np.asarray(gains, dtype=float)
    b = np.asarray(budgets, dtype=float)
    if g.ndim == 0 or g.size == 0 or not np.all(np.isfinite(g)) or np.any(g < 0):
        raise InvalidInputError("gains must be a (..., n) array of finite non-negative reals")
    if not np.all(b > 0) or noise <= 0:
        raise InvalidInputError("budgets and noise must be positive")
    if not np.all((g > 0).any(axis=-1)):
        raise DegenerateInputError("water_fill: all channel gains are zero")

    with np.errstate(divide="ignore"):
        floors = noise / g
    ranked = np.sort(floors, axis=-1)
    lowest = ranked[..., :1]
    d = ranked - lowest
    # T_{k+1} - T_k = k (d_{k+1} - d_k) >= 0, so the thresholds are sorted;
    # past the last positive gain they are inf, or nan where two infinite
    # floors meet, and neither is below a budget.
    with np.errstate(invalid="ignore"):
        steps = np.arange(1, g.shape[-1]) * np.diff(d, axis=-1)
    thresholds = np.concatenate((np.zeros_like(lowest), np.cumsum(steps, axis=-1)), axis=-1)
    # Each link's values against its budgets: (links..., budgets..., n).
    per_budget = g.shape[:-1] + (1,) * b.ndim + g.shape[-1:]
    # The count searchsorted gives; >= 1, as every budget exceeds T_1 = 0.
    active = np.count_nonzero(thresholds.reshape(per_budget) < b[..., None], axis=-1)
    last = active[..., None] - 1
    filled = np.take_along_axis(np.cumsum(d, axis=-1).reshape(per_budget), last, -1)
    level = (b + filled[..., 0]) / active
    # Equal floors have equal thresholds, so they are active together: the
    # active channels are those whose floor is at most the k-th lowest.
    top = np.take_along_axis(d.reshape(per_budget), last, -1)
    above = (floors - lowest).reshape(per_budget)
    powers = level[..., None] - above
    np.maximum(powers, 0.0, out=powers)
    powers *= above <= top  # exactly 0 when inactive, a zero gain's -inf included
    return powers


def waterfill_capacity(gains, budgets, noise: float) -> np.ndarray:
    """Spectral efficiency (bps/Hz) of water-filling over parallel channels,
    of shape gains.shape[:-1] + budgets.shape: the n channels on the last
    axis of ``gains`` share each budget, and a link whose gains are all
    zero has rate 0."""
    g = np.asarray(gains, dtype=float)
    silent = np.all(g == 0, axis=-1, keepdims=True)
    powers = water_fill(np.where(silent, 1.0, g), budgets, noise)
    g = g.reshape(g.shape[:-1] + (1,) * np.ndim(budgets) + g.shape[-1:])
    # log2(1 + p g / noise) in place: a block's (T, B, n) temporaries pass
    # the allocator's mmap threshold.
    rates = np.multiply(powers, g, out=powers)
    rates /= noise
    np.log1p(rates, out=rates)
    rates /= np.log(2.0)
    return rates.sum(axis=-1)


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
