"""Shared numerical kernels: eigen-gains, exact water-filling, Hermitian solve.

Every capacity the sweeps report is water-filling over parallel gains:
OPDM's per-path gains, and the eigenmodes of the path-space cores
(``PathResponses.cores``) of each path group and of the UPA channels; the
PDM stream powers are water-filled the same way. ``eigen_gains`` turns a
stack of matrices into squared singular values under one rank rule, and
``water_fill`` solves a whole grid of power budgets at once.
``hermitian_solve`` solves a stack of Hermitian positive definite systems
(the PDM MMSE covariances in path space, for every stream and budget) in
one call and refuses a singular one. All functions are pure and
thread-safe.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InvalidInputError, NumericalError

# Singular values below RANK_TOL * s_max of their own matrix are treated as
# exact zeros in downstream capacity sums.
RANK_TOL = 1e-12


@dataclass(frozen=True)
class PowerAllocation:
    """Water-filling result: per-channel powers and the water level mu,
    for each power budget."""

    powers: np.ndarray  # budgets.shape + gains.shape, non-negative, sum = budget
    water_level: np.ndarray  # budgets.shape


def eigen_gains(mats) -> np.ndarray:
    """Squared singular values of each matrix of a (..., m, n) stack.

    Returns shape (..., min(m, n)), non-increasing along the last axis;
    singular values below RANK_TOL times the largest one of the same matrix
    are set to zero.
    """
    m = np.asarray(mats)
    if m.ndim < 2 or m.size == 0:
        raise InvalidInputError("eigen_gains expects a non-empty (..., m, n) stack")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("eigen_gains input contains non-finite entries")
    s = np.linalg.svd(m, compute_uv=False)
    s = np.where(s < RANK_TOL * s[..., :1], 0.0, s)
    return s**2


def water_fill(gains, budgets, noise: float) -> PowerAllocation:
    """Exact water-filling power allocation over parallel channels.

    For each budget P, maximizes sum log2(1 + p_i g_i / noise) s.t.
    sum p_i = P, p_i >= 0. ``budgets`` is a scalar or an array; the result
    holds one allocation per budget. Channels with zero gain get zero
    power; all-zero gains are an error.

    Finite-step solution: with the floors noise/g_i sorted and shifted by
    the lowest, d_1 = 0 <= d_2 <= ..., the k best channels are active
    exactly when P > T_k = sum_{j<=k} (d_k - d_j). The level above the
    lowest floor is then (P + sum_{j<=k} d_j) / k and p_i = level - d_i, so
    a budget far below the floors is never lost to cancellation.
    """
    g = np.asarray(gains, dtype=float)
    b = np.asarray(budgets, dtype=float)
    if g.ndim != 1 or g.size == 0 or not np.all(np.isfinite(g)) or np.any(g < 0):
        raise InvalidInputError("gains must be a 1-D array of finite non-negative reals")
    if not np.all(b > 0) or noise <= 0:
        raise InvalidInputError("budgets and noise must be positive")
    positive = np.flatnonzero(g > 0)
    if positive.size == 0:
        raise DegenerateInputError("water_fill: all channel gains are zero")

    floors = noise / g[positive]
    order = np.argsort(floors, kind="stable")
    d = floors[order] - floors[order[0]]
    # T_{k+1} - T_k = k (d_{k+1} - d_k) >= 0, so the thresholds are sorted.
    steps = np.arange(1, d.size) * np.diff(d)
    thresholds = np.concatenate(([0.0], np.cumsum(steps)))
    active = np.searchsorted(thresholds, b)  # >= 1, as every budget exceeds T_1 = 0
    level = (b + np.cumsum(d)[active - 1]) / active
    ranked = np.where(np.arange(d.size) < active[..., None], level[..., None] - d, 0.0)
    powers = np.zeros(b.shape + g.shape)
    powers[..., positive[order]] = np.maximum(ranked, 0.0)
    return PowerAllocation(powers=powers, water_level=floors[order[0]] + level)


def waterfill_capacity(gains, budgets, noise: float) -> np.ndarray:
    """Spectral efficiency (bps/Hz) of water-filling over parallel channels,
    one value per budget. ``gains`` may have any shape; all of them share
    the budget."""
    g = np.asarray(gains, dtype=float).ravel()
    if not (g > 0).any():
        return np.zeros(np.shape(budgets))
    powers = water_fill(g, budgets, noise).powers
    return (np.log1p(powers * g / noise) / np.log(2.0)).sum(axis=-1)


def hermitian_solve(c, b) -> np.ndarray:
    """Solve C x = b for each Hermitian positive definite C of a (..., m, m)
    stack, with right-hand sides of shape (..., m).

    Raises NumericalError if any matrix of the stack is singular or
    indefinite in double precision.
    """
    cm = np.asarray(c, dtype=complex)
    bv = np.asarray(b, dtype=complex)
    if cm.ndim < 2 or cm.shape[-1] != cm.shape[-2] or bv.shape != cm.shape[:-1]:
        raise InvalidInputError("hermitian_solve expects C of (..., m, m) and b of (..., m)")
    if not (np.all(np.isfinite(cm)) and np.all(np.isfinite(bv))):
        raise InvalidInputError("hermitian_solve input contains non-finite entries")
    scale = np.linalg.norm(cm, axis=(-2, -1))
    skew = np.linalg.norm(cm - cm.conj().swapaxes(-2, -1), axis=(-2, -1))
    if np.any(skew > 1e-12 * np.maximum(scale, 1e-300)):
        raise InvalidInputError("C is not Hermitian to within 1e-12")
    try:
        np.linalg.cholesky(cm)  # positive definiteness check
        return np.linalg.solve(cm, bv[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"C is singular or indefinite (condition number {np.linalg.cond(cm).max():.3e})"
        ) from exc
