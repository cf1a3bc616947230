"""Shared numerical kernels: eigen-gains, Hermitian eigenvalues, exact
water-filling, Hermitian solve.

Every capacity the sweeps report is water-filling over parallel gains:
OPDM's per-path gains, and the eigenmodes of the path-space cores
(``PathResponses.cores``, r_R x r_T for side ranks r_R and r_T) of each
path group and of the UPA channels; the PDM stream powers are water-filled
the same way. ``eigen_gains`` turns a stack of matrices into squared
singular values under one rank rule; the UPA-OFDM subcarriers take theirs
from Hermitian Grams instead (``upa.ofdm_capacity``), as the
``hermitian_eigvals`` of the stack: closed forms for r <= 3, with no LAPACK
call per matrix, and ``np.linalg.eigvalsh`` above that. Where a Gram is
ill-conditioned they fall back to ``eigen_gains``. ``water_fill`` returns the
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


def hermitian_eigvals(mats) -> np.ndarray:
    """Eigenvalues of each Hermitian matrix of a (..., r, r) stack, of shape
    (..., r) and non-increasing along the last axis. Like
    ``np.linalg.eigvalsh``, it reads the lower triangle and the real part of
    the diagonal.

    For r = 2 and 3 the eigenvalues come from closed forms, in a few ufunc
    passes over the whole stack: r = 2 from the roots of the quadratic,
    r = 3 as in ``_eigvals3``. Each is within a few eps of the largest
    eigenvalue magnitude of its matrix, for repeated eigenvalues too. Other
    sizes take ``eigvalsh``, which makes one LAPACK call per matrix.
    """
    a = np.asarray(mats)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InvalidInputError("hermitian_eigvals expects a (..., r, r) stack")
    r = a.shape[-1]
    if r not in (2, 3):
        return np.linalg.eigvalsh(a)[..., ::-1]
    if r == 2:
        x, y = a[..., 0, 0].real, a[..., 1, 1].real
        mid = x / 2 + y / 2
        radius = np.hypot(x / 2 - y / 2, np.abs(a[..., 1, 0]))
        return np.stack((mid + radius, mid - radius), axis=-1)
    return _eigvals3(a)


def _eigvals3(a: np.ndarray) -> np.ndarray:
    """``hermitian_eigvals`` of a (..., 3, 3) stack.

    Each matrix is scaled by its largest entry s, so that the squares and
    cubes below neither overflow nor underflow, and shifted by its mean
    eigenvalue q: D = (A / s - q I) / p with p^2 = tr(C^2) / 6 for C the
    shifted matrix has trace 0 and tr D^2 = 6. Its eigenvalues are
    2 cos(theta / 3 + 2 pi k / 3) with cos(theta) = det(D) / 2 (Smith, CACM
    1961), the determinant written out. Only the eigenvalue farthest from
    the other two, mu = 2 sign(rho) cos(arccos(|rho|) / 3) for rho = det(D)
    / 2, is taken that way: its derivative in rho is bounded, while near
    |rho| = 1 (two close eigenvalues, or a rank-1 matrix) the other two
    would lose half the digits to arccos. For those two: M = D - mu I has
    rank 2, its other eigenvalues m_1, m_2 are both at least sqrt(3) from
    0 on the same side, so adj(M) = m_1 m_2 v v^H for the unit eigenvector
    v of mu, and P = I - adj(M) / tr(adj(M)) projects onto their plane.
    K = M - (tr(M) / 2) P has eigenvalues +-(m_1 - m_2) / 2 there and 0 on
    v, so the two are (tr(D) - mu) / 2 +- ||K||_F / sqrt(2), the norm taken
    from K's entries without a cancelling difference.
    """
    x, y, z = a[..., 0, 0].real, a[..., 1, 1].real, a[..., 2, 2].real
    u, v, w = a[..., 1, 0], a[..., 2, 0], a[..., 2, 1]
    s = np.abs(x)
    for entry in (y, z, u, v, w):
        s = np.maximum(s, np.abs(entry))
    s = np.where(s > 0, s, 1.0)
    q = (x / s + y / s + z / s) / 3
    x, y, z, u, v, w = x / s - q, y / s - q, z / s - q, u / s, v / s, w / s
    # q is rounded, so the shifted trace need not vanish next to p when the
    # three eigenvalues nearly coincide: shift once more by what is left.
    rest = (x + y + z) / 3
    x, y, z, q = x - rest, y - rest, z - rest, q + rest
    p = np.sqrt((x * x + y * y + z * z + 2 * (_abs2(u) + _abs2(v) + _abs2(w))) / 6)
    unit = np.where(p > 0, p, 1.0)
    x, y, z, u, v, w = x / unit, y / unit, z / unit, u / unit, v / unit, w / unit
    uu, vv, ww = _abs2(u), _abs2(v), _abs2(w)
    rho = (x * (y * z - ww) - y * vv - z * uu) / 2 + (u * w * v.conj()).real
    top = rho >= 0  # mu is the largest eigenvalue, else the smallest
    mu = np.where(top, 2.0, -2.0) * np.cos(np.arccos(np.minimum(np.abs(rho), 1.0)) / 3)
    trace = x + y + z
    x, y, z = x - mu, y - mu, z - mu  # now M
    adj0, adj1, adj2 = y * z - ww, x * z - vv, x * y - uu
    half = (trace - 3 * mu) / 2
    h = half / (adj0 + adj1 + adj2)
    k_diag = (x - half + h * adj0) ** 2 + (y - half + h * adj1) ** 2 + (z - half + h * adj2) ** 2
    k_off = (
        _abs2(u + h * (w.conj() * v - u * z))
        + _abs2(v + h * (u * w - y * v))
        + _abs2(w + h * (u.conj() * v - x * w))
    )
    gap = np.sqrt(k_diag / 2 + k_off)
    mid = (trace - mu) / 2
    e = np.stack(
        (
            np.where(top, mu, mid + gap),
            np.where(top, mid + gap, mid - gap),
            np.where(top, mid - gap, mu),
        ),
        axis=-1,
    )
    return s[..., None] * (q[..., None] + p[..., None] * e)


def _abs2(c: np.ndarray) -> np.ndarray:
    """|c|^2 of a complex array, without the square root of np.abs."""
    return c.real * c.real + c.imag * c.imag


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
