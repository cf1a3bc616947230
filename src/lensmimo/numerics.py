"""Shared numerical kernels: eigen-gains, roots of characteristic
polynomials, exact water-filling, Hermitian positive definite solves.

Every capacity the sweeps report is water-filling over parallel gains:
OPDM's per-path gains, and the eigenmodes of the path-space cores
(``PathResponses.cores``, r_R x r_T for side ranks r_R and r_T) of each
path group and of the UPA channels; the PDM stream powers are water-filled
the same way. ``eigen_gains`` turns a stack of matrices into squared
singular values under one rank rule; the UPA-OFDM subcarriers take theirs
as the ``charpoly_roots`` of the coefficients of their characteristic
polynomials instead (``upa.ofdm_capacity``), closed forms for r <= 3 with
no matrix and no LAPACK call. ``water_fill`` and
``waterfill_capacity`` take a whole grid of power budgets, and a stack of
links (the trials of a block), at once, and share one finite-step threshold
search (Palomar and Fonollosa, IEEE TSP 2005): a sort and cumulative sums
per link, and one ``searchsorted`` of every link's budgets among the
thresholds of all links. ``water_fill`` returns the powers;
``waterfill_capacity`` forms none, and takes its rates from one cumulated
log1p per gain and one per link and budget, so no step of it builds a
(links, budgets, n) array. Each link's rates are bit for bit those of its
own call, so ``waterfill_parts`` fills the gains of several schemes
(parts, each with a budget factor and a rate scale) in one
``waterfill_capacity`` call per gain width and budget factor: a sweep's
block makes one such call for all its water-filled schemes of one width.
``normalized_solve`` solves a stack of
Hermitian positive definite systems (the PDM MMSE covariances in path
space, one per trial and budget, against a right-hand side per stream)
through a Cholesky factorization written out entry by entry, with no
LAPACK call, scales each solution to unit norm in its own matrix, and
refuses a singular matrix. All functions are pure and thread-safe.
"""
from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError, InvalidInputError, NumericalError

# Singular values below RANK_TOL * s_max of their own matrix are treated as
# exact zeros in downstream capacity sums.
RANK_TOL = 1e-12

_TINY = np.finfo(float).tiny


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


def charpoly_roots(e) -> np.ndarray:
    """Roots lambda_1 >= ... >= lambda_r >= 0 of
    lambda^r - e_1 lambda^(r-1) + ... + (-1)^r e_r, r <= 3, given the
    elementary symmetric functions of non-negative roots as a (..., r)
    stack, e[..., j - 1] = e_j: the eigenvalues of Hermitian positive
    semidefinite matrices from their characteristic polynomials. Returns
    (..., r) in e's memory order, from a few ufunc passes per root and no
    LAPACK call; e_1^r must not overflow.

    r = 2 takes the larger root from the quadratic formula, the smaller as
    e_2 / lambda_1. r = 3 takes the largest as m + 2 sqrt(p) cos(arccos(rho)
    / 3), m = e_1 / 3, for t^3 - 3 p t - 2 q in t = lambda - m and
    rho = q / p^(3/2) (Smith, CACM 1961), bounded in rho unless the two
    largest roots meet, and the other two as the roots of the quadratic of
    their sum e_1 - lambda_1 and product e_3 / lambda_1. Each is within a
    few eps of lambda_1, the smallest within a few eps of itself times
    lambda_1 / lambda_2. Nearly equal roots lose digits, as any polynomial's
    do (half of them if double), but not their sum and product, and may
    come out of order. What rounding puts below 0 is read as 0.
    """
    e = np.asarray(e, dtype=float)
    if e.ndim < 1 or not 1 <= e.shape[-1] <= 3 or not np.isfinite(e).all():
        raise InvalidInputError("charpoly_roots expects a finite (..., r) stack, 1 <= r <= 3")
    e = np.maximum(e, 0.0)
    if e.shape[-1] == 1:
        return e
    roots = np.empty_like(e)  # each root contiguous where each e_j is
    if e.shape[-1] == 2:
        _quadratic_roots(e[..., 0], e[..., 1], roots[..., 0], roots[..., 1])
        return roots
    e1, e2, e3 = e[..., 0], e[..., 1], e[..., 2]
    m = e1 / 3.0
    mm = m * m
    p = np.maximum(mm - e2 / 3.0, 0.0)
    q = m * (mm - e2 / 2.0) + e3 / 2.0
    root_p = np.sqrt(p)
    # rho clipped to [-1, 1] by its denominator; t = 0 where p = 0.
    rho = q / np.maximum(np.maximum(p * root_p, np.abs(q)), _TINY)
    first = np.cos(np.arccos(rho) / 3.0, out=roots[..., 0])
    first *= 2.0 * root_p
    first += m
    rest = np.maximum(e1 - first, 0.0)
    _quadratic_roots(rest, e3 / np.maximum(first, _TINY), roots[..., 1], roots[..., 2])
    return roots


def _quadratic_roots(total, product, larger, smaller) -> None:
    """The roots of x^2 - total x + product >= 0 into ``larger`` (the
    formula) and ``smaller`` (product / larger, which does not cancel), the
    product clipped to the square of half the total."""
    half = total / 2.0
    square = half * half
    product = np.minimum(product, square)
    np.sqrt(square - product, out=larger)
    larger += half
    np.divide(product, np.maximum(larger, _TINY), out=smaller)


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

    The active channels and the water level above the lowest floor f_1
    come from ``_water_levels``; an active channel i then gets
    p_i = level - (f_i - f_1), so a budget far below the floors is never
    lost to cancellation.
    """
    g, b, peaks = _checked(gains, budgets, noise)
    if not peaks.all():
        raise DegenerateInputError("water_fill: all channel gains are zero")
    floors, lowest, d, active, level = _water_levels(g, b, noise)
    # Equal floors have equal thresholds, so they are active together: the
    # active channels are those whose floor is at most the k-th lowest.
    top = d[np.arange(len(d))[:, None], active - 1]
    above = floors - lowest
    powers = level[..., None] - above[:, None, :]
    np.maximum(powers, 0.0, out=powers)
    # Exactly 0 when inactive, a zero gain's -inf included.
    powers *= above[:, None, :] <= top[..., None]
    return powers.reshape(g.shape[:-1] + b.shape + g.shape[-1:])


def waterfill_capacity(gains, budgets, noise: float) -> np.ndarray:
    """Spectral efficiency (bps/Hz) of water-filling over parallel channels,
    of shape gains.shape[:-1] + budgets.shape: the n channels on the last
    axis of ``gains`` share each budget, and a link whose gains are all
    zero has rate 0. Each link's rates are bit for bit those of a call with
    that link alone.

    No powers are formed. Channel i runs at log2(1 + p_i / f_i) =
    log2((f_1 + level) / f_i) for its floor f_i = noise / g_i, so with
    d_i = f_i - f_1 the k active channels carry
    [k log1p(level / f_1) - sum_{i<=k} log1p(d_i / f_1)] / ln 2: one
    cumulated log1p per gain and one per link and budget. Each channel's
    share log1p(level / f_1) - log1p(d_i / f_1) is non-negative and at
    most the first channel's, which bounds the rate from below, so the
    difference loses at most a few k eps relative.
    """
    g, b, peaks = _checked(gains, budgets, noise)
    silent = peaks == 0
    quiet = not peaks.all()
    if quiet:
        g = np.where(silent[..., None], 1.0, g)
    _, lowest, d, active, level = _water_levels(g, b, noise)
    links = np.arange(len(d))[:, None]
    spent = np.add.accumulate(_log1p_ratio(d, lowest), axis=-1)[links, active - 1]
    rates = active * _log1p_ratio(level, lowest)
    rates -= spent
    rates /= np.log(2.0)
    if quiet:
        rates[silent.reshape(-1)] = 0.0
    return rates.reshape(g.shape[:-1] + b.shape)[()]


def waterfill_parts(parts, budgets, noise: float) -> list:
    """The rates of several water-filled links at once: for each part
    (gains, f, c) of ``parts``, (c * C) / f with C = ``waterfill_capacity``
    of its (..., n) gains at the budgets times the budget factor f, of shape
    gains.shape[:-1] + budgets.shape, in part order. A plain water-fill has
    f = c = 1; an OFDM link water-fills N subcarriers at N P, f = N, and
    scales by its cyclic-prefix share c = N / (N + cp).

    The parts of one width n and one factor f share one
    ``waterfill_capacity`` call, their links stacked in part order; each
    link's rates are bit for bit those of its own call, so each part's are
    those of a call of its own. An error of a call is raised with the
    attribute ``parts``, the indices of the parts that shared it.
    """
    b = np.asarray(budgets, dtype=float)
    groups: dict[tuple, list[int]] = {}
    for i, (gains, f, _) in enumerate(parts):
        groups.setdefault((np.shape(gains)[-1], f), []).append(i)
    rates = [None] * len(parts)
    for (n, f), members in groups.items():
        links = [np.reshape(parts[i][0], (-1, n)) for i in members]
        try:
            filled = waterfill_capacity(np.concatenate(links), f * b, noise)
        except (NumericalError, FloatingPointError) as exc:
            exc.parts = members
            raise
        start = 0
        for i, part_links in zip(members, links):
            gains, _, c = parts[i]
            stop = start + len(part_links)
            rates[i] = (c * filled[start:stop].reshape(np.shape(gains)[:-1] + b.shape)) / f
            start = stop
    return rates


def _checked(gains, budgets, noise: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``gains`` and ``budgets`` as float arrays, with each link's largest
    gain, refused unless the gains are finite and non-negative, and the
    budgets and the noise positive."""
    g = np.asarray(gains, dtype=float)
    b = np.asarray(budgets, dtype=float)
    if g.ndim == 0 or g.size == 0:
        raise InvalidInputError("gains must be a (..., n) array of finite non-negative reals")
    peaks = g.max(axis=-1)
    # min and max carry a NaN through, which fails both comparisons.
    if not (g.min() >= 0 and peaks.max() < np.inf):
        raise InvalidInputError("gains must be a (..., n) array of finite non-negative reals")
    if not ((b.size == 0 or b.min() > 0) and noise > 0):
        raise InvalidInputError("budgets and noise must be positive")
    return g, b, peaks


def _water_levels(g: np.ndarray, b: np.ndarray, noise: float):
    """The threshold search of ``water_fill`` and ``waterfill_capacity``,
    on the links of (..., n) gains flattened to (links, n), against the
    budgets flattened to (B,).

    Returns the floors noise / g_i, (links, n), their lowest f_1, (links,
    1), the sorted floors shifted by it, d_1 = 0 <= d_2 <= ..., (links, n),
    and per link and budget the active count k and the water level above
    f_1, (links, B). The k best channels are active exactly when
    P > T_k = sum_{j<=k} (d_k - d_j), and the level is then
    (P + sum_{j<=k} d_j) / k. The count k of every link and budget comes
    from one ``searchsorted`` over the sorted thresholds of all links, the
    integers of a search per link. A zero gain has an infinite floor: it
    sorts last, and its threshold is never below a budget.
    """
    n = g.shape[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        floors = noise / g.reshape(-1, n)
        ranked = np.sort(floors, axis=-1)
        lowest = ranked[:, :1]
        d = ranked - lowest
        # T_{k+1} - T_k = k (d_{k+1} - d_k) >= 0, so the thresholds are
        # sorted; past the last positive gain they are inf, then nan where two
        # infinite floors meet: neither is below a budget.
        thresholds = np.empty_like(d)
        thresholds[:, 0] = 0.0
        steps = np.multiply(np.arange(1, n), d[:, 1:] - d[:, :-1], out=thresholds[:, 1:])
        np.add.accumulate(steps, axis=-1, out=steps)
    flat = b.reshape(-1)
    # The count of thresholds below each budget, >= 1 as every budget
    # exceeds T_1 = 0, from one search of every link at once: numpy orders
    # complex numbers by real part, then imaginary part, so the keys
    # link + j T, nan read as inf, are sorted, and a budget's query
    # link + j P lands after its link's thresholds below P and no others.
    links = np.arange(len(d))[:, None]
    keys = np.empty(d.shape, dtype=complex)
    keys.real, keys.imag = links, np.fmin(thresholds, np.inf)
    queries = np.empty((len(d), flat.size), dtype=complex)
    queries.real, queries.imag = links, flat
    active = np.searchsorted(keys.reshape(-1), queries) - links * n
    filled = np.add.accumulate(d, axis=-1)[np.arange(len(d))[:, None], active - 1]
    level = (flat + filled) / active
    return floors, lowest, d, active, level


def _log1p_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """log(1 + num / den) for num >= 0 and den > 0 that broadcast, one
    log1p per entry. Where num / den overflows, log(num) - log(den), which
    is then log1p's value to a few eps (inf for an infinite num)."""
    with np.errstate(over="ignore"):
        ratio = num / den
    huge = np.isinf(ratio)
    logs = np.log1p(ratio, out=ratio)
    if huge.any():
        logs[huge] = np.log(num[huge]) - np.log(np.broadcast_to(den, num.shape)[huge])
    return logs


def normalized_solve(c, b) -> np.ndarray:
    """C^{-1} b / sqrt(b^H C^{-1} b), of order |C|^(-1/2) (0 where b = 0),
    for each Hermitian positive definite C of a (..., m, m) stack and b of a
    (..., m) stack broadcast with it. C's lower triangle is factored as
    L L^H by hand, a ufunc step per entry over the stack and no LAPACK
    call; y = L^{-1} b, then L^{-H} y / |y|. A pivot that is not positive
    (NaN included) raises NumericalError.
    """
    cm, bm = np.asarray(c), np.asarray(b)
    m = cm.shape[-1] if cm.ndim >= 2 else 0
    if m == 0 or cm.shape[-2] != m or bm.shape[-1:] != (m,):
        raise InvalidInputError("normalized_solve expects C of (..., m, m) and b of (..., m)")
    if not (np.isfinite(cm).all() and np.isfinite(bm).all()):
        raise InvalidInputError("normalized_solve input contains non-finite entries")
    # An axis of one, so that no step meets numpy's scalar arithmetic, whose
    # complex product rounds unlike its array loops.
    cm, bm = cm[..., None, :, :], bm[..., None, :]
    conj = np.conj if np.iscomplexobj(cm) else (lambda v: v)
    low, y = {}, []  # L[i, j] for i >= j, and L^{-1} b
    for j in range(m):
        pivot = cm[..., j, j].real
        for k in range(j):
            pivot = pivot - (low[j, k] * conj(low[j, k])).real
        if not pivot.min() > 0:  # a NaN fails
            raise NumericalError("C is singular or indefinite in double precision")
        low[j, j] = np.sqrt(pivot)
        for i in range(j + 1, m):
            entry = cm[..., i, j]
            for k in range(j):
                entry = entry - low[i, k] * conj(low[j, k])
            low[i, j] = entry / low[j, j]
        entry = bm[..., j]
        for k in range(j):
            entry = entry - low[j, k] * y[k]
        y.append(entry / low[j, j])
    norm = np.sqrt(sum((v * np.conj(v)).real for v in y))
    norm[norm == 0] = 1.0
    x = [None] * m
    for i in reversed(range(m)):
        entry = y[i] / norm
        for k in range(i + 1, m):
            entry = entry - conj(low[k, i]) * x[k]
        x[i] = entry / low[i, i]
    return np.stack(x, axis=-1)[..., 0, :]

