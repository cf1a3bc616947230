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
ill-conditioned they fall back to ``eigen_gains``. ``water_fill`` and
``waterfill_capacity`` take a whole grid of power budgets, and a stack of
links (the trials of a block), at once, and share one finite-step threshold
search (Palomar and Fonollosa, IEEE TSP 2005): a sort and cumulative sums
per link, and one ``searchsorted`` of the budgets per link. ``water_fill``
returns the powers; ``waterfill_capacity`` forms none, and takes its rates
from one cumulated log1p per gain and one per link and budget, so no step
of it builds a (links, budgets, n) array. ``hermitian_solve`` solves a
stack of Hermitian positive definite systems (the PDM MMSE covariances in path
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

    Every step writes into buffers of the stack's shape, in the order of
    the expressions in the comments, which give each step's value (x, y, z,
    u, v, w name the current diagonal and lower entries).
    """
    stack = a.reshape(-1, 3, 3)
    shape = stack.shape[:1]
    x0, y0, z0 = stack[:, 0, 0].real, stack[:, 1, 1].real, stack[:, 2, 2].real
    u0, v0, w0 = stack[:, 1, 0], stack[:, 2, 0], stack[:, 2, 1]
    t1, t2, t3 = np.empty(shape), np.empty(shape), np.empty(shape)
    c1, c2 = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
    s = np.abs(x0)
    for entry in (y0, z0, u0, v0, w0):
        np.maximum(s, np.abs(entry, out=t1), out=s)
    s[~(s > 0)] = 1.0
    # q = (x / s + y / s + z / s) / 3
    q = np.divide(x0, s)
    q += np.divide(y0, s, out=t1)
    q += np.divide(z0, s, out=t1)
    q /= 3
    # x, y, z, u, v, w = x / s - q, y / s - q, z / s - q, u / s, v / s, w / s
    x, y, z = np.divide(x0, s), np.divide(y0, s), np.divide(z0, s)
    x -= q
    y -= q
    z -= q
    u, v, w = np.divide(u0, s), np.divide(v0, s), np.divide(w0, s)
    # q is rounded, so the shifted trace need not vanish next to p when the
    # three eigenvalues nearly coincide: shift once more by what is left.
    # rest = (x + y + z) / 3; x, y, z, q = x - rest, y - rest, z - rest, q + rest
    rest = np.add(x, y, out=t1)
    rest += z
    rest /= 3
    x -= rest
    y -= rest
    z -= rest
    q += rest
    # p = sqrt((x * x + y * y + z * z + 2 * (|u|^2 + |v|^2 + |w|^2)) / 6)
    p = np.multiply(x, x)
    p += np.multiply(y, y, out=t1)
    p += np.multiply(z, z, out=t1)
    off = _abs2(u, t1, t2)
    off += _abs2(v, t2, t3)
    off += _abs2(w, t2, t3)
    off *= 2
    p += off
    p /= 6
    np.sqrt(p, out=p)
    # x, y, z, u, v, w = x / unit, ..., w / unit, unit = p where p > 0, else 1
    unit = t1
    unit[...] = p
    unit[~(p > 0)] = 1.0
    for entry in (x, y, z, u, v, w):
        entry /= unit
    uu, vv, ww = _abs2(u, None, t1), _abs2(v, None, t1), _abs2(w, None, t1)
    # rho = (x * (y * z - ww) - y * vv - z * uu) / 2 + (u * w * v.conj()).real
    rho = np.multiply(y, z)
    rho -= ww
    rho *= x
    rho -= np.multiply(y, vv, out=t1)
    rho -= np.multiply(z, uu, out=t1)
    rho /= 2
    np.multiply(u, w, out=c1)
    c1 *= np.conjugate(v, out=c2)
    rho += c1.real
    top = rho >= 0  # mu is the largest eigenvalue, else the smallest
    # mu = (2 if top else -2) * cos(arccos(min(|rho|, 1)) / 3)
    angle = np.abs(rho, out=t1)
    np.minimum(angle, 1.0, out=angle)
    np.arccos(angle, out=angle)
    angle /= 3
    mu = np.where(top, 2.0, -2.0)
    mu *= np.cos(angle, out=angle)
    # trace = x + y + z; x, y, z = x - mu, y - mu, z - mu, now M
    trace = np.add(x, y)
    trace += z
    x -= mu
    y -= mu
    z -= mu
    # adj0, adj1, adj2 = y * z - ww, x * z - vv, x * y - uu, over ww, vv, uu
    adj0 = np.subtract(np.multiply(y, z, out=t1), ww, out=ww)
    adj1 = np.subtract(np.multiply(x, z, out=t1), vv, out=vv)
    adj2 = np.subtract(np.multiply(x, y, out=t1), uu, out=uu)
    # half = (trace - 3 * mu) / 2; h = half / (adj0 + adj1 + adj2)
    half = np.subtract(trace, np.multiply(3, mu, out=t1))
    half /= 2
    h = np.add(adj0, adj1)
    h += adj2
    np.divide(half, h, out=h)
    # k_diag = (x - half + h * adj0) ** 2 + (y - half + h * adj1) ** 2
    #     + (z - half + h * adj2) ** 2
    k_diag = np.zeros(shape)
    for diag, adj in ((x, adj0), (y, adj1), (z, adj2)):
        term = np.subtract(diag, half, out=t1)
        term += np.multiply(h, adj, out=t2)
        k_diag += np.square(term, out=term)
    # k_off = |u + h * (w.conj() * v - u * z)|^2 + |v + h * (u * w - y * v)|^2
    #     + |w + h * (u.conj() * v - x * w)|^2
    k_off = np.zeros(shape)
    for entry, (a1, b1), (a2, b2) in (
        (u, (np.conjugate(w), v), (u, z)),
        (v, (u, w), (y, v)),
        (w, (np.conjugate(u), v), (x, w)),
    ):
        np.multiply(a1, b1, out=c1)
        c1 -= np.multiply(a2, b2, out=c2)
        np.multiply(h, c1, out=c1)
        np.add(entry, c1, out=c1)
        k_off += _abs2(c1, t1, t2)
    # gap = sqrt(k_diag / 2 + k_off); mid = (trace - mu) / 2
    gap = np.divide(k_diag, 2, out=k_diag)
    gap += k_off
    np.sqrt(gap, out=gap)
    mid = np.subtract(trace, mu, out=trace)
    mid /= 2
    hi, lo = np.add(mid, gap, out=t1), np.subtract(mid, gap, out=t2)
    # e = (mu, mid + gap, mid - gap) where top, else (mid + gap, mid - gap, mu)
    e = np.empty(shape + (3,))
    for k, (first, second) in enumerate(((mu, hi), (hi, lo), (lo, mu))):
        np.copyto(e[..., k], second)
        np.copyto(e[..., k], first, where=top)
    # s * (q + p * e)
    e *= p[..., None]
    e += q[..., None]
    e *= s[..., None]
    return e.reshape(a.shape[:-1])


def _abs2(c: np.ndarray, out: np.ndarray | None, scratch: np.ndarray) -> np.ndarray:
    """|c|^2 of a complex array, without the square root of np.abs, into
    ``out`` (or a new array) with ``scratch`` for the imaginary part."""
    out = np.multiply(c.real, c.real, out=out)
    out += np.multiply(c.imag, c.imag, out=scratch)
    return out


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
    g, b = _checked(gains, budgets, noise)
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
    g = np.asarray(gains, dtype=float)
    silent = (g == 0).all(axis=-1, keepdims=True)
    g, b = _checked(np.where(silent, 1.0, g), budgets, noise)
    _, lowest, d, active, level = _water_levels(g, b, noise)
    links = np.arange(len(d))[:, None]
    spent = np.add.accumulate(_log1p_ratio(d, lowest), axis=-1)[links, active - 1]
    rates = active * _log1p_ratio(level, lowest)
    rates -= spent
    rates /= np.log(2.0)
    rates[silent.reshape(-1)] = 0.0
    return rates.reshape(g.shape[:-1] + b.shape)[()]


def _checked(gains, budgets, noise: float) -> tuple[np.ndarray, np.ndarray]:
    """``gains`` and ``budgets`` as float arrays, refused unless the gains
    are finite and non-negative with a positive one per link, and the
    budgets and the noise positive."""
    g = np.asarray(gains, dtype=float)
    b = np.asarray(budgets, dtype=float)
    if g.ndim == 0 or g.size == 0 or not np.isfinite(g).all() or (g < 0).any():
        raise InvalidInputError("gains must be a (..., n) array of finite non-negative reals")
    if not (b > 0).all() or noise <= 0:
        raise InvalidInputError("budgets and noise must be positive")
    if not (g > 0).any(axis=-1).all():
        raise DegenerateInputError("water_fill: all channel gains are zero")
    return g, b


def _water_levels(g: np.ndarray, b: np.ndarray, noise: float):
    """The threshold search of ``water_fill`` and ``waterfill_capacity``,
    on the links of (..., n) gains flattened to (links, n), against the
    budgets flattened to (B,).

    Returns the floors noise / g_i, (links, n), their lowest f_1, (links,
    1), the sorted floors shifted by it, d_1 = 0 <= d_2 <= ..., (links, n),
    and per link and budget the active count k and the water level above
    f_1, (links, B). The k best channels are active exactly when
    P > T_k = sum_{j<=k} (d_k - d_j), and the level is then
    (P + sum_{j<=k} d_j) / k. Each link's thresholds are searched on their
    own, one ``searchsorted`` per link. A zero gain has an infinite floor:
    it sorts last, and its threshold is never below a budget.
    """
    n = g.shape[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        floors = noise / g.reshape(-1, n)
        ranked = np.sort(floors, axis=-1)
        lowest = ranked[:, :1]
        d = ranked - lowest
        # T_{k+1} - T_k = k (d_{k+1} - d_k) >= 0, so the thresholds are
        # sorted; past the last positive gain they are inf, then nan where two
        # infinite floors meet, which searchsorted orders last: neither is
        # below a budget.
        thresholds = np.empty_like(d)
        thresholds[:, 0] = 0.0
        steps = np.multiply(np.arange(1, n), d[:, 1:] - d[:, :-1], out=thresholds[:, 1:])
        np.add.accumulate(steps, axis=-1, out=steps)
    flat = b.reshape(-1)
    # The count of thresholds below each budget, >= 1 as every budget
    # exceeds T_1 = 0.
    active = np.empty((len(d), flat.size), dtype=np.intp)
    for row, count in zip(thresholds, active):
        count[:] = np.searchsorted(row, flat)
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
