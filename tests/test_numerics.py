import math
import warnings

import numpy as np
import pytest

from lensmimo.channel import PathResponses
from lensmimo.errors import DegenerateInputError, InvalidInputError, NumericalError
from lensmimo.experiments import preset, run_experiment
from lensmimo.numerics import (
    RANK_TOL,
    charpoly_roots,
    eigen_gains,
    hermitian_solve,
    water_fill,
    waterfill_capacity,
)
from lensmimo.upa import OfdmConfig, ofdm_capacity
from oracles import principal_minor_sums, waterfill_rates


def record_linalg(monkeypatch):
    """Record every call of a public np.linalg function as (name, shape of
    its first argument), in call order."""
    calls = []

    def recording(name, original):
        def wrapper(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return original(a, *args, **kwargs)

        return wrapper

    for name in dir(np.linalg):
        original = getattr(np.linalg, name)
        if not name.startswith("_") and callable(original) and not isinstance(original, type):
            monkeypatch.setattr(np.linalg, name, recording(name, original))
    return calls


class TestWaterFill:
    def test_symmetric_split(self):
        assert np.allclose(water_fill([1.0, 1.0], 2.0, 1.0), [1.0, 1.0])

    def test_shuts_weak_channel(self):
        # water level 0.5 + 1/4 = 0.75 < 1 keeps channel 2 off
        assert np.allclose(water_fill([4.0, 1.0], 0.5, 1.0), [0.5, 0.0])

    def test_single_channel_gets_all(self):
        assert np.allclose(water_fill([10.0], 3.0, 1.0), [3.0])

    def test_kkt_residual(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            g = rng.uniform(0.01, 10.0, rng.integers(1, 9))
            budget = rng.uniform(0.1, 20.0)
            noise = rng.uniform(0.1, 4.0)
            powers = water_fill(g, budget, noise)
            # The water level of the first active channel.
            active = np.flatnonzero(powers > 0)
            level = powers[active[0]] + noise / g[active[0]]
            expected = np.maximum(0.0, level - noise / g)
            assert np.allclose(powers, expected, rtol=1e-9, atol=1e-12)
            assert powers.sum() == pytest.approx(budget, rel=1e-9)
            assert np.all(powers >= 0)

    def test_permutation_invariance(self):
        g = np.array([0.3, 5.0, 1.2, 0.9])
        perm = np.array([2, 0, 3, 1])
        a = water_fill(g, 4.0, 1.0)
        b = water_fill(g[perm], 4.0, 1.0)
        assert np.allclose(a[perm], b)

    def test_beats_equal_split(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            g = rng.uniform(0.01, 10.0, 6)
            budget, noise = 3.0, 1.0
            wf = waterfill_capacity(g, budget, noise)
            equal = np.log2(1.0 + (budget / 6) * g / noise).sum()
            assert wf >= equal - 1e-9

    def test_zero_gain_channels_get_zero(self):
        powers = water_fill([0.0, 2.0], 1.0, 1.0)
        assert powers[0] == 0.0
        assert powers[1] == pytest.approx(1.0)

    def test_all_zero_gains_error(self):
        with pytest.raises(DegenerateInputError):
            water_fill([0.0, 0.0], 1.0, 1.0)

    def test_bad_inputs(self):
        with pytest.raises(InvalidInputError):
            water_fill([1.0], -1.0, 1.0)
        with pytest.raises(InvalidInputError):
            water_fill([1.0], 1.0, 0.0)
        with pytest.raises(InvalidInputError):
            water_fill([-1.0], 1.0, 1.0)
        with pytest.raises(InvalidInputError):
            water_fill([1.0], [1.0, 0.0], 1.0)

    def test_tiny_gains_still_converge(self):
        g = np.array([1e-14, 3e-14])
        assert water_fill(g, 2.0, 1.0).sum() == pytest.approx(2.0, rel=1e-9)

    def test_capacity_zero_when_all_gains_zero(self):
        assert waterfill_capacity([0.0, 0.0], 1.0, 1.0) == 0.0
        assert np.array_equal(waterfill_capacity([0.0], [1.0, 2.0], 1.0), [0.0, 0.0])

    def test_budget_far_below_floor_is_kept(self):
        # mu - noise/g would cancel the budget against the floor.
        assert water_fill([1.0], 1e-20, 1.0)[0] == 1e-20

    def test_nearly_equal_floors_spend_exactly_the_budget(self):
        powers = water_fill([1.0, 0.999999], 1e-12, 1.0)
        assert powers.sum() == 1e-12
        assert powers[1] == 0.0

    def test_budget_grid_shape(self):
        g = np.array([0.5, 0.0, 2.0])
        powers = water_fill(g, np.array([[0.1, 1.0], [10.0, 100.0]]), 1.0)
        assert powers.shape == (2, 2, 3)
        assert np.allclose(powers.sum(axis=-1), [[0.1, 1.0], [10.0, 100.0]], rtol=1e-12)
        assert np.all(powers[..., 1] == 0.0)

    def test_stack_rows_are_independent_links(self):
        # A zero gain, equal floors, and a budget below the first threshold
        # step (only the best channel active), each in its own row.
        g = np.array([[0.0, 2.0, 0.0], [1.0, 1.0, 1.0], [4.0, 1.0, 0.0]])
        budgets = np.array([0.1, 3.0, 100.0])
        powers = water_fill(g, budgets, 1.0)
        rates = waterfill_capacity(g, budgets, 1.0)
        assert powers.shape == (3, 3, 3) and rates.shape == (3, 3)
        for t in range(3):
            assert np.array_equal(powers[t], water_fill(g[t], budgets, 1.0))
            assert np.array_equal(rates[t], waterfill_capacity(g[t], budgets, 1.0))
        assert np.array_equal(powers[2, 0], [0.1, 0.0, 0.0])

    def test_stack_refusals(self):
        with pytest.raises(DegenerateInputError):
            water_fill([[1.0, 2.0], [0.0, 0.0]], 1.0, 1.0)
        silent = waterfill_capacity([[0.0, 0.0], [0.0, 0.0]], [1.0, 2.0], 1.0)
        assert np.array_equal(silent, np.zeros((2, 2)))
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(InvalidInputError):
                water_fill([[1.0, 2.0], [bad, 1.0]], 1.0, 1.0)
            with pytest.raises(InvalidInputError):
                waterfill_capacity([[1.0, 2.0], [bad, 0.0]], 1.0, 1.0)

    def test_capacity_takes_one_log1p_per_gain_and_budget(self, monkeypatch):
        # A (T, n) stack on B budgets: at most T n + T B log1p entries, not
        # the T B n of a per-budget sum over the powers.
        rng = np.random.default_rng(8)
        t, n, b = 4, 50, 9
        g = rng.uniform(0.0, 2.0, (t, n))
        budgets = np.logspace(-3, 3, b)
        seen = []
        log1p = np.log1p

        def spy(x, *args, **kwargs):
            seen.append(np.size(x))
            return log1p(x, *args, **kwargs)

        monkeypatch.setattr(np, "log1p", spy)
        rates = waterfill_capacity(g, budgets, 0.5)
        monkeypatch.undo()
        assert 0 < sum(seen) <= t * n + t * b
        want = waterfill_rates(g, budgets, 0.5)
        assert np.all(np.abs(rates - want) <= 8 * n * np.finfo(float).eps * want)

    def test_capacity_past_the_float_range_of_gain_ratios(self):
        # Floors 1e-200 and 1e120: d_2 / f_1 = 1e320 overflows, and so does
        # the level over f_1. Both channels are active (T_2 = 1e120 < P);
        # the rate is log2 of the two (f_1 + level) / f_i, taken in logs.
        f1, f2, budget = 1e-200, 1e120, 1e130
        level = (budget + (f2 - f1)) / 2
        want = (2 * math.log(f1 + level) - math.log(f1) - math.log(f2)) / math.log(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rate = waterfill_capacity([1 / f1, 1 / f2], budget, 1.0)
            low = waterfill_capacity([1 / f1, 1 / f2], 1e100, 1.0)
        assert rate == pytest.approx(want, rel=1e-15)
        # Below T_2 only the first channel is active.
        assert low == pytest.approx((math.log(1e100) - math.log(f1)) / math.log(2), rel=1e-15)

    def test_capacity_of_a_tiny_snr_keeps_its_digits(self):
        # log2(1 + 1e-13) loses about 8e-4 of its value to the rounding of 1 + x.
        rate = waterfill_capacity([1.0], 1e-13, 1.0)
        assert rate == pytest.approx(math.log1p(1e-13) / math.log(2), rel=1e-15)


class TestEigenGains:
    def test_stack_shape(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((5, 4, 6)) + 1j * rng.standard_normal((5, 4, 6))
        gains = eigen_gains(m)
        assert gains.shape == (5, 4)
        for g, h in zip(gains, m):
            assert np.allclose(g, np.linalg.svd(h, compute_uv=False) ** 2, rtol=1e-12)
            assert np.all(np.diff(g) <= 0)

    def test_rank_tolerance_zeroing_is_per_matrix(self):
        # Singular values 1 and 1e-13 (below RANK_TOL), then 1e-20 and
        # 1e-21 (same ratio, but kept: the rule is relative to each matrix).
        m = np.array([np.diag([1.0, 1e-13]), np.diag([1e-20, 1e-21])])
        gains = eigen_gains(m)
        assert 1e-13 < RANK_TOL
        assert np.array_equal(gains[0], [1.0, 0.0])
        assert np.allclose(gains[1], [1e-40, 1e-42], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("shape", [(7, 1, 5), (2, 3, 4, 1), (512, 1, 1), (1, 8)])
    def test_one_row_or_column_matches_svd(self, shape):
        # Matrices with a side of 1 take their one singular value as a norm.
        rng = np.random.default_rng(5)
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        gains = eigen_gains(m)
        want = np.linalg.svd(m, compute_uv=False)
        assert gains.shape == want.shape
        assert np.allclose(np.sqrt(gains), want, rtol=1e-15, atol=0.0)

    def test_zero_vector_gives_zero_gain(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gains = eigen_gains(np.zeros((3, 1, 4), dtype=complex))
        assert np.array_equal(gains, np.zeros((3, 1)))

    def test_selection_sweep_calls_no_svd_on_a_vector_stack(self, monkeypatch):
        # The selected fig9 link has rank 1 at the default budgets, so its 512
        # subcarrier cores are 1 x 1, and their singular values are absolute
        # values that need no LAPACK call. Record the shape of every SVD the
        # sweep makes.
        shapes = []
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        run_experiment(preset("fig9", trials=1, schemes=("UPA-OFDM-selection",)), workers=1)
        assert shapes, "the sweep made no SVD call at all"
        assert all(min(shape[-2:]) > 1 for shape in shapes), shapes

    def test_ofdm_sweep_calls_no_svd_on_a_subcarrier_stack(self, monkeypatch):
        # fig6's UPA responses are orthogonal on both sides, so every
        # subcarrier has the narrowband singular values: the sweep takes no
        # characteristic polynomial and no np.linalg function (eigvalsh,
        # eigh, svd or any other) sees a subcarrier stack. The calls are
        # the SVDs of the two per-side factors and of the block's (1, 3, 3)
        # narrowband core.
        monkeypatch.setattr(PathResponses, "charpoly", None)  # any call fails
        calls = record_linalg(monkeypatch)
        run_experiment(preset("fig6", trials=1, schemes=("UPA-OFDM",)), workers=1)
        assert calls == [("svd", (80, 3)), ("svd", (80, 3)), ("svd", (1, 3, 3))], calls

    def test_ofdm_sweep_of_a_non_orthogonal_link_calls_no_svd_on_it(self, monkeypatch):
        # fig9's full-array UPA link has three paths, side ranks 3 and 3 and
        # responses orthogonal on neither side, so its subcarrier eigen-gains
        # are the roots of the characteristic polynomials of the block's
        # (trials, 512) subcarrier cores, formed with no matrix per
        # subcarrier: the only calls left are the SVDs of the two per-side
        # factors.
        calls = record_linalg(monkeypatch)
        run_experiment(preset("fig9", trials=1, schemes=("UPA-OFDM",)), workers=1)
        assert [name for name, _ in calls] == ["svd", "svd"], calls
        assert all(len(shape) == 2 for _, shape in calls), calls

    def test_ofdm_above_three_paths_take_the_core_svds(self, monkeypatch):
        # Four paths and more antennas than that on both sides give 4 x 4
        # cores, which take no characteristic polynomial here: the (T, N, 4,
        # 4) stack takes one SVD call, besides the two factor SVDs.
        rng = np.random.default_rng(13)

        def cn(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        responses = PathResponses(
            rx=cn(4, 5), tx=cn(4, 6), gains=cn(2, 4), delays=rng.integers(0, 8, (2, 4))
        )
        calls = record_linalg(monkeypatch)
        ofdm_capacity(responses, 1.0, 1.0, OfdmConfig(subcarriers=8, cp_samples=0))
        assert calls == [("svd", (5, 4)), ("svd", (6, 4)), ("svd", (2, 8, 4, 4))], calls

    def test_zero_matrix(self):
        assert np.array_equal(eigen_gains(np.zeros((3, 2))), [0.0, 0.0])

    def test_invalid(self):
        with pytest.raises(InvalidInputError):
            eigen_gains(np.zeros((0, 3)))
        with pytest.raises(InvalidInputError):
            eigen_gains(np.array([[np.inf, 0.0]]))


def random_grams(rng, shape, r):
    g = rng.standard_normal(shape + (r, r)) + 1j * rng.standard_normal(shape + (r, r))
    return g @ g.conj().swapaxes(-1, -2)


class TestCharpolyRoots:
    """Eigenvalues of Hermitian positive semidefinite matrices from the
    coefficients of their characteristic polynomials (``charpoly_roots``)."""

    def test_diagonal_matrices_sorted(self):
        got = charpoly_roots(principal_minor_sums(np.diag([2.0, 0.5, 5.0])))
        assert np.allclose(got, [5.0, 2.0, 0.5], rtol=0, atol=4 * np.finfo(float).eps * 5.0)
        assert np.array_equal(charpoly_roots([4.0, 3.0]), [3.0, 1.0])
        assert np.array_equal(charpoly_roots([[4.0]]), [[4.0]])
        assert np.array_equal(charpoly_roots(np.zeros((2, 3))), np.zeros((2, 3)))

    @pytest.mark.parametrize("r", [2, 3])
    def test_small_matrices_make_no_linalg_call(self, monkeypatch, r):
        grams = random_grams(np.random.default_rng(r), (4, 7), r)
        want = np.linalg.eigvalsh(grams)[..., ::-1]
        e = principal_minor_sums(grams)
        calls = record_linalg(monkeypatch)
        got = charpoly_roots(e)
        assert calls == []
        assert got.shape == (4, 7, r)
        assert np.all(np.abs(got - want) <= 32 * np.finfo(float).eps * want[..., :1])

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_extreme_scales_without_overflow(self, scale):
        # Matrices scaled by s^(2 / r) have an e_r of about s^2 = 1e+-300,
        # near either end of double range: no step may overflow or
        # underflow on the way to the roots.
        rng = np.random.default_rng(6)
        for r in (2, 3):
            grams = scale ** (2 / r) * random_grams(rng, (5,), r)
            want = np.linalg.eigvalsh(grams)[..., ::-1]
            e = principal_minor_sums(grams)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = charpoly_roots(e)
            assert np.all(np.abs(got - want) <= 32 * np.finfo(float).eps * want[..., :1])

    def test_invalid(self):
        for e in (np.zeros((2, 4)), np.zeros(()), np.zeros((2, 0)), [1.0, np.nan], [np.inf]):
            with pytest.raises(InvalidInputError):
                charpoly_roots(e)


class TestHermitianSolve:
    def test_solves(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        c = a @ a.conj().T + np.eye(5)
        b = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        x = hermitian_solve(c, b)
        assert x.shape == b.shape
        assert np.allclose(c @ x, b)

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidInputError):
            hermitian_solve(np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones((2, 1)))

    def test_rejects_singular(self):
        with pytest.raises(NumericalError):
            hermitian_solve(np.zeros((2, 2)), np.ones((2, 1)))

    def test_stack_solves_each_matrix(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 2, 4, 4)) + 1j * rng.standard_normal((3, 2, 4, 4))
        c = a @ a.conj().swapaxes(-2, -1) + np.eye(4)
        b = rng.standard_normal((3, 2, 4, 3)) + 1j * rng.standard_normal((3, 2, 4, 3))
        x = hermitian_solve(c, b)
        assert x.shape == b.shape
        for i in np.ndindex(3, 2):
            assert np.array_equal(x[i], hermitian_solve(c[i], b[i]))

    def test_columns_equal_one_column_calls(self):
        # The streams of a budget share one call; each of its k columns is
        # bit for bit what a call with that column alone returns.
        rng = np.random.default_rng(5)
        a = rng.standard_normal((9, 3, 3)) + 1j * rng.standard_normal((9, 3, 3))
        c = a @ a.conj().swapaxes(-2, -1) + 1e-3 * np.eye(3)
        b = rng.standard_normal((9, 3, 4)) + 1j * rng.standard_normal((9, 3, 4))
        x = hermitian_solve(c, b)
        for j in range(4):
            assert np.array_equal(x[..., j : j + 1], hermitian_solve(c, b[..., j : j + 1]))

    def test_huge_entries_checked_without_overflow(self):
        # Squaring entries near 1e190 overflows a Frobenius norm; the check
        # scales each matrix by its largest entry first, so it solves a
        # Hermitian matrix without a warning and still refuses a
        # non-Hermitian one.
        c = 1e190 * np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = hermitian_solve(c, np.ones((2, 1)))
        assert np.allclose(c @ x, 1.0)
        with pytest.raises(InvalidInputError):
            hermitian_solve(1e190 * np.array([[2.0, 1.0], [0.0, 2.0]]), np.ones((2, 1)))
        # The same skew relative to the same scale as before the scaling.
        with pytest.raises(InvalidInputError):
            hermitian_solve(np.array([[1.0, 1e-11], [0.0, 1.0]]), np.ones((2, 1)))
        hermitian_solve(np.array([[1.0, 1e-13], [0.0, 1.0]]), np.ones((2, 1)))

    def test_one_singular_matrix_fails_the_stack(self):
        c = np.stack([np.eye(3), np.eye(3), np.diag([1.0, 1.0, 0.0])]).astype(complex)
        with pytest.raises(NumericalError):
            hermitian_solve(c, np.ones((3, 3, 2)))

    def test_rejects_mismatched_right_hand_side(self):
        with pytest.raises(InvalidInputError):
            hermitian_solve(np.stack([np.eye(2)] * 3), np.ones((2, 1)))
        with pytest.raises(InvalidInputError):
            hermitian_solve(np.stack([np.eye(2)] * 3), np.ones((3, 2)))

    def test_singular_solve_is_numerical_error(self):
        # Rank two: the Cholesky factorization of this matrix can pass on a
        # rounded pivot while the solve then meets an exact zero.
        a = np.array([[3 - 1j, 2], [-3 + 1j, 3], [3 - 2j, -2 + 3j]])
        with pytest.raises(NumericalError):
            hermitian_solve(a @ a.conj().T, np.ones((3, 1)))
