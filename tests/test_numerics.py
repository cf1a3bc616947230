import math
import warnings

import numpy as np
import pytest

from lensmimo.errors import DegenerateInputError, InvalidInputError, NumericalError
from lensmimo.experiments import preset, run_experiment
from lensmimo.numerics import (
    RANK_TOL,
    eigen_gains,
    hermitian_solve,
    water_fill,
    waterfill_capacity,
)


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
        # fig6's UPA-OFDM link has side ranks 3 and 3, so its subcarrier
        # eigen-gains come from one Hermitian eigensolve of the block's
        # (trials, 512, 3, 3) Gram stack. The only SVDs left are the two
        # per-side factors.
        calls = {"svd": [], "eigvalsh": []}

        def recording(name):
            original = getattr(np.linalg, name)

            def wrapper(a, *args, **kwargs):
                calls[name].append(np.shape(a))
                return original(a, *args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(np.linalg, name, recording(name))
        run_experiment(preset("fig6", trials=1, schemes=("UPA-OFDM",)), workers=1)
        assert len(calls["svd"]) == 2 and all(len(s) == 2 for s in calls["svd"]), calls
        assert calls["eigvalsh"] == [(1, 512, 3, 3)], calls

    def test_zero_matrix(self):
        assert np.array_equal(eigen_gains(np.zeros((3, 2))), [0.0, 0.0])

    def test_invalid(self):
        with pytest.raises(InvalidInputError):
            eigen_gains(np.zeros((0, 3)))
        with pytest.raises(InvalidInputError):
            eigen_gains(np.array([[np.inf, 0.0]]))


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
