import math

import numpy as np
import pytest

from lensmimo.errors import DegenerateInputError, InvalidInputError, NumericalError
from lensmimo.numerics import (
    RANK_TOL,
    eigen_gains,
    hermitian_solve,
    water_fill,
    waterfill_capacity,
)


class TestWaterFill:
    def test_symmetric_split(self):
        alloc = water_fill([1.0, 1.0], 2.0, 1.0)
        assert np.allclose(alloc.powers, [1.0, 1.0])

    def test_shuts_weak_channel(self):
        # water level 0.75 < 1 keeps channel 2 off
        alloc = water_fill([4.0, 1.0], 0.5, 1.0)
        assert np.allclose(alloc.powers, [0.5, 0.0])
        assert alloc.water_level == pytest.approx(0.75)

    def test_single_channel_gets_all(self):
        alloc = water_fill([10.0], 3.0, 1.0)
        assert np.allclose(alloc.powers, [3.0])

    def test_kkt_residual(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            g = rng.uniform(0.01, 10.0, rng.integers(1, 9))
            budget = rng.uniform(0.1, 20.0)
            noise = rng.uniform(0.1, 4.0)
            alloc = water_fill(g, budget, noise)
            expected = np.maximum(0.0, alloc.water_level - noise / g)
            assert np.allclose(alloc.powers, expected, rtol=1e-9, atol=1e-12)
            assert alloc.powers.sum() == pytest.approx(budget, rel=1e-9)
            assert np.all(alloc.powers >= 0)

    def test_permutation_invariance(self):
        g = np.array([0.3, 5.0, 1.2, 0.9])
        perm = np.array([2, 0, 3, 1])
        a = water_fill(g, 4.0, 1.0).powers
        b = water_fill(g[perm], 4.0, 1.0).powers
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
        alloc = water_fill([0.0, 2.0], 1.0, 1.0)
        assert alloc.powers[0] == 0.0
        assert alloc.powers[1] == pytest.approx(1.0)

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
        alloc = water_fill(g, 2.0, 1.0)
        assert alloc.powers.sum() == pytest.approx(2.0, rel=1e-9)

    def test_capacity_zero_when_all_gains_zero(self):
        assert waterfill_capacity([0.0, 0.0], 1.0, 1.0) == 0.0
        assert np.array_equal(waterfill_capacity([0.0], [1.0, 2.0], 1.0), [0.0, 0.0])

    def test_budget_far_below_floor_is_kept(self):
        # mu - noise/g would cancel the budget against the floor.
        alloc = water_fill([1.0], 1e-20, 1.0)
        assert alloc.powers[0] == 1e-20

    def test_nearly_equal_floors_spend_exactly_the_budget(self):
        alloc = water_fill([1.0, 0.999999], 1e-12, 1.0)
        assert alloc.powers.sum() == 1e-12
        assert alloc.powers[1] == 0.0

    def test_budget_grid_shape(self):
        g = np.array([0.5, 0.0, 2.0])
        alloc = water_fill(g, np.array([[0.1, 1.0], [10.0, 100.0]]), 1.0)
        assert alloc.powers.shape == (2, 2, 3)
        assert alloc.water_level.shape == (2, 2)
        assert np.allclose(alloc.powers.sum(axis=-1), [[0.1, 1.0], [10.0, 100.0]], rtol=1e-12)
        assert np.all(alloc.powers[..., 1] == 0.0)


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
        b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        x = hermitian_solve(c, b)
        assert np.allclose(c @ x, b)

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidInputError):
            hermitian_solve(np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones(2))

    def test_rejects_singular(self):
        with pytest.raises(NumericalError):
            hermitian_solve(np.zeros((2, 2)), np.ones(2))

    def test_stack_solves_each_matrix(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 2, 4, 4)) + 1j * rng.standard_normal((3, 2, 4, 4))
        c = a @ a.conj().swapaxes(-2, -1) + np.eye(4)
        b = rng.standard_normal((3, 2, 4)) + 1j * rng.standard_normal((3, 2, 4))
        x = hermitian_solve(c, b)
        assert x.shape == b.shape
        for i in np.ndindex(3, 2):
            assert np.array_equal(x[i], hermitian_solve(c[i], b[i]))

    def test_one_singular_matrix_fails_the_stack(self):
        c = np.stack([np.eye(3), np.eye(3), np.diag([1.0, 1.0, 0.0])]).astype(complex)
        with pytest.raises(NumericalError):
            hermitian_solve(c, np.ones((3, 3)))

    def test_rejects_mismatched_right_hand_side(self):
        with pytest.raises(InvalidInputError):
            hermitian_solve(np.stack([np.eye(2)] * 3), np.ones(2))

    def test_singular_solve_is_numerical_error(self):
        # Rank two: the Cholesky factorization of this matrix can pass on a
        # rounded pivot while the solve then meets an exact zero.
        a = np.array([[3 - 1j, 2], [-3 + 1j, 3], [3 - 2j, -2 + 3j]])
        with pytest.raises(NumericalError):
            hermitian_solve(a @ a.conj().T, np.ones(3))
