"""Factorized-kernel checks against dense Kronecker assemblies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import materialize_kron_sum
from otbss.errors import CapabilityError, FactorizationError
from otbss.kron import (
    FactorizedKernel,
    KroneckerCost,
    factorize_bins,
    factorized_kernel,
    kron_sum_cost,
)
from otbss.sinkhorn import build_cost_sq


class TestFactorizeBins:
    def test_513_splits_into_27_and_19(self):
        # 513 = 3^3 * 19; balanced two-way grouping gives 27 * 19
        assert factorize_bins(513, 2) == (27, 19)

    def test_single_group_returns_f(self):
        assert factorize_bins(12, 1) == (12,)
        assert factorize_bins(513, 1) == (513,)

    def test_prime_with_two_groups_fails(self):
        with pytest.raises(FactorizationError):
            factorize_bins(13, 2)

    def test_too_many_groups_fails(self):
        with pytest.raises(FactorizationError):
            factorize_bins(4, 3)

    def test_product_invariant(self):
        for n in (8, 12, 36, 64, 360, 1024):
            for q in (1, 2, 3):
                dims = factorize_bins(n, q)
                assert int(np.prod(dims)) == n
                assert len(dims) == q
                if q >= 2:
                    assert all(d >= 2 for d in dims)

    def test_powers_of_two_balance(self):
        assert factorize_bins(64, 2) == (8, 8)
        assert factorize_bins(4096, 2) == (64, 64)


class TestKronSumCost:
    def test_single_factor_equals_dense_cost(self):
        for F in (1, 5, 12):
            cost = kron_sum_cost((F,))
            np.testing.assert_array_equal(cost.factors[0], build_cost_sq(F))

    def test_hand_value_dims_2_2(self):
        # flat 0 = (0,0), flat 3 = (1,1); strides (2,1), F = 4:
        # (1*2/4)^2 + (1*1/4)^2 = 0.25 + 0.0625
        cost = kron_sum_cost((2, 2))
        dense = materialize_kron_sum(cost)
        assert dense[0, 3] == pytest.approx(0.3125, abs=1e-15)

    def test_materialized_symmetric_zero_diagonal(self):
        for dims in ((2, 3), (4, 4), (2, 2, 2)):
            dense = materialize_kron_sum(kron_sum_cost(dims))
            np.testing.assert_allclose(dense, dense.T, atol=1e-15)
            np.testing.assert_allclose(np.diag(dense), 0.0, atol=1e-15)

    def test_matches_separable_formula_at_flat_indices(self):
        # oracle: evaluate sum_q ((i_q - j_q) * stride_q / F)^2 by
        # explicit digit arithmetic
        dims = (3, 4)
        F = 12
        dense = materialize_kron_sum(kron_sum_cost(dims))
        for i in range(F):
            for j in range(F):
                i1, i2 = divmod(i, 4)
                j1, j2 = divmod(j, 4)
                expected = ((i1 - j1) * 4 / F) ** 2 + ((i2 - j2) * 1 / F) ** 2
                assert dense[i, j] == pytest.approx(expected, abs=1e-15)

    def test_rejects_unit_factor_in_multiway_split(self):
        with pytest.raises(ValueError):
            kron_sum_cost((1, 6))


class TestMaterializeKronSum:
    def test_one_summand_broadcasts_over_other_digit(self):
        # with the second table zero, C[(ia,ib),(ja,jb)] = a[ia,ja] for
        # every (ib, jb) pair: A replicated in 3x3 blocks
        rng = np.random.default_rng(0)
        a = rng.uniform(0, 1, (2, 2))
        np.fill_diagonal(a, 0.0)
        cost = KroneckerCost(factors=(a, np.zeros((3, 3))), dims=(2, 3))
        np.testing.assert_allclose(materialize_kron_sum(cost), np.kron(a, np.ones((3, 3))))

    def test_matches_hand_assembly(self):
        # oracle: 6x6 assembly by explicit index arithmetic
        rng = np.random.default_rng(1)
        a = rng.uniform(0, 1, (2, 2))
        b = rng.uniform(0, 1, (3, 3))
        np.fill_diagonal(a, 0.0)
        np.fill_diagonal(b, 0.0)
        cost = KroneckerCost(factors=(a, b), dims=(2, 3))
        dense = materialize_kron_sum(cost)
        hand = np.zeros((6, 6))
        for ia in range(2):
            for ib in range(3):
                for ja in range(2):
                    for jb in range(3):
                        val = a[ia, ja] + b[ib, jb]
                        hand[ia * 3 + ib, ja * 3 + jb] = val
        np.testing.assert_allclose(dense, hand, atol=1e-15)

    def test_entrywise_exp_factorizes(self):
        # exp(-mu * (A + B)) = exp(-mu A) x exp(-mu B) entrywise when
        # the sum is a Kronecker sum of cost tables
        mu = 7.5
        cost = kron_sum_cost((3, 4))
        dense = materialize_kron_sum(cost)
        lhs = np.exp(-mu * dense)
        rhs = np.kron(np.exp(-mu * cost.factors[0]), np.exp(-mu * cost.factors[1]))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_large_f_rejected(self):
        with pytest.raises(CapabilityError):
            materialize_kron_sum(kron_sum_cost((64, 64)))


def _plain_kernel(*factors):
    """Unscaled FactorizedKernel over hand-picked factor matrices."""
    return FactorizedKernel(kernels=factors, dims=tuple(len(g) for g in factors), scale=1.0)


class TestFoldUnfold:
    """The apply folds the flat bin index into row-major digits by reshape."""

    def test_round_trip(self):
        # identity factors: fold, multiply by I per digit, unfold
        rng = np.random.default_rng(2)
        v = rng.standard_normal(24)
        for dims in ((24,), (4, 6), (2, 3, 4)):
            k = _plain_kernel(*(np.eye(f) for f in dims))
            np.testing.assert_array_equal(k.apply(v), v)
            np.testing.assert_array_equal(k.apply_adjoint(v), v)

    def test_index_arithmetic(self):
        # flat 5 with dims (2,3) is digit (1,2): G e_5 = A[:, 1] x B[:, 2]
        rng = np.random.default_rng(9)
        A, B = rng.standard_normal((2, 2)), rng.standard_normal((3, 3))
        out = _plain_kernel(A, B).apply(np.eye(6)[5])
        for i1 in range(2):
            for i2 in range(3):
                assert out[i1 * 3 + i2] == pytest.approx(A[i1, 1] * B[i2, 2], rel=1e-15)

    def test_ones_map_to_ones(self):
        # mu = 0 gives all-ones factors: every entry sums F ones
        k = factorized_kernel(kron_sum_cost((3, 4)), mu=0.0)
        np.testing.assert_allclose(k.apply(np.ones(12)), 12 * np.exp(-1.0), rtol=1e-15)

    def test_shape_mismatch_rejected(self):
        # a length that only divides by the dims must not be reshaped through
        k = _random_kernel((3, 4))
        for bad in (np.ones(10), np.ones(24), np.ones((24, 2)), np.ones((12, 2, 2))):
            with pytest.raises(ValueError):
                k.apply(bad)
            with pytest.raises(ValueError):
                k.apply_adjoint(bad)

    def test_batched_columns(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((12, 7))
        k = _random_kernel((3, 4))
        out = k.apply(m)
        assert out.shape == (12, 7)
        np.testing.assert_allclose(out[:, 5], k.apply(m[:, 5]), rtol=1e-13)


def _random_kernel(dims, mu=20.0):
    return factorized_kernel(kron_sum_cost(dims), mu)


class TestKernelApply:
    def test_single_factor_is_plain_matvec(self):
        rng = np.random.default_rng(4)
        k = _random_kernel((9,))
        v = rng.standard_normal(9)
        expected = np.exp(-1.0) * k.kernels[0] @ v
        np.testing.assert_allclose(k.apply(v), expected, rtol=1e-14)

    def test_matches_dense_kronecker_product(self):
        # oracle: assemble e^(-1) G1 x G2 with np.kron
        rng = np.random.default_rng(5)
        k = _random_kernel((3, 4))
        v = rng.uniform(0.1, 1.0, 12)
        dense = np.exp(-1.0) * np.kron(k.kernels[0], k.kernels[1])
        np.testing.assert_allclose(k.apply(v), dense @ v, rtol=1e-12)
        np.testing.assert_allclose(k.apply_adjoint(v), dense.T @ v, rtol=1e-12)

    def test_three_factors_match_dense(self):
        rng = np.random.default_rng(6)
        k = _random_kernel((2, 3, 4))
        v = rng.uniform(0.1, 1.0, 24)
        dense = np.exp(-1.0) * np.kron(np.kron(k.kernels[0], k.kernels[1]), k.kernels[2])
        np.testing.assert_allclose(k.apply(v), dense @ v, rtol=1e-12)

    @pytest.mark.parametrize("dims", [(9,), (3, 4), (2, 3, 4)])
    def test_scale_applied_in_place_is_the_scaled_product(self, dims):
        # bit for bit scale * (unscaled product), input left as it was
        rng = np.random.default_rng(9)
        k = _random_kernel(dims)
        unscaled = FactorizedKernel(kernels=k.kernels, dims=k.dims, scale=1.0)
        for x in (rng.uniform(0.1, 1.0, k.n_bins), rng.uniform(0.1, 1.0, (k.n_bins, 5))):
            before = x.copy()
            for apply, plain in ((k.apply, unscaled.apply), (k.apply_adjoint, unscaled.apply_adjoint)):
                np.testing.assert_array_equal(apply(x), k.scale * plain(x))
            np.testing.assert_array_equal(x, before)

    def test_zero_vector_maps_to_zero(self):
        k = _random_kernel((3, 4))
        np.testing.assert_array_equal(k.apply(np.zeros(12)), np.zeros(12))

    def test_batched_apply_matches_per_column(self):
        rng = np.random.default_rng(7)
        k = _random_kernel((4, 5))
        m = rng.uniform(0.1, 1.0, (20, 6))
        batched = k.apply(m)
        for t in range(6):
            np.testing.assert_allclose(batched[:, t], k.apply(m[:, t]), rtol=1e-13)

    def test_mode_products_commute(self):
        # G1 x G2 = (G1 x I)(I x G2) = (I x G2)(G1 x I)
        rng = np.random.default_rng(8)
        k = _random_kernel((3, 5))
        v = rng.uniform(0.1, 1.0, 15)
        first = _plain_kernel(k.kernels[0], np.eye(5))
        second = _plain_kernel(np.eye(3), k.kernels[1])
        order_a = second.apply(first.apply(v))
        order_b = first.apply(second.apply(v))
        np.testing.assert_allclose(order_a, order_b, rtol=1e-12)
        np.testing.assert_allclose(k.scale * order_a, k.apply(v), rtol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.lists(st.integers(2, 6), min_size=1, max_size=3),
        n_cols=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_materialized_kernel(self, dims, n_cols, seed):
        # random, non-symmetric factors, so a missing transpose shows
        rng = np.random.default_rng(seed)
        k = FactorizedKernel(
            kernels=tuple(rng.uniform(-1.0, 1.0, (f, f)) for f in dims),
            dims=tuple(dims),
            scale=float(rng.uniform(0.5, 2.0)),
        )
        dense = k.materialize()
        m = rng.uniform(-1.0, 1.0, (k.n_bins, n_cols))
        tol = 1e-13 * np.abs(dense).sum(axis=1).max()
        for x in (m[:, 0], m):
            assert np.max(np.abs(k.apply(x) - dense @ x)) <= tol
            assert np.max(np.abs(k.apply_adjoint(x) - dense.T @ x)) <= tol

    def test_kernel_matches_dense_gibbs_of_kron_sum(self):
        # the factored kernel must equal exp(-mu*C - 1) of the
        # materialized Kronecker-sum cost
        from otbss.sinkhorn import gibbs_kernel

        cost = kron_sum_cost((4, 4))
        k = factorized_kernel(cost, mu=35.0)
        dense_cost = materialize_kron_sum(cost)
        np.testing.assert_allclose(
            k.materialize(), gibbs_kernel(dense_cost, 35.0), rtol=1e-12
        )

    def test_apply_cost_formula(self):
        k = _random_kernel((27, 19))
        assert k.apply_cost() == 513 * (27 + 19)


class TestMarginals:
    @pytest.mark.parametrize("dims", [(3, 4), (4, 4), (6, 6), (2, 3, 4)])
    def test_match_dense_marginals(self, dims):
        # oracle: dense plan from the materialized Kronecker-sum cost
        rng = np.random.default_rng(sum(dims))
        F = int(np.prod(dims))
        k = _random_kernel(dims, mu=30.0)
        u = rng.uniform(0.5, 2.0, F)
        v = rng.uniform(0.5, 2.0, F)
        dense = k.materialize()
        plan = u[:, None] * dense * v[None, :]
        np.testing.assert_allclose(u * k.apply(v), plan.sum(axis=1), rtol=1e-12)
        np.testing.assert_allclose(v * k.apply_adjoint(u), plan.sum(axis=0), rtol=1e-12)

    def test_unit_scalings(self):
        k = _random_kernel((3, 4))
        ones = np.ones(12)
        expected = k.apply(ones)
        np.testing.assert_allclose(ones * k.apply(ones), expected, rtol=1e-14)
