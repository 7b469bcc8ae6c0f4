"""Variance-model checks: factorization algebra, IS divergence, updates."""

import numpy as np
import pytest

from helpers import is_divergence
from otbss.nmf import (
    EPS,
    NmfModel,
    init_nmf,
    is_update,
    variance,
)


class TestModel:
    def test_floors_applied_on_construction(self):
        m = NmfModel(basis=np.zeros((3, 2)), activation=np.zeros((2, 4)))
        assert np.all(m.basis == EPS)
        assert np.all(m.activation == EPS)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            NmfModel(basis=np.ones((3, 2)), activation=np.ones((3, 4)))

    def test_init_deterministic_per_seed(self):
        a = init_nmf(8, 10, 2, seed=5)
        b = init_nmf(8, 10, 2, seed=5)
        np.testing.assert_array_equal(a.basis, b.basis)
        np.testing.assert_array_equal(a.activation, b.activation)

    def test_init_range(self):
        m = init_nmf(16, 12, 3, seed=1)
        for arr in (m.basis, m.activation):
            assert np.all(arr >= EPS)
            assert np.all(arr <= 1.0)

    def test_init_seeds_differ_in_most_entries(self):
        a = init_nmf(20, 20, 4, seed=1)
        b = init_nmf(20, 20, 4, seed=2)
        frac = np.mean(a.basis != b.basis)
        assert frac >= 0.99

    def test_init_overcomplete_warns(self):
        with pytest.warns(UserWarning):
            init_nmf(4, 4, 5, seed=0)


class TestVariance:
    def test_rank_one_all_ones(self):
        m = NmfModel(basis=np.ones((3, 1)), activation=np.ones((1, 5)))
        np.testing.assert_array_equal(variance(m), np.ones((3, 5)))

    def test_scale_invariance_of_compensating_rescale(self):
        rng = np.random.default_rng(0)
        w = rng.uniform(0.1, 1, (6, 3))
        h = rng.uniform(0.1, 1, (3, 7))
        lam = variance(NmfModel(w, h))
        c = 37.5
        w2, h2 = w.copy(), h.copy()
        w2[:, 1] *= c
        h2[1, :] /= c
        lam2 = variance(NmfModel(w2, h2))
        np.testing.assert_allclose(lam2, lam, rtol=1e-12)

    def test_matches_naive_triple_loop(self):
        # oracle: explicit summation over the inner index
        rng = np.random.default_rng(1)
        w = rng.uniform(0.1, 1, (4, 3))
        h = rng.uniform(0.1, 1, (3, 5))
        lam = variance(NmfModel(w, h))
        naive = np.zeros((4, 5))
        for f in range(4):
            for t in range(5):
                for k in range(3):
                    naive[f, t] += w[f, k] * h[k, t]
        np.testing.assert_allclose(lam, naive, atol=1e-14)


class TestIsDivergence:
    def test_zero_at_identity(self):
        rng = np.random.default_rng(2)
        lam = rng.uniform(0.5, 2, (4, 4))
        assert is_divergence(lam, lam) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value_single_cell(self):
        # 2/1 - log(2) - 1 = 1 - log 2 = 0.30685...
        val = is_divergence(np.array([[2.0]]), np.array([[1.0]]))
        assert val == pytest.approx(2.0 - np.log(2.0) - 1.0, rel=1e-12)
        assert val == pytest.approx(0.3069, abs=1e-4)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = rng.uniform(0.01, 5, (6, 6))
            lam = rng.uniform(0.01, 5, (6, 6))
            assert is_divergence(p, lam) >= 0.0


class TestIsUpdate:
    def test_fixed_point_when_power_equals_variance(self):
        m = init_nmf(6, 8, 2, seed=4)
        lam = variance(m)
        m2 = is_update(m, lam)
        np.testing.assert_allclose(m2.basis, m.basis, rtol=1e-12)
        np.testing.assert_allclose(m2.activation, m.activation, rtol=1e-12)

    def test_monotone_on_random_instances(self):
        rng = np.random.default_rng(5)
        for trial in range(100):
            p = rng.uniform(0.01, 4.0, (8, 8))
            m = init_nmf(8, 8, 2, seed=trial)
            before = is_divergence(p, variance(m))
            m = is_update(m, p)
            after = is_divergence(p, variance(m))
            assert after <= before + 1e-10

    def test_monotone_over_long_run(self):
        rng = np.random.default_rng(6)
        p = rng.uniform(0.01, 4.0, (12, 16))
        m = init_nmf(12, 16, 3, seed=0)
        prev = is_divergence(p, variance(m))
        for _ in range(50):
            m = is_update(m, p)
            cur = is_divergence(p, variance(m))
            assert cur <= prev + 1e-10
            prev = cur

    def test_nonnegativity_near_zero_inputs(self):
        p = np.full((5, 5), 1e-18)
        m = init_nmf(5, 5, 2, seed=7)
        for _ in range(5):
            m = is_update(m, p)
        assert np.all(m.basis >= EPS)
        assert np.all(m.activation >= EPS)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            is_update(init_nmf(5, 6, 2), np.ones((6, 5)))
        with pytest.raises(ValueError, match="lam"):
            is_update(init_nmf(5, 6, 2), np.ones((5, 6)), np.ones((6, 5)))

    def test_passed_variance_gives_the_same_bits(self):
        # the variances as a caller holds them, rows of one stacked array;
        # the last model's product sits below EPS everywhere, so it is floored
        rng = np.random.default_rng(10)
        models = [init_nmf(9, 11, 3, seed=s) for s in (1, 2)]
        models.append(NmfModel(np.zeros((9, 3)), np.zeros((3, 11))))
        lam = np.stack([variance(m) for m in models])
        for m, v in zip(models, lam):
            p = rng.uniform(0.01, 4.0, (9, 11))
            got, want = is_update(m, p, v), is_update(m, p)
            np.testing.assert_array_equal(got.basis, want.basis)
            np.testing.assert_array_equal(got.activation, want.activation)

    def test_does_not_mutate_input(self):
        m = init_nmf(6, 6, 2, seed=8)
        w0 = m.basis.copy()
        rng = np.random.default_rng(9)
        is_update(m, rng.uniform(0.5, 2, (6, 6)))
        np.testing.assert_array_equal(m.basis, w0)

