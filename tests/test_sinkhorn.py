"""Unbalanced transport: kernel values, the TI solver, the objective.

Independent oracles: hand-evaluated kernel entries, dense plan assembly
by explicit loops, a Nelder-Mead minimization of the relaxed objective
over the plan entries, and the classic balanced Sinkhorn limit.
"""

import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from helpers import dense_plan, dense_plan_objective, kl_mass
from otbss.errors import SinkhornNumericError
from otbss.kron import factorize_bins, factorized_kernel, kron_sum_cost
from otbss.sinkhorn import (
    EPS_FLOOR,
    FrameMarginals,
    SinkhornParams,
    build_cost_sq,
    compute_frame_marginals,
    gibbs_kernel,
)


def _solve(a, b, kernel, params, init=None):
    """One-frame solve: (F,) masses in, (F,) marginals and log scalings out."""
    marg = compute_frame_marginals(a[:, None], b[:, None], kernel, params, init=init)
    return FrameMarginals(*(x[:, 0] for x in marg[:4]), marg.objective)


def _minimize_plan(a, b, cost, params, x0):
    """Brute-force optimum over log-plan entries (oracle)."""
    F = len(a)

    def fun(x):
        return dense_plan_objective(np.exp(x).reshape(F, F), a, b, cost, params)

    res = minimize(
        fun,
        np.log(x0.ravel()),
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 200000, "maxfev": 400000},
    )
    return np.exp(res.x).reshape(F, F), res.fun


class TestCost:
    def test_single_bin(self):
        np.testing.assert_array_equal(build_cost_sq(1), [[0.0]])

    def test_hand_value_f4(self):
        C = build_cost_sq(4)
        assert C[0, 3] == pytest.approx((3 / 4) ** 2, rel=1e-15)
        assert C[0, 3] == 0.5625

    def test_symmetric_zero_diagonal(self):
        C = build_cost_sq(7)
        np.testing.assert_array_equal(C, C.T)
        np.testing.assert_array_equal(np.diag(C), np.zeros(7))
        assert np.all(C >= 0)


class TestGibbsKernel:
    def test_zero_cost_gives_inverse_e(self):
        G = gibbs_kernel(np.zeros((3, 3)), mu=50.0)
        np.testing.assert_allclose(G, np.exp(-1.0), rtol=1e-15)

    def test_mu_zero_turns_regularization_off(self):
        C = build_cost_sq(5)
        G = gibbs_kernel(C, mu=0.0)
        np.testing.assert_allclose(G, np.exp(-1.0), rtol=1e-15)

    def test_hand_value_f2_mu100(self):
        # C_01 = 0.25, so off-diagonal entries are e^(-26) ~ 5.1e-12
        G = gibbs_kernel(build_cost_sq(2), mu=100.0)
        assert G[0, 1] == pytest.approx(np.exp(-26.0), rel=1e-12)
        assert G[0, 1] == pytest.approx(5.1e-12, rel=1e-2)

    def test_entries_in_range(self):
        G = gibbs_kernel(build_cost_sq(16), mu=100.0)
        assert np.all(G > 0)
        assert np.all(G <= np.exp(-1.0))

    def test_underflow_floors_with_warning(self):
        C = build_cost_sq(2)  # off-diagonal 0.25
        with pytest.warns(UserWarning):
            G = gibbs_kernel(C, mu=4000.0)  # e^(-1001) underflows
        assert G[0, 1] == EPS_FLOOR


class TestKernelUnderflow:
    """One rule for both builders: exact zeros are floored, with a warning."""

    @staticmethod
    def _build(backend, n_bins, mu):
        if backend == "kron":
            return factorized_kernel(kron_sum_cost(factorize_bins(n_bins, 2)), mu)
        return gibbs_kernel(build_cost_sq(n_bins), mu)

    @pytest.mark.parametrize("backend", ["dense", "kron"])
    @pytest.mark.parametrize("mu", [1000.0, 3000.0])
    def test_large_mu_floors_zeros_and_solves(self, backend, mu):
        # F = 513 is the reference scene's bin count, split 27 x 19
        n_bins = 513
        with pytest.warns(UserWarning, match="underflowed") as record:
            kernel = self._build(backend, n_bins, mu)
        # both builders name their caller, as warnings.warn's stacklevel should
        assert {w.filename for w in record} == {__file__}
        entries = kernel.kernels if backend == "kron" else (kernel,)
        assert all(np.all(g > 0) for g in entries)
        if backend == "kron":
            assert np.any(entries[0] == EPS_FLOOR)
            assert np.all(kernel.materialize() > 0)
        rng = np.random.default_rng(14)
        a = rng.uniform(1e-3, 10.0, size=(n_bins, 4))
        b = rng.uniform(1e-3, 10.0, size=(n_bins, 4))
        marg = compute_frame_marginals(a, b, kernel, SinkhornParams(mu=mu, max_iter=10, tol=1e-300))
        for x in marg:
            assert np.all(np.isfinite(x))

    @pytest.mark.parametrize("backend", ["dense", "kron"])
    def test_default_mu_builds_silently(self, backend):
        # no entry underflows at the default mu, so the floor moves none,
        # not even those below it (about 2e-44 dense, 5.6e-41 per factor)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kernel = self._build(backend, 513, SinkhornParams().mu)
        entries = kernel.kernels if backend == "kron" else (kernel,)
        assert 0 < min(np.min(g) for g in entries) < EPS_FLOOR


class TestParams:
    def test_defaults(self):
        p = SinkhornParams()
        assert p.mu == 100.0
        assert p.gamma == 10.0
        assert p.max_iter == 10
        assert p.tol == 0.1

    def test_marginal_exponent(self):
        p = SinkhornParams(mu=100.0, gamma=10.0)
        assert p.marginal_exponent == pytest.approx(1000.0 / 1001.0, rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SinkhornParams(mu=0.0)
        with pytest.raises(ValueError):
            SinkhornParams(gamma=-1.0)


class TestScalings:
    def test_symmetric_problem_has_equal_marginals(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(0.5, 2.0, 6)
        p = SinkhornParams(max_iter=2000, tol=1e-12)
        G = gibbs_kernel(np.zeros((6, 6)), p.mu)
        marg = _solve(a, a, G, p)
        np.testing.assert_allclose(marg.row, marg.col, rtol=1e-8)

    def test_fixed_point_residual_below_tol(self):
        # the converged TI scalings satisfy the plain fixed point
        rng = np.random.default_rng(1)
        F = 12
        a = rng.uniform(0.5, 2.0, F)
        b = rng.uniform(0.5, 2.0, F)
        b *= a.sum() / b.sum()
        p = SinkhornParams(max_iter=5000, tol=1e-6)
        G = gibbs_kernel(build_cost_sq(F), p.mu)
        marg = _solve(a, b, G, p)
        log_u_next = p.marginal_exponent * (np.log(a) - np.log(G @ np.exp(marg.log_v)))
        assert np.max(np.abs(marg.log_u - log_u_next)) < p.tol

    def test_balanced_limit_recovers_marginals(self):
        # gamma -> infinity forces P1 = a and P'1 = b (equal masses)
        rng = np.random.default_rng(2)
        F = 8
        a = rng.uniform(0.5, 2.0, F)
        b = rng.uniform(0.5, 2.0, F)
        b *= a.sum() / b.sum()
        p = SinkhornParams(mu=100.0, gamma=1e6, max_iter=5000, tol=1e-12)
        G = gibbs_kernel(build_cost_sq(F), p.mu)
        marg = _solve(a, b, G, p)
        np.testing.assert_allclose(marg.row, a, rtol=1e-4)
        np.testing.assert_allclose(marg.col, b, rtol=1e-4)
        assert np.sum(np.abs(marg.row - a)) / np.sum(a) < 1e-3

    def test_mass_crosses_to_off_diagonal_cell(self):
        # a concentrated on bin 0, b on bin 1: nearly all mass must
        # ride P[0,1]; cross-checked against a brute-force optimum
        p = SinkhornParams(mu=1.0, gamma=10.0, max_iter=20000, tol=1e-14)
        C = build_cost_sq(2)
        a = np.array([1.0, EPS_FLOOR])
        b = np.array([EPS_FLOOR, 1.0])
        G = gibbs_kernel(C, p.mu)
        marg = _solve(a, b, G, p)
        plan = dense_plan(marg.log_u, G, marg.log_v)
        assert plan[0, 1] / plan.sum() > 0.99
        brute, _ = _minimize_plan(a, b, C, p, np.full((2, 2), 0.25))
        assert plan[0, 1] == pytest.approx(brute[0, 1], rel=1e-5)

    def test_batched_columns_match_per_frame_runs(self):
        # a fixed budget (tol out of reach) so every run takes the same steps
        rng = np.random.default_rng(3)
        F, T = 9, 5
        a = rng.uniform(0.5, 2.0, (F, T))
        b = rng.uniform(0.5, 2.0, (F, T))
        p = SinkhornParams(max_iter=300, tol=1e-300)
        G = gibbs_kernel(build_cost_sq(F), p.mu)
        batched = compute_frame_marginals(a, b, G, p)
        objectives = []
        for t in range(T):
            alone = _solve(a[:, t], b[:, t], G, p)
            for got, want in zip(batched[:4], alone[:4]):
                np.testing.assert_allclose(got[:, t], want, rtol=1e-12, atol=1e-12)
            objectives.append(alone.objective)
        assert batched.objective == pytest.approx(sum(objectives), rel=1e-12)

    def test_warm_start_converges_to_same_point(self):
        # once converged, a warm restart must stay put
        rng = np.random.default_rng(4)
        F = 10
        a = rng.uniform(0.5, 2.0, F)
        b = rng.uniform(0.5, 2.0, F)
        b *= a.sum() / b.sum()
        p = SinkhornParams(max_iter=60000, tol=1e-13)
        G = gibbs_kernel(build_cost_sq(F), p.mu)
        cold = compute_frame_marginals(a[:, None], b[:, None], G, p)
        warm = compute_frame_marginals(a[:, None], b[:, None], G, p, init=cold)
        np.testing.assert_allclose(warm.log_u, cold.log_u, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(warm.row, cold.row, rtol=1e-9)

    def test_nan_input_raises_with_iteration_index(self):
        p = SinkhornParams(max_iter=10)
        G = gibbs_kernel(build_cost_sq(3), p.mu)
        a = np.array([1.0, np.nan, 1.0])
        with pytest.raises(SinkhornNumericError) as exc:
            _solve(a, np.ones(3), G, p)
        assert exc.value.iteration == 0

    def test_extreme_masses_give_finite_log_scalings(self):
        # the converged u exceeds 1e150; the solver keeps only its log
        p = SinkhornParams(mu=1.0, gamma=1.0, max_iter=200, tol=1e-12)
        G = gibbs_kernel(np.zeros((2, 2)), p.mu)
        marg = _solve(np.exp(700) * np.ones(2), np.ones(2), G, p)
        for x in marg:
            assert np.all(np.isfinite(x))
        assert marg.log_u.max() > np.log(1e150)

    def test_contraction_like_scaling_changes(self):
        # log-domain change per TI step shrinks monotonically after the
        # first few steps on random instances; each call is one step
        # warm-started from the last
        rng = np.random.default_rng(5)
        F = 8
        p = SinkhornParams(mu=100.0, gamma=10.0, max_iter=1)
        G = gibbs_kernel(build_cost_sq(F), p.mu)
        for trial in range(5):
            a = rng.uniform(0.5, 2.0, (F, 1))
            b = rng.uniform(0.5, 2.0, (F, 1))
            marg = compute_frame_marginals(a, b, G, p)
            errs = []
            for _ in range(20):
                step = compute_frame_marginals(a, b, G, p, init=marg)
                errs.append(
                    max(
                        np.max(np.abs(step.log_u - marg.log_u)),
                        np.max(np.abs(step.log_v - marg.log_v)),
                    )
                )
                marg = step
            for i in range(3, len(errs) - 1):
                assert errs[i + 1] <= errs[i] * (1.0 + 1e-9)


class TestTransportSummary:
    def test_marginals_match_dense_assembly(self):
        # oracle: assemble P entry by entry and sum rows/columns
        rng = np.random.default_rng(6)
        F = 4
        a = rng.uniform(0.5, 2.0, F)
        b = rng.uniform(0.5, 2.0, F)
        p = SinkhornParams(max_iter=1000, tol=1e-10)
        G = gibbs_kernel(build_cost_sq(F), p.mu)
        marg = _solve(a, b, G, p)
        u, v = np.exp(marg.log_u), np.exp(marg.log_v)
        plan = np.empty((F, F))
        for i in range(F):
            for j in range(F):
                plan[i, j] = u[i] * G[i, j] * v[j]
        np.testing.assert_allclose(marg.row, plan.sum(axis=1), rtol=1e-12)
        np.testing.assert_allclose(marg.col, plan.sum(axis=0), rtol=1e-12)

    def test_mass_conservation(self):
        rng = np.random.default_rng(7)
        F = 16
        a = rng.uniform(0.5, 2.0, F)
        b = rng.uniform(0.5, 2.0, F)
        p = SinkhornParams(max_iter=500, tol=1e-9)
        G = gibbs_kernel(build_cost_sq(F), p.mu)
        marg = _solve(a, b, G, p)
        total_r = marg.row.sum()
        total_c = marg.col.sum()
        assert abs(total_r - total_c) / total_r < 1e-10

    def test_perfect_fit_has_zero_kl_terms(self):
        # marginal deviation at the optimum scales as 1/(gamma*mu), so
        # the KL terms vanish in the tight-relaxation regime
        rng = np.random.default_rng(8)
        F = 6
        a = rng.uniform(0.5, 2.0, F)
        p = SinkhornParams(gamma=1e5, max_iter=5000, tol=1e-13)
        G = gibbs_kernel(np.zeros((F, F)), p.mu)
        marg = _solve(a, a, G, p)
        kl = kl_mass(marg.row, a) + kl_mass(marg.col, a)
        assert kl < 1e-10

    def test_divergence_reduces_to_entropy_term_for_perfect_fit(self):
        # a = b and C = 0: cost and KL terms vanish, leaving -H(P*)/mu
        rng = np.random.default_rng(9)
        F = 5
        a = rng.uniform(0.5, 2.0, F)
        p = SinkhornParams(gamma=1e5, max_iter=5000, tol=1e-13)
        G = gibbs_kernel(np.zeros((F, F)), p.mu)
        marg = compute_frame_marginals(a[:, None], a[:, None], G, p)
        plan = dense_plan(marg.log_u[:, 0], G, marg.log_v[:, 0])
        neg_entropy_over_mu = np.sum(plan * np.log(plan)) / p.mu
        assert marg.objective == pytest.approx(neg_entropy_over_mu, rel=1e-8)

    def test_matrix_free_objective_identity(self):
        # the objective the solver forms from its logs must equal the
        # dense evaluation on the assembled plan
        rng = np.random.default_rng(10)
        F = 12
        a = rng.uniform(0.5, 2.0, F)
        b = rng.uniform(0.5, 2.0, F)
        p = SinkhornParams(max_iter=2000, tol=1e-11)
        C = build_cost_sq(F)
        G = gibbs_kernel(C, p.mu)
        marg = compute_frame_marginals(a[:, None], b[:, None], G, p)
        plan = dense_plan(marg.log_u[:, 0], G, marg.log_v[:, 0])
        dense = dense_plan_objective(plan, a, b, C, p)
        assert marg.objective == pytest.approx(dense, rel=1e-10)


class TestDivergence:
    def test_matches_brute_force_optimum(self):
        rng = np.random.default_rng(11)
        F = 4
        a = rng.uniform(0.5, 2.0, F)
        b = rng.uniform(0.5, 2.0, F)
        b *= a.sum() / b.sum()
        p = SinkhornParams(mu=100.0, gamma=10.0, max_iter=40000, tol=1e-14)
        C = build_cost_sq(F)
        G = gibbs_kernel(C, p.mu)
        marg = compute_frame_marginals(a[:, None], b[:, None], G, p)
        start = dense_plan(marg.log_u[:, 0], G, marg.log_v[:, 0])
        _, brute_val = _minimize_plan(a, b, C, p, start)
        assert marg.objective == pytest.approx(brute_val, rel=1e-8)

    def test_gamma_monotone_penalty_on_mismatched_masses(self):
        rng = np.random.default_rng(12)
        F = 8
        a = rng.uniform(0.5, 2.0, F)
        b = rng.uniform(0.5, 2.0, F) * 1.7  # mass mismatch stays penalized
        C = build_cost_sq(F)
        prev_pen, prev_obj = -np.inf, -np.inf
        for gamma in (0.1, 1.0, 10.0):
            p = SinkhornParams(mu=100.0, gamma=gamma, max_iter=20000, tol=1e-13)
            G = gibbs_kernel(C, p.mu)
            marg = _solve(a, b, G, p)
            pen = gamma * (kl_mass(marg.row, a) + kl_mass(marg.col, b))
            obj = dense_plan_objective(dense_plan(marg.log_u, G, marg.log_v), a, b, C, p)
            assert pen >= prev_pen
            assert obj >= prev_obj
            prev_pen, prev_obj = pen, obj

    def test_transport_cost_scales_with_mass(self):
        # scaling both masses by c scales the optimal <P,C> by ~c
        rng = np.random.default_rng(13)
        F = 4
        a = rng.uniform(0.5, 2.0, F)
        b = rng.uniform(0.5, 2.0, F)
        b *= a.sum() / b.sum()
        p = SinkhornParams(max_iter=40000, tol=1e-14)
        C = build_cost_sq(F)
        G = gibbs_kernel(C, p.mu)

        def tcost(aa, bb):
            marg = _solve(aa, bb, G, p)
            return float(np.sum(dense_plan(marg.log_u, G, marg.log_v) * C))

        t1 = tcost(a, b)
        t2 = tcost(10.0 * a, 10.0 * b)
        assert t2 / t1 == pytest.approx(10.0, rel=2e-2)
