"""Dense unbalanced transport: kernel values, fixed point, objective.

Independent oracles: hand-evaluated kernel entries, dense plan assembly
by explicit loops, a Nelder-Mead minimization of the relaxed objective
over the plan entries, and the classic balanced Sinkhorn limit.
"""

import numpy as np
import pytest
from scipy.optimize import minimize

from otbss.errors import CapabilityError, SinkhornNumericError
from otbss.sinkhorn import (
    EPS_FLOOR,
    SinkhornParams,
    build_cost_sq,
    gibbs_kernel,
    kl_mass,
    objective_core_from_scalings,
    sinkhorn_divergence,
    sinkhorn_scalings,
    transport_summary,
)


def _objective_dense(plan, a, b, cost, params):
    """Reference objective evaluated on an explicit plan matrix."""
    r = plan.sum(axis=1)
    c = plan.sum(axis=0)
    ent = float(np.sum(plan * np.log(plan)))
    return (
        float(np.sum(plan * cost))
        + ent / params.mu
        + params.gamma * kl_mass(r, a)
        + params.gamma * kl_mass(c, b)
    )


def _minimize_plan(a, b, cost, params, x0):
    """Brute-force optimum over log-plan entries (oracle)."""
    F = len(a)

    def fun(x):
        return _objective_dense(np.exp(x).reshape(F, F), a, b, cost, params)

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


class TestParams:
    def test_defaults(self):
        p = SinkhornParams()
        assert p.mu == 100.0
        assert p.gamma == 10.0
        assert p.max_iter == 10
        assert p.tol == 1e-6

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
        u, v = sinkhorn_scalings(a, a, G, p)
        row = u * (G @ v)
        col = v * (G.T @ u)
        np.testing.assert_allclose(row, col, rtol=1e-8)

    def test_fixed_point_residual_below_tol(self):
        rng = np.random.default_rng(1)
        F = 12
        a = rng.uniform(0.5, 2.0, F)
        b = rng.uniform(0.5, 2.0, F)
        b *= a.sum() / b.sum()
        p = SinkhornParams(max_iter=5000, tol=1e-6)
        G = gibbs_kernel(build_cost_sq(F), p.mu)
        u, v = sinkhorn_scalings(a, b, G, p)
        u_next = (a / (G @ v)) ** p.marginal_exponent
        residual = np.max(np.abs(u - u_next)) / np.max(np.abs(u))
        assert residual < p.tol

    def test_balanced_limit_recovers_marginals(self):
        # gamma -> infinity forces P1 = a and P'1 = b (equal masses)
        rng = np.random.default_rng(2)
        F = 8
        a = rng.uniform(0.5, 2.0, F)
        b = rng.uniform(0.5, 2.0, F)
        b *= a.sum() / b.sum()
        p = SinkhornParams(mu=100.0, gamma=1e6, max_iter=5000, tol=1e-12)
        G = gibbs_kernel(build_cost_sq(F), p.mu)
        u, v = sinkhorn_scalings(a, b, G, p)
        row = u * (G @ v)
        col = v * (G.T @ u)
        np.testing.assert_allclose(row, a, rtol=1e-4)
        np.testing.assert_allclose(col, b, rtol=1e-4)
        assert np.sum(np.abs(row - a)) / np.sum(a) < 1e-3

    def test_mass_crosses_to_off_diagonal_cell(self):
        # a concentrated on bin 0, b on bin 1: nearly all mass must
        # ride P[0,1]; cross-checked against a brute-force optimum
        p = SinkhornParams(mu=1.0, gamma=10.0, max_iter=20000, tol=1e-14)
        C = build_cost_sq(2)
        a = np.array([1.0, EPS_FLOOR])
        b = np.array([EPS_FLOOR, 1.0])
        G = gibbs_kernel(C, p.mu)
        u, v = sinkhorn_scalings(a, b, G, p)
        plan = u[:, None] * G * v[None, :]
        assert plan[0, 1] / plan.sum() > 0.99
        brute, _ = _minimize_plan(a, b, C, p, np.full((2, 2), 0.25))
        assert plan[0, 1] == pytest.approx(brute[0, 1], rel=1e-5)

    def test_batched_columns_match_per_frame_runs(self):
        rng = np.random.default_rng(3)
        F, T = 9, 5
        a = rng.uniform(0.5, 2.0, (F, T))
        b = rng.uniform(0.5, 2.0, (F, T))
        p = SinkhornParams(max_iter=300, tol=1e-10)
        G = gibbs_kernel(build_cost_sq(F), p.mu)
        u_all, v_all = sinkhorn_scalings(a, b, G, p)
        for t in range(T):
            u_t, v_t = sinkhorn_scalings(a[:, t], b[:, t], G, p)
            np.testing.assert_allclose(u_all[:, t], u_t, rtol=1e-9)
            np.testing.assert_allclose(v_all[:, t], v_t, rtol=1e-9)

    def test_warm_start_converges_to_same_point(self):
        # the relaxation contracts at rate ~ phi^2 = 0.998, so true
        # convergence needs many sweeps; once there, a warm restart
        # must stay put
        rng = np.random.default_rng(4)
        F = 10
        a = rng.uniform(0.5, 2.0, F)
        b = rng.uniform(0.5, 2.0, F)
        b *= a.sum() / b.sum()
        p = SinkhornParams(max_iter=60000, tol=1e-13)
        G = gibbs_kernel(build_cost_sq(F), p.mu)
        cold = sinkhorn_scalings(a, b, G, p)
        warm = sinkhorn_scalings(a, b, G, p, init=cold)
        np.testing.assert_allclose(warm.u, cold.u, rtol=1e-9)

    def test_nan_input_raises_with_iteration_index(self):
        p = SinkhornParams(max_iter=10)
        G = gibbs_kernel(build_cost_sq(3), p.mu)
        a = np.array([1.0, np.nan, 1.0])
        with pytest.raises(SinkhornNumericError) as exc:
            sinkhorn_scalings(a, np.ones(3), G, p)
        assert exc.value.iteration == 0

    def test_log_domain_fallback_for_extreme_masses(self):
        # transient scalings exceed 1e150 but the converged point is
        # representable; the log-domain restart must find it
        p = SinkhornParams(mu=1.0, gamma=1.0, max_iter=200, tol=1e-12)
        G = gibbs_kernel(np.zeros((2, 2)), p.mu)
        u, v = sinkhorn_scalings(np.exp(700) * np.ones(2), np.ones(2), G, p)
        assert np.all(np.isfinite(u)) and np.all(np.isfinite(v))
        assert u.max() > 1e150

    def test_contraction_like_scaling_changes(self):
        # log-domain change per sweep shrinks monotonically after the
        # first few iterations on random instances
        rng = np.random.default_rng(5)
        F = 8
        p = SinkhornParams(mu=100.0, gamma=10.0)
        G = gibbs_kernel(build_cost_sq(F), p.mu)
        phi = p.marginal_exponent
        for trial in range(5):
            a = rng.uniform(0.5, 2.0, F)
            b = rng.uniform(0.5, 2.0, F)
            u, v = np.ones(F), np.ones(F)
            errs = []
            for _ in range(20):
                un = (a / (G @ v)) ** phi
                vn = (b / (G.T @ un)) ** phi
                errs.append(
                    max(
                        np.max(np.abs(np.log(un) - np.log(u))),
                        np.max(np.abs(np.log(vn) - np.log(v))),
                    )
                )
                u, v = un, vn
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
        C = build_cost_sq(F)
        G = gibbs_kernel(C, p.mu)
        u, v = sinkhorn_scalings(a, b, G, p)
        ts = transport_summary(u, G, v, a, b, C, p)
        plan = np.empty((F, F))
        for i in range(F):
            for j in range(F):
                plan[i, j] = u[i] * G[i, j] * v[j]
        np.testing.assert_allclose(ts.row_marginal, plan.sum(axis=1), rtol=1e-12)
        np.testing.assert_allclose(ts.col_marginal, plan.sum(axis=0), rtol=1e-12)

    def test_mass_conservation(self):
        rng = np.random.default_rng(7)
        F = 16
        a = rng.uniform(0.5, 2.0, F)
        b = rng.uniform(0.5, 2.0, F)
        p = SinkhornParams(max_iter=500, tol=1e-9)
        C = build_cost_sq(F)
        G = gibbs_kernel(C, p.mu)
        u, v = sinkhorn_scalings(a, b, G, p)
        ts = transport_summary(u, G, v, a, b, C, p)
        total_r = ts.row_marginal.sum()
        total_c = ts.col_marginal.sum()
        assert abs(total_r - total_c) / total_r < 1e-10

    def test_perfect_fit_has_zero_kl_terms(self):
        # marginal deviation at the optimum scales as 1/(gamma*mu), so
        # the KL terms vanish in the tight-relaxation regime
        rng = np.random.default_rng(8)
        F = 6
        a = rng.uniform(0.5, 2.0, F)
        p = SinkhornParams(gamma=1e5, max_iter=5000, tol=1e-13)
        C = np.zeros((F, F))
        G = gibbs_kernel(C, p.mu)
        u, v = sinkhorn_scalings(a, a, G, p)
        ts = transport_summary(u, G, v, a, a, C, p)
        kl = kl_mass(ts.row_marginal, a) + kl_mass(ts.col_marginal, a)
        assert kl < 1e-10

    def test_divergence_reduces_to_entropy_term_for_perfect_fit(self):
        # a = b and C = 0: cost and KL terms vanish, leaving -H(P*)/mu
        rng = np.random.default_rng(9)
        F = 5
        a = rng.uniform(0.5, 2.0, F)
        p = SinkhornParams(gamma=1e5, max_iter=5000, tol=1e-13)
        C = np.zeros((F, F))
        G = gibbs_kernel(C, p.mu)
        u, v = sinkhorn_scalings(a, a, G, p)
        plan = u[:, None] * G * v[None, :]
        neg_entropy_over_mu = np.sum(plan * np.log(plan)) / p.mu
        val = sinkhorn_divergence(a, a, C, p)
        assert val == pytest.approx(neg_entropy_over_mu, rel=1e-8)

    def test_large_f_objective_raises_capability_error(self):
        F = 300
        p = SinkhornParams(max_iter=5)
        C = build_cost_sq(F)
        G = gibbs_kernel(C, p.mu)
        a = np.ones(F)
        u, v = sinkhorn_scalings(a, a, G, p)
        with pytest.raises(CapabilityError):
            transport_summary(u, G, v, a, a, C, p)

    def test_matrix_free_objective_identity(self):
        # <P,C> + (1/mu) sum(P log P) computed from scalings alone
        # must equal the dense evaluation
        rng = np.random.default_rng(10)
        F = 12
        a = rng.uniform(0.5, 2.0, F)
        b = rng.uniform(0.5, 2.0, F)
        p = SinkhornParams(max_iter=2000, tol=1e-11)
        C = build_cost_sq(F)
        G = gibbs_kernel(C, p.mu)
        u, v = sinkhorn_scalings(a, b, G, p)
        plan = u[:, None] * G * v[None, :]
        dense_core = np.sum(plan * C) + np.sum(plan * np.log(plan)) / p.mu
        row = u * (G @ v)
        col = v * (G.T @ u)
        core = objective_core_from_scalings(u, v, row, col, p.mu)
        assert core == pytest.approx(dense_core, rel=1e-10)


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
        u, v = sinkhorn_scalings(a, b, G, p)
        start = u[:, None] * G * v[None, :]
        _, brute_val = _minimize_plan(a, b, C, p, start)
        ours = sinkhorn_divergence(a, b, C, p)
        assert ours == pytest.approx(brute_val, rel=1e-8)

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
            u, v = sinkhorn_scalings(a, b, G, p)
            ts = transport_summary(u, G, v, a, b, C, p)
            pen = gamma * (kl_mass(ts.row_marginal, a) + kl_mass(ts.col_marginal, b))
            assert pen >= prev_pen
            assert ts.objective >= prev_obj
            prev_pen, prev_obj = pen, ts.objective

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
            u, v = sinkhorn_scalings(aa, bb, G, p)
            return float(np.sum((u[:, None] * G * v[None, :]) * C))

        t1 = tcost(a, b)
        t2 = tcost(10.0 * a, 10.0 * b)
        assert t2 / t1 == pytest.approx(10.0, rel=2e-2)
