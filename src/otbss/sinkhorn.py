"""Unbalanced entropic optimal transport between spectra.

A frame's observed power spectrum ``a`` and modeled variance ``b`` are
compared through a relaxed transport problem: minimize over nonnegative
plans P

    <P, C> + (1/mu) * sum(P log P) + gamma*KL(P1 | a) + gamma*KL(P'1 | b)

with KL(x|y) = sum(x log(x/y) - x + y). The minimizer has the form
P = diag(u) G diag(v) with the Gibbs kernel G = exp(-mu*C - 1), and the
scaling vectors obey the fixed point

    u = (a / (G v))^phi,   v = (b / (G' u))^phi,   phi = gamma*mu/(1 + gamma*mu).

The exponent phi is the self-consistent solution of the optimality
conditions written on the marginals (u = (a / P1)^(gamma*mu) with
P1 = u * (G v)); solving for u yields u^(1+gamma*mu) = (a/(Gv))^(gamma*mu).

All loops run columnwise-batched: ``a``, ``b`` may be (F,) vectors or
(F, T) matrices of per-frame problems sharing one kernel. The kernel may
be a dense array or any object exposing ``apply``/``apply_adjoint``
(used for the factorized fast path).

``sinkhorn_scalings`` runs this plain iteration until ``tol``. The
separation engine instead runs its translation-invariant (TI) variant
(``engine.compute_frame_marginals``), warm-started and truncated after
``max_iter`` TI steps, so its marginals are not converged.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import logsumexp, xlogy

from .errors import CapabilityError, SinkhornNumericError

EPS_FLOOR = 1e-30

SCALE_LIMIT = 1e150  # switch to log-domain iterations beyond this

DENSE_OBJECTIVE_MAX_BINS = 256


@dataclass(frozen=True)
class SinkhornParams:
    """Regularization strengths and iteration controls.

    ``mu`` is the entropic strength, ``gamma`` the weight of the
    marginal KL relaxation (one multiplier for both marginals).
    ``max_iter`` is the engine's truncation budget in TI steps, picked
    by a sweep of separation quality and time on a reference scene.
    """

    mu: float = 100.0
    gamma: float = 10.0
    max_iter: int = 10
    tol: float = 1e-6
    eps_floor: float = EPS_FLOOR

    def __post_init__(self):
        if self.mu <= 0 or self.gamma <= 0:
            raise ValueError("mu and gamma must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.tol <= 0 or self.eps_floor <= 0:
            raise ValueError("tol and eps_floor must be positive")

    @property
    def marginal_exponent(self) -> float:
        gm = self.gamma * self.mu
        return gm / (1.0 + gm)


class Scalings(NamedTuple):
    """Positive scaling vectors of the transport plan diag(u) G diag(v)."""

    u: np.ndarray
    v: np.ndarray


def build_cost_sq(n_bins: int) -> np.ndarray:
    """Squared normalized bin distance C_ij = ((i - j)/F)^2."""
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    idx = np.arange(n_bins, dtype=np.float64)
    return ((idx[:, None] - idx[None, :]) / n_bins) ** 2


def gibbs_kernel(cost: np.ndarray, mu: float, eps_floor: float = EPS_FLOOR) -> np.ndarray:
    """Elementwise exp(-mu*C - 1), floored where it underflows to zero."""
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    kernel = np.exp(-mu * np.asarray(cost, dtype=np.float64) - 1.0)
    zeros = kernel == 0.0
    if np.any(zeros):
        warnings.warn(
            "Gibbs kernel underflowed to zero for the largest costs; "
            "flooring (mu is very large for this cost scale)",
            stacklevel=2,
        )
        kernel[zeros] = eps_floor
    return kernel


def _is_operator(kernel) -> bool:
    return hasattr(kernel, "apply") and hasattr(kernel, "apply_adjoint")


def _apply(kernel, x: np.ndarray) -> np.ndarray:
    return kernel.apply(x) if _is_operator(kernel) else kernel @ x


def _apply_adjoint(kernel, x: np.ndarray) -> np.ndarray:
    return kernel.apply_adjoint(x) if _is_operator(kernel) else kernel.T @ x


def _rel_change(new: np.ndarray, old: np.ndarray) -> float:
    scale = np.maximum(np.abs(new), np.finfo(np.float64).tiny)
    return float(np.max(np.abs(new - old) / scale))


def sinkhorn_scalings(
    a: np.ndarray,
    b: np.ndarray,
    kernel,
    params: SinkhornParams = SinkhornParams(),
    init: Scalings | None = None,
) -> Scalings:
    """Run the unbalanced scaling fixed point from u = v = 1.

    ``a`` and ``b`` are nonnegative masses of matching shape, (F,) or
    (F, T) for T independent problems. ``init`` warm-starts the
    scalings. Raises SinkhornNumericError (with the iteration index) on
    non-finite intermediates; falls back to log-domain iterations when
    scalings exceed SCALE_LIMIT and the kernel is dense.
    """
    a = np.maximum(np.asarray(a, dtype=np.float64), params.eps_floor)
    b = np.maximum(np.asarray(b, dtype=np.float64), params.eps_floor)
    if a.shape != b.shape:
        raise ValueError("a and b must have the same shape")
    if init is None:
        u = np.ones_like(a)
        v = np.ones_like(b)
    else:
        u = np.asarray(init.u, dtype=np.float64).copy()
        v = np.asarray(init.v, dtype=np.float64).copy()
    phi = params.marginal_exponent
    tiny = np.finfo(np.float64).tiny

    for it in range(params.max_iter):
        gv = np.maximum(_apply(kernel, v), tiny)
        u_new = (a / gv) ** phi
        gu = np.maximum(_apply_adjoint(kernel, u_new), tiny)
        v_new = (b / gu) ** phi
        if np.any(np.isnan(u_new)) or np.any(np.isnan(v_new)):
            raise SinkhornNumericError("non-finite scaling update", iteration=it)
        if max(u_new.max(), v_new.max()) > SCALE_LIMIT:
            if _is_operator(kernel):
                raise SinkhornNumericError(
                    "scaling overflow with a factorized kernel; "
                    "no log-domain fallback is available",
                    iteration=it,
                )
            return _log_domain_scalings(a, b, kernel, params, it)
        err = max(_rel_change(u_new, u), _rel_change(v_new, v))
        u, v = u_new, v_new
        if err < params.tol:
            break
    return Scalings(u=u, v=v)


def _log_domain_scalings(
    a: np.ndarray, b: np.ndarray, kernel: np.ndarray, params: SinkhornParams, start_iter: int
) -> Scalings:
    """Log-domain restart for extreme scale configurations (dense only)."""
    log_kernel = np.log(np.maximum(kernel, params.eps_floor))
    la, lb = np.log(a), np.log(b)
    batched = la.ndim == 2
    lu = np.zeros_like(la)
    lv = np.zeros_like(lb)
    phi = params.marginal_exponent

    def lse(lk, lx):
        if batched:
            return logsumexp(lk[:, :, None] + lx[None, :, :], axis=1)
        return logsumexp(lk + lx[None, :], axis=1)

    for it in range(start_iter, params.max_iter):
        lu_new = phi * (la - lse(log_kernel, lv))
        lv_new = phi * (lb - lse(log_kernel.T, lu_new))
        if not (np.all(np.isfinite(lu_new)) and np.all(np.isfinite(lv_new))):
            raise SinkhornNumericError(
                "non-finite log-domain scalings", iteration=it
            )
        err = max(np.max(np.abs(lu_new - lu)), np.max(np.abs(lv_new - lv)))
        lu, lv = lu_new, lv_new
        if err < params.tol:
            break
    if max(lu.max(), lv.max()) > np.log(np.finfo(np.float64).max):
        raise SinkhornNumericError(
            "converged scalings exceed the floating-point range",
            iteration=params.max_iter,
            context={"max_log_u": float(lu.max()), "max_log_v": float(lv.max())},
        )
    return Scalings(u=np.exp(lu), v=np.exp(lv))


def kl_mass(x: np.ndarray, y: np.ndarray, eps: float = EPS_FLOOR) -> float:
    """Unnormalized KL divergence sum(x log(x/y) - x + y)."""
    x = np.maximum(np.asarray(x, dtype=np.float64), eps)
    y = np.maximum(np.asarray(y, dtype=np.float64), eps)
    return float(np.sum(x * np.log(x / y) - x + y))


@dataclass(frozen=True)
class TransportSummary:
    """Marginals of the converged plan and the relaxed objective value."""

    row_marginal: np.ndarray
    col_marginal: np.ndarray
    objective: float


def transport_summary(u, kernel, v, a, b, cost, params: SinkhornParams) -> TransportSummary:
    """Marginals u*(Gv), v*(G'u) plus the dense objective.

    The objective materializes P = diag(u) G diag(v), so it is limited
    to F <= DENSE_OBJECTIVE_MAX_BINS; larger requests raise a
    CapabilityError. Entropy convention: H(P) = -sum(P log P).
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    row = u * _apply(kernel, v)
    col = v * _apply_adjoint(kernel, u)
    n_bins = u.shape[0]
    if n_bins > DENSE_OBJECTIVE_MAX_BINS:
        raise CapabilityError(
            f"dense transport objective needs F <= {DENSE_OBJECTIVE_MAX_BINS}, got {n_bins}"
        )
    if _is_operator(kernel):
        kernel = kernel.materialize()
    plan = u[:, None] * kernel * v[None, :]
    transport_cost = float(np.sum(plan * cost))
    neg_entropy = float(np.sum(xlogy(plan, plan)))
    objective = (
        transport_cost
        + neg_entropy / params.mu
        + params.gamma * kl_mass(row, a, params.eps_floor)
        + params.gamma * kl_mass(col, b, params.eps_floor)
    )
    return TransportSummary(row_marginal=row, col_marginal=col, objective=objective)


def sinkhorn_divergence(a, b, cost, params: SinkhornParams = SinkhornParams()) -> float:
    """Value of the relaxed transport objective at the converged plan."""
    kernel = gibbs_kernel(cost, params.mu, params.eps_floor)
    u, v = sinkhorn_scalings(a, b, kernel, params)
    return transport_summary(u, kernel, v, a, b, cost, params).objective


def objective_core_from_scalings(u, v, row, col, mu: float) -> np.ndarray:
    """<P,C> + (1/mu) sum(P log P) without materializing P.

    Uses log P = log u_i + log v_j - mu*C_ij - 1 summed against P:
    the cost and entropy terms collapse to
    (1/mu) * (<row, log u> + <col, log v> - mass). Inputs may be
    (F,) or (F, T); returns a scalar per column.
    """
    lu = np.log(np.maximum(u, np.finfo(np.float64).tiny))
    lv = np.log(np.maximum(v, np.finfo(np.float64).tiny))
    mass = np.sum(row, axis=0)
    return (np.sum(row * lu, axis=0) + np.sum(col * lv, axis=0) - mass) / mu
