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

``compute_frame_marginals`` is the one solver: the translation-invariant
(TI) variant of that iteration, kept in log form, batched over the
columns of (F, T) problems that share one kernel, and warm-started.
Each column (frame) stops on its own, after the first TI step that
moves its log scalings by less than ``tol``, or after ``max_iter``
steps; later steps run on the frames still moving. Its marginals are
those of the plan the truncated scalings define, not of the converged
plan. The kernel is a dense array or a ``kron.FactorizedKernel``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SinkhornNumericError

EPS_FLOOR = 1e-30
# a solve narrows its batch in steps of 1/COMPACT_BLOCKS of its width
COMPACT_BLOCKS = 8


@dataclass(frozen=True)
class SinkhornParams:
    """Regularization strengths and iteration controls.

    ``mu`` is the entropic strength, ``gamma`` the weight of the
    marginal KL relaxation (one multiplier for both marginals).
    ``max_iter`` is the engine's truncation budget in TI steps, picked
    by a sweep of separation quality and time on a reference scene.
    ``tol`` is per frame: a frame stops after the first step that moves
    none of its log scalings by ``tol``. The default 0.1 ran about half
    the frame-steps of the full budget on the reference scene and a
    panel of simulated rooms, and cost no panel scene more than 0.04 dB
    of SDR. ``tol`` has a floor of about gamma*mu * 1e-16 * |log u|,
    the rounding the TI shift (gamma*mu/2 times a log-mass difference)
    adds every step; a frame asked for less runs to ``max_iter``.
    """

    mu: float = 100.0
    gamma: float = 10.0
    max_iter: int = 10
    tol: float = 0.1
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


def build_cost_sq(n_bins: int) -> np.ndarray:
    """Squared normalized bin distance C_ij = ((i - j)/F)^2."""
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    idx = np.arange(n_bins, dtype=np.float64)
    return ((idx[:, None] - idx[None, :]) / n_bins) ** 2


def gibbs_kernel(cost: np.ndarray, mu: float) -> np.ndarray:
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
        kernel[zeros] = EPS_FLOOR
    return kernel


def kl_mass(x: np.ndarray, y: np.ndarray, eps: float = EPS_FLOOR) -> float:
    """Unnormalized KL divergence sum(x log(x/y) - x + y)."""
    x = np.maximum(np.asarray(x, dtype=np.float64), eps)
    y = np.maximum(np.asarray(y, dtype=np.float64), eps)
    return float(np.sum(x * np.log(x / y) - x + y))


class FrameMarginals(NamedTuple):
    """Per-frame transport marginals and their log scalings.

    Each frame's scalings are warm-started and truncated at its first
    TI step below ``tol`` or after ``max_iter`` steps; the marginals
    are those of the plan they define.
    """

    row: np.ndarray
    col: np.ndarray
    log_u: np.ndarray
    log_v: np.ndarray


def _apply(kernel, x: np.ndarray, adjoint: bool = False) -> np.ndarray:
    if hasattr(kernel, "apply"):
        return kernel.apply_adjoint(x) if adjoint else kernel.apply(x)
    return kernel.T @ x if adjoint else kernel @ x


def _peak_exp(log_x: np.ndarray):
    """exp(log_x) per column as unit-peak values times exp(peak)."""
    peak = np.max(log_x, axis=0)
    scaled = log_x - peak
    return np.exp(scaled, out=scaled), peak


def _non_finite(iteration: int, bad: np.ndarray, frames: np.ndarray) -> SinkhornNumericError:
    """The error naming the frame of the first column flagged ``bad``.

    ``frames`` maps the flagged columns back to the caller's frames.
    """
    frame = int(frames[np.flatnonzero(bad)[0]])
    return SinkhornNumericError("non-finite log scalings in marginal computation", iteration, frame)


def _column_moves(cols: np.ndarray, *pairs) -> np.ndarray:
    """max |x - y| down each listed column, over all the (x, y) pairs."""
    moves = []
    for x, y in pairs:
        diff = x[:, cols]
        diff -= y[:, cols]
        moves.append(np.max(np.abs(diff, out=diff), axis=0))
    return np.maximum.reduce(moves)


def compute_frame_marginals(
    power: np.ndarray,
    variances: np.ndarray,
    kernel,
    params: SinkhornParams,
    init: FrameMarginals = None,
) -> FrameMarginals:
    """Transport marginals between demixed power and modeled variance.

    Runs the translation-invariant (TI) scaling iteration of Sejourne,
    Vialard and Peyre (AISTATS 2022) for all frames at once in log
    form: u <- (a / Gv)^phi, then every frame's log u is shifted by the
    translation that maximizes the dual objective,

        s = (gamma*mu/2) (log sum_i a_i u_i^(-1/(gamma*mu))
                          - log sum_j b_j v_j^(-1/(gamma*mu))),

    then v <- (b / G'u)^phi. Right after each update the two sums
    are the row and column mass of the current plan, so the shift
    reuses the kernel products and unit-peak exponentials the updates
    form anyway. At large gamma*mu the scalings grow like
    exp(gamma*mu/2 * log(mass ratio)) per frame, far outside double
    range, so only the logs are kept. The result is warm-started from
    ``init`` (a previous call's scalings).

    Each frame (column) stops on its own: after the first step that
    moves none of its log scalings by ``tol``, or after ``max_iter``
    steps. As |max x - max y| <= max |x - y|, a frame's peak log
    scalings bound its move from below; the full move is formed only
    for frames under ``tol`` by that bound. A stopped frame keeps the
    scalings and G'u of that step. Later steps skip stopped frames once
    at least 1/COMPACT_BLOCKS of the batch has stopped, on a batch
    width rounded up to a multiple of that share, so a solve runs on
    few distinct widths. The column marginal reuses each frame's last G'u;
    the row marginal takes one more apply of the full batch. A call
    makes at most 2*max_iter + 1 applies, however many columns each
    one covers, and fewer only when every frame stops early.
    """
    log_a, log_b = (
        np.log(np.maximum(np.asarray(x, dtype=np.float64), params.eps_floor))
        for x in (power, variances)
    )
    if log_a.shape != log_b.shape:
        raise ValueError("power and variance shapes differ")
    if log_a.ndim != 2:
        raise ValueError("expected (n_bins, n_frames) power and variances")
    phi = params.marginal_exponent
    gm = params.gamma * params.mu
    tiny = np.finfo(np.float64).tiny
    if init is None:
        log_u = np.zeros_like(log_a)
        log_v = np.zeros_like(log_b)
    else:
        log_u = np.asarray(init.log_u, dtype=np.float64)
        log_v = np.asarray(init.log_v, dtype=np.float64)
    n_frames = log_a.shape[1]
    frames = np.arange(n_frames)  # the frame of each column of the batch
    stopped = np.zeros(n_frames, dtype=bool)
    block = -(-n_frames // COMPACT_BLOCKS)
    # no update reads a warm start's u, so it is checked here; from then
    # on the per-frame peaks carry every NaN and inf the updates make
    peak_u = np.max(log_u, axis=0)
    bad = ~(np.isfinite(peak_u) & np.isfinite(np.min(log_u, axis=0)))
    if np.any(bad):
        raise _non_finite(0, bad, frames)
    exp_v, peak_v = _peak_exp(log_v)
    # a warm start's v belongs to the previous b: form its sum directly
    terms_b, peak_b = _peak_exp(log_b - log_v / gm)
    log_mass_b = np.log(np.sum(terms_b, axis=0)) + peak_b
    out = None  # full-width final state, once a frame has stopped
    for it in range(params.max_iter):
        gv = _apply(kernel, exp_v)
        np.maximum(gv, tiny, out=gv)
        new_u = np.log(gv)
        np.subtract(log_a, new_u, out=new_u)
        new_u -= peak_v
        new_u *= phi
        exp_u, new_peak_u = _peak_exp(new_u)
        gv *= exp_u
        log_mass_a = np.log(np.sum(gv, axis=0)) + new_peak_u + peak_v
        del gv  # dead arrays held into the next step raise the peak memory
        shift = 0.5 * gm * (log_mass_a - log_mass_b)
        new_u += shift
        new_peak_u += shift
        gu = _apply(kernel, exp_u, adjoint=True)
        del exp_u
        np.maximum(gu, tiny, out=gu)
        log_gu = np.log(gu)
        new_v = np.subtract(log_b, log_gu)
        new_v -= new_peak_u
        new_v *= phi
        exp_v, new_peak_v = _peak_exp(new_v)
        gu *= exp_v
        log_mass_b = np.log(np.sum(gu, axis=0)) + new_peak_v + new_peak_u
        del gu
        bad = ~(np.isfinite(new_peak_u) & np.isfinite(new_peak_v) | stopped)
        if np.any(bad):
            raise _non_finite(it, bad, frames)
        bound = np.maximum(np.abs(new_peak_u - peak_u), np.abs(new_peak_v - peak_v))
        near = np.flatnonzero((bound < params.tol) & ~stopped)
        if near.size:
            near = near[_column_moves(near, (new_u, log_u), (new_v, log_v)) < params.tol]
        log_u, log_v, peak_u, peak_v = new_u, new_v, new_peak_u, new_peak_v
        if not near.size:
            continue
        if out is None:
            out = [log_u, log_v, log_gu]  # still full width, in frame order
        else:
            for o, x in zip(out, (log_u, log_v, log_gu)):
                o[:, frames[near]] = x[:, near]
        stopped[near] = True
        n_live = stopped.size - np.count_nonzero(stopped)
        if n_live == 0:
            break
        width = block * -(-n_live // block)
        if width < stopped.size and it + 1 < params.max_iter:
            # the running frames, padded with stopped ones to the width
            keep = np.sort(np.argsort(stopped, kind="stable")[:width])
            # one array at a time, so each old width is freed in turn
            log_a = log_a[:, keep]
            log_b = log_b[:, keep]
            log_u = log_u[:, keep]
            log_v = log_v[:, keep]
            exp_v = exp_v[:, keep]
            peak_u, peak_v, log_mass_b, frames, stopped = (
                x[keep] for x in (peak_u, peak_v, log_mass_b, frames, stopped)
            )
    if out is not None:
        live = np.flatnonzero(~stopped)
        for o, x in zip(out, (log_u, log_v, log_gu)):
            o[:, frames[live]] = x[:, live]
        log_u, log_v, log_gu = out
        # each frame's peaks and unit-peak v, as its last step formed them
        peak_u = np.max(log_u, axis=0)
        exp_v, peak_v = _peak_exp(log_v)
    # log-domain marginals: only the per-frame peaks carry huge magnitudes
    row = np.log(np.maximum(_apply(kernel, exp_v), tiny))
    row += peak_v
    row += log_u
    log_gu += peak_u
    log_gu += log_v
    return FrameMarginals(np.exp(row, out=row), np.exp(log_gu, out=log_gu), log_u, log_v)
