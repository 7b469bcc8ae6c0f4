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
plan, and it returns that plan's objective, formed from the logs it
holds. Each log scaling is kept as a unit-peak array plus a per-frame
peak vector. The kernel is a dense array or a ``kron.FactorizedKernel``;
the solver applies either with ``@`` and its ``.T`` alone. Both
builders floor underflowed entries, so every entry is positive and the
solver needs no floor on its kernel products.
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


def floor_underflow(kernel: np.ndarray, name: str) -> np.ndarray:
    """Both kernel builders' underflow rule: exact zeros become EPS_FLOOR, with a warning."""
    zeros = kernel == 0.0
    if np.any(zeros):
        warnings.warn(
            f"{name} underflowed to zero for the largest costs; "
            "flooring (mu is very large for this cost scale)",
            stacklevel=3,
        )
        kernel[zeros] = EPS_FLOOR
    return kernel


def gibbs_kernel(cost: np.ndarray, mu: float) -> np.ndarray:
    """Elementwise exp(-mu*C - 1), floored where it underflows to zero."""
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    return floor_underflow(np.exp(-mu * np.asarray(cost, dtype=np.float64) - 1.0), "Gibbs kernel")


class FrameMarginals(NamedTuple):
    """Per-frame transport marginals, their log scalings and the objective.

    Each frame's scalings are truncated at its first TI step below ``tol``
    or after ``max_iter`` steps; the marginals are those of the plan they
    define, and ``objective`` is that plan's, summed over frames.
    """

    row: np.ndarray
    col: np.ndarray
    log_u: np.ndarray
    log_v: np.ndarray
    objective: float | None = None


def _unit_peak(log_prod: np.ndarray, log_target: np.ndarray, phi: float):
    """phi * (log_target - log_prod), in place, as a unit-peak log (a 0 per column) and peaks."""
    np.subtract(log_target, log_prod, out=log_prod)
    top = np.max(log_prod, axis=0)
    log_prod -= top
    log_prod *= phi
    return log_prod, phi * top


def _marginal(log_prod, peak, log_scaling, log_target):
    """x = exp(log_prod + peak + log_scaling), and <x, log_scaling>, <x, log(x/target)>, sum x."""
    log_prod += peak
    log_prod += log_scaling
    x = np.exp(log_prod)
    log_prod -= log_target
    return x, [float(s) for s in (np.vdot(x, log_scaling), np.vdot(x, log_prod), np.sum(x))]


def _non_finite(iteration: int, bad: np.ndarray, frames: np.ndarray) -> SinkhornNumericError:
    """The error naming the frame (``frames`` maps columns to them) of the first ``bad`` column."""
    frame = int(frames[np.flatnonzero(bad)[0]])
    return SinkhornNumericError("non-finite log scalings in marginal computation", iteration, frame)


def _moves(cols: np.ndarray, *states) -> np.ndarray:
    """max |x - y + shift| per listed column, over the (x, y, shift) states; shift is per column."""
    moves = []
    for x, y, shift in states:
        diff = x[:, cols]
        diff -= y[:, cols]
        shift = shift[cols]
        moves += [np.max(diff, axis=0) + shift, -(np.min(diff, axis=0) + shift)]
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

    Each log scaling is a unit-peak (F, n) array plus an (n,) peak vector
    that takes every per-column term, such as the TI shift; a half-step
    makes a log, an exp, three arithmetic passes and two reductions over
    (F, n) arrays besides its apply. With a 1 in every unit-peak column, a
    product entry is at least a kernel entry, positive: no floor is needed.

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

    ``objective`` is the relaxed objective of the plan diag(u) G diag(v)
    summed over frames, from dot products of the marginals with the logs
    held: <P,C> + (1/mu) sum P log P = (1/mu)(<row, log u> + <col, log v> - sum row).
    The KL terms are differences of such whole-array sums, so its error is
    a few ulps of the total mass sum(a) + sum(b), and past the double range
    it reads inf without a warning.
    """
    a, b = (np.maximum(np.asarray(x, dtype=float), params.eps_floor) for x in (power, variances))
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError("expected power and variances of one (n_bins, n_frames) shape")
    mass = float(np.sum(a) + np.sum(b))  # the KL terms' constant
    # full width to the end, for the objective; the loop narrows copies
    full_a, full_b = log_a, log_b = np.log(a, out=a), np.log(b, out=b)
    phi = params.marginal_exponent
    gm = params.gamma * params.mu
    if init is None:  # the cold start: all-zero log scalings
        init = FrameMarginals(None, None, np.zeros_like(log_a), np.zeros_like(log_b))
    log_u, log_v = (np.asarray(x, dtype=float) for x in (init.log_u, init.log_v))
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
    peak_v = np.max(log_v, axis=0)
    exp_v = np.exp(log_v - peak_v)
    # a warm start's v belongs to the previous b: form its sum directly
    terms_b = log_b - log_v / gm
    peak_b = np.max(terms_b, axis=0)
    log_mass_b = np.log(np.sum(np.exp(terms_b - peak_b), axis=0)) + peak_b
    del terms_b
    out = None  # full-width final state, once a frame has stopped
    kernel_t = kernel.T
    for it in range(params.max_iter):
        gv = kernel @ exp_v
        del exp_v  # dead arrays held into the next step raise the peak memory
        new_u, new_peak_u = _unit_peak(np.log(gv), log_a, phi)
        new_peak_u -= phi * peak_v
        exp_u = np.exp(new_u)
        log_mass_a = np.log(np.einsum("ij,ij->j", gv, exp_u)) + new_peak_u + peak_v
        del gv
        new_peak_u += 0.5 * gm * (log_mass_a - log_mass_b)  # the TI shift
        gu = kernel_t @ exp_u
        del exp_u
        new_v, new_peak_v = _unit_peak(np.log(gu), log_b, phi)
        new_peak_v -= phi * new_peak_u
        exp_v = np.exp(new_v)
        log_mass_b = np.log(np.einsum("ij,ij->j", gu, exp_v)) + new_peak_v + new_peak_u
        bad = ~(np.isfinite(new_peak_u) & np.isfinite(new_peak_v) | stopped)
        if np.any(bad):
            raise _non_finite(it, bad, frames)
        step_u, step_v = new_peak_u - peak_u, new_peak_v - peak_v
        bound = np.maximum(np.abs(step_u), np.abs(step_v))
        near = np.flatnonzero((bound < params.tol) & ~stopped)
        if near.size:
            if not it:  # a warm start's logs are full, not unit-peak: their offsets are 0
                step_u, step_v = new_peak_u, new_peak_v
            near = near[_moves(near, (new_u, log_u, step_u), (new_v, log_v, step_v)) < params.tol]
        log_u, log_v, peak_u, peak_v = new_u, new_v, new_peak_u, new_peak_v
        if not near.size:
            continue
        if out is None:
            out = [log_u, log_v, gu, peak_u, peak_v]  # still full width, in frame order
        else:
            for o, x in zip(out, (log_u, log_v, gu, peak_u, peak_v)):
                o[..., frames[near]] = x[..., near]
        stopped[near] = True
        n_live = stopped.size - np.count_nonzero(stopped)
        if n_live == 0:
            break
        width = block * -(-n_live // block)
        if width < stopped.size and it + 1 < params.max_iter:
            # the running frames, padded with stopped ones to the width
            keep = np.sort(np.argsort(stopped, kind="stable")[:width])
            # one at a time, each old width freed in turn; take keeps C order
            log_a = np.take(log_a, keep, axis=1)
            log_b = np.take(log_b, keep, axis=1)
            log_u = np.take(log_u, keep, axis=1)
            log_v = np.take(log_v, keep, axis=1)
            exp_v = np.take(exp_v, keep, axis=1)
            peak_u, peak_v, log_mass_b, frames, stopped = (
                x[keep] for x in (peak_u, peak_v, log_mass_b, frames, stopped)
            )
    if out is not None:
        live = np.flatnonzero(~stopped)
        for o, x in zip(out, (log_u, log_v, gu, peak_u, peak_v)):
            o[..., frames[live]] = x[..., live]
        log_u, log_v, gu, peak_u, peak_v = out
        # each frame's unit-peak v, as its last step formed it
        exp_v = np.exp(log_v)
    # log-domain marginals: only the per-frame peaks carry huge magnitudes
    log_gv = np.log(kernel @ exp_v)
    del exp_v
    log_u += peak_u
    log_v += peak_v
    row, (row_u, row_kl, row_mass) = _marginal(log_gv, peak_v, log_u, full_a)
    del log_gv, log_a, full_a
    col, (col_v, col_kl, col_mass) = _marginal(np.log(gu, out=gu), peak_u, log_v, full_b)
    objective = (row_u + col_v - row_mass) / params.mu + params.gamma * (
        row_kl - row_mass + col_kl - col_mass + mass
    )
    return FrameMarginals(row, col, log_u, log_v, objective)
