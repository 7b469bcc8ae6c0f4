"""Shared oracles for the test suite.

These are independent reference implementations (direct summations,
dense assemblies) used to pin down expected values; they favor clarity
over speed. Also hosts the registry of end-to-end verdict lines that
the terminal summary replays after the run.
"""

import itertools

import numpy as np
from scipy.linalg import toeplitz
from scipy.signal import get_window
from scipy.special import logsumexp, xlogy

from otbss.errors import CapabilityError, SinkhornNumericError
from otbss.kron import MATERIALIZE_MAX_BINS
from otbss.metrics import _db
from otbss.nmf import EPS
from otbss.roomsim import (
    MAX_IMAGE_ORDER,
    SINC_HALF_WIDTH,
    SPEED_OF_SOUND,
    sabine_absorption,
)
from otbss.sinkhorn import EPS_FLOOR

ACCEPTANCE_VERDICTS = []


def schroeder_t60(taps: np.ndarray, sample_rate: int) -> float:
    """Time after the direct-path peak at which the backward-integrated
    energy decay curve first reaches -60 dB."""
    energy = taps.astype(np.float64) ** 2
    edc = np.cumsum(energy[::-1])[::-1]
    edc /= edc[0]
    db = 10.0 * np.log10(np.maximum(edc, 1e-300))
    below = np.nonzero(db <= -60.0)[0]
    if below.size == 0:
        raise AssertionError("decay never reaches -60 dB within the impulse response")
    direct = int(np.argmax(np.abs(taps)))
    return (below[0] - direct) / sample_rate


def reference_windowed_sinc_add(out, delays, amps) -> None:
    """Add Hann-windowed sinc pulses to ``out``, every tap evaluated.

    Each pulse spans round(delay) +- SINC_HALF_WIDTH; taps outside
    [0, len(out)) are masked out after evaluation.
    """
    w = SINC_HALF_WIDTH
    centers = np.round(delays).astype(np.int64)
    offsets = np.arange(-w, w + 1)
    taps_idx = centers[:, None] + offsets[None, :]
    x = taps_idx - delays[:, None]
    window = np.where(np.abs(x) <= w, 0.5 * (1.0 + np.cos(np.pi * x / w)), 0.0)
    vals = amps[:, None] * np.sinc(x) * window
    mask = (taps_idx >= 0) & (taps_idx < out.shape[0])
    out += np.bincount(taps_idx[mask], weights=vals[mask], minlength=out.shape[0])


def reference_image_grid(max_order: int):
    """(parity, shift, reflection count) of every image, one at a time.

    Parities p in {0,1}^3, then shifts r, each in ``itertools.product``
    order; the image reflects sum_i |r_i - p_i| + |r_i| times. A shift
    with |r_i| = k on any axis reflects at least 2k - 1 times, so
    |r_i| <= (max_order + 1) // 2 covers every image kept.
    """
    k = (max_order + 1) // 2
    rows = []
    for p in itertools.product((0, 1), repeat=3):
        for r in itertools.product(range(-k, k + 1), repeat=3):
            refl = sum(abs(ri - pi) + abs(ri) for ri, pi in zip(r, p))
            if refl <= max_order:
                rows.append((p, r, refl))
    return tuple(np.array(column, dtype=np.int64) for column in zip(*rows))


def reference_image_source_rir(scene) -> np.ndarray:
    """Image-source taps (sources, mics, length) of a ``RoomScene``, pair by pair.

    The amplitudes and delays of ``roomsim.image_source_rir`` over the
    image set of ``reference_image_grid``, evaluated one (source, mic)
    pair at a time into a buffer of the longest pair's length, then cut
    to ``max_rir_len``.
    """
    beta = float(np.sqrt(max(0.0, 1.0 - sabine_absorption(scene.dimensions, scene.t60))))
    if scene.t60 <= 0 or beta == 0.0:
        max_order = 0
    else:
        max_order = min(MAX_IMAGE_ORDER, int(np.ceil(-3.0 / np.log10(beta))))
    parity, shifts, refl = reference_image_grid(max_order)
    per_pair = []
    for src in scene.source_positions:
        images = (1.0 - 2.0 * parity) * src[None, :] + 2.0 * shifts * scene.dimensions[None, :]
        for mic in scene.mic_positions:
            d = np.linalg.norm(images - mic[None, :], axis=1)
            per_pair.append((d / SPEED_OF_SOUND * scene.sample_rate, beta**refl / (4.0 * np.pi * d)))
    length = max(int(np.ceil(delays.max())) + SINC_HALF_WIDTH + 1 for delays, _ in per_pair)
    taps = np.zeros((len(per_pair), min(length, scene.max_rir_len)))
    for row, (delays, amps) in zip(taps, per_pair):
        reference_windowed_sinc_add(row, delays, amps)
    return taps.reshape(scene.n_sources, scene.n_mics, -1)


def dft_one_sided(frame: np.ndarray) -> np.ndarray:
    """O(L^2) one-sided DFT by explicit summation."""
    L = len(frame)
    n = np.arange(L)
    return np.array(
        [np.sum(frame * np.exp(-2j * np.pi * f * n / L)) for f in range(L // 2 + 1)]
    )


def is_divergence(power: np.ndarray, lam: np.ndarray, floor: float = EPS) -> float:
    """Itakura-Saito divergence sum(p/l - log(p/l) - 1)."""
    p = np.maximum(np.asarray(power, dtype=np.float64), floor)
    l = np.maximum(np.asarray(lam, dtype=np.float64), floor)
    ratio = p / l
    return float(np.sum(ratio - np.log(ratio) - 1.0))


def materialize_kron_sum(cost) -> np.ndarray:
    """Dense C[i,j] = sum_q C_q[i_q, j_q] of a ``kron.KroneckerCost``.

    Each summand broadcasts its table across the other digits (all-ones
    blocks in Kronecker position, not identities): that is the sum the
    entrywise exponential turns into a Kronecker product of kernels.
    """
    if cost.n_bins > MATERIALIZE_MAX_BINS:
        raise CapabilityError(
            f"refusing to materialize a {cost.n_bins}x{cost.n_bins} Kronecker sum"
        )
    total = np.zeros((cost.n_bins, cost.n_bins))
    for q, factor in enumerate(cost.factors):
        term = np.ones((1, 1))
        for r, f in enumerate(cost.dims):
            block = factor if r == q else np.ones((f, f))
            term = np.kron(term, block)
        total += term
    return total


def reference_ip_update(demixing, data, variances) -> np.ndarray:
    """One iterative-projection sweep, one np.linalg.solve per (source, bin).

    V = (1/T) sum_t x x^H / lambda, (D_f V) d = e_n, row n of D_f
    becomes d^H with d^H V d = 1; sources are updated in order.
    """
    data = np.asarray(data)
    n_chan, n_bins, n_frames = data.shape
    out = np.array(demixing, dtype=np.complex128)
    for n in range(variances.shape[0]):
        for f in range(n_bins):
            x = data[:, f, :]
            cov = (x / variances[n, f]) @ x.conj().T / n_frames
            d = np.linalg.solve(out[f] @ cov, np.eye(n_chan)[n])
            out[f, n] = d.conj() / np.sqrt(np.real(d.conj() @ cov @ d))
    return out


def plain_scalings(a, b, kernel, params):
    """Plain unbalanced scaling fixed point on a dense kernel, from u = v = 1.

    u <- (a / Gv)^phi, v <- (b / G'u)^phi in the linear domain, with no
    overflow guard, until no scaling moves by ``params.tol`` relative
    or after ``params.max_iter`` sweeps. ``a``, ``b`` are (F,) or (F, T).
    """
    a = np.maximum(np.asarray(a, dtype=np.float64), params.eps_floor)
    b = np.maximum(np.asarray(b, dtype=np.float64), params.eps_floor)
    phi = params.marginal_exponent
    u, v = np.ones_like(a), np.ones_like(b)
    for _ in range(params.max_iter):
        u_new = (a / (kernel @ v)) ** phi
        v_new = (b / (kernel.T @ u_new)) ** phi
        change = max(np.max(np.abs(u_new / u - 1.0)), np.max(np.abs(v_new / v - 1.0)))
        u, v = u_new, v_new
        if change < params.tol:
            break
    return u, v


def dense_plan(log_u, kernel, log_v) -> np.ndarray:
    """P = diag(u) G diag(v) of one frame, assembled in the log domain."""
    return np.exp(log_u[:, None] + np.log(kernel) + log_v[None, :])


def dense_marginals(log_u, kernel, log_v):
    """u * (G v) and v * (G' u) of (F, T) log scalings, by a logsumexp per entry.

    Every product stays in the log domain, so masses near exp(+-700)
    neither overflow nor underflow before the final exp.
    """
    log_g = np.log(kernel)[:, :, None]
    row = np.exp(log_u + logsumexp(log_g + log_v[None, :, :], axis=1))
    col = np.exp(log_v + logsumexp(log_g + log_u[:, None, :], axis=0))
    return row, col


def dense_plan_objective(plan, a, b, cost, params) -> float:
    """Relaxed transport objective evaluated on an explicit plan matrix.

    <P, C> + (1/mu) sum P log P + gamma KL(P1 | a) + gamma KL(P'1 | b).
    """
    row, col = plan.sum(axis=1), plan.sum(axis=0)
    kl = np.sum(xlogy(row, row / a) - row + a) + np.sum(xlogy(col, col / b) - col + b)
    return float(np.sum(plan * cost) + np.sum(xlogy(plan, plan)) / params.mu + params.gamma * kl)


def kl_mass(x: np.ndarray, y: np.ndarray, eps: float = EPS_FLOOR) -> float:
    """Unnormalized KL divergence sum(x log(x/y) - x + y), both floored at ``eps``."""
    x = np.maximum(np.asarray(x, dtype=np.float64), eps)
    y = np.maximum(np.asarray(y, dtype=np.float64), eps)
    return float(np.sum(x * np.log(x / y) - x + y))


def transport_objective(marg, power, lam, params) -> float:
    """Relaxed transport objective of (F, T) marginals and scalings, summed over frames.

    <P,C> + (1/mu) sum P log P collapses to
    (1/mu) (<row, log u> + <col, log v> - mass) for a scaled-kernel
    plan; the marginal KL penalties are added on top. The plan is never
    formed.
    """
    core = (
        np.sum(marg.row * marg.log_u, axis=0)
        + np.sum(marg.col * marg.log_v, axis=0)
        - np.sum(marg.row, axis=0)
    ) / params.mu
    return float(
        np.sum(core)
        + params.gamma * kl_mass(marg.row, power, params.eps_floor)
        + params.gamma * kl_mass(marg.col, lam, params.eps_floor)
    )


def _reference_apply(kernel, x, adjoint=False):
    if hasattr(kernel, "apply"):
        return kernel.apply_adjoint(x) if adjoint else kernel.apply(x)
    return kernel.T @ x if adjoint else kernel @ x


def _reference_peak_exp(log_x):
    peak = np.max(log_x, axis=0)
    scaled = log_x - peak
    return np.exp(scaled, out=scaled), peak


def _reference_column_moves(cols, *pairs):
    moves = []
    for x, y in pairs:
        diff = x[:, cols]
        diff -= y[:, cols]
        moves.append(np.max(np.abs(diff, out=diff), axis=0))
    return np.maximum.reduce(moves)


def reference_frame_marginals(power, variances, kernel, params, init=None):
    """(row, col, log_u, log_v) of the TI solve, full (F, n) log arrays at every step.

    The solver as it was before it kept unit-peak logs and per-column
    peak vectors: each half-step forms the full log scaling, guards
    every kernel product with ``max(., tiny)``, and the objective is
    left to ``transport_objective``. Same steps, per-frame ``tol``,
    ``max_iter`` and narrowing in blocks of 1/8 of the batch; only
    rounding differs. ``init`` is any object with ``log_u`` and
    ``log_v``.
    """
    log_a, log_b = (
        np.log(np.maximum(np.asarray(x, dtype=np.float64), params.eps_floor))
        for x in (power, variances)
    )
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
    frames = np.arange(n_frames)
    stopped = np.zeros(n_frames, dtype=bool)
    block = -(-n_frames // 8)
    peak_u = np.max(log_u, axis=0)
    bad = ~(np.isfinite(peak_u) & np.isfinite(np.min(log_u, axis=0)))
    if np.any(bad):
        raise SinkhornNumericError("non-finite log scalings", 0, int(frames[np.flatnonzero(bad)[0]]))
    exp_v, peak_v = _reference_peak_exp(log_v)
    terms_b, peak_b = _reference_peak_exp(log_b - log_v / gm)
    log_mass_b = np.log(np.sum(terms_b, axis=0)) + peak_b
    out = None
    for it in range(params.max_iter):
        gv = _reference_apply(kernel, exp_v)
        np.maximum(gv, tiny, out=gv)
        new_u = np.log(gv)
        np.subtract(log_a, new_u, out=new_u)
        new_u -= peak_v
        new_u *= phi
        exp_u, new_peak_u = _reference_peak_exp(new_u)
        gv *= exp_u
        log_mass_a = np.log(np.sum(gv, axis=0)) + new_peak_u + peak_v
        shift = 0.5 * gm * (log_mass_a - log_mass_b)
        new_u += shift
        new_peak_u += shift
        gu = _reference_apply(kernel, exp_u, adjoint=True)
        np.maximum(gu, tiny, out=gu)
        log_gu = np.log(gu)
        new_v = np.subtract(log_b, log_gu)
        new_v -= new_peak_u
        new_v *= phi
        exp_v, new_peak_v = _reference_peak_exp(new_v)
        gu *= exp_v
        log_mass_b = np.log(np.sum(gu, axis=0)) + new_peak_v + new_peak_u
        bad = ~(np.isfinite(new_peak_u) & np.isfinite(new_peak_v) | stopped)
        if np.any(bad):
            raise SinkhornNumericError("non-finite log scalings", it, int(frames[np.flatnonzero(bad)[0]]))
        bound = np.maximum(np.abs(new_peak_u - peak_u), np.abs(new_peak_v - peak_v))
        near = np.flatnonzero((bound < params.tol) & ~stopped)
        if near.size:
            moves = _reference_column_moves(near, (new_u, log_u), (new_v, log_v))
            near = near[moves < params.tol]
        log_u, log_v, peak_u, peak_v = new_u, new_v, new_peak_u, new_peak_v
        if not near.size:
            continue
        if out is None:
            out = [log_u, log_v, log_gu]
        else:
            for o, x in zip(out, (log_u, log_v, log_gu)):
                o[:, frames[near]] = x[:, near]
        stopped[near] = True
        n_live = stopped.size - np.count_nonzero(stopped)
        if n_live == 0:
            break
        width = block * -(-n_live // block)
        if width < stopped.size and it + 1 < params.max_iter:
            keep = np.sort(np.argsort(stopped, kind="stable")[:width])
            log_a, log_b, log_u, log_v, exp_v = (x[:, keep] for x in (log_a, log_b, log_u, log_v, exp_v))
            peak_u, peak_v, log_mass_b, frames, stopped = (
                x[keep] for x in (peak_u, peak_v, log_mass_b, frames, stopped)
            )
    if out is not None:
        live = np.flatnonzero(~stopped)
        for o, x in zip(out, (log_u, log_v, log_gu)):
            o[:, frames[live]] = x[:, live]
        log_u, log_v, log_gu = out
        peak_u = np.max(log_u, axis=0)
        exp_v, peak_v = _reference_peak_exp(log_v)
    row = np.log(np.maximum(_reference_apply(kernel, exp_v), tiny))
    row += peak_v
    row += log_u
    log_gu += peak_u
    log_gu += log_v
    return np.exp(row), np.exp(log_gu), log_u, log_v


def reference_sdr_sir_scores(est, refs, flen):
    """SDR and SIR in dB of every (estimate i, reference j) pair, as [i, j].

    The per-estimate projection: scipy Toeplitz blocks, one solve of the
    full Gram per estimate and one of each diagonal block per
    (estimate, reference) pair, lstsq when a solve finds the Gram
    singular. Same clamping as ``otbss.metrics``.
    """
    est = np.asarray(est, dtype=np.float64)
    refs = np.asarray(refs, dtype=np.float64)
    n_src, n_samples = refs.shape
    out_len = n_samples + flen - 1
    n_fft = 1 << int(np.ceil(np.log2(out_len)))
    spectra = np.fft.rfft(refs, n_fft, axis=1)
    gram = np.zeros((n_src * flen, n_src * flen))
    for i in range(n_src):
        for j in range(i, n_src):
            corr = np.fft.irfft(spectra[i] * np.conj(spectra[j]), n_fft)
            block = toeplitz(np.hstack((corr[0], corr[-1 : -flen : -1])), corr[:flen])
            gram[i * flen : (i + 1) * flen, j * flen : (j + 1) * flen] = block
            gram[j * flen : (j + 1) * flen, i * flen : (i + 1) * flen] = block.T

    def solve(matrix, rhs):
        try:
            return np.linalg.solve(matrix, rhs)
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(matrix, rhs, rcond=None)[0]

    def filtered(j, coeff):
        return np.fft.irfft(spectra[j] * np.fft.rfft(coeff, n_fft), n_fft)[:out_len]

    sdr = np.empty((n_src, n_src))
    sir = np.empty((n_src, n_src))
    for i in range(n_src):
        est_spec = np.fft.rfft(est[i], n_fft)
        rhs = np.empty((n_src, flen))
        for j in range(n_src):
            corr = np.fft.irfft(spectra[j] * np.conj(est_spec), n_fft)
            rhs[j] = np.hstack((corr[0], corr[-1 : -flen : -1]))
        coeff_all = solve(gram, rhs.reshape(-1))
        proj_all = sum(filtered(j, coeff_all[j * flen : (j + 1) * flen]) for j in range(n_src))
        padded = np.concatenate((est[i], np.zeros(flen - 1)))
        for j in range(n_src):
            block = gram[j * flen : (j + 1) * flen, j * flen : (j + 1) * flen]
            target = filtered(j, solve(block, rhs[j]))
            interf = proj_all - target
            artif = padded - proj_all
            t_energy = float(np.sum(target**2))
            sdr[i, j] = _db(t_energy, float(np.sum((interf + artif) ** 2)))
            sir[i, j] = _db(t_energy, float(np.sum(interf**2)))
    return sdr, sir


def reference_istft(spec) -> np.ndarray:
    """Samples of ``istft`` by a per-frame overlap-add loop, frames in order.

    Each frame is inverted, windowed again by scipy's periodic Hann, and
    added at m * hop; the sum is divided by the accumulated squared
    window wherever that is not zero, and the front padding of one
    window is cut off.
    """
    L, hop = spec.window_len, spec.hop
    taper = get_window("hann", L, fftbins=True)
    frames = np.fft.irfft(spec.data.transpose(0, 2, 1), n=L, axis=-1) * taper
    padded_len = (spec.n_frames - 1) * hop + L
    out = np.zeros((spec.n_channels, padded_len))
    den = np.zeros(padded_len)
    for m in range(spec.n_frames):
        out[:, m * hop : m * hop + L] += frames[:, m]
        den[m * hop : m * hop + L] += taper**2
    nz = den > 1e-12
    out[:, nz] /= den[nz]
    return out[:, L : L + spec.original_length]
