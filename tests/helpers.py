"""Shared oracles for the test suite.

These are independent reference implementations (direct summations,
dense assemblies) used to pin down expected values; they favor clarity
over speed. Also hosts the registry of end-to-end verdict lines that
the terminal summary replays after the run.
"""

import itertools

import numpy as np
from scipy.linalg import toeplitz
from scipy.special import logsumexp, xlogy

from otbss.errors import CapabilityError
from otbss.kron import MATERIALIZE_MAX_BINS
from otbss.metrics import _db
from otbss.nmf import EPS
from otbss.roomsim import (
    MAX_IMAGE_ORDER,
    SINC_HALF_WIDTH,
    SPEED_OF_SOUND,
    sabine_absorption,
)

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
