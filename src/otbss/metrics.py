"""Separation quality metrics: SDR and SIR with permutation alignment.

Each estimate is decomposed against the reference signals by projecting
onto spans of time-shifted references (time-invariant FIR projection,
512 taps): the part explained by the matched reference is the target,
the extra part explained by the other references is interference, and
the remainder is artifact. Metrics are reported under the estimate
permutation that maximizes the mean SIR. Everything is numpy: the
Toeplitz blocks of the Gram are copied out of FFT correlations by index.
Each Gram is built once and solved once per call, for all estimates
together; ``sdr_sir_sets`` makes that one call cover several estimate
sets scored against the same references.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .audio import TimeSignal

FILTER_LEN = 512
CLAMP_DB = 100.0


@dataclass(frozen=True)
class EvalResult:
    """Per-source dB metrics under the best estimate-to-reference map.

    ``permutation[j]`` is the estimate index assigned to reference j;
    ``sdr[j]`` and ``sir[j]`` score that assignment. Values are clamped
    to ``+-CLAMP_DB`` dB so perfect or empty components stay finite.
    """

    sdr: np.ndarray
    sir: np.ndarray
    permutation: tuple


class Improvement(NamedTuple):
    """Per-source (sdr, sir) dB deltas of processed over unprocessed."""

    sdr: np.ndarray
    sir: np.ndarray


def _as_mono(signals, what: str):
    """Rows of one signal list and their common sample rate (None for plain arrays)."""
    rows = []
    rate = None
    for sig in signals:
        if isinstance(sig, TimeSignal):
            if sig.channels != 1:
                raise ValueError(f"{what} must be mono")
            if rate is not None and sig.sample_rate != rate:
                raise ValueError(f"{what} sample rates differ")
            rate = sig.sample_rate
            rows.append(sig.samples[0])
        else:
            arr = np.asarray(sig, dtype=np.float64)
            if arr.ndim != 1:
                raise ValueError(f"{what} must be one-dimensional")
            rows.append(arr)
    if not rows:
        raise ValueError(f"need at least one {what}")
    length = len(rows[0])
    if any(len(r) != length for r in rows):
        raise ValueError(f"{what} lengths differ")
    return np.asarray(rows, dtype=np.float64), rate


def _shifted_gram(spectra: np.ndarray, n_fft: int, flen: int) -> np.ndarray:
    """Gram matrix of all time-shifted references, assembled per block.

    Block (i, j) is Toeplitz: entry (k, l) is the correlation of
    references i and j at lag l - k, copied out of one circular
    correlation by index.
    """
    n_src = spectra.shape[0]
    lags = np.arange(flen)
    shift = lags[None, :] - lags[:, None]
    gram = np.zeros((n_src * flen, n_src * flen))
    for i in range(n_src):
        for j in range(i, n_src):
            block = np.fft.irfft(spectra[i] * np.conj(spectra[j]), n_fft)[shift]
            gram[i * flen : (i + 1) * flen, j * flen : (j + 1) * flen] = block
            gram[j * flen : (j + 1) * flen, i * flen : (i + 1) * flen] = block.T
    return gram


def _solve_coeffs(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(gram, rhs, rcond=None)[0]


def _filtered(spectra: np.ndarray, coeffs: np.ndarray, n_fft: int, out_len: int) -> np.ndarray:
    """Reference j filtered by coeffs[j], as out[j]."""
    taps = np.fft.rfft(coeffs, n_fft, axis=1)
    return np.fft.irfft(spectra * taps, n_fft)[:, :out_len]


def _db(num: float, den: float) -> float:
    tiny = np.finfo(np.float64).tiny
    if num <= tiny:
        return -CLAMP_DB
    if den <= tiny:
        return CLAMP_DB
    return float(np.clip(10.0 * np.log10(num / den), -CLAMP_DB, CLAMP_DB))


def _scores(est: np.ndarray, refs: np.ndarray, flen: int) -> tuple:
    """SDR and SIR in dB of every (estimate i, reference j) pair, as [i, j].

    ``est`` holds any number of estimates, such as several stacked
    estimate sets. Their cross-correlations are the columns of one
    right-hand side, so the Gram is built once and the full Gram and
    each diagonal block are solved once per call. The projections are
    then filtered one estimate at a time.
    """
    n_src, n_samples = refs.shape
    n_est = est.shape[0]
    out_len = n_samples + flen - 1
    n_fft = 1 << int(np.ceil(np.log2(out_len)))
    spectra = np.fft.rfft(refs, n_fft, axis=1)
    gram = _shifted_gram(spectra, n_fft, flen)
    # rhs[j, :, i]: correlation of estimate i with reference j at lags 0..flen-1
    corr = np.fft.irfft(spectra[:, None, :] * np.conj(np.fft.rfft(est, n_fft, axis=1)), n_fft)
    rhs = corr[:, :, -np.arange(flen)].transpose(0, 2, 1)
    del corr  # (n_src, n_est, n_fft): held over, it would raise the solves' peak

    coeff_all = _solve_coeffs(gram, rhs.reshape(n_src * flen, n_est)).reshape(n_src, flen, n_est)
    coeff_own = np.stack(
        [
            _solve_coeffs(gram[j * flen : (j + 1) * flen, j * flen : (j + 1) * flen], rhs[j])
            for j in range(n_src)
        ]
    )

    sdr = np.empty((n_est, n_src))
    sir = np.empty((n_est, n_src))
    padded = np.zeros(out_len)
    for i in range(n_est):
        proj_all = _filtered(spectra, coeff_all[:, :, i], n_fft, out_len).sum(axis=0)
        target = _filtered(spectra, coeff_own[:, :, i], n_fft, out_len)
        padded[:n_samples] = est[i]
        artif = padded - proj_all
        for j in range(n_src):
            interf = proj_all - target[j]
            t_energy = float(np.sum(target[j] ** 2))
            sdr[i, j] = _db(t_energy, float(np.sum((interf + artif) ** 2)))
            sir[i, j] = _db(t_energy, float(np.sum(interf**2)))
    return sdr, sir


def _aligned(sdr: np.ndarray, sir: np.ndarray) -> EvalResult:
    """Scores of one estimate set under the assignment with the largest mean SIR."""
    n_src = sdr.shape[1]
    best_perm = None
    best_mean = -np.inf
    for perm in itertools.permutations(range(n_src)):
        mean_sir = float(np.mean([sir[perm[j], j] for j in range(n_src)]))
        if mean_sir > best_mean:
            best_mean = mean_sir
            best_perm = perm
    return EvalResult(
        sdr=np.array([sdr[best_perm[j], j] for j in range(n_src)]),
        sir=np.array([sir[best_perm[j], j] for j in range(n_src)]),
        permutation=tuple(best_perm),
    )


def sdr_sir_sets(estimate_sets, references) -> list:
    """``sdr_sir`` of several estimate sets against one set of references.

    Each set is scored as ``sdr_sir`` scores it alone, and one
    ``EvalResult`` per set comes back in order. The references' Gram is
    built and solved once for all sets together, so scoring the
    unprocessed mixture and several methods of one scene costs about as
    much as scoring one of them. Estimates and references that carry
    sample rates must agree on them.
    """
    refs, ref_rate = _as_mono(references, "references")
    sets = []
    for estimates in estimate_sets:
        est, rate = _as_mono(estimates, "estimates")
        if est.shape[0] != refs.shape[0]:
            raise ValueError("estimate and reference counts differ")
        if est.shape[1] != refs.shape[1]:
            raise ValueError("estimate and reference lengths differ")
        if None not in (rate, ref_rate) and rate != ref_rate:
            raise ValueError(
                f"estimate sample rate {rate} Hz differs from reference sample rate {ref_rate} Hz"
            )
        sets.append(est)
    if not sets:
        raise ValueError("need at least one estimate set")
    if np.any(np.sum(refs**2, axis=1) == 0):
        raise ValueError("zero-energy reference")
    n_src = refs.shape[0]
    sdr, sir = _scores(np.concatenate(sets), refs, FILTER_LEN)
    return [
        _aligned(sdr[k * n_src : (k + 1) * n_src], sir[k * n_src : (k + 1) * n_src])
        for k in range(len(sets))
    ]


def sdr_sir(estimates, references) -> EvalResult:
    """Permutation-aligned SDR and SIR of estimates against references.

    For every (estimate, reference) pair the estimate is split into a
    target part (projection onto the time-shifted matched reference),
    an interference part (extra projection explained by the remaining
    references), and an artifact remainder. The returned metrics use
    the assignment with the largest mean SIR.
    """
    return sdr_sir_sets([estimates], references)[0]


def improvement(processed: EvalResult, unprocessed: EvalResult) -> Improvement:
    """Per-source dB gains of processed metrics over unprocessed.

    Both results are already permutation-aligned to the same reference
    order, so the difference is elementwise; clamped inputs subtract as
    clamped.
    """
    if len(processed.sdr) != len(unprocessed.sdr):
        raise ValueError("source counts differ")
    return Improvement(
        sdr=processed.sdr - unprocessed.sdr, sir=processed.sir - unprocessed.sir
    )
