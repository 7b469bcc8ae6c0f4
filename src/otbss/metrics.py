"""Separation quality metrics: SDR and SIR with permutation alignment.

Each estimate is decomposed against the reference signals by projecting
onto spans of time-shifted references (time-invariant FIR projection,
512 taps): the part explained by the matched reference is the target,
the extra part explained by the other references is interference, and
the remainder is artifact. Metrics are reported under the estimate
permutation that maximizes the mean SIR. Everything is numpy: the
Toeplitz blocks of the Gram are copied out of FFT correlations by index,
and each Gram is solved once per call for all estimates together.
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


def _as_mono(signals, what: str) -> np.ndarray:
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
    return np.asarray(rows, dtype=np.float64)


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
    """Reference j filtered by coeffs[j, :, i], as out[j, i]."""
    taps = np.fft.rfft(coeffs, n_fft, axis=1).transpose(0, 2, 1)
    return np.fft.irfft(spectra[:, None, :] * taps, n_fft)[..., :out_len]


def _db(num: float, den: float) -> float:
    tiny = np.finfo(np.float64).tiny
    if num <= tiny:
        return -CLAMP_DB
    if den <= tiny:
        return CLAMP_DB
    return float(np.clip(10.0 * np.log10(num / den), -CLAMP_DB, CLAMP_DB))


def _scores(est: np.ndarray, refs: np.ndarray, flen: int) -> tuple:
    """SDR and SIR in dB of every (estimate i, reference j) pair, as [i, j].

    The cross-correlations of all estimates are the columns of one
    right-hand side, so the full Gram and each diagonal block are
    factorized once per call.
    """
    n_src, n_samples = refs.shape
    out_len = n_samples + flen - 1
    n_fft = 1 << int(np.ceil(np.log2(out_len)))
    spectra = np.fft.rfft(refs, n_fft, axis=1)
    gram = _shifted_gram(spectra, n_fft, flen)
    # rhs[j, :, i]: correlation of estimate i with reference j at lags 0..flen-1
    est_spectra = np.fft.rfft(est, n_fft, axis=1)
    corr = np.fft.irfft(spectra[:, None, :] * np.conj(est_spectra), n_fft)
    rhs = corr[:, :, -np.arange(flen)].transpose(0, 2, 1)

    coeff_all = _solve_coeffs(gram, rhs.reshape(n_src * flen, n_src))
    proj_all = _filtered(spectra, coeff_all.reshape(n_src, flen, n_src), n_fft, out_len).sum(axis=0)
    coeff_own = np.stack(
        [
            _solve_coeffs(gram[j * flen : (j + 1) * flen, j * flen : (j + 1) * flen], rhs[j])
            for j in range(n_src)
        ]
    )
    target = _filtered(spectra, coeff_own, n_fft, out_len)
    padded = np.zeros((n_src, out_len))
    padded[:, :n_samples] = est

    sdr = np.empty((n_src, n_src))
    sir = np.empty((n_src, n_src))
    for i in range(n_src):
        artif = padded[i] - proj_all[i]
        for j in range(n_src):
            interf = proj_all[i] - target[j, i]
            t_energy = float(np.sum(target[j, i] ** 2))
            sdr[i, j] = _db(t_energy, float(np.sum((interf + artif) ** 2)))
            sir[i, j] = _db(t_energy, float(np.sum(interf**2)))
    return sdr, sir


def sdr_sir(estimates, references) -> EvalResult:
    """Permutation-aligned SDR and SIR of estimates against references.

    For every (estimate, reference) pair the estimate is split into a
    target part (projection onto the time-shifted matched reference),
    an interference part (extra projection explained by the remaining
    references), and an artifact remainder. The returned metrics use
    the assignment with the largest mean SIR.
    """
    est = _as_mono(estimates, "estimates")
    refs = _as_mono(references, "references")
    if est.shape[0] != refs.shape[0]:
        raise ValueError("estimate and reference counts differ")
    if est.shape[1] != refs.shape[1]:
        raise ValueError("estimate and reference lengths differ")
    energies = np.sum(refs**2, axis=1)
    if np.any(energies == 0):
        raise ValueError("zero-energy reference")
    n_src = refs.shape[0]
    sdr, sir = _scores(est, refs, FILTER_LEN)

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
