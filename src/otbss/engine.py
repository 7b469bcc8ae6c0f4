"""Determined blind source separation: ILRMA and SDILRMA in one loop.

Both methods run the same outer loop in ``separate``: per-source
variance-model updates alternate with per-frequency demixing updates
by iterative projection, a renormalization of the demixed power |y|^2
(formed once per iteration; the complex estimates only after the
loop), and a trace record. The method picks only the target the
models are fitted to and the objective the trace records. Plain ILRMA
fits each model to the demixed power spectra directly; SDILRMA fits it
to per-frame optimal-transport marginals between the demixed power and
the modeled variance, which couples frequency bins through the
transport cost. The marginals come from the one transport solver,
``sinkhorn.compute_frame_marginals``, over a dense Gibbs kernel or a
Kronecker-factorized kernel that never materializes the F x F plan.
They are not converged: each outer iteration's solve is warm-started
from the previous one and truncated after ``max_iter``
translation-invariant (TI) scaling steps, and each (source, frame)
column stops earlier, on its own, once one step moves its log scalings
by less than ``tol``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .audio import Spectrogram, StftConfig
from .errors import DemixingNumericError, FactorizationError, SinkhornNumericError
from .kron import factorize_bins, factorized_kernel, kron_sum_cost
from .nmf import EPS, NmfModel, init_nmf, is_update, variance
from .sinkhorn import SinkhornParams, build_cost_sq, compute_frame_marginals, gibbs_kernel

METHODS = ("ilrma", "sdilrma-dense", "sdilrma-kron")
DET_REG = 1e-8


@dataclass(frozen=True)
class SeparationConfig:
    """Method selection and all tuning knobs of a separation run.

    The method alone fixes the transport kernel: ``sdilrma-kron`` splits
    the bin count into two factors (``factorize_bins``), and
    ``sdilrma-dense`` uses the exact quadratic cost.
    """

    method: str = "ilrma"
    n_basis: int = 2
    outer_iters: int = 50
    sinkhorn: SinkhornParams = SinkhornParams()
    ref_mic: int = 0
    seed: int = 0
    stft: StftConfig = StftConfig()

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.n_basis < 1:
            raise ValueError("n_basis must be >= 1")
        if self.outer_iters < 0:
            raise ValueError("outer_iters must be >= 0")
        if self.ref_mic < 0:
            raise ValueError("ref_mic must be >= 0")


class IterationRecord(NamedTuple):
    """One outer iteration of the trace: objective plus source powers.

    For ``ilrma``, ``objective`` is the demixed-model log-likelihood
    (``ilrma_objective``), taken after normalize; larger is better, and
    it never decreases. For the ``sdilrma`` methods it is the summed
    relaxed transport objective of the solve at the start of the
    iteration, before that iteration's model and demixing updates;
    smaller is better. ``source_power`` is the mean demixed power of
    each source before normalize, the rho_n^2 that normalize divides by.
    """

    iteration: int
    objective: float
    source_power: tuple


@dataclass(frozen=True)
class SeparationResult:
    """Demixed estimates, their reference-mic images, and diagnostics."""

    estimates: Spectrogram
    images: Spectrogram
    demixing: np.ndarray
    trace: tuple


def _as_data(x) -> np.ndarray:
    data = x.data if isinstance(x, Spectrogram) else np.asarray(x)
    if data.ndim != 3:
        raise ValueError("expected (channels, n_bins, n_frames) data")
    return data


def init_demixing(n_sources: int, n_bins: int) -> np.ndarray:
    """Identity demixing matrices, shape (F, N, N)."""
    if n_sources < 1 or n_bins < 1:
        raise ValueError("all dimensions must be >= 1")
    eye = np.eye(n_sources, dtype=np.complex128)
    return np.broadcast_to(eye, (n_bins, n_sources, n_sources)).copy()


def cross_planes(mixture) -> np.ndarray:
    """Re x_m conj(x_p) (m <= p), then Im x_m conj(x_p) (m < p), as real planes.

    The (C*C, F, T) planes ``ip_update`` weights. They depend on the
    mixture alone, so ``separate`` forms them once for every iteration's
    covariances. Each plane is written in place, since fresh full-size
    temporaries cost more than the arithmetic.
    """
    data = _as_data(mixture)
    n_chan, n_bins, n_frames = data.shape
    re, im = data.real, data.imag
    i, j = np.triu_indices(n_chan)
    off = np.flatnonzero(i < j)
    planes = np.empty((i.size + off.size, n_bins, n_frames))
    tmp = np.empty((n_bins, n_frames))
    for k, (m, p) in enumerate(zip(i, j)):
        np.multiply(re[m], re[p], out=planes[k])
        planes[k] += np.multiply(im[m], im[p], out=tmp)
    for k, (m, p) in enumerate(zip(i[off], j[off]), start=i.size):
        np.multiply(im[m], re[p], out=planes[k])
        planes[k] -= np.multiply(re[m], im[p], out=tmp)
    return planes


def _weighted_covariances(planes: np.ndarray, weights: np.ndarray, n_chan: int) -> np.ndarray:
    """V[f, n] = (1/T) sum_t weights_{f,n,t} x_{f,t} x_{f,t}^H for every source.

    ``planes`` are the mixture's cross-channel planes (``cross_planes``);
    one real batched matmul weights them. The same real arithmetic in
    every plane keeps V exactly Hermitian and exactly singular for
    equal channels.
    """
    n_bins, n_src, n_frames = weights.shape
    i, j = np.triu_indices(n_chan)
    off = np.flatnonzero(i < j)
    sums = np.matmul(weights, planes.transpose(1, 2, 0)) / n_frames
    upper = sums[..., : i.size].astype(np.complex128)
    upper[..., off] += 1j * sums[..., i.size :]
    cov = np.empty((n_bins, n_src, n_chan, n_chan), dtype=np.complex128)
    cov[..., j, i] = upper.conj()
    cov[..., i, j] = upper
    return cov


def _projection_rows(system, cov, n: int, bins: np.ndarray, retry: bool = True):
    """Solve (D_f V) d = e_n in every bin and scale d to d^H V d = 1.

    Failing bins are retried once with a diagonal load (see ip_update);
    ``bins`` maps batch rows to the frequencies an error reports.
    """
    n_bins, m, _ = system.shape
    e = np.broadcast_to(np.eye(m)[:, [n]], (n_bins, m, 1))
    try:
        d = np.linalg.solve(system, e)[..., 0]
    except np.linalg.LinAlgError:
        # one exactly singular bin fails the whole batch: solve the rest
        d = np.full((n_bins, m), np.nan, dtype=np.complex128)
        ok = np.linalg.slogdet(system)[0] != 0
        d[ok] = np.linalg.solve(system[ok], e[ok])[..., 0]
    # V d first: a loaded solve can be huge along a null direction of V
    quad = np.einsum("fm,fm->f", d.conj(), np.einsum("fmp,fp->fm", cov, d)).real
    bad = ~(np.all(np.isfinite(d), axis=1) & np.isfinite(quad) & (quad > 0))
    d /= np.sqrt(np.where(bad, 1.0, quad))[:, None]
    if np.any(bad):
        if not retry:
            f = int(bins[bad][0])
            msg = f"projection system stayed singular at source {n}, frequency {f}"
            raise DemixingNumericError(msg, source=n, freq=f)
        tr = np.abs(np.trace(system[bad], axis1=1, axis2=2))[:, None, None]
        loaded = system[bad] + DET_REG * np.where(tr > 0, tr / m, 1.0) * np.eye(m)
        d[bad] = _projection_rows(loaded, cov[bad], n, bins[bad], retry=False)
    return d


def ip_update(demixing: np.ndarray, planes: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """One iterative-projection sweep over every (source, frequency).

    ``planes`` are the mixture's ``cross_planes`` and ``variances`` the
    (F, N, T) source variances. For source n and frequency f the
    weighted covariance V = (1/T) sum_t x x^H / lambda_{f,n,t} is
    formed, (D_f V) d = e_n is solved, and row n of D_f becomes d^H
    with d scaled so that d^H V d = 1. Rows are updated in sequence, so
    later sources see the rows already replaced; all frequencies are
    solved in one batch. Only failing bins (singular system, or
    d^H V d not positive) get a trace-scaled diagonal load, once; a bin
    that fails again raises DemixingNumericError with its source and
    frequency.
    """
    lam = np.maximum(np.asarray(variances, dtype=np.float64), EPS)
    if lam.ndim != 3:
        raise ValueError("variances must have shape (n_bins, n_sources, n_frames)")
    n_bins, n_src, n_frames = lam.shape
    n_chan = demixing.shape[-1]
    if demixing.shape != (n_bins, n_src, n_chan):
        raise ValueError("demixing shape inconsistent with variances")
    if n_src != n_chan:
        raise ValueError("iterative projection needs a square demixing system")
    if planes.shape != (n_chan * n_chan, n_bins, n_frames):
        raise ValueError("planes shape inconsistent with demixing and variances")
    out = demixing.astype(np.complex128, copy=True)
    cov = _weighted_covariances(planes, np.divide(1.0, lam, out=lam), n_chan)
    for n in range(n_src):
        rows = _projection_rows(out @ cov[:, n], cov[:, n], n, np.arange(n_bins))
        out[:, n, :] = rows.conj()
    return out


def normalize(demixing: np.ndarray, models: list, power: np.ndarray, source_power: np.ndarray):
    """Rescale each source to unit mean power without changing the fit.

    ``power`` is the (F, N, T) demixed power |y|^2, and
    ``source_power`` each source's mean over bins and frames. Row n of
    every D_f, the demixed power of source n, and the basis rows of
    model n are scaled by 1/rho_n, 1/rho_n^2, and 1/rho_n^2 with
    rho_n^2 = source_power[n], so the demixed-model likelihood is
    untouched. Zero-power sources are left alone with a warning.
    """
    n_src = power.shape[1]
    if len(models) != n_src or demixing.shape[1] != n_src or np.shape(source_power) != (n_src,):
        raise ValueError("models, demixing, power, and source_power disagree on source count")
    rho_sq = np.array(source_power, dtype=np.float64)
    for n in np.flatnonzero(rho_sq == 0):
        warnings.warn(f"source {n} has zero power; normalization skipped")
    rho_sq[rho_sq == 0] = 1.0
    out_models = [NmfModel(m.basis / r, m.activation) for m, r in zip(models, rho_sq)]
    out_d = demixing / np.sqrt(rho_sq)[None, :, None]
    return out_d, out_models, power / rho_sq[:, None]


def ilrma_objective(power: np.ndarray, variances: np.ndarray, logdet: np.ndarray) -> float:
    """Demixed-model log-likelihood with constants dropped.

    -sum_{f,n,t} (|y|^2/lambda + log lambda) + 2T sum_f log|det D_f|,
    with ``power`` and ``variances`` in (F, N, T) and ``logdet`` the
    log|det D_f| of every bin, as ``slogdet`` returns it. Larger is
    better; the ILRMA sweep never decreases it.
    """
    lam = np.maximum(np.asarray(variances, dtype=np.float64), EPS)
    p = np.asarray(power, dtype=np.float64)
    n_frames = p.shape[-1]
    source_fit = float(np.sum(p / lam) + np.sum(np.log(lam)))
    return -source_fit + 2.0 * n_frames * float(np.sum(logdet))


def _transport_objective(marg) -> float:
    """SDILRMA's objective, that of its transport solve, which the solver forms from its own logs."""
    return marg.objective


def back_project(estimates, demixing: np.ndarray, ref_mic: int):
    """Scale each source by its reference-mic mixing coefficient.

    Images y_n * [D_f^{-1}]_{ref,n} resolve the per-frequency scale
    ambiguity; across sources they always sum to the observed
    reference channel. Arrays in, arrays out.
    """
    data = _as_data(estimates)
    n_src = data.shape[0]
    if demixing.shape[1] != demixing.shape[2]:
        raise ValueError("back-projection needs a square demixing system")
    if not 0 <= ref_mic < n_src:
        raise ValueError(f"ref_mic {ref_mic} out of range for {n_src} sources")
    try:
        inverse = np.linalg.inv(demixing)
    except np.linalg.LinAlgError:
        warnings.warn("singular demixing matrix; using a pseudoinverse for images")
        inverse = np.linalg.pinv(demixing)
    coeff = inverse[:, ref_mic, :]
    return data * coeff.T[:, :, None]


def _prepare(mixture: Spectrogram, cfg: SeparationConfig, n_sources):
    if not isinstance(mixture, Spectrogram):  # the results copy its STFT metadata
        raise TypeError(f"separate() takes a Spectrogram, got {type(mixture).__name__}")
    data = mixture.data
    n_chan = data.shape[0]
    n_src = n_chan if n_sources is None else int(n_sources)
    if n_src < 1:
        raise ValueError("need at least one source")
    if n_src > n_chan:
        raise ValueError("more sources than channels is unsupported")
    if n_src < n_chan:
        warnings.warn(f"keeping the first {n_src} of {n_chan} channels")
        data = data[:n_src]
    # (F, C, T) in C order, the one copy: each bin's D_f @ x_f is then a
    # batched matmul over the bins, like every (F, N, T) array of the loop
    data = np.ascontiguousarray(data.transpose(1, 0, 2))
    if not 0 <= cfg.ref_mic < n_src:
        raise ValueError(f"ref_mic {cfg.ref_mic} out of range for {n_src} channels")
    n_bins, _, n_frames = data.shape
    if n_frames < 2:
        raise ValueError("need at least two frames")
    models = [
        init_nmf(n_bins, n_frames, cfg.n_basis, seed=cfg.seed + n) for n in range(n_src)
    ]
    return data, init_demixing(n_src, n_bins), models


def _sd_kernel(n_bins: int, cfg: SeparationConfig):
    """Gibbs kernel of the configured transport backend.

    ``sdilrma-kron`` factors the Kronecker-sum cost over the two-factor
    split of the bin count; a prime count warns and gets the dense
    kernel. ``sdilrma-dense`` always gets the exact quadratic cost.
    """
    mu = cfg.sinkhorn.mu
    if cfg.method == "sdilrma-kron":
        try:
            return factorized_kernel(kron_sum_cost(factorize_bins(n_bins, 2)), mu)
        except FactorizationError:
            warnings.warn(f"{n_bins} bins cannot be factorized; falling back to the dense kernel")
    return gibbs_kernel(build_cost_sq(n_bins), mu)


def separate(
    mixture: Spectrogram, cfg: SeparationConfig = SeparationConfig(), n_sources=None
) -> SeparationResult:
    """Separate with the configured method: one outer loop for all of them.

    Each outer iteration fits every source model to a target with the
    one Itakura-Saito update, sweeps the demixing matrices by iterative
    projection, renormalizes, and records an objective; one ``slogdet``
    serves the singularity check and the ILRMA objective. ILRMA's target
    is the demixed power |y_n|^2. SDILRMA's target is the row marginals
    of one relaxed transport problem per (source, frame) between
    |y_n|^2 and the modeled variance, all sources side by side in one
    batched solve over the shared kernel, warm started from the
    previous iteration. What depends only on the mixture, the planes
    every IP sweep weights, is formed once, and each model update
    starts from the variance the loop already holds.
    """
    data, demixing, models = _prepare(mixture, cfg, n_sources)
    n_bins, _, n_frames = data.shape
    transport = cfg.method != "ilrma"
    kernel = _sd_kernel(n_bins, cfg) if transport else None
    cache = None
    trace = []
    # the mixture, power, variances and targets are (F, N, T), so the
    # transport batch is their (F, N*T) view: column n*T + t is frame t of
    # source n. D starts at the identity: the first power is the mixture's
    power = data.real**2 + data.imag**2
    planes = cross_planes(data.transpose(1, 0, 2))  # every IP sweep weights these same planes
    lam = np.stack([variance(m) for m in models], axis=1)
    for it in range(cfg.outer_iters):
        if transport:
            batch = power.reshape(n_bins, -1), lam.reshape(n_bins, -1)
            try:
                cache = compute_frame_marginals(*batch, kernel, cfg.sinkhorn, init=cache)
            except SinkhornNumericError as err:
                where = None if err.context is None else divmod(err.context, n_frames)
                msg = f"marginal computation failed at (source, frame) {where}: {err}"
                raise SinkhornNumericError(msg, iteration=err.iteration, context=where) from err
            objective, target = _transport_objective(cache), cache.row.reshape(lam.shape)
            # held into the next solve, the marginals would raise its peak
            cache = cache._replace(row=None, col=None)
        else:
            target = power
        models = [is_update(m, target[:, n], lam[:, n]) for n, m in enumerate(models)]
        demixing = ip_update(demixing, planes, np.stack([variance(m) for m in models], axis=1))
        y = demixing @ data
        power = y.real**2 + y.imag**2
        del y, target  # held over to the next iteration, they raise peak RSS
        source_power = power.mean(axis=(0, 2))
        # the next iteration's target, solve and objective read these
        demixing, models, power = normalize(demixing, models, power, source_power)
        logdet = np.linalg.slogdet(demixing)[1]
        if not np.all(np.isfinite(logdet)):
            raise DemixingNumericError("demixing matrix became singular")
        lam = np.stack([variance(m) for m in models], axis=1)
        if not transport:
            objective = ilrma_objective(power, lam, logdet)
        trace.append(IterationRecord(it + 1, objective, tuple(source_power.tolist())))
    del planes  # the images below would otherwise peak on top of them
    estimates = (demixing @ data).transpose(1, 0, 2)
    images = back_project(estimates, demixing, cfg.ref_mic)
    return SeparationResult(
        estimates=replace(mixture, data=estimates),
        images=replace(mixture, data=images),
        demixing=demixing,
        trace=tuple(trace),
    )
