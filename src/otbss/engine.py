"""Determined blind source separation loops: ILRMA and SDILRMA.

Both methods alternate per-source variance-model updates with
per-frequency demixing updates by iterative projection. Plain ILRMA
fits each model to the demixed power spectra directly; SDILRMA fits it
to per-frame optimal-transport marginals between the demixed power and
the modeled variance, which couples frequency bins through the
transport cost. The transport marginals come from a dense Gibbs kernel
or from a Kronecker-factorized kernel that never materializes the
F x F plan. They are not converged: each outer iteration's solve is
warm-started from the previous one and truncated after ``max_iter``
translation-invariant (TI) scaling steps.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .audio import Spectrogram, StftConfig
from .errors import DemixingNumericError, FactorizationError, SinkhornNumericError
from .kron import factorize_bins, factorized_kernel, kron_sum_cost, materialize_kron_sum
from .nmf import EPS, NmfModel, init_nmf, is_update, variance
from .sinkhorn import SinkhornParams, build_cost_sq, gibbs_kernel, kl_mass

METHODS = ("ilrma", "sdilrma-dense", "sdilrma-kron")
DET_REG = 1e-8


@dataclass(frozen=True)
class SeparationConfig:
    """Method selection and all tuning knobs of a separation run.

    ``kron_dims`` fixes the mixed-radix split of the bin index used by
    the separable transport cost; the kron method factorizes the bin
    count automatically when it is omitted, and the dense method then
    uses the exact quadratic cost instead of the separable surrogate.
    ``verbatim_updates`` switches the transport-driven model update to
    the variant whose denominators sum the transported mass itself.
    """

    method: str = "ilrma"
    n_basis: int = 2
    outer_iters: int = 50
    sinkhorn: SinkhornParams = SinkhornParams()
    kron_dims: tuple = None
    ref_mic: int = 0
    seed: int = 0
    stft: StftConfig = StftConfig()
    verbatim_updates: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.n_basis < 1:
            raise ValueError("n_basis must be >= 1")
        if self.outer_iters < 0:
            raise ValueError("outer_iters must be >= 0")
        if self.ref_mic < 0:
            raise ValueError("ref_mic must be >= 0")
        if self.kron_dims is not None:
            dims = tuple(int(d) for d in self.kron_dims)
            if any(d < 1 for d in dims):
                raise ValueError("kron_dims must be positive")
            object.__setattr__(self, "kron_dims", dims)


class IterationRecord(NamedTuple):
    """One outer iteration of the trace: objective plus source powers."""

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


def init_demixing(n_channels: int, n_sources: int, n_bins: int) -> np.ndarray:
    """Identity into the first ``n_sources`` channels, shape (F, N, M)."""
    if n_sources < 1 or n_channels < 1 or n_bins < 1:
        raise ValueError("all dimensions must be >= 1")
    if n_sources > n_channels:
        raise ValueError("more sources than channels is unsupported")
    base = np.zeros((n_sources, n_channels), dtype=np.complex128)
    base[:, :n_sources] = np.eye(n_sources)
    return np.broadcast_to(base, (n_bins, n_sources, n_channels)).copy()


def apply_demixing(demixing: np.ndarray, mixture) -> np.ndarray:
    """y_{f,t} = D_f x_{f,t} for every frequency and frame."""
    out = _demix(demixing, _as_data(mixture))
    if isinstance(mixture, Spectrogram):
        return _like(mixture, out)
    return out


def _demix(demixing: np.ndarray, data: np.ndarray) -> np.ndarray:
    if demixing.ndim != 3 or demixing.shape[0] != data.shape[1] or demixing.shape[2] != data.shape[0]:
        raise ValueError(
            f"demixing shape {demixing.shape} does not match data shape {data.shape}"
        )
    return np.einsum("fnm,mft->nft", demixing, data)


def _like(spec: Spectrogram, data: np.ndarray) -> Spectrogram:
    return Spectrogram(
        data=data,
        window_len=spec.window_len,
        hop=spec.hop,
        sample_rate=spec.sample_rate,
        original_length=spec.original_length,
        window=spec.window,
    )


def _weighted_covariances(data: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """V[f, n] = (1/T) sum_t weights_{n,f,t} x_{f,t} x_{f,t}^H for every source.

    Re x_m conj(x_p) (m <= p) and Im x_m conj(x_p) (m < p) are written
    in place as real planes, since fresh full-size temporaries cost more
    than the arithmetic, then one real batched matmul weights them. The
    same real arithmetic in every plane keeps V exactly Hermitian and
    exactly singular for equal channels.
    """
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
    sums = np.matmul(weights.transpose(1, 0, 2), planes.transpose(1, 2, 0)) / n_frames
    upper = sums[..., : i.size].astype(np.complex128)
    upper[..., off] += 1j * sums[..., i.size :]
    cov = np.empty((n_bins, weights.shape[0], n_chan, n_chan), dtype=np.complex128)
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


def ip_update(demixing: np.ndarray, mixture, variances: np.ndarray) -> np.ndarray:
    """One iterative-projection sweep over every (source, frequency).

    For source n and frequency f the weighted covariance
    V = (1/T) sum_t x x^H / lambda_{n,f,t} is formed, (D_f V) d = e_n
    is solved, and row n of D_f becomes d^H with d scaled so that
    d^H V d = 1. Rows are updated in sequence, so later sources see the
    rows already replaced; all frequencies are solved in one batch.
    Only failing bins (singular system, or d^H V d not positive) get a
    trace-scaled diagonal load, once; a bin that fails again raises
    DemixingNumericError with its source and frequency.
    """
    data = _as_data(mixture)
    n_chan, n_bins, n_frames = data.shape
    lam = np.maximum(np.asarray(variances, dtype=np.float64), EPS)
    n_src = lam.shape[0]
    if lam.shape != (n_src, n_bins, n_frames):
        raise ValueError("variances must have shape (n_sources, n_bins, n_frames)")
    if demixing.shape != (n_bins, n_src, n_chan):
        raise ValueError("demixing shape inconsistent with data and variances")
    if n_src != n_chan:
        raise ValueError("iterative projection needs a square demixing system")
    out = demixing.astype(np.complex128, copy=True)
    cov = _weighted_covariances(data, np.divide(1.0, lam, out=lam))
    for n in range(n_src):
        rows = _projection_rows(out @ cov[:, n], cov[:, n], n, np.arange(n_bins))
        out[:, n, :] = rows.conj()
    return out


def normalize(demixing: np.ndarray, models: list, estimates: np.ndarray):
    """Rescale each source to unit mean power without changing the fit.

    Row n of every D_f, the demixed spectra of source n, and the basis
    rows of model n are scaled by 1/rho_n, 1/rho_n, and 1/rho_n^2 with
    rho_n^2 the mean demixed power, so the demixed-model likelihood is
    untouched. Zero-power sources are left alone with a warning.
    """
    est = np.asarray(estimates, dtype=np.complex128)
    n_src = est.shape[0]
    if len(models) != n_src or demixing.shape[1] != n_src:
        raise ValueError("models, demixing, and estimates disagree on source count")
    rho = np.sqrt(np.mean(np.abs(est) ** 2, axis=(1, 2)))
    out_d = demixing.copy()
    out_est = est.copy()
    out_models = []
    for n, model in enumerate(models):
        if rho[n] == 0:
            warnings.warn(f"source {n} has zero power; normalization skipped")
            out_models.append(model)
            continue
        out_d[:, n, :] /= rho[n]
        out_est[n] /= rho[n]
        out_models.append(
            NmfModel(model.basis / rho[n] ** 2, model.activation, model.floor)
        )
    return out_d, out_models, out_est


def ilrma_objective(power: np.ndarray, variances: np.ndarray, demixing: np.ndarray) -> float:
    """Demixed-model log-likelihood with constants dropped.

    -sum_{n,f,t} (|y|^2/lambda + log lambda) + 2T sum_f log|det D_f|.
    Larger is better; the ILRMA sweep never decreases it.
    """
    lam = np.maximum(np.asarray(variances, dtype=np.float64), EPS)
    p = np.asarray(power, dtype=np.float64)
    n_frames = p.shape[-1]
    _, logdet = np.linalg.slogdet(demixing)
    if not np.all(np.isfinite(logdet)):
        raise DemixingNumericError("singular demixing matrix in objective")
    source_fit = float(np.sum(p / lam) + np.sum(np.log(lam)))
    return -source_fit + 2.0 * n_frames * float(np.sum(logdet))


def sd_update_source_model(
    model: NmfModel, marginals: np.ndarray, verbatim_updates: bool = False
) -> NmfModel:
    """Multiplicative model update driven by transported mass.

    The default form is the Itakura-Saito multiplicative rule with the
    per-frame transported mass in place of the observed power, so a
    marginal equal to the current variance is a fixed point. The
    verbatim form instead keeps the transported mass in the
    denominators and drops the basis/activation weights there.
    """
    marg = np.asarray(marginals, dtype=np.float64)
    if marg.shape != (model.n_bins, model.n_frames):
        raise ValueError("marginals must match the modeled variance shape")
    if not verbatim_updates:
        return is_update(model, marg)
    floor = model.floor
    basis = model.basis
    act = model.activation
    lam = np.maximum(basis @ act, floor)
    den_w = np.maximum(np.sum(marg / lam, axis=1, keepdims=True), floor)
    basis = basis * np.sqrt(((marg / lam**2) @ act.T) / den_w)
    lam = np.maximum(np.maximum(basis, floor) @ act, floor)
    den_h = np.maximum(np.sum(marg / lam, axis=0, keepdims=True), floor)
    act = act * np.sqrt((np.maximum(basis, floor).T @ (marg / lam**2)) / den_h)
    return NmfModel(basis, act, floor)


class FrameMarginals(NamedTuple):
    """Per-frame transport marginals and their log scalings.

    The scalings are warm-started, truncated after ``max_iter`` TI
    steps; the marginals are those of the plan they define.
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
    return np.exp(log_x - peak), peak


def _log_apply(kernel, log_x: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """log(G exp(log_x)) per column, stable under huge log offsets.

    Each column is shifted to peak at 1 before the linear kernel
    product, so only the per-frame scalar offsets ever carry the large
    magnitudes. Kernel entries are bounded below by exp(-mu*max(C)-1),
    which keeps the product of a unit-peak column away from zero.
    """
    scaled, peak = _peak_exp(log_x)
    tiny = np.finfo(np.float64).tiny
    return np.log(np.maximum(_apply(kernel, scaled, adjoint), tiny)) + peak


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
    ``init`` (a previous call's scalings) and truncated after
    ``max_iter`` TI steps, or earlier once no log scaling moves by
    ``tol``.
    """
    a = np.maximum(np.asarray(power, dtype=np.float64), params.eps_floor)
    b = np.maximum(np.asarray(variances, dtype=np.float64), params.eps_floor)
    if a.shape != b.shape:
        raise ValueError("power and variance shapes differ")
    log_a = np.log(a)
    log_b = np.log(b)
    phi = params.marginal_exponent
    gm = params.gamma * params.mu
    tiny = np.finfo(np.float64).tiny
    if init is None:
        log_u = np.zeros_like(log_a)
        log_v = np.zeros_like(log_b)
    else:
        log_u = np.asarray(init.log_u, dtype=np.float64)
        log_v = np.asarray(init.log_v, dtype=np.float64)
    exp_v, peak_v = _peak_exp(log_v)
    # a warm start's v belongs to the previous b: form its sum directly
    terms_b, peak_b = _peak_exp(log_b - log_v / gm)
    log_mass_b = np.log(np.sum(terms_b, axis=0)) + peak_b
    for it in range(params.max_iter):
        gv = np.maximum(_apply(kernel, exp_v), tiny)
        new_u = phi * (log_a - np.log(gv) - peak_v)
        exp_u, peak_u = _peak_exp(new_u)
        log_mass_a = np.log(np.sum(exp_u * gv, axis=0)) + peak_u + peak_v
        shift = 0.5 * gm * (log_mass_a - log_mass_b)
        new_u += shift
        peak_u += shift
        gu = np.maximum(_apply(kernel, exp_u, adjoint=True), tiny)
        new_v = phi * (log_b - np.log(gu) - peak_u)
        exp_v, peak_v = _peak_exp(new_v)
        log_mass_b = np.log(np.sum(exp_v * gu, axis=0)) + peak_v + peak_u
        delta = np.maximum(
            np.max(np.abs(new_u - log_u), initial=0.0),
            np.max(np.abs(new_v - log_v), initial=0.0),
        )
        log_u, log_v = new_u, new_v
        if not np.isfinite(delta):
            bad = np.where(
                ~(np.all(np.isfinite(log_u), axis=0) & np.all(np.isfinite(log_v), axis=0))
            )[0]
            frame = int(bad[0]) if bad.size else None
            raise SinkhornNumericError(
                "non-finite log scalings in marginal computation",
                iteration=it,
                context=frame,
            )
        if delta < params.tol:
            break
    row = np.exp(log_u + _log_apply(kernel, log_v))
    col = np.exp(log_v + _log_apply(kernel, log_u, adjoint=True))
    return FrameMarginals(row=row, col=col, log_u=log_u, log_v=log_v)


def _transport_objective(
    marg: FrameMarginals, power: np.ndarray, lam: np.ndarray, params: SinkhornParams
) -> float:
    """Relaxed transport objective summed over frames, plan never formed.

    <P,C> + (1/mu) sum P log P collapses to
    (1/mu) (<row, log u> + <col, log v> - mass) for a scaled-kernel
    plan; the marginal KL penalties are added on top.
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


def back_project(estimates, demixing: np.ndarray, ref_mic: int):
    """Scale each source by its reference-mic mixing coefficient.

    Images y_n * [D_f^{-1}]_{ref,n} resolve the per-frequency scale
    ambiguity; across sources they always sum to the observed
    reference channel.
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
    images = data * coeff.T[:, :, None]
    if isinstance(estimates, Spectrogram):
        return _like(estimates, images)
    return images


def _prepare(mixture: Spectrogram, cfg: SeparationConfig, n_sources):
    data = _as_data(mixture)
    n_chan = data.shape[0]
    n_src = n_chan if n_sources is None else int(n_sources)
    if n_src < 1:
        raise ValueError("need at least one source")
    if n_src > n_chan:
        raise ValueError("more sources than channels is unsupported")
    if n_src < n_chan:
        warnings.warn(f"keeping the first {n_src} of {n_chan} channels")
        data = data[:n_src]
    # (C, F, T) in C order: the demixing product and the IP covariances
    # run several times slower on the strided view that stft returns
    data = np.ascontiguousarray(data)
    if not 0 <= cfg.ref_mic < n_src:
        raise ValueError(f"ref_mic {cfg.ref_mic} out of range for {n_src} channels")
    if data.shape[2] < 2:
        raise ValueError("need at least two frames")
    n_bins, n_frames = data.shape[1], data.shape[2]
    demixing = init_demixing(n_src, n_src, n_bins)
    estimates = data.copy()
    models = [
        init_nmf(n_bins, n_frames, cfg.n_basis, seed=cfg.seed + n) for n in range(n_src)
    ]
    return data, demixing, estimates, models


def _finish(mixture: Spectrogram, cfg, demixing, estimates, trace) -> SeparationResult:
    images = back_project(estimates, demixing, cfg.ref_mic)
    return SeparationResult(
        estimates=_like(mixture, estimates),
        images=_like(mixture, images),
        demixing=demixing,
        trace=tuple(trace),
    )


def run_ilrma(
    mixture: Spectrogram, cfg: SeparationConfig = SeparationConfig(), n_sources=None
) -> SeparationResult:
    """ILRMA: variance models fitted to the demixed power spectra.

    Each outer iteration updates every source model on |y_n|^2, sweeps
    the demixing matrices by iterative projection, renormalizes, and
    records the demixed-model log-likelihood.
    """
    data, demixing, estimates, models = _prepare(mixture, cfg, n_sources)
    n_src = estimates.shape[0]
    trace = []
    for it in range(cfg.outer_iters):
        power = np.abs(estimates) ** 2
        models = [is_update(models[n], power[n]) for n in range(n_src)]
        lam = np.stack([variance(m) for m in models])
        demixing = ip_update(demixing, data, lam)
        estimates = _demix(demixing, data)
        source_power = tuple(np.mean(np.abs(estimates) ** 2, axis=(1, 2)).tolist())
        demixing, models, estimates = normalize(demixing, models, estimates)
        lam = np.stack([variance(m) for m in models])
        # raises DemixingNumericError once a D_f is singular
        objective = ilrma_objective(np.abs(estimates) ** 2, lam, demixing)
        trace.append(IterationRecord(it + 1, objective, source_power))
    return _finish(mixture, cfg, demixing, estimates, trace)


def _sd_kernel(n_bins: int, cfg: SeparationConfig):
    """Kernel for the configured backend plus the dims actually used."""
    mu = cfg.sinkhorn.mu
    dims = cfg.kron_dims
    if dims is not None and int(np.prod(dims)) != n_bins:
        raise ValueError(f"kron_dims {dims} do not multiply to {n_bins} bins")
    if cfg.method == "sdilrma-kron":
        if dims is None:
            try:
                dims = factorize_bins(n_bins, 2)
            except FactorizationError:
                warnings.warn(
                    f"{n_bins} bins cannot be factorized; falling back to the dense kernel"
                )
                return gibbs_kernel(build_cost_sq(n_bins), mu)
        return factorized_kernel(kron_sum_cost(dims), mu)
    if dims is not None:
        return gibbs_kernel(materialize_kron_sum(kron_sum_cost(dims)), mu)
    return gibbs_kernel(build_cost_sq(n_bins), mu)


def run_sdilrma(
    mixture: Spectrogram, cfg: SeparationConfig, n_sources=None
) -> SeparationResult:
    """SDILRMA: variance models fitted to transport marginals.

    Each outer iteration solves one relaxed transport problem per
    (source, frame) between |y_n|^2 and the modeled variance, all
    sources side by side in one batched solve over the shared kernel
    (warm started from the previous iteration), feeds the row
    marginals to the multiplicative model update, then proceeds as
    ILRMA. The trace records the summed transport objective.
    """
    if cfg.method == "ilrma":
        raise ValueError("run_sdilrma needs an sdilrma-dense or sdilrma-kron config")
    data, demixing, estimates, models = _prepare(mixture, cfg, n_sources)
    n_src, _, n_frames = estimates.shape
    params = cfg.sinkhorn
    kernel = _sd_kernel(data.shape[1], cfg)
    cache = None
    trace = []
    for it in range(cfg.outer_iters):
        # sources side by side: column n*T + t is frame t of source n
        power = np.hstack(np.abs(estimates) ** 2)
        lam = np.hstack([variance(m) for m in models])
        try:
            cache = compute_frame_marginals(power, lam, kernel, params, init=cache)
        except SinkhornNumericError as err:
            where = None if err.context is None else divmod(err.context, n_frames)
            raise SinkhornNumericError(
                f"marginal computation failed at (source, frame) {where}: {err}",
                iteration=err.iteration,
                context=where,
            ) from err
        objective = _transport_objective(cache, power, lam, params)
        rows = np.hsplit(cache.row, n_src)
        models = [
            sd_update_source_model(models[n], rows[n], cfg.verbatim_updates)
            for n in range(n_src)
        ]
        lam = np.stack([variance(m) for m in models])
        demixing = ip_update(demixing, data, lam)
        estimates = _demix(demixing, data)
        source_power = np.mean(np.abs(estimates) ** 2, axis=(1, 2))
        demixing, models, estimates = normalize(demixing, models, estimates)
        sign, logdet = np.linalg.slogdet(demixing)
        if np.any(sign == 0) or not np.all(np.isfinite(logdet)):
            raise DemixingNumericError("demixing matrix became singular")
        trace.append(IterationRecord(it + 1, objective, tuple(source_power.tolist())))
    return _finish(mixture, cfg, demixing, estimates, trace)


def separate(
    mixture: Spectrogram, cfg: SeparationConfig = SeparationConfig(), n_sources=None
) -> SeparationResult:
    """Dispatch to the configured separation method."""
    if cfg.method == "ilrma":
        return run_ilrma(mixture, cfg, n_sources)
    return run_sdilrma(mixture, cfg, n_sources)
