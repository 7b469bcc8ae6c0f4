"""Per-layer tracing of otbss from outside the package.

The tracer replaces the functions each layer exposes with timing
wrappers, wherever a module of the package binds them, and restores
them afterwards. Spans (name, start, end, parent span, scene) are kept
in memory and written out once the run ends; like the end-to-end
times, span times are CPU time of the process. The kernel-apply
microbenchmarks are best-of-N wall times. Nothing inside ``src/``
is changed: a layer whose function is renamed or removed is reported
as missing on stderr and its metrics read 0.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time

import numpy as np

from otbss import audio, cli, engine, kron, metrics, nmf, roomsim, sinkhorn

PACKAGE_MODULES = (audio, roomsim, nmf, sinkhorn, kron, engine, metrics, cli)

# span name -> (module or class holding the original, attribute names)
LAYERS = (
    ("engine.separate", engine, ("separate",)),
    ("engine.transport", engine, ("compute_frame_marginals",)),
    ("engine.ip", engine, ("ip_update",)),
    ("nmf.update", nmf, ("is_update",)),
    ("engine.normalize", engine, ("normalize",)),
    # the SDILRMA objective is only reachable under its private name
    ("engine.objective", engine, ("ilrma_objective", "_transport_objective")),
    ("engine.backproject", engine, ("back_project",)),
    ("sinkhorn.kernel_build", sinkhorn, ("build_cost_sq", "gibbs_kernel")),
    ("kron.apply", kron.FactorizedKernel, ("apply", "apply_adjoint")),
    ("roomsim.rir", roomsim, ("image_source_rir",)),
    ("roomsim.synth", roomsim, ("synth_speech",)),
    ("roomsim.mix", roomsim, ("convolve_mix",)),
    ("audio.stft", audio, ("stft",)),
    ("audio.istft", audio, ("istft",)),
    ("metrics.sdr_sir", metrics, ("sdr_sir",)),
)

APPLY_SPANS = ("kron.apply", "sinkhorn.dense_apply")

# per-scene totals reported as <name>_s and, where counted, <name>_calls
TIMED = (
    "engine.ip", "nmf.update", "engine.normalize", "engine.objective",
    "engine.backproject", "sinkhorn.kernel_build", "engine.transport",
    "kron.apply", "sinkhorn.dense_apply",
)
TIMED_AND_COUNTED = (
    "roomsim.rir", "roomsim.synth", "roomsim.mix", "audio.stft",
    "audio.istft", "metrics.sdr_sir",
)

NOT_MEASURED = -1.0


def _columns(x) -> int:
    return int(x.shape[1]) if np.ndim(x) == 2 else 1


class _TracedDense(np.ndarray):
    """Dense Gibbs kernel whose products are recorded as apply spans."""

    tracer = None

    def __matmul__(self, other):
        return self.tracer.call("sinkhorn.dense_apply", np.matmul, self.view(np.ndarray), other)


def _log_apply(kernel, log_x, adjoint, originals):
    """log(G exp(log_x)) per column with untraced kernel products."""
    shift = np.max(log_x, axis=0)
    scaled = np.exp(log_x - shift)
    if isinstance(kernel, kron.FactorizedKernel):
        applied = originals["apply_adjoint" if adjoint else "apply"](kernel, scaled)
    else:
        dense = np.asarray(kernel).view(np.ndarray)
        applied = dense.T @ scaled if adjoint else dense @ scaled
    return np.log(np.maximum(applied, np.finfo(np.float64).tiny)) + shift


def scaling_residual(power, lam, kernel, params, marg, originals) -> float:
    """Largest log-scaling change of one more scaling step.

    Applies u <- (a/Gv)^phi, v <- (b/G'u)^phi once to the scalings a
    transport solve returned; the solve converged when this is below
    its ``tol``.
    """
    log_a = np.log(np.maximum(np.asarray(power, dtype=np.float64), params.eps_floor))
    log_b = np.log(np.maximum(np.asarray(lam, dtype=np.float64), params.eps_floor))
    phi = params.marginal_exponent
    new_u = phi * (log_a - _log_apply(kernel, marg.log_v, False, originals))
    new_v = phi * (log_b - _log_apply(kernel, new_u, True, originals))
    return max(float(np.max(np.abs(new_u - marg.log_u))), float(np.max(np.abs(new_v - marg.log_v))))


class Tracer:
    """Span recorder that wraps the package's layer functions."""

    def __init__(self):
        self.spans = []  # [id, parent, scene, name, start, end, info]
        self.scene = None
        self.n_scenes = 0
        self.recording = True
        self.missing = []
        self._stack = []
        self._patches = []
        self._originals = {}

    def start_scene(self, name: str):
        """Spans from here on belong to a new scene."""
        self.scene = f"{self.n_scenes} {name}"
        self.n_scenes += 1

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untraced, e.g. the benchmark's own checks."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    def call(self, name, fn, *args, **kwargs):
        if not self.recording:
            return fn(*args, **kwargs)
        span = [len(self.spans), self._stack[-1] if self._stack else None, self.scene, name, 0.0, 0.0, None]
        self.spans.append(span)
        self._stack.append(span[0])
        span[4] = time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            span[5] = time.process_time()
            self._stack.pop()

    def _wrap(self, name, attr, fn):
        tracer = self
        if name == "kron.apply":
            @functools.wraps(fn)
            def traced(kernel, x, *args, **kwargs):
                sid = len(tracer.spans)
                out = tracer.call(name, fn, kernel, x, *args, **kwargs)
                if tracer.recording:
                    tracer.spans[sid][6] = (kernel, _columns(x))
                return out
        elif name == "engine.transport":
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                sid = len(tracer.spans)
                out = tracer.call(name, fn, *args, **kwargs)
                if not tracer.recording:
                    return out
                try:
                    power, lam, kernel, params = args[:4]
                    residual = scaling_residual(power, lam, kernel, params, out, tracer._originals)
                    tracer.spans[sid][6] = (residual, params.tol)
                except (TypeError, ValueError, AttributeError):
                    pass  # the solver's signature changed: convergence is reported as not measured
                return out
        elif attr == "gibbs_kernel":
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return tracer.call(name, fn, *args, **kwargs).view(_TracedDense)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return tracer.call(name, fn, *args, **kwargs)
        return traced

    def install(self):
        _TracedDense.tracer = self
        for name, home, attrs in LAYERS:
            for attr in attrs:
                original = getattr(home, attr, None)
                if original is None:
                    self.missing.append(f"{getattr(home, '__name__', home)}.{attr}")
                    continue
                self._originals[attr] = original
                traced = self._wrap(name, attr, original)
                owners = [home] if isinstance(home, type) else PACKAGE_MODULES
                for owner in owners:
                    if owner.__dict__.get(attr) is original:
                        self._patches.append((owner, attr, original))
                        setattr(owner, attr, traced)
        if self.missing:
            print(f"perfbench: untraced, not found: {', '.join(self.missing)}", file=sys.stderr)

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for sid, parent, scene, name, start, end, _ in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "scene": scene, "name": name,
                                     "start": start, "end": end}) + "\n")

    def layer_metrics(self) -> dict:
        """Per-scene layer totals, counts and transport statistics."""
        total = {}
        calls = {}
        covered = {}
        applies = {}
        for sid, parent, _, name, start, end, _ in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            if parent is not None:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
                if name in APPLY_SPANS:
                    applies[parent] = applies.get(parent, 0) + 1
        solves = [s for s in self.spans if s[3] == "engine.transport"]
        separates = [s for s in self.spans if s[3] == "engine.separate"]
        measured = [s[6] for s in solves if s[6] is not None]
        per = 1.0 / max(self.n_scenes, 1)
        out = {}
        for name in TIMED + TIMED_AND_COUNTED:
            out[f"{name}_s"] = total.get(name, 0.0) * per
        for name in TIMED_AND_COUNTED + APPLY_SPANS:
            out[f"{name}_calls"] = calls.get(name, 0) * per
        out["engine.separate_s"] = total.get("engine.separate", 0.0) * per
        out["engine.self_s"] = sum(s[5] - s[4] - covered.get(s[0], 0.0) for s in separates) * per
        out["engine.transport_self_s"] = sum(s[5] - s[4] - covered.get(s[0], 0.0) for s in solves) * per
        out["engine.transport_solves"] = len(solves) * per
        out["engine.transport_iters"] = (
            statistics.fmean((applies.get(s[0], 0) - 2) / 2 for s in solves) if solves else 0.0
        )
        out["engine.transport_residual"] = (
            statistics.median(r for r, _ in measured) if measured else NOT_MEASURED
        )
        out["engine.transport_converged_share"] = (
            sum(r < tol for r, tol in measured) / len(measured) if measured else NOT_MEASURED
        )
        # computed, not measured: apply_cost() of the kernel times the columns applied
        out["kron.apply_madds"] = sum(
            s[6][1] * s[6][0].apply_cost() for s in self.spans if s[3] == "kron.apply"
        ) * per
        out["trace.spans"] = len(self.spans) * per
        return out


def best_of_ms(fn, repeats: int = 7) -> float:
    """Fastest of ``repeats`` timed calls, in milliseconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times) * 1e3


def apply_microbenchmarks(seed: int) -> dict:
    """Kernel-apply timings at the (F, T) shapes of the reference scene and of a long spectrum."""
    mu = sinkhorn.SinkhornParams().mu
    rng = np.random.default_rng(seed)
    out = {}
    for n_bins, n_cols in ((513, 129), (4096, 8)):
        x = rng.uniform(0.1, 1.0, size=(n_bins, n_cols))
        factored = kron.factorized_kernel(kron.kron_sum_cost(kron.factorize_bins(n_bins, 2)), mu)
        out[f"kron.apply_ms_{n_bins}x{n_cols}"] = best_of_ms(lambda: factored.apply(x))
        dense = sinkhorn.gibbs_kernel(sinkhorn.build_cost_sq(n_bins), mu)
        out[f"sinkhorn.dense_apply_ms_{n_bins}x{n_cols}"] = best_of_ms(lambda: dense @ x)
        del dense
    return out
