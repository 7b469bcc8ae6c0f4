"""Separation engine: demixing algebra, model updates, and the separation loop.

Independent oracles: instantaneous 2x2 mixtures whose exact demixing
matrix is the mixing inverse, oracle source variances driving the
iterative-projection sweep, the linear-domain scaling fixed point and
the dense-plan objective for the transport marginals, and objective
values recomputed with explicit loops inside the tests.
"""

import copy
import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    dense_marginals,
    dense_plan,
    dense_plan_objective,
    materialize_kron_sum,
    plain_scalings,
    reference_frame_marginals,
    reference_ip_update,
    transport_objective,
)
from otbss import engine
from otbss.audio import Spectrogram, StftConfig, TimeSignal, stft
from otbss.engine import (
    METHODS,
    IterationRecord,
    SeparationConfig,
    back_project,
    cross_planes,
    ilrma_objective,
    init_demixing,
    ip_update,
    normalize,
    separate,
)
from otbss.errors import DemixingNumericError, SinkhornNumericError
from otbss.kron import FactorizedKernel, factorize_bins, factorized_kernel, kron_sum_cost
from otbss.nmf import init_nmf, variance
from otbss.roomsim import synth_speech
from otbss.sinkhorn import (
    FrameMarginals,
    SinkhornParams,
    build_cost_sq,
    compute_frame_marginals,
    gibbs_kernel,
)

MIX = np.array([[1.0, 0.6], [0.45, 1.0]])


def _speech_scene(duration=1.0, window_len=256, hop=64, seeds=(11, 22), mix=MIX):
    """Instantaneous mixture plus the true source spectrograms."""
    fs = 16000
    dry = np.vstack([synth_speech(duration, fs, seed=s).samples[0] for s in seeds])
    cfg = StftConfig(window_len=window_len, hop=hop)
    mixture = stft(TimeSignal(mix @ dry, fs), cfg)
    sources = stft(TimeSignal(dry, fs), cfg)
    return mixture, sources, cfg


def _random_spectrogram(rng, n_chan, n_bins, n_frames):
    data = rng.standard_normal((n_chan, n_bins, n_frames)) + 1j * rng.standard_normal(
        (n_chan, n_bins, n_frames)
    )
    return data


def _power(y):
    """Demixed power |y|^2, recomputed here from the complex spectra."""
    return np.abs(y) ** 2


def _backend_kernel(backend, mu, dims=(4, 3)):
    """Gibbs kernel of the Kronecker-sum cost, factored or dense."""
    cost = kron_sum_cost(dims)
    if backend == "kron":
        return factorized_kernel(cost, mu)
    return gibbs_kernel(materialize_kron_sum(cost), mu)


def _fixed_budget_runs(a, b, kernel, params, init, tols):
    """Runs of 0, 1, 2, ... TI steps from ``init``, and each frame's first step below each tol.

    runs[k] is the run of a k-step budget with tol out of reach, which
    steps every frame k times (runs[0] is ``init``). first[tol][t] is
    the first k whose run moves none of frame t's log scalings by tol
    from run k - 1, or ``params.max_iter`` if no run up to it does.
    """
    fixed = dataclasses.replace(params, tol=1e-300)
    runs = [init]
    first = {tol: np.zeros(a.shape[1], dtype=int) for tol in tols}
    while len(runs) <= params.max_iter and not all(np.all(f) for f in first.values()):
        fixed = dataclasses.replace(fixed, max_iter=len(runs))
        runs.append(compute_frame_marginals(a, b, kernel, fixed, init=init))
        move = np.maximum(
            np.max(np.abs(runs[-1].log_u - runs[-2].log_u), axis=0),
            np.max(np.abs(runs[-1].log_v - runs[-2].log_v), axis=0),
        )
        for tol, f in first.items():
            f[(f == 0) & (move < tol)] = len(runs) - 1
        assert len(runs) < 500
    for f in first.values():
        f[f == 0] = params.max_iter
    return runs, first


class _Recording:
    """A kernel that records the width of every product it makes.

    Its ``.T`` records into the same list, so the list holds the products
    of both half-steps in order.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.widths = []

    @property
    def T(self):
        transposed = copy.copy(self)  # shares the widths list
        transposed.kernel = self.kernel.T
        return transposed

    def __matmul__(self, x):
        self.widths.append(x.shape[1])
        return self.kernel @ x


class _PoisonNarrowed(_Recording):
    """A recording kernel whose first product on a batch narrower than
    ``n_frames`` is NaN in one column; its ``.T`` shares that state."""

    def __init__(self, kernel, n_frames, column):
        super().__init__(kernel)
        self.n_frames, self.column = n_frames, column

    def __matmul__(self, x):
        first = x.shape[1] < self.n_frames and all(w == self.n_frames for w in self.widths)
        y = super().__matmul__(x)
        if first:
            y[:, self.column] = np.nan
        return y


def _off_pattern(matrix):
    """Smallest off/on magnitude ratio over both source orderings."""
    g = np.abs(matrix)
    direct = (g[0, 1] + g[1, 0]) / (g[0, 0] + g[1, 1])
    swapped = (g[0, 0] + g[1, 1]) / (g[0, 1] + g[1, 0])
    return min(direct, swapped)


class TestInitDemixing:
    def test_square_is_identity(self):
        d = init_demixing(2, 5)
        assert d.shape == (5, 2, 2)
        assert d.dtype == np.complex128
        for f in range(5):
            np.testing.assert_array_equal(d[f], np.eye(2))

    def test_rows_not_aliased(self):
        d = init_demixing(2, 3)
        d[0, 0, 0] = 9.0
        assert d[1, 0, 0] == 1.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            init_demixing(0, 4)


class TestApplyDemixing:
    """The y = D x of every separation iteration, ``demixing @ data`` on the
    (F, C, T) mixture ``separate`` holds, seen through its estimates."""

    @staticmethod
    def _estimates(monkeypatch, demixing, x):
        """Estimates of one ILRMA iteration whose IP sweep returns
        ``demixing`` and whose normalize leaves every array as it is.

        The loop's own demix shows only in the source powers it traces:
        they must be those of the estimates.
        """
        monkeypatch.setattr(engine, "ip_update", lambda d, planes, lam: demixing)
        monkeypatch.setattr(engine, "normalize", lambda d, models, power, rho_sq: (d, models, power))
        n_bins, n_frames = x.shape[1:]
        spec = Spectrogram(x, window_len=2 * (n_bins - 1), hop=1, sample_rate=16000, original_length=n_frames)
        result = separate(spec, SeparationConfig(outer_iters=1))
        y = result.estimates.data
        np.testing.assert_allclose(result.trace[0].source_power, _power(y).mean(axis=(1, 2)), rtol=1e-12)
        return y

    def test_identity_passthrough(self, monkeypatch):
        rng = np.random.default_rng(0)
        x = _random_spectrogram(rng, 2, 6, 4)
        y = self._estimates(monkeypatch, init_demixing(2, 6), x)
        np.testing.assert_allclose(y, x, rtol=0, atol=0)

    def test_inverts_instantaneous_mixture(self, monkeypatch):
        # a different mixing matrix in every bin, so a bin demixed by
        # another bin's D_f shows
        rng = np.random.default_rng(1)
        s = _random_spectrogram(rng, 2, 5, 7)
        mixing = 2.0 * np.eye(2) + _random_spectrogram(rng, 5, 2, 2)
        x = np.einsum("fmn,nft->mft", mixing, s)
        y = self._estimates(monkeypatch, np.linalg.inv(mixing), x)
        np.testing.assert_allclose(y, s, atol=1e-12)

    def test_linear(self, monkeypatch):
        rng = np.random.default_rng(2)
        x1 = _random_spectrogram(rng, 2, 4, 3)
        x2 = _random_spectrogram(rng, 2, 4, 3)
        d = _random_spectrogram(rng, 4, 2, 2)
        np.testing.assert_allclose(
            self._estimates(monkeypatch, d, x1 + x2),
            self._estimates(monkeypatch, d, x1) + self._estimates(monkeypatch, d, x2),
            atol=1e-12,
        )

    def test_spectrogram_round_trip_keeps_metadata(self):
        # no iterations: the estimates are the identity-demixed mixture
        mixture, _, _ = _speech_scene(duration=0.3)
        out = separate(mixture, SeparationConfig(outer_iters=0)).estimates
        assert isinstance(out, Spectrogram)
        assert out.hop == mixture.hop
        assert out.original_length == mixture.original_length
        np.testing.assert_array_equal(out.data, mixture.data)


class TestIpUpdate:
    def test_oracle_variance_recovers_unmixing(self):
        mixture, sources, _ = _speech_scene(duration=2.0)
        lam = np.maximum(np.abs(sources.data) ** 2, 1e-12).transpose(1, 0, 2)
        d = init_demixing(2, mixture.n_bins)
        for _ in range(30):
            d = ip_update(d, cross_planes(mixture), lam)
        ratios = np.array([_off_pattern(d[f] @ MIX) for f in range(mixture.n_bins)])
        assert np.median(ratios) < 1e-3

    def test_objective_nondecreasing_at_fixed_variance(self):
        mixture, sources, _ = _speech_scene(duration=0.5)
        lam = np.maximum(np.abs(sources.data) ** 2, 1e-12).transpose(1, 0, 2)
        d = init_demixing(2, mixture.n_bins)

        def objective(d):
            power = _power(np.einsum("fnm,mft->fnt", d, mixture.data))
            return ilrma_objective(power, lam, np.linalg.slogdet(d)[1])

        prev = objective(d)
        for _ in range(8):
            d = ip_update(d, cross_planes(mixture), lam)
            cur = objective(d)
            assert cur >= prev - 1e-8 * abs(prev)
            prev = cur

    def test_single_channel_closed_form(self):
        rng = np.random.default_rng(3)
        x = _random_spectrogram(rng, 1, 6, 50)
        lam = rng.uniform(0.5, 2.0, size=(1, 6, 50))
        d = ip_update(init_demixing(1, 6), cross_planes(x), lam.transpose(1, 0, 2))
        weighted = np.mean(np.abs(x[0]) ** 2 / lam[0], axis=1)
        np.testing.assert_allclose(np.abs(d[:, 0, 0]), 1.0 / np.sqrt(weighted), rtol=1e-12)

    def test_rank_deficient_covariance_is_regularized(self):
        rng = np.random.default_rng(4)
        base = _random_spectrogram(rng, 1, 4, 6)
        x = np.concatenate([base, base], axis=0)
        d = ip_update(init_demixing(2, 4), cross_planes(x), np.ones((4, 2, 6)))
        assert np.all(np.isfinite(d))

    def test_rejects_rectangular_system(self):
        wide = np.broadcast_to(np.eye(2, 3, dtype=complex), (4, 2, 3))
        with pytest.raises(ValueError):
            ip_update(wide, cross_planes(np.zeros((3, 4, 5), dtype=complex)), np.ones((4, 2, 5)))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_chan=st.sampled_from([1, 2, 3]),
        n_bins=st.integers(1, 12),
        extra_frames=st.integers(0, 30),
    )
    def test_matches_per_bin_reference(self, seed, n_chan, n_bins, extra_frames):
        rng = np.random.default_rng(seed)
        n_frames = 2 * n_chan + extra_frames
        x = _random_spectrogram(rng, n_chan, n_bins, n_frames)
        lam = rng.uniform(0.1, 2.0, size=(n_chan, n_bins, n_frames))
        d = np.eye(n_chan) + 0.3 * _random_spectrogram(rng, n_bins, n_chan, n_chan)
        expected = reference_ip_update(d, x, lam)
        got = ip_update(d, cross_planes(x), lam.transpose(1, 0, 2))
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_all_zero_bin_gives_up_with_its_location(self):
        rng = np.random.default_rng(5)
        x = _random_spectrogram(rng, 2, 6, 8)
        x[:, 4] = 0.0
        with pytest.raises(DemixingNumericError) as info:
            ip_update(init_demixing(2, 6), cross_planes(x), np.ones((6, 2, 8)))
        assert (info.value.source, info.value.freq) == (0, 4)

    def test_only_the_failing_bin_is_loaded(self):
        # equal channels make bin 3 exactly singular; the other bins must
        # come out bit for bit as if bin 3 were not there
        rng = np.random.default_rng(6)
        x = _random_spectrogram(rng, 2, 7, 9)
        x[1, 3] = x[0, 3]
        lam = rng.uniform(0.5, 2.0, size=(2, 7, 9))
        d = ip_update(init_demixing(2, 7), cross_planes(x), lam.transpose(1, 0, 2))
        keep = np.arange(7) != 3
        alone = ip_update(init_demixing(2, 6), cross_planes(x[:, keep]), lam[:, keep].transpose(1, 0, 2))
        np.testing.assert_array_equal(d[keep], alone)
        assert np.all(np.isfinite(d[3]))

    @pytest.mark.parametrize("n_chan", [2, 3])
    def test_singular_bin_on_shared_planes_is_loaded(self, n_chan, monkeypatch):
        # equal channels make bin 3 singular: its solve takes the diagonal
        # load in every sweep over the same planes
        loaded = []
        rows = engine._projection_rows

        def spy(system, cov, n, bins, retry=True):
            if not retry:
                loaded.extend(bins.tolist())
            return rows(system, cov, n, bins, retry)

        monkeypatch.setattr(engine, "_projection_rows", spy)
        rng = np.random.default_rng(8)
        x = _random_spectrogram(rng, n_chan, 7, 9)
        x[1:, 3] = x[0, 3]
        lam = rng.uniform(0.5, 2.0, size=(7, n_chan, 9))
        d = np.eye(n_chan) + 0.3 * _random_spectrogram(rng, 7, n_chan, n_chan)
        planes = cross_planes(x)
        for _ in range(3):
            d = ip_update(d, planes, lam)
        assert 3 in loaded
        assert np.all(np.isfinite(d))
        with pytest.raises(ValueError, match="planes"):
            ip_update(d, planes[:, :-1], lam)


class TestNormalize:
    def _setup(self, seed=5, n_bins=6, n_frames=8):
        rng = np.random.default_rng(seed)
        x = _random_spectrogram(rng, 2, n_bins, n_frames) * 3.0
        d = _random_spectrogram(rng, n_bins, 2, 2)
        models = [init_nmf(n_bins, n_frames, 2, seed=seed + n) for n in range(2)]
        return d, models, x, _power(d @ x.transpose(1, 0, 2))

    def test_unit_mean_power(self):
        d, models, _, power = self._setup()
        _, _, power2 = normalize(d, models, power, power.mean(axis=(0, 2)))
        np.testing.assert_allclose(power2.mean(axis=(0, 2)), 1.0, rtol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_src=st.integers(1, 3),
        n_bins=st.integers(2, 6),
        n_frames=st.integers(2, 7),
        log_gains=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
    )
    def test_objective_invariant(self, seed, n_src, n_bins, n_frames, log_gains):
        # source levels within six decades keep the rescaled bases clear
        # of the model floor, where the invariance is exact
        rng = np.random.default_rng(seed)
        gains = 10.0 ** np.array(log_gains[:n_src])
        power = _power(_random_spectrogram(rng, n_bins, n_src, n_frames)) * gains[:, None] ** 2
        d = _random_spectrogram(rng, n_bins, n_src, n_src) + 2 * np.eye(n_src)
        models = [init_nmf(n_bins, n_frames, 2, seed=seed + n) for n in range(n_src)]
        lam = np.stack([variance(m) for m in models], axis=1)
        before = ilrma_objective(power, lam, np.linalg.slogdet(d)[1])
        d2, models2, power2 = normalize(d, models, power, power.mean(axis=(0, 2)))
        lam2 = np.stack([variance(m) for m in models2], axis=1)
        after = ilrma_objective(power2, lam2, np.linalg.slogdet(d2)[1])
        assert after == pytest.approx(before, rel=1e-9, abs=1e-9)

    def test_idempotent(self):
        d, models, _, power = self._setup()
        d1, m1, p1 = normalize(d, models, power, power.mean(axis=(0, 2)))
        d2, m2, p2 = normalize(d1, m1, p1, p1.mean(axis=(0, 2)))
        np.testing.assert_allclose(d2, d1, rtol=1e-12)
        np.testing.assert_allclose(p2, p1, rtol=1e-12)
        np.testing.assert_allclose(variance(m2[0]), variance(m1[0]), rtol=1e-12)

    def test_demixing_scaled_consistently(self):
        # the rescaled power is the power of the rescaled demixing
        d, models, x, power = self._setup()
        rho = np.sqrt(power.mean(axis=(0, 2)))
        d2, _, power2 = normalize(d, models, power, rho**2)
        np.testing.assert_allclose(d2[:, 0, :], d[:, 0, :] / rho[0], rtol=1e-12)
        np.testing.assert_allclose(d2[:, 1, :], d[:, 1, :] / rho[1], rtol=1e-12)
        np.testing.assert_allclose(power2, _power(d2 @ x.transpose(1, 0, 2)), rtol=1e-12)

    def test_zero_power_source_warns_and_passes_through(self):
        d, models, _, power = self._setup()
        power[:, 1] = 0.0
        with pytest.warns(UserWarning, match="zero power"):
            d2, models2, power2 = normalize(d, models, power, power.mean(axis=(0, 2)))
        np.testing.assert_array_equal(d2[:, 1, :], d[:, 1, :])
        np.testing.assert_array_equal(variance(models2[1]), variance(models[1]))
        np.testing.assert_array_equal(power2[:, 1], power[:, 1])

    def test_count_mismatch_rejected(self):
        d, models, _, power = self._setup()
        with pytest.raises(ValueError):
            normalize(d, models[:1], power, power.mean(axis=(0, 2)))
        with pytest.raises(ValueError):
            normalize(d, models, power, power.mean(axis=(0, 2))[:1])


class TestIlrmaObjective:
    def test_hand_value(self):
        power = np.array([[[1.0, 4.0]]])
        lam = np.array([[[2.0, 2.0]]])
        d = np.array([[[3.0 + 0j]]])
        expected = -(1.0 / 2.0 + 4.0 / 2.0 + 2.0 * np.log(2.0)) + 2.0 * 2.0 * np.log(3.0)
        assert ilrma_objective(power, lam, np.linalg.slogdet(d)[1]) == pytest.approx(expected, rel=1e-14)

    def test_maximized_at_matching_variance(self):
        rng = np.random.default_rng(6)
        power = rng.uniform(0.5, 2.0, size=(5, 2, 7))
        logdet = np.linalg.slogdet(np.broadcast_to(np.eye(2, dtype=complex), (5, 2, 2)))[1]
        best = ilrma_objective(power, power, logdet)
        assert best > ilrma_objective(power, 1.5 * power, logdet)
        assert best > ilrma_objective(power, 0.6 * power, logdet)


class TestComputeFrameMarginals:
    def test_matches_linear_fixed_point(self):
        rng = np.random.default_rng(10)
        a = rng.uniform(0.5, 2.0, size=(6, 4))
        b = rng.uniform(0.5, 2.0, size=(6, 4))
        params = SinkhornParams(mu=4.0, gamma=2.0, max_iter=4000, tol=1e-14)
        kernel = gibbs_kernel(build_cost_sq(6), params.mu)
        u, v = plain_scalings(a, b, kernel, params)
        marg = compute_frame_marginals(a, b, kernel, params)
        np.testing.assert_allclose(marg.row, u * (kernel @ v), rtol=1e-10)
        np.testing.assert_allclose(marg.col, v * (kernel.T @ u), rtol=1e-10)

    def test_balanced_limit_returns_observed_power(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(0.5, 2.0, size=(8, 3))
        params = SinkhornParams(mu=100.0, gamma=1e6, max_iter=5000, tol=1e-12)
        kernel = gibbs_kernel(build_cost_sq(8), params.mu)
        marg = compute_frame_marginals(a, a.copy(), kernel, params)
        np.testing.assert_allclose(marg.row, a, rtol=1e-3)
        np.testing.assert_allclose(marg.col, a, rtol=1e-3)

    def test_dense_and_factorized_kernels_agree(self):
        rng = np.random.default_rng(12)
        a = rng.uniform(0.2, 3.0, size=(12, 5))
        b = rng.uniform(0.2, 3.0, size=(12, 5))
        params = SinkhornParams(mu=100.0, gamma=10.0, max_iter=300, tol=1e-12)
        cost = kron_sum_cost((4, 3))
        dense = compute_frame_marginals(a, b, gibbs_kernel(materialize_kron_sum(cost), params.mu), params)
        kron = compute_frame_marginals(a, b, factorized_kernel(cost, params.mu), params)
        np.testing.assert_allclose(kron.row, dense.row, rtol=1e-10)
        np.testing.assert_allclose(kron.col, dense.col, rtol=1e-10)

    def test_silent_frame_stays_finite(self):
        rng = np.random.default_rng(13)
        a = rng.uniform(0.5, 2.0, size=(6, 3))
        a[:, 1] = 0.0
        b = rng.uniform(0.5, 2.0, size=(6, 3))
        params = SinkhornParams()
        marg = compute_frame_marginals(a, b, gibbs_kernel(build_cost_sq(6), params.mu), params)
        assert np.all(np.isfinite(marg.row))
        assert np.all(np.isfinite(marg.col))

    def test_warm_start_reaches_same_answer(self):
        # small gamma*mu so the 0.8 contraction actually converges
        rng = np.random.default_rng(14)
        a = rng.uniform(0.5, 2.0, size=(6, 3))
        b = rng.uniform(0.5, 2.0, size=(6, 3))
        params = SinkhornParams(mu=4.0, gamma=2.0, max_iter=4000, tol=1e-14)
        kernel = gibbs_kernel(build_cost_sq(6), params.mu)
        cold = compute_frame_marginals(a, b, kernel, params)
        warm = compute_frame_marginals(a, b, kernel, params, init=cold)
        np.testing.assert_allclose(warm.row, cold.row, rtol=1e-8)

    def test_non_finite_input_raises_with_frame_context(self):
        a = np.ones((4, 3))
        a[:, 2] = np.inf
        b = np.ones((4, 3))
        kernel = gibbs_kernel(build_cost_sq(4), 100.0)
        with np.errstate(invalid="ignore"), pytest.raises(SinkhornNumericError) as excinfo:
            compute_frame_marginals(a, b, kernel, SinkhornParams())
        assert excinfo.value.context == 2

    def test_shape_mismatch_rejected(self):
        kernel = gibbs_kernel(build_cost_sq(4), 100.0)
        with pytest.raises(ValueError):
            compute_frame_marginals(np.ones((4, 3)), np.ones((5, 3)), kernel, SinkhornParams())
        # one frame is a (F, 1) column, not an (F,) vector
        with pytest.raises(ValueError):
            compute_frame_marginals(np.ones(4), np.ones(4), kernel, SinkhornParams())

    @pytest.mark.parametrize("backend", ["dense", "kron"])
    @pytest.mark.parametrize("field", ["log_u", "log_v"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_non_finite_warm_start_names_its_frame(self, backend, field, value):
        # no update reads the warm start's u, so its bad frame must be
        # found in the warm start itself
        rng = np.random.default_rng(21)
        a = rng.uniform(0.5, 2.0, size=(12, 4))
        b = rng.uniform(0.5, 2.0, size=(12, 4))
        params = SinkhornParams()
        kernel = _backend_kernel(backend, params.mu)
        init = compute_frame_marginals(a, b, kernel, params)
        bad = getattr(init, field).copy()
        bad[5, 2] = value
        with np.errstate(all="ignore"), pytest.raises(SinkhornNumericError) as excinfo:
            compute_frame_marginals(a, b, kernel, params, init=init._replace(**{field: bad}))
        assert excinfo.value.iteration == 0
        assert excinfo.value.context == 2

    @pytest.mark.parametrize("backend", ["dense", "kron"])
    def test_tol_stops_at_the_first_step_below_it(self, backend):
        # every frame must stop at its own first step below tol, found
        # from fixed-budget runs; a frame that stops after others have
        # left runs in a narrower batch, whose products may round
        # differently, so the match is to 1e-12 and not bit for bit
        rng = np.random.default_rng(22)
        tols = (1e-2, 1e-4, 1e-6, 1e-9)
        for mu, gamma, warm in [(4.0, 2.0, False), (4.0, 2.0, True), (20.0, 1.0, False),
                                (20.0, 1.0, True), (100.0, 0.1, False), (100.0, 0.1, True)]:
            a = rng.uniform(0.2, 3.0, size=(12, 6))
            b = rng.uniform(0.2, 3.0, size=(12, 6))
            kernel = _backend_kernel(backend, mu)
            params = SinkhornParams(mu=mu, gamma=gamma, max_iter=10**6)
            # all-zero log scalings are the cold start
            init = FrameMarginals(None, None, np.zeros_like(a), np.zeros_like(b))
            if warm:
                fixed = dataclasses.replace(params, max_iter=5, tol=1e-300)
                init = compute_frame_marginals(0.5 * a, b, kernel, fixed)
            runs, first = _fixed_budget_runs(a, b, kernel, params, init, tols)
            assert any(len(set(steps)) > 1 for steps in first.values())
            for tol, steps in first.items():
                stopped = compute_frame_marginals(
                    a, b, kernel, dataclasses.replace(params, tol=tol), init=init
                )
                for t, k in enumerate(steps):
                    for got, want in zip(stopped[:4], runs[k][:4]):
                        np.testing.assert_allclose(got[:, t], want[:, t], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("backend", ["dense", "kron"])
    def test_non_finite_after_frames_left_names_its_frame(self, backend):
        # frames 0-2 start converged and stop at the first step; the
        # next product, on the five frames left, turns the second of
        # them (frame 4) into NaN, and the error must name frame 4
        rng = np.random.default_rng(24)
        a = rng.uniform(0.5, 2.0, size=(12, 8))
        b = rng.uniform(0.5, 2.0, size=(12, 8))
        params = SinkhornParams(mu=4.0, gamma=2.0, max_iter=50, tol=1e-3)
        kernel = _backend_kernel(backend, params.mu)
        init = compute_frame_marginals(a, b, kernel, dataclasses.replace(params, max_iter=4000, tol=1e-14))
        init.log_u[:, 3:] = 0.0
        init.log_v[:, 3:] = 0.0
        poisoned = _PoisonNarrowed(kernel, n_frames=8, column=1)
        with np.errstate(invalid="ignore"), pytest.raises(SinkhornNumericError) as excinfo:
            compute_frame_marginals(a, b, poisoned, params, init=init)
        assert poisoned.widths[:3] == [8, 8, 5]
        assert excinfo.value.iteration == 1
        assert excinfo.value.context == 4

    @pytest.mark.parametrize("backend", ["dense", "kron"])
    @pytest.mark.parametrize(
        "log_scale, gamma", [(0.0, 10.0), (700.0, 10.0), (700.0, 1e6), (-700.0, 1e6)]
    )
    def test_marginals_match_materialized_kernel(self, backend, log_scale, gamma):
        # at the default budget, warm-started as separate calls it;
        # masses near exp(+-700) leave double range unless every
        # product stays in the log domain
        rng = np.random.default_rng(23)
        a = np.exp(log_scale) * rng.uniform(0.2, 3.0, size=(12, 4))
        b = np.exp(log_scale) * rng.uniform(0.2, 3.0, size=(12, 4))
        if gamma > 1e3:
            # equal masses: else the log scalings reach gamma*mu/2 times
            # the log mass ratio and rounding alone exceeds the rtol
            b *= a.sum(axis=0) / b.sum(axis=0)
        params = SinkhornParams(gamma=gamma, eps_floor=np.finfo(np.float64).tiny)
        kernel = _backend_kernel(backend, params.mu)
        dense = kernel.materialize() if backend == "kron" else kernel
        init = compute_frame_marginals(0.5 * a, b, kernel, params)
        marg = compute_frame_marginals(a, b, kernel, params, init=init)
        for x in marg[:4]:
            assert np.all(np.isfinite(x))
        # the objective sums mass times log scaling over every entry,
        # which leaves double range at masses near exp(700)
        assert log_scale > 0 or np.isfinite(marg.objective)
        row, col = dense_marginals(marg.log_u, dense, marg.log_v)
        np.testing.assert_allclose(marg.row, row, rtol=1e-12)
        np.testing.assert_allclose(marg.col, col, rtol=1e-12)

    @pytest.mark.parametrize(
        "backend, gamma",
        [("kron", 2.0), ("dense", 1e6), ("kron", 1e6)],
        ids=["kron-relaxed", "dense-balanced", "kron-balanced"],
    )
    def test_ti_reaches_plain_fixed_point(self, backend, gamma):
        # the dense relaxed case is test_matches_linear_fixed_point;
        # gamma = 1e6 with equal masses is the balanced limit, where the
        # slowest frame here needs about 5000 sweeps of either iteration
        balanced = gamma > 1e3
        rng = np.random.default_rng(17)
        a = rng.uniform(0.5, 2.0, size=(12, 3))
        b = rng.uniform(0.5, 2.0, size=(12, 3))
        if balanced:
            b *= a.sum(axis=0) / b.sum(axis=0)
        mu = 100.0 if balanced else 4.0
        cost = kron_sum_cost((4, 3))
        dense = gibbs_kernel(materialize_kron_sum(cost), mu)
        kernel = factorized_kernel(cost, mu) if backend == "kron" else dense
        params = SinkhornParams(mu=mu, gamma=gamma, max_iter=5000, tol=1e-14)
        u, v = plain_scalings(a, b, dense, params)
        marg = compute_frame_marginals(a, b, kernel, params)
        rtol = 1e-7 if balanced else 1e-10
        np.testing.assert_allclose(marg.row, u * (dense @ v), rtol=rtol)
        np.testing.assert_allclose(marg.col, v * (dense.T @ u), rtol=rtol)

    @pytest.mark.parametrize("backend", ["dense", "kron"])
    def test_batched_sources_match_per_source_solves(self, backend):
        # at the default budget and tol, from a warm start, as separate
        # calls it: frames are independent columns, and no frame's
        # result depends on when its neighbours stop. The warm start
        # solves rescaled powers, and frame 6 starts cold, so the frames
        # stop after 1, 2, 3 or all 10 steps, in another order in each
        # source
        rng = np.random.default_rng(18)
        power = rng.uniform(0.1, 3.0, size=(2, 12, 4))
        lam = rng.uniform(0.1, 3.0, size=(2, 12, 4))
        params = SinkhornParams()
        kernel = _backend_kernel(backend, params.mu)
        scale = np.array([1.0, 1.1, 0.9, 1.5, 1.02, 1.0, 0.7, 1.3])
        init = compute_frame_marginals(
            np.hstack(power) * scale, np.hstack(lam), kernel, dataclasses.replace(params, max_iter=100)
        )
        init.log_u[:, 6] = 0.0
        init.log_v[:, 6] = 0.0
        _, first = _fixed_budget_runs(np.hstack(power), np.hstack(lam), kernel, params, init, (params.tol,))
        np.testing.assert_array_equal(first[params.tol], [1, 2, 2, 3, 3, 1, 10, 3])
        batched = compute_frame_marginals(np.hstack(power), np.hstack(lam), kernel, params, init=init)
        for n, cols in enumerate((slice(0, 4), slice(4, 8))):
            warm = FrameMarginals(*(x[:, cols] for x in init[:4]))
            alone = compute_frame_marginals(power[n], lam[n], kernel, params, init=warm)
            for got, want in zip(batched[:4], alone[:4]):
                np.testing.assert_allclose(got[:, cols], want, rtol=1e-12, atol=1e-12)


class TestReferenceSolver:
    """The solver against the full-log-array oracle of the same TI steps."""

    @pytest.mark.parametrize("backend", ["dense", "kron"])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_matches_reference_solver(self, backend, warm):
        # masses over six decades; at these tols some frames stop early
        # and the batch narrows, while others run the whole budget
        rng = np.random.default_rng(25 + warm)
        n_bins, n_frames = 64, 40
        mu = SinkhornParams().mu
        if backend == "kron":
            kernel = factorized_kernel(kron_sum_cost(factorize_bins(n_bins, 2)), mu)
        else:
            kernel = gibbs_kernel(build_cost_sq(n_bins), mu)
        a, b = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=(2, n_bins, n_frames)))
        params = SinkhornParams(tol=0.1 if warm else 0.5)
        init = None
        if warm:
            near_a = a * rng.uniform(0.9, 1.1, size=a.shape)
            init = compute_frame_marginals(near_a, b, kernel, dataclasses.replace(params, max_iter=30))
        recorded = _Recording(kernel)
        marg = compute_frame_marginals(a, b, recorded, params, init=init)
        assert min(recorded.widths) < n_frames
        assert len(recorded.widths) == 2 * params.max_iter + 1
        want = reference_frame_marginals(a, b, kernel, params, init=init)
        for got, ref in zip(marg[:4], want):
            assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))
        oracle = transport_objective(FrameMarginals(*want), a, b, params)
        assert marg.objective == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("backend", ["dense", "kron"])
    def test_applies_fall_only_when_every_frame_stops(self, backend):
        # 2*max_iter + 1 applies unless every frame stops early; then
        # 2*k + 1, where k is the step at which the last frame stops
        rng = np.random.default_rng(26)
        a = rng.uniform(0.5, 2.0, size=(12, 8))
        b = rng.uniform(0.5, 2.0, size=(12, 8))
        kernel = _backend_kernel(backend, 4.0)
        params = SinkhornParams(mu=4.0, gamma=2.0, max_iter=12)
        # frames 0-4 start converged, frames 5-7 cold
        mixed = compute_frame_marginals(a, b, kernel, dataclasses.replace(params, max_iter=4000, tol=1e-14))
        mixed.log_u[:, 5:] = 0.0
        mixed.log_v[:, 5:] = 0.0
        cold = FrameMarginals(None, None, np.zeros_like(a), np.zeros_like(b))
        # no frame stops early, some do, every frame does
        for init, tol, n_early in [(cold, 1e-12, 0), (mixed, 1e-9, 5), (mixed, 0.5, 8)]:
            steps = _fixed_budget_runs(a, b, kernel, params, init, (tol,))[1][tol]
            assert np.count_nonzero(steps < params.max_iter) == n_early
            recorded = _Recording(kernel)
            compute_frame_marginals(a, b, recorded, dataclasses.replace(params, tol=tol), init=init)
            assert len(recorded.widths) == 2 * int(np.max(steps)) + 1


class TestTransportObjective:
    @pytest.mark.parametrize("backend", ["dense", "kron"])
    def test_matches_dense_plan_oracle(self, backend):
        # truncated scalings at the default budget, as separate calls
        # it: the matrix-free form holds for any plan diag(u) G diag(v)
        rng = np.random.default_rng(19)
        power = rng.uniform(0.1, 3.0, size=(12, 4))
        lam = rng.uniform(0.1, 3.0, size=(12, 4))
        params = SinkhornParams()
        cost = materialize_kron_sum(kron_sum_cost((4, 3)))
        dense = gibbs_kernel(cost, params.mu)
        kernel = factorized_kernel(kron_sum_cost((4, 3)), params.mu) if backend == "kron" else dense
        marg = compute_frame_marginals(power, lam, kernel, params)
        want = sum(
            dense_plan_objective(
                dense_plan(marg.log_u[:, t], dense, marg.log_v[:, t]), power[:, t], lam[:, t], cost, params
            )
            for t in range(power.shape[1])
        )
        assert marg.objective == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("scale", [1e6, 1e8])
    def test_large_masses_match_the_per_entry_oracle(self, scale):
        # near a fit the KL terms are small differences of whole-array
        # sums: their error stays within a few ulps of the total mass
        rng = np.random.default_rng(27)
        n_bins = 64
        a = scale * rng.uniform(0.5, 2.0, size=(n_bins, 40))
        b = a * rng.uniform(0.99, 1.01, size=a.shape)
        kernel = gibbs_kernel(build_cost_sq(n_bins), SinkhornParams().mu)
        for params in (SinkhornParams(), SinkhornParams(max_iter=200, tol=1e-12)):
            marg = compute_frame_marginals(a, b, kernel, params)
            oracle = transport_objective(marg, a, b, params)
            assert abs(marg.objective - oracle) <= 1e-14 * (np.sum(a) + np.sum(b))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_bins=st.integers(1, 6),
        n_frames=st.integers(1, 4),
        mu=st.floats(1.0, 200.0),
        gamma=st.floats(0.1, 100.0),
        max_iter=st.integers(1, 12),
        tol=st.sampled_from([1e-300, 1e-3, 0.1]),
        log_mass=st.floats(-3.0, 3.0),
    )
    def test_objective_matches_dense_plan_property(
        self, seed, n_bins, n_frames, mu, gamma, max_iter, tol, log_mass
    ):
        # on any budget, tol and mass scale, the objective the solver
        # forms from its logs is that of the plan its scalings define
        rng = np.random.default_rng(seed)
        a = np.exp(log_mass) * rng.uniform(1e-3, 10.0, size=(n_bins, n_frames))
        b = rng.uniform(1e-3, 10.0, size=(n_bins, n_frames))
        params = SinkhornParams(mu=mu, gamma=gamma, max_iter=max_iter, tol=tol)
        cost = build_cost_sq(n_bins)
        kernel = gibbs_kernel(cost, mu)
        marg = compute_frame_marginals(a, b, kernel, params)
        want = sum(
            dense_plan_objective(
                dense_plan(marg.log_u[:, t], kernel, marg.log_v[:, t]), a[:, t], b[:, t], cost, params
            )
            for t in range(n_frames)
        )
        assert marg.objective == pytest.approx(want, rel=1e-9)


def _translation_dual(log_u, log_v, a, b, params):
    """Dual objective of one frame, less its translation-invariant term.

    The full dual is -gamma <a, exp(-log u/(gamma mu)) - 1>
    - gamma <b, exp(-log v/(gamma mu)) - 1> - (1/mu) sum u*(Gv); the
    last term is unchanged by (log u + s, log v - s).
    """
    gm = params.gamma * params.mu
    return -params.gamma * (
        np.sum(a * np.expm1(-log_u / gm)) + np.sum(b * np.expm1(-log_v / gm))
    )


class TestTranslationInvariantStep:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        mu=st.floats(1.0, 200.0),
        gamma=st.floats(0.1, 100.0),
        mass_ratio=st.floats(0.01, 100.0),
    )
    def test_shift_never_decreases_the_dual(self, seed, mu, gamma, mass_ratio):
        # one TI step from a drawn (log u, log v): the u-update is
        # recomputed here, so the solver's log u minus it is the shift
        rng = np.random.default_rng(seed)
        n_bins = 5
        a = rng.uniform(1e-3, 10.0, n_bins)
        b = mass_ratio * rng.uniform(1e-3, 10.0, n_bins)
        log_v = rng.uniform(-5.0, 5.0, n_bins)
        params = SinkhornParams(mu=mu, gamma=gamma, max_iter=1)
        kernel = gibbs_kernel(build_cost_sq(n_bins), mu)
        init = FrameMarginals(None, None, rng.uniform(-5.0, 5.0, (n_bins, 1)), log_v[:, None])
        stepped = compute_frame_marginals(a[:, None], b[:, None], kernel, params, init=init)
        log_u = stepped.log_u[:, 0]
        plain_u = params.marginal_exponent * (np.log(a) - np.log(kernel @ np.exp(log_v)))
        shift = log_u - plain_u
        assert np.ptp(shift) <= 1e-9 * (1.0 + np.max(np.abs(shift)))
        before = _translation_dual(plain_u, log_v, a, b, params)
        after = _translation_dual(log_u, log_v - shift[0], a, b, params)
        assert after >= before - 1e-9 * (1.0 + abs(before))
        # and it is the best translation: the dual's slope along it is 0
        gm = params.gamma * params.mu
        np.testing.assert_allclose(
            np.sum(a * np.exp(-log_u / gm)), np.sum(b * np.exp(-(log_v - shift[0]) / gm)), rtol=1e-9
        )


class TestBackProject:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_src=st.integers(1, 3),
        n_bins=st.integers(1, 6),
        ref_mic=st.integers(0, 2),
        log_cond=st.floats(0.0, 3.0),
        log_scale=st.floats(-3.0, 3.0),
    )
    def test_images_partition_reference_channel(
        self, seed, n_src, n_bins, ref_mic, log_cond, log_scale
    ):
        # D_f = U diag(s) V^H with random unitary U, V and singular values
        # from scale to scale * cond
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(_random_spectrogram(rng, n_bins, n_src, n_src))
        v, _ = np.linalg.qr(_random_spectrogram(rng, n_bins, n_src, n_src))
        s = 10.0 ** (log_scale + log_cond * rng.uniform(0.0, 1.0, size=(n_bins, n_src)))
        d = (u * s[:, None, :]) @ v.conj().transpose(0, 2, 1)
        x = _random_spectrogram(rng, n_src, n_bins, 5)
        ref = ref_mic % n_src
        images = back_project(np.einsum("fnm,mft->nft", d, x), d, ref_mic=ref)
        np.testing.assert_allclose(images.sum(axis=0), x[ref], rtol=0, atol=1e-10 * np.max(np.abs(x)))

    def test_instantaneous_oracle_scales(self):
        rng = np.random.default_rng(16)
        s = _random_spectrogram(rng, 2, 4, 6)
        d = np.broadcast_to(np.linalg.inv(MIX), (4, 2, 2)).astype(np.complex128)
        images = back_project(s, d, ref_mic=1)
        np.testing.assert_allclose(images[0], MIX[1, 0] * s[0], atol=1e-12)
        np.testing.assert_allclose(images[1], MIX[1, 1] * s[1], atol=1e-12)

    def test_singular_demixing_falls_back_to_pinv(self):
        y = np.ones((2, 3, 4), dtype=complex)
        d = np.zeros((3, 2, 2), dtype=complex)
        d[:, 0, 0] = 1.0
        with pytest.warns(UserWarning, match="pseudoinverse"):
            images = back_project(y, d, ref_mic=0)
        assert np.all(np.isfinite(images))

    def test_ref_mic_out_of_range(self):
        with pytest.raises(ValueError):
            back_project(np.ones((2, 3, 4), dtype=complex), init_demixing(2, 3), ref_mic=2)


class TestSeparationConfig:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            SeparationConfig(method="fastica")

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            SeparationConfig(n_basis=0)
        with pytest.raises(ValueError):
            SeparationConfig(outer_iters=-1)
        with pytest.raises(ValueError):
            SeparationConfig(ref_mic=-1)

    def test_frozen(self):
        cfg = SeparationConfig()
        with pytest.raises(Exception):
            cfg.method = "ilrma"

    def test_methods_tuple(self):
        assert METHODS == ("ilrma", "sdilrma-dense", "sdilrma-kron")


class TestRunIlrma:
    def test_objective_nondecreasing(self):
        mixture, _, _ = _speech_scene(duration=1.0)
        cfg = SeparationConfig(method="ilrma", outer_iters=20, seed=0)
        result = separate(mixture, cfg)
        obj = np.array([r.objective for r in result.trace])
        assert len(obj) == 20
        assert np.all(np.diff(obj) >= -1e-6 * np.abs(obj[:-1]))

    def test_trace_and_shapes(self):
        mixture, _, _ = _speech_scene(duration=0.5)
        cfg = SeparationConfig(method="ilrma", outer_iters=3, seed=1)
        result = separate(mixture, cfg)
        assert isinstance(result.estimates, Spectrogram)
        assert isinstance(result.images, Spectrogram)
        assert result.demixing.shape == (mixture.n_bins, 2, 2)
        assert [r.iteration for r in result.trace] == [1, 2, 3]
        assert isinstance(result.trace[0], IterationRecord)
        assert all(len(r.source_power) == 2 for r in result.trace)

    def test_separates_instantaneous_mixture(self):
        mixture, _, _ = _speech_scene(duration=1.5)
        cfg = SeparationConfig(method="ilrma", outer_iters=30, seed=0)
        result = separate(mixture, cfg)
        ratios = np.array(
            [_off_pattern(result.demixing[f] @ MIX) for f in range(mixture.n_bins)]
        )
        assert np.median(ratios) < 0.1

    def test_single_channel_runs(self):
        mixture, _, _ = _speech_scene(duration=0.3)
        mono = Spectrogram(
            data=mixture.data[:1],
            window_len=mixture.window_len,
            hop=mixture.hop,
            sample_rate=mixture.sample_rate,
            original_length=mixture.original_length,
        )
        result = separate(mono, SeparationConfig(method="ilrma", outer_iters=2))
        assert result.estimates.data.shape == mono.data.shape

    @pytest.mark.parametrize("method", ["ilrma", "sdilrma-kron"])
    def test_memory_layout_of_the_mixture_does_not_matter(self, method):
        # stft returns a transposed view; hand-built spectrograms may be
        # C- or Fortran-ordered
        mixture, _, _ = _speech_scene(duration=0.3)
        assert not mixture.data.flags["C_CONTIGUOUS"]
        cfg = SeparationConfig(method=method, outer_iters=3, seed=3)
        images = [
            separate(dataclasses.replace(mixture, data=layout(mixture.data)), cfg).images.data
            for layout in (np.ascontiguousarray, np.asfortranarray, lambda a: a)
        ]
        np.testing.assert_allclose(images[1], images[0], rtol=1e-12, atol=0)
        np.testing.assert_allclose(images[2], images[0], rtol=1e-12, atol=0)


class TestSdKernel:
    @pytest.mark.parametrize("n_bins, dims", [(513, (27, 19)), (129, (43, 3))], ids=["513", "129"])
    def test_kron_splits_the_bin_count(self, n_bins, dims):
        kernel = engine._sd_kernel(n_bins, SeparationConfig(method="sdilrma-kron"))
        assert isinstance(kernel, FactorizedKernel)
        assert kernel.dims == dims

    @pytest.mark.parametrize("n_bins", [129, 513])
    def test_dense_is_the_exact_cost_kernel(self, n_bins):
        cfg = SeparationConfig(method="sdilrma-dense")
        kernel = engine._sd_kernel(n_bins, cfg)
        assert np.array_equal(kernel, gibbs_kernel(build_cost_sq(n_bins), cfg.sinkhorn.mu))

    @pytest.mark.parametrize("n_bins", [3, 131])
    def test_prime_bin_count_gets_the_dense_kernel(self, n_bins):
        cfg = SeparationConfig(method="sdilrma-kron")
        with pytest.warns(UserWarning, match="cannot be factorized"):
            kernel = engine._sd_kernel(n_bins, cfg)
        assert np.array_equal(kernel, gibbs_kernel(build_cost_sq(n_bins), cfg.sinkhorn.mu))


class TestRunSdilrma:
    def test_backends_agree(self, monkeypatch):
        # the dense run on the (43, 3) Kronecker-sum cost that kron derives at F = 129
        mixture, _, _ = _speech_scene(duration=1.0)
        assert mixture.n_bins == 129
        common = dict(outer_iters=10, seed=3)
        kron = separate(mixture, SeparationConfig(method="sdilrma-kron", **common))
        monkeypatch.setattr(engine, "build_cost_sq", lambda n: materialize_kron_sum(kron_sum_cost((43, 3))))
        dense = separate(mixture, SeparationConfig(method="sdilrma-dense", **common))
        scale = np.max(np.abs(dense.estimates.data))
        np.testing.assert_allclose(
            kron.estimates.data, dense.estimates.data, atol=1e-6 * scale
        )
        obj_d = np.array([r.objective for r in dense.trace])
        obj_k = np.array([r.objective for r in kron.trace])
        np.testing.assert_allclose(obj_k, obj_d, rtol=1e-6)

    def test_prime_bin_count_falls_back_to_dense(self):
        mixture, _, _ = _speech_scene(duration=0.2, window_len=4, hop=2)
        assert mixture.n_bins == 3
        cfg = SeparationConfig(method="sdilrma-kron", outer_iters=2, seed=0)
        with pytest.warns(UserWarning, match="cannot be factorized"):
            result = separate(mixture, cfg)
        assert np.all(np.isfinite(result.estimates.data))

    def test_transport_objective_trends_down(self):
        mixture, _, _ = _speech_scene(duration=0.8)
        cfg = SeparationConfig(method="sdilrma-kron", outer_iters=12, seed=4)
        result = separate(mixture, cfg)
        obj = [r.objective for r in result.trace]
        assert all(np.isfinite(obj))
        assert obj[-1] < obj[0]

    def test_objective_is_read_through_transport_objective(self, monkeypatch):
        # the per-layer benchmark trace times the SDILRMA objective by
        # wrapping engine._transport_objective, so every iteration reads
        # its solve's objective through that name
        mixture, _, _ = _speech_scene(duration=0.3)
        seen = []

        def spy(marg):
            seen.append(marg.objective)
            return marg.objective

        monkeypatch.setattr(engine, "_transport_objective", spy)
        result = separate(mixture, SeparationConfig(method="sdilrma-kron", outer_iters=3, seed=0))
        assert [r.objective for r in result.trace] == seen
        assert len(seen) == 3

    @pytest.mark.parametrize("channel", [0, 1])
    def test_non_finite_frame_names_source_and_frame(self, channel):
        # estimates start as the mixture, so channel n feeds source n
        mixture, _, _ = _speech_scene(duration=0.3)
        data = mixture.data.copy()
        data[channel, :, 3] = np.nan
        cfg = SeparationConfig(method="sdilrma-kron", outer_iters=1)
        with np.errstate(invalid="ignore"), pytest.raises(SinkhornNumericError) as excinfo:
            separate(dataclasses.replace(mixture, data=data), cfg)
        assert excinfo.value.iteration == 0
        assert excinfo.value.context == (channel, 3)


class TestSeparate:
    @pytest.mark.parametrize("method", METHODS)
    def test_images_partition_mixture(self, method):
        mixture, _, _ = _speech_scene(duration=0.5)
        cfg = SeparationConfig(method=method, outer_iters=4, seed=6, ref_mic=0)
        result = separate(mixture, cfg)
        np.testing.assert_allclose(
            result.images.data.sum(axis=0), mixture.data[0], atol=1e-8
        )

    @pytest.mark.parametrize("method", METHODS)
    def test_deterministic_for_seed(self, method):
        mixture, _, _ = _speech_scene(duration=0.4)
        cfg = SeparationConfig(method=method, outer_iters=4, seed=7)
        r1 = separate(mixture, cfg)
        r2 = separate(mixture, cfg)
        np.testing.assert_array_equal(r1.estimates.data, r2.estimates.data)
        assert r1.trace == r2.trace

    @pytest.mark.parametrize("method", METHODS)
    def test_estimates_are_the_final_demixing_applied_once(self, method):
        # the mixture as separate() holds it, (F, C, T) in C order
        mixture, _, _ = _speech_scene(duration=0.4)
        cfg = SeparationConfig(method=method, outer_iters=3, seed=8)
        result = separate(mixture, cfg)
        x = np.ascontiguousarray(mixture.data.transpose(1, 0, 2))
        np.testing.assert_array_equal(result.estimates.data, (result.demixing @ x).transpose(1, 0, 2))

    @pytest.mark.parametrize("method", ["ilrma", "sdilrma-kron"])
    def test_singular_demixing_rejected(self, method, monkeypatch):
        # both rows of every D_f pick channel 0: the loop's one slogdet
        # must stop the run before the objective or the next iteration
        mixture, _, _ = _speech_scene(duration=0.3)

        def rank_deficient(demixing, planes, variances):
            out = np.zeros_like(demixing)
            out[:, :, 0] = 1.0
            return out

        monkeypatch.setattr(engine, "ip_update", rank_deficient)
        cfg = SeparationConfig(method=method, outer_iters=2)
        with pytest.raises(DemixingNumericError, match="singular"):
            separate(mixture, cfg)


class TestSeparateDispatch:
    def test_channel_truncation_warns(self):
        mixture, _, _ = _speech_scene(duration=0.3)
        data = np.concatenate([mixture.data, mixture.data[:1]], axis=0)
        three = Spectrogram(
            data=data,
            window_len=mixture.window_len,
            hop=mixture.hop,
            sample_rate=mixture.sample_rate,
            original_length=mixture.original_length,
        )
        with pytest.warns(UserWarning, match="keeping the first 2"):
            result = separate(three, SeparationConfig(method="ilrma", outer_iters=2), n_sources=2)
        assert result.estimates.data.shape[0] == 2

    def test_too_many_sources_rejected(self):
        mixture, _, _ = _speech_scene(duration=0.3)
        with pytest.raises(ValueError, match="more sources"):
            separate(mixture, SeparationConfig(method="ilrma"), n_sources=3)

    def test_ref_mic_must_index_a_kept_channel(self):
        mixture, _, _ = _speech_scene(duration=0.3)
        with pytest.raises(ValueError, match="ref_mic"):
            separate(mixture, SeparationConfig(method="ilrma", ref_mic=5))

    def test_needs_two_frames(self):
        short = Spectrogram(
            data=np.ones((2, 5, 1), dtype=complex),
            window_len=8,
            hop=2,
            sample_rate=16000,
            original_length=8,
        )
        with pytest.raises(ValueError, match="two frames"):
            separate(short, SeparationConfig(method="ilrma"))

    def test_plain_array_rejected_before_any_sweep(self, monkeypatch):
        # the results carry the mixture's STFT metadata, which an array lacks
        mixture, _, _ = _speech_scene(duration=0.3)
        calls = []

        def counted(demixing, planes, variances):
            calls.append(1)
            return ip_update(demixing, planes, variances)

        monkeypatch.setattr(engine, "ip_update", counted)
        with pytest.raises(TypeError, match="Spectrogram"):
            separate(mixture.data, SeparationConfig(method="ilrma", outer_iters=2))
        assert calls == []
