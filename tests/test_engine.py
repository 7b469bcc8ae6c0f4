"""Separation engine: demixing algebra, model updates, and full loops.

Independent oracles: instantaneous 2x2 mixtures whose exact demixing
matrix is the mixing inverse, oracle source variances driving the
iterative-projection sweep, the linear-domain scaling fixed point for
the transport marginals, and objective values recomputed with explicit
loops inside the tests.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_ip_update
from otbss.audio import Spectrogram, StftConfig, TimeSignal, stft
from otbss.engine import (
    METHODS,
    FrameMarginals,
    IterationRecord,
    SeparationConfig,
    apply_demixing,
    back_project,
    compute_frame_marginals,
    ilrma_objective,
    init_demixing,
    ip_update,
    normalize,
    run_ilrma,
    run_sdilrma,
    sd_update_source_model,
    separate,
)
from otbss.errors import DemixingNumericError, SinkhornNumericError
from otbss.kron import factorized_kernel, kron_sum_cost, materialize_kron_sum
from otbss.nmf import NmfModel, init_nmf, is_divergence, variance
from otbss.roomsim import synth_speech
from otbss.sinkhorn import SinkhornParams, build_cost_sq, gibbs_kernel, sinkhorn_scalings

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


def _off_pattern(matrix):
    """Smallest off/on magnitude ratio over both source orderings."""
    g = np.abs(matrix)
    direct = (g[0, 1] + g[1, 0]) / (g[0, 0] + g[1, 1])
    swapped = (g[0, 0] + g[1, 1]) / (g[0, 1] + g[1, 0])
    return min(direct, swapped)


class TestInitDemixing:
    def test_square_is_identity(self):
        d = init_demixing(2, 2, 5)
        assert d.shape == (5, 2, 2)
        assert d.dtype == np.complex128
        for f in range(5):
            np.testing.assert_array_equal(d[f], np.eye(2))

    def test_wide_selects_leading_channels(self):
        d = init_demixing(3, 2, 4)
        assert d.shape == (4, 2, 3)
        np.testing.assert_array_equal(d[2], [[1, 0, 0], [0, 1, 0]])

    def test_rows_not_aliased(self):
        d = init_demixing(2, 2, 3)
        d[0, 0, 0] = 9.0
        assert d[1, 0, 0] == 1.0

    def test_rejects_more_sources_than_channels(self):
        with pytest.raises(ValueError):
            init_demixing(2, 3, 4)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            init_demixing(0, 1, 4)


class TestApplyDemixing:
    def test_identity_passthrough(self):
        rng = np.random.default_rng(0)
        x = _random_spectrogram(rng, 2, 6, 4)
        y = apply_demixing(init_demixing(2, 2, 6), x)
        np.testing.assert_allclose(y, x, rtol=0, atol=0)

    def test_inverts_instantaneous_mixture(self):
        rng = np.random.default_rng(1)
        s = _random_spectrogram(rng, 2, 5, 7)
        x = np.einsum("mn,nft->mft", MIX, s)
        d = np.broadcast_to(np.linalg.inv(MIX), (5, 2, 2)).astype(np.complex128)
        np.testing.assert_allclose(apply_demixing(d, x), s, atol=1e-12)

    def test_linear(self):
        rng = np.random.default_rng(2)
        x1 = _random_spectrogram(rng, 2, 4, 3)
        x2 = _random_spectrogram(rng, 2, 4, 3)
        d = _random_spectrogram(rng, 4, 2, 2)
        np.testing.assert_allclose(
            apply_demixing(d, x1 + x2),
            apply_demixing(d, x1) + apply_demixing(d, x2),
            atol=1e-12,
        )

    def test_spectrogram_round_trip_keeps_metadata(self):
        mixture, _, _ = _speech_scene(duration=0.3)
        out = apply_demixing(init_demixing(2, 2, mixture.n_bins), mixture)
        assert isinstance(out, Spectrogram)
        assert out.hop == mixture.hop
        assert out.original_length == mixture.original_length

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_demixing(init_demixing(2, 2, 5), np.zeros((2, 6, 4), dtype=complex))


class TestIpUpdate:
    def test_oracle_variance_recovers_unmixing(self):
        mixture, sources, _ = _speech_scene(duration=2.0)
        lam = np.maximum(np.abs(sources.data) ** 2, 1e-12)
        d = init_demixing(2, 2, mixture.n_bins)
        for _ in range(30):
            d = ip_update(d, mixture, lam)
        ratios = np.array([_off_pattern(d[f] @ MIX) for f in range(mixture.n_bins)])
        assert np.median(ratios) < 1e-3

    def test_objective_nondecreasing_at_fixed_variance(self):
        mixture, sources, _ = _speech_scene(duration=0.5)
        lam = np.maximum(np.abs(sources.data) ** 2, 1e-12)
        d = init_demixing(2, 2, mixture.n_bins)
        prev = ilrma_objective(np.abs(apply_demixing(d, mixture).data) ** 2, lam, d)
        for _ in range(8):
            d = ip_update(d, mixture, lam)
            cur = ilrma_objective(np.abs(apply_demixing(d, mixture).data) ** 2, lam, d)
            assert cur >= prev - 1e-8 * abs(prev)
            prev = cur

    def test_single_channel_closed_form(self):
        rng = np.random.default_rng(3)
        x = _random_spectrogram(rng, 1, 6, 50)
        lam = rng.uniform(0.5, 2.0, size=(1, 6, 50))
        d = ip_update(init_demixing(1, 1, 6), x, lam)
        weighted = np.mean(np.abs(x[0]) ** 2 / lam[0], axis=1)
        np.testing.assert_allclose(np.abs(d[:, 0, 0]), 1.0 / np.sqrt(weighted), rtol=1e-12)

    def test_rank_deficient_covariance_is_regularized(self):
        rng = np.random.default_rng(4)
        base = _random_spectrogram(rng, 1, 4, 6)
        x = np.concatenate([base, base], axis=0)
        d = ip_update(init_demixing(2, 2, 4), x, np.ones((2, 4, 6)))
        assert np.all(np.isfinite(d))

    def test_rejects_rectangular_system(self):
        with pytest.raises(ValueError):
            ip_update(init_demixing(3, 2, 4), np.zeros((3, 4, 5), dtype=complex), np.ones((2, 4, 5)))

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
        got = ip_update(d, x, lam)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_all_zero_bin_gives_up_with_its_location(self):
        rng = np.random.default_rng(5)
        x = _random_spectrogram(rng, 2, 6, 8)
        x[:, 4] = 0.0
        with pytest.raises(DemixingNumericError) as info:
            ip_update(init_demixing(2, 2, 6), x, np.ones((2, 6, 8)))
        assert (info.value.source, info.value.freq) == (0, 4)

    def test_only_the_failing_bin_is_loaded(self):
        # equal channels make bin 3 exactly singular; the other bins must
        # come out bit for bit as if bin 3 were not there
        rng = np.random.default_rng(6)
        x = _random_spectrogram(rng, 2, 7, 9)
        x[1, 3] = x[0, 3]
        lam = rng.uniform(0.5, 2.0, size=(2, 7, 9))
        d = ip_update(init_demixing(2, 2, 7), x, lam)
        keep = np.arange(7) != 3
        alone = ip_update(init_demixing(2, 2, 6), x[:, keep], lam[:, keep])
        np.testing.assert_array_equal(d[keep], alone)
        assert np.all(np.isfinite(d[3]))


class TestNormalize:
    def _setup(self, seed=5, n_bins=6, n_frames=8):
        rng = np.random.default_rng(seed)
        est = _random_spectrogram(rng, 2, n_bins, n_frames) * 3.0
        d = _random_spectrogram(rng, n_bins, 2, 2)
        models = [init_nmf(n_bins, n_frames, 2, seed=seed + n) for n in range(2)]
        return d, models, est

    def test_unit_mean_power(self):
        d, models, est = self._setup()
        _, _, est2 = normalize(d, models, est)
        np.testing.assert_allclose(np.mean(np.abs(est2) ** 2, axis=(1, 2)), 1.0, rtol=1e-12)

    def test_objective_invariant(self):
        d, models, est = self._setup()
        lam = np.stack([variance(m) for m in models])
        before = ilrma_objective(np.abs(est) ** 2, lam, d)
        d2, models2, est2 = normalize(d, models, est)
        lam2 = np.stack([variance(m) for m in models2])
        after = ilrma_objective(np.abs(est2) ** 2, lam2, d2)
        assert after == pytest.approx(before, rel=1e-10)

    def test_idempotent(self):
        d, models, est = self._setup()
        d1, m1, e1 = normalize(d, models, est)
        d2, m2, e2 = normalize(d1, m1, e1)
        np.testing.assert_allclose(d2, d1, rtol=1e-12)
        np.testing.assert_allclose(e2, e1, rtol=1e-12)
        np.testing.assert_allclose(variance(m2[0]), variance(m1[0]), rtol=1e-12)

    def test_demixing_scaled_consistently(self):
        d, models, est = self._setup()
        rho = np.sqrt(np.mean(np.abs(est) ** 2, axis=(1, 2)))
        d2, _, _ = normalize(d, models, est)
        np.testing.assert_allclose(d2[:, 0, :], d[:, 0, :] / rho[0], rtol=1e-12)
        np.testing.assert_allclose(d2[:, 1, :], d[:, 1, :] / rho[1], rtol=1e-12)

    def test_zero_power_source_warns_and_passes_through(self):
        d, models, est = self._setup()
        est[1] = 0.0
        with pytest.warns(UserWarning, match="zero power"):
            d2, models2, est2 = normalize(d, models, est)
        np.testing.assert_array_equal(d2[:, 1, :], d[:, 1, :])
        np.testing.assert_array_equal(variance(models2[1]), variance(models[1]))
        np.testing.assert_array_equal(est2[1], est[1])

    def test_count_mismatch_rejected(self):
        d, models, est = self._setup()
        with pytest.raises(ValueError):
            normalize(d, models[:1], est)


class TestIlrmaObjective:
    def test_hand_value(self):
        power = np.array([[[1.0, 4.0]]])
        lam = np.array([[[2.0, 2.0]]])
        d = np.array([[[3.0 + 0j]]])
        expected = -(1.0 / 2.0 + 4.0 / 2.0 + 2.0 * np.log(2.0)) + 2.0 * 2.0 * np.log(3.0)
        assert ilrma_objective(power, lam, d) == pytest.approx(expected, rel=1e-14)

    def test_maximized_at_matching_variance(self):
        rng = np.random.default_rng(6)
        power = rng.uniform(0.5, 2.0, size=(2, 5, 7))
        d = np.broadcast_to(np.eye(2, dtype=complex), (5, 2, 2))
        best = ilrma_objective(power, power, d)
        assert best > ilrma_objective(power, 1.5 * power, d)
        assert best > ilrma_objective(power, 0.6 * power, d)

    def test_singular_demixing_rejected(self):
        with pytest.raises(DemixingNumericError):
            ilrma_objective(np.ones((1, 2, 2)), np.ones((1, 2, 2)), np.zeros((2, 1, 1), dtype=complex))


class TestSdUpdateSourceModel:
    def test_matching_marginal_is_fixed_point(self):
        model = init_nmf(6, 8, 2, seed=7)
        updated = sd_update_source_model(model, variance(model))
        np.testing.assert_allclose(variance(updated), variance(model), rtol=1e-10)

    def test_fit_never_degrades(self):
        rng = np.random.default_rng(8)
        for trial in range(20):
            model = init_nmf(9, 8, 2, seed=100 + trial)
            marg = rng.uniform(0.1, 3.0, size=(9, 8))
            before = is_divergence(marg, variance(model))
            after = is_divergence(marg, variance(sd_update_source_model(model, marg)))
            assert after <= before + 1e-10

    def test_verbatim_variant_differs_but_stays_positive(self):
        rng = np.random.default_rng(9)
        model = init_nmf(5, 6, 2, seed=10)
        marg = rng.uniform(0.1, 3.0, size=(5, 6))
        default = sd_update_source_model(model, marg)
        verbatim = sd_update_source_model(model, marg, verbatim_updates=True)
        assert np.all(variance(verbatim) > 0)
        assert not np.allclose(variance(verbatim), variance(default))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sd_update_source_model(init_nmf(5, 6, 2), np.ones((6, 5)))


class TestComputeFrameMarginals:
    def test_matches_linear_fixed_point(self):
        rng = np.random.default_rng(10)
        a = rng.uniform(0.5, 2.0, size=(6, 4))
        b = rng.uniform(0.5, 2.0, size=(6, 4))
        params = SinkhornParams(mu=4.0, gamma=2.0, max_iter=4000, tol=1e-14)
        kernel = gibbs_kernel(build_cost_sq(6), params.mu)
        u, v = sinkhorn_scalings(a, b, kernel, params)
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
        with pytest.raises(ValueError):
            compute_frame_marginals(
                np.ones((4, 3)), np.ones((5, 3)), gibbs_kernel(build_cost_sq(4), 100.0), SinkhornParams()
            )

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
        u, v = sinkhorn_scalings(a, b, kernel, params)
        marg = compute_frame_marginals(a, b, kernel, params)
        rtol = 1e-7 if balanced else 1e-10
        np.testing.assert_allclose(marg.row, u * (dense @ v), rtol=rtol)
        np.testing.assert_allclose(marg.col, v * (dense.T @ u), rtol=rtol)

    @pytest.mark.parametrize("backend", ["dense", "kron"])
    def test_batched_sources_match_per_source_solves(self, backend):
        # at the default truncated budget, from a warm start, as
        # run_sdilrma calls it: frames are independent columns
        rng = np.random.default_rng(18)
        power = rng.uniform(0.1, 3.0, size=(2, 12, 4))
        lam = rng.uniform(0.1, 3.0, size=(2, 12, 4))
        params = SinkhornParams()
        cost = kron_sum_cost((4, 3))
        if backend == "kron":
            kernel = factorized_kernel(cost, params.mu)
        else:
            kernel = gibbs_kernel(materialize_kron_sum(cost), params.mu)
        init = compute_frame_marginals(np.hstack(0.5 * power), np.hstack(lam), kernel, params)
        batched = compute_frame_marginals(np.hstack(power), np.hstack(lam), kernel, params, init=init)
        for n, cols in enumerate((slice(0, 4), slice(4, 8))):
            warm = FrameMarginals(*(x[:, cols] for x in init))
            alone = compute_frame_marginals(power[n], lam[n], kernel, params, init=warm)
            for got, want in zip(batched, alone):
                np.testing.assert_allclose(got[:, cols], want, rtol=1e-12, atol=1e-12)


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
    def test_images_partition_reference_channel(self):
        rng = np.random.default_rng(15)
        x = _random_spectrogram(rng, 2, 5, 6)
        d = _random_spectrogram(rng, 5, 2, 2) + np.broadcast_to(
            2 * np.eye(2), (5, 2, 2)
        )
        y = apply_demixing(d, x)
        images = back_project(y, d, ref_mic=0)
        np.testing.assert_allclose(images.sum(axis=0), x[0], atol=1e-10)

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
            back_project(np.ones((2, 3, 4), dtype=complex), init_demixing(2, 2, 3), ref_mic=2)


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
        with pytest.raises(ValueError):
            SeparationConfig(kron_dims=(0, 4))

    def test_kron_dims_normalized(self):
        cfg = SeparationConfig(method="sdilrma-kron", kron_dims=[4.0, 3])
        assert cfg.kron_dims == (4, 3)

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
        result = run_ilrma(mixture, cfg)
        obj = np.array([r.objective for r in result.trace])
        assert len(obj) == 20
        assert np.all(np.diff(obj) >= -1e-6 * np.abs(obj[:-1]))

    def test_trace_and_shapes(self):
        mixture, _, _ = _speech_scene(duration=0.5)
        cfg = SeparationConfig(method="ilrma", outer_iters=3, seed=1)
        result = run_ilrma(mixture, cfg)
        assert isinstance(result.estimates, Spectrogram)
        assert isinstance(result.images, Spectrogram)
        assert result.demixing.shape == (mixture.n_bins, 2, 2)
        assert [r.iteration for r in result.trace] == [1, 2, 3]
        assert isinstance(result.trace[0], IterationRecord)
        assert all(len(r.source_power) == 2 for r in result.trace)

    def test_images_partition_mixture(self):
        mixture, _, _ = _speech_scene(duration=0.5)
        cfg = SeparationConfig(method="ilrma", outer_iters=5, seed=2, ref_mic=0)
        result = run_ilrma(mixture, cfg)
        np.testing.assert_allclose(
            result.images.data.sum(axis=0), mixture.data[0], atol=1e-8
        )

    def test_separates_instantaneous_mixture(self):
        mixture, _, _ = _speech_scene(duration=1.5)
        cfg = SeparationConfig(method="ilrma", outer_iters=30, seed=0)
        result = run_ilrma(mixture, cfg)
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
            window=mixture.window,
        )
        result = run_ilrma(mono, SeparationConfig(method="ilrma", outer_iters=2))
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

    def test_deterministic_for_seed(self):
        mixture, _, _ = _speech_scene(duration=0.4)
        cfg = SeparationConfig(method="ilrma", outer_iters=4, seed=7)
        r1 = run_ilrma(mixture, cfg)
        r2 = run_ilrma(mixture, cfg)
        np.testing.assert_array_equal(r1.estimates.data, r2.estimates.data)
        assert [a.objective for a in r1.trace] == [b.objective for b in r2.trace]


class TestRunSdilrma:
    def test_rejects_plain_ilrma_config(self):
        mixture, _, _ = _speech_scene(duration=0.3)
        with pytest.raises(ValueError):
            run_sdilrma(mixture, SeparationConfig(method="ilrma"))

    def test_backends_agree(self):
        mixture, _, _ = _speech_scene(duration=1.0)
        assert mixture.n_bins == 129
        common = dict(outer_iters=10, seed=3, kron_dims=(43, 3))
        dense = run_sdilrma(mixture, SeparationConfig(method="sdilrma-dense", **common))
        kron = run_sdilrma(mixture, SeparationConfig(method="sdilrma-kron", **common))
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
            result = run_sdilrma(mixture, cfg)
        assert np.all(np.isfinite(result.estimates.data))

    def test_kron_dims_must_match_bins(self):
        mixture, _, _ = _speech_scene(duration=0.3)
        cfg = SeparationConfig(method="sdilrma-kron", outer_iters=1, kron_dims=(4, 3))
        with pytest.raises(ValueError, match="kron_dims"):
            run_sdilrma(mixture, cfg)

    def test_transport_objective_trends_down(self):
        mixture, _, _ = _speech_scene(duration=0.8)
        cfg = SeparationConfig(method="sdilrma-kron", outer_iters=12, seed=4)
        result = run_sdilrma(mixture, cfg)
        obj = [r.objective for r in result.trace]
        assert all(np.isfinite(obj))
        assert obj[-1] < obj[0]

    def test_verbatim_updates_run(self):
        mixture, _, _ = _speech_scene(duration=0.4)
        cfg = SeparationConfig(
            method="sdilrma-kron", outer_iters=3, seed=5, verbatim_updates=True
        )
        result = run_sdilrma(mixture, cfg)
        assert np.all(np.isfinite(result.estimates.data))
        assert all(np.isfinite(r.objective) for r in result.trace)

    @pytest.mark.parametrize("channel", [0, 1])
    def test_non_finite_frame_names_source_and_frame(self, channel):
        # estimates start as the mixture, so channel n feeds source n
        mixture, _, _ = _speech_scene(duration=0.3)
        data = mixture.data.copy()
        data[channel, :, 3] = np.nan
        cfg = SeparationConfig(method="sdilrma-kron", outer_iters=1)
        with np.errstate(invalid="ignore"), pytest.raises(SinkhornNumericError) as excinfo:
            run_sdilrma(dataclasses.replace(mixture, data=data), cfg)
        assert excinfo.value.iteration == 0
        assert excinfo.value.context == (channel, 3)

    def test_images_partition_mixture(self):
        mixture, _, _ = _speech_scene(duration=0.5)
        cfg = SeparationConfig(method="sdilrma-dense", outer_iters=4, seed=6)
        result = run_sdilrma(mixture, cfg)
        np.testing.assert_allclose(
            result.images.data.sum(axis=0), mixture.data[0], atol=1e-8
        )


class TestSeparateDispatch:
    def test_dispatches_by_method(self):
        mixture, _, _ = _speech_scene(duration=0.4)
        cfg = SeparationConfig(method="ilrma", outer_iters=3, seed=8)
        direct = run_ilrma(mixture, cfg)
        routed = separate(mixture, cfg)
        np.testing.assert_array_equal(routed.estimates.data, direct.estimates.data)

    def test_channel_truncation_warns(self):
        mixture, _, _ = _speech_scene(duration=0.3)
        data = np.concatenate([mixture.data, mixture.data[:1]], axis=0)
        three = Spectrogram(
            data=data,
            window_len=mixture.window_len,
            hop=mixture.hop,
            sample_rate=mixture.sample_rate,
            original_length=mixture.original_length,
            window=mixture.window,
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
            window="hann",
        )
        with pytest.raises(ValueError, match="two frames"):
            separate(short, SeparationConfig(method="ilrma"))
