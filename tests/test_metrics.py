"""Projection-based SDR/SIR scoring.

Independent oracles: estimates built as reference-plus-scaled-noise at
an exact energy ratio, short-filtered references that a 512-tap
projection must absorb completely, hand-permuted inputs whose scores
must not move, the per-estimate projection with scipy Toeplitz
blocks (``helpers.reference_sdr_sir_scores``), and one call per
estimate set against several sets in one call.
"""

import numpy as np
import pytest
from helpers import reference_sdr_sir_scores

from otbss import metrics
from otbss.audio import TimeSignal
from otbss.metrics import CLAMP_DB, FILTER_LEN, EvalResult, improvement, sdr_sir, sdr_sir_sets
from otbss.roomsim import synth_speech


def _tones(n=4000, fs=8000, freqs=(440.0, 1180.0)):
    t = np.arange(n) / fs
    return [np.sin(2 * np.pi * f * t) for f in freqs]


def _snr_estimate(ref, other, snr_db, rng=None):
    """ref plus a bleed of ``other`` scaled to an exact energy ratio."""
    noise = other - _project_1d(other, ref)
    gain = np.sqrt(np.sum(ref**2) / np.sum(noise**2) * 10 ** (-snr_db / 10))
    return ref + gain * noise


def _project_1d(x, onto):
    return onto * (np.dot(x, onto) / np.dot(onto, onto))


class TestPerfectEstimates:
    def test_clamps_at_100_db(self):
        refs = _tones()
        result = sdr_sir([r.copy() for r in refs], refs)
        np.testing.assert_array_equal(result.sdr, [CLAMP_DB, CLAMP_DB])
        np.testing.assert_array_equal(result.sir, [CLAMP_DB, CLAMP_DB])
        assert result.permutation == (0, 1)

    def test_short_filter_is_transparent(self):
        # quiet tails keep the whole convolution inside the window, so
        # the filtered estimate lies exactly in the projection span
        rng = np.random.default_rng(0)
        refs = [rng.standard_normal(4000) for _ in range(2)]
        for r in refs:
            r[-200:] = 0.0
        taps = rng.standard_normal(64) * np.hanning(64)
        ests = [np.convolve(r, taps)[: len(r)] for r in refs]
        result = sdr_sir(ests, refs)
        assert np.all(result.sdr > 60.0)

    def test_time_signal_inputs(self):
        refs = _tones()
        sigs = [TimeSignal(r[None, :], 8000) for r in refs]
        result = sdr_sir(sigs, sigs)
        np.testing.assert_array_equal(result.sdr, [CLAMP_DB, CLAMP_DB])


class TestKnownRatios:
    def test_20_db_construction(self):
        r0, r1 = _tones(n=6000)
        est0 = _snr_estimate(r0, r1, 20.0)
        est1 = _snr_estimate(r1, r0, 20.0)
        result = sdr_sir([est0, est1], [r0, r1])
        np.testing.assert_allclose(result.sdr, 20.0, atol=0.5)
        np.testing.assert_allclose(result.sir, 20.0, atol=0.5)

    def test_scale_invariance(self):
        r0, r1 = _tones(n=6000)
        ests = [_snr_estimate(r0, r1, 15.0), _snr_estimate(r1, r0, 15.0)]
        base = sdr_sir(ests, [r0, r1])
        scaled = sdr_sir([7.5 * ests[0], 0.02 * ests[1]], [r0, r1])
        np.testing.assert_allclose(scaled.sdr, base.sdr, atol=0.01)
        np.testing.assert_allclose(scaled.sir, base.sir, atol=0.01)

    def test_more_noise_means_lower_sdr(self):
        r0, r1 = _tones(n=6000)
        scores = []
        for snr in (25.0, 15.0, 5.0):
            res = sdr_sir([_snr_estimate(r0, r1, snr), _snr_estimate(r1, r0, snr)], [r0, r1])
            scores.append(np.mean(res.sdr))
        assert scores[0] > scores[1] > scores[2]

    def test_artifact_noise_hits_sdr_not_sir(self):
        rng = np.random.default_rng(1)
        r0, r1 = _tones(n=6000)
        white = rng.standard_normal(6000)
        white *= np.sqrt(np.sum(r0**2) / np.sum(white**2) * 10 ** (-10 / 10))
        result = sdr_sir([r0 + white, r1.copy()], [r0, r1])
        assert result.sir[0] > result.sdr[0] + 20.0
        assert result.sdr[0] == pytest.approx(10.0, abs=0.5)


class TestPermutation:
    def test_swapped_estimates_rescored_identically(self):
        r0, r1 = _tones(n=6000)
        ests = [_snr_estimate(r0, r1, 18.0), _snr_estimate(r1, r0, 12.0)]
        direct = sdr_sir(ests, [r0, r1])
        swapped = sdr_sir(ests[::-1], [r0, r1])
        np.testing.assert_allclose(np.sort(swapped.sdr), np.sort(direct.sdr), atol=1e-9)
        assert direct.permutation == (0, 1)
        assert swapped.permutation == (1, 0)

    def test_metrics_follow_reference_order(self):
        r0, r1 = _tones(n=6000)
        ests = [_snr_estimate(r1, r0, 12.0), _snr_estimate(r0, r1, 18.0)]
        result = sdr_sir(ests, [r0, r1])
        assert result.permutation == (1, 0)
        assert result.sdr[0] == pytest.approx(18.0, abs=0.5)
        assert result.sdr[1] == pytest.approx(12.0, abs=0.5)


class TestAgainstPerEstimateProjection:
    """All pairs solved together score every pair as one solve per pair does."""

    @staticmethod
    def _assert_scores_match(est, refs):
        sdr, sir = metrics._scores(est, refs, FILTER_LEN)
        ref_sdr, ref_sir = reference_sdr_sir_scores(est, refs, FILTER_LEN)
        np.testing.assert_allclose(sdr, ref_sdr, rtol=0, atol=1e-9)
        np.testing.assert_allclose(sir, ref_sir, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("n_src", [1, 2, 3])
    def test_random_signals(self, n_src):
        rng = np.random.default_rng(n_src)
        refs = rng.standard_normal((n_src, 3000))
        est = rng.uniform(0.2, 1.0, (n_src, n_src)) @ refs + 0.3 * rng.standard_normal((n_src, 3000))
        self._assert_scores_match(est, refs)

    def test_speech_signals(self):
        refs = np.vstack([synth_speech(0.5, 16000, seed=s).samples for s in (11, 12)])
        taps = np.array([1.0, 0.0, 0.0, -0.4, 0.0, 0.2])
        leak = np.array([np.convolve(r, taps)[: refs.shape[1]] for r in refs[::-1]])
        est = refs + 0.3 * leak
        self._assert_scores_match(est, refs)

    def test_singular_gram_falls_back_to_lstsq(self):
        # both references are the same unit impulse: the full Gram is
        # [[I, I], [I, I]] to the last bit, so the solve finds it singular
        refs = np.zeros((2, 2000))
        refs[:, 0] = 1.0
        n_fft = 1 << int(np.ceil(np.log2(2000 + FILTER_LEN - 1)))
        gram = metrics._shifted_gram(np.fft.rfft(refs, n_fft, axis=1), n_fft, FILTER_LEN)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(gram, np.ones(2 * FILTER_LEN))
        est = np.random.default_rng(7).standard_normal((2, 2000))
        self._assert_scores_match(est, refs)


class TestEstimateSets:
    """Several estimate sets in one call score as one call per set does."""

    def test_sets_match_per_set_calls_and_the_per_estimate_projection(self):
        refs = np.vstack([synth_speech(0.5, 16000, seed=s).samples for s in (11, 12)])
        rng = np.random.default_rng(3)
        mix = refs.sum(axis=0)
        sets = [
            [mix, mix],  # the unprocessed baseline: both estimates are one signal
            list(refs + 0.3 * refs[::-1] + 0.05 * rng.standard_normal(refs.shape)),
            list(refs[::-1] + 0.2 * rng.standard_normal(refs.shape)),  # swapped
        ]
        results = sdr_sir_sets(sets, list(refs))
        assert len(results) == len(sets)
        sdr, sir = metrics._scores(np.vstack(sets), refs, FILTER_LEN)
        for k, (est, got) in enumerate(zip(sets, results)):
            alone = sdr_sir(est, list(refs))
            np.testing.assert_allclose(got.sdr, alone.sdr, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got.sir, alone.sir, rtol=0, atol=1e-12)
            assert got.permutation == alone.permutation
            ref_sdr, ref_sir = reference_sdr_sir_scores(np.vstack(est), refs, FILTER_LEN)
            np.testing.assert_allclose(sdr[2 * k : 2 * k + 2], ref_sdr, rtol=0, atol=1e-9)
            np.testing.assert_allclose(sir[2 * k : 2 * k + 2], ref_sir, rtol=0, atol=1e-9)
        assert results[2].permutation == (1, 0)

    def test_every_set_is_validated(self):
        r0, r1 = _tones()
        with pytest.raises(ValueError, match="counts"):
            sdr_sir_sets([[r0, r1], [r0]], [r0, r1])
        with pytest.raises(ValueError, match="lengths"):
            sdr_sir_sets([[r0, r1], [r0, r1[:-5]]], [r0, r1])
        with pytest.raises(ValueError, match="estimate set"):
            sdr_sir_sets([], [r0, r1])


class TestImprovement:
    def test_zero_for_identical_results(self):
        r0, r1 = _tones()
        res = sdr_sir([r0.copy(), r1.copy()], [r0, r1])
        delta = improvement(res, res)
        np.testing.assert_array_equal(delta.sdr, [0.0, 0.0])
        np.testing.assert_array_equal(delta.sir, [0.0, 0.0])

    def test_positive_when_processing_helps(self):
        r0, r1 = _tones(n=6000)
        mix = r0 + r1
        baseline = sdr_sir([mix, mix], [r0, r1])
        cleaned = sdr_sir([_snr_estimate(r0, r1, 20.0), _snr_estimate(r1, r0, 20.0)], [r0, r1])
        delta = improvement(cleaned, baseline)
        assert np.all(delta.sdr > 0)
        assert np.all(delta.sir > 0)

    def test_count_mismatch_rejected(self):
        r0, r1 = _tones()
        two = sdr_sir([r0.copy(), r1.copy()], [r0, r1])
        one = sdr_sir([r0.copy()], [r0])
        with pytest.raises(ValueError):
            improvement(two, one)


class TestValidation:
    def test_zero_energy_reference_rejected(self):
        with pytest.raises(ValueError, match="zero-energy"):
            sdr_sir([np.ones(100)], [np.zeros(100)])

    def test_count_mismatch_rejected(self):
        r0, r1 = _tones()
        with pytest.raises(ValueError, match="counts"):
            sdr_sir([r0], [r0, r1])

    def test_length_mismatch_rejected(self):
        r0, _ = _tones()
        with pytest.raises(ValueError, match="lengths"):
            sdr_sir([r0[:-5]], [r0])

    def test_multichannel_estimate_rejected(self):
        r0, _ = _tones()
        stereo = TimeSignal(np.vstack([r0, r0]), 8000)
        with pytest.raises(ValueError, match="mono"):
            sdr_sir([stereo], [TimeSignal(r0[None, :], 8000)])

    def test_sample_rate_mismatch_rejected(self):
        r0, r1 = _tones()
        with pytest.raises(ValueError, match="sample rates"):
            sdr_sir(
                [TimeSignal(r0[None, :], 8000), TimeSignal(r1[None, :], 16000)],
                [TimeSignal(r0[None, :], 8000), TimeSignal(r1[None, :], 8000)],
            )

    def test_estimate_and_reference_rates_must_agree(self):
        # same length at another rate: scored as it was, it read 100 dB
        r0, r1 = _tones()
        refs = [TimeSignal(r[None, :], 16000) for r in (r0, r1)]
        slow = [TimeSignal(r[None, :], 8000) for r in (r0, r1)]
        with pytest.raises(ValueError, match="8000 Hz.*16000 Hz"):
            sdr_sir(slow, refs)
        with pytest.raises(ValueError, match="8000 Hz.*16000 Hz"):
            sdr_sir_sets([refs, slow], refs)

    def test_result_is_frozen(self):
        r0, _ = _tones()
        res = sdr_sir([r0.copy()], [r0])
        assert isinstance(res, EvalResult)
        with pytest.raises(Exception):
            res.sdr = None

    def test_filter_len_default(self):
        assert FILTER_LEN == 512
