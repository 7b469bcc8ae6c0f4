"""Room simulator checks: Sabine values, image-method physics, mixing.

The FFT convolution and the FFT peak filter are checked against
scipy's ``fftconvolve`` and ``lfilter(*iirpeak(...))``; the image set
against an explicit enumeration (``helpers.reference_image_grid``), the
impulse responses against a pair-by-pair, masked evaluation over that
set (``helpers.reference_image_source_rir``), and the factored, blocked
pulse sum against a direct evaluation of every tap
(``helpers.reference_windowed_sinc_add``), both to ``PULSE_RTOL`` of
the pulse amplitudes.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from helpers import (
    reference_image_grid,
    reference_image_source_rir,
    reference_windowed_sinc_add,
    schroeder_t60,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from otbss import roomsim
from otbss.audio import TimeSignal
from otbss.errors import DegenerateGeometryError
from otbss.roomsim import (
    Rir,
    RoomScene,
    convolve_mix,
    image_source_rir,
    make_scene_sisec,
    sabine_absorption,
    synth_speech,
)


# Tap error of the factored pulse sum, relative to a (source, mic) pair's
# direct-path amplitude or to the summed |amplitude| of the pulses that
# reach the tap. Over 600 drawn rooms and 70 SiSEC scenes the first was
# at most 1.7e-15; over six SiSEC pulse sets the second, 1.5e-16.
PULSE_RTOL = 1e-14

W = roomsim.SINC_HALF_WIDTH


def _simple_scene(t60=0.0, src=(2.0, 2.0, 1.5), mic=(4.0, 2.0, 1.5), fs=16000):
    return RoomScene(
        dimensions=(8.0, 8.0, 3.0),
        source_positions=np.array([src]),
        mic_positions=np.array([mic]),
        t60=t60,
        max_rir_len=fs,
        sample_rate=fs,
    )


class TestSabine:
    def test_hand_value_for_benchmark_room(self):
        # 0.161 * 192 / (224 * 0.3) = 0.46 by hand
        assert sabine_absorption((8.0, 8.0, 3.0), 0.3) == pytest.approx(0.46, abs=1e-3)

    def test_long_t60_limit(self):
        assert sabine_absorption((8.0, 8.0, 3.0), 1e9) < 1e-8

    def test_inverse_proportionality(self):
        a1 = sabine_absorption((5.0, 4.0, 3.0), 0.4)
        a2 = sabine_absorption((5.0, 4.0, 3.0), 0.8)
        assert a1 == pytest.approx(2.0 * a2, rel=1e-12)

    def test_zero_t60_means_anechoic(self):
        assert sabine_absorption((8.0, 8.0, 3.0), 0.0) == 1.0

    def test_clamp_warns_for_impossible_t60(self):
        with pytest.warns(UserWarning):
            assert sabine_absorption((8.0, 8.0, 3.0), 1e-4) == 1.0

    def test_subnormal_t60_clamps_without_overflow(self):
        with pytest.warns(UserWarning, match="clamping"), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert sabine_absorption([8, 8, 3], 2.225e-311) == 1.0

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            sabine_absorption((8.0, 0.0, 3.0), 0.3)


class TestSceneValidation:
    def test_source_outside_room_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            _simple_scene(src=(9.0, 2.0, 1.5))

    def test_source_on_wall_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            _simple_scene(src=(0.0, 2.0, 1.5))

    def test_source_at_mic_rejected_at_simulation(self):
        scene = _simple_scene(src=(4.0, 2.0, 1.5))
        with pytest.raises(DegenerateGeometryError):
            image_source_rir(scene)

    def test_negative_t60_rejected(self):
        with pytest.raises(ValueError):
            _simple_scene(t60=-0.1)


def _pulse(length, delay, amp, half_width=40):
    """Reference Hann-windowed sinc pulse built by direct evaluation."""
    out = np.zeros(length)
    center = int(round(delay))
    for j in range(max(0, center - half_width), min(length, center + half_width + 1)):
        x = j - delay
        if abs(x) <= half_width:
            out[j] = amp * 0.5 * (1.0 + np.cos(np.pi * x / half_width)) * np.sinc(x)
    return out


def _triple(lo, hi):
    return st.lists(st.floats(lo, hi), min_size=3, max_size=3).map(np.array)


@st.composite
def _small_rooms(draw):
    """1-3 sources and mics at 8 kHz in a room of 2-6 m sides, T60 <= 0.3 s.

    Some sources stand a few cm from a mic, so that pulses start before
    tap 0; ``max_rir_len`` runs from 1 tap to past the longest delay.
    """
    dims = draw(_triple(2.0, 6.0))
    mics = [draw(_triple(0.05, 0.95)) * dims for _ in range(draw(st.integers(1, 3)))]
    sources = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            sources.append(draw(st.sampled_from(mics)) + draw(_triple(-0.05, 0.05)))
        else:
            sources.append(draw(_triple(0.05, 0.95)) * dims)
    assume(all(np.linalg.norm(s - m) > 1e-3 for s in sources for m in mics))
    return RoomScene(
        dimensions=dims,
        source_positions=np.array(sources),
        mic_positions=np.array(mics),
        t60=draw(st.floats(0.0, 0.3)),
        max_rir_len=draw(st.integers(1, 8000)),
        sample_rate=8000,
    )


class TestImageSourceRir:
    @pytest.mark.filterwarnings("ignore:t60=")
    @settings(max_examples=12, deadline=None)
    @given(scene=_small_rooms())
    def test_taps_match_the_pair_by_pair_oracle_within_pulse_rtol_of_the_direct_path(self, scene):
        # every image lies at least as far away as the source itself, so
        # the direct-path amplitude 1/(4 pi d) bounds each pulse of a pair
        taps = image_source_rir(scene).taps
        expected = reference_image_source_rir(scene)
        assert taps.shape == expected.shape
        d = np.linalg.norm(
            scene.source_positions[:, None, :] - scene.mic_positions[None, :, :], axis=-1
        )
        direct = 1.0 / (4.0 * np.pi * d)
        assert np.all(np.abs(taps - expected) <= PULSE_RTOL * direct[:, :, None])

    def test_max_rir_len_before_the_direct_path_gives_zero_taps(self):
        # the direct pulse spans taps 53..133 (delay 93.3 samples), every
        # image pulse starts later still: all are dropped
        scene = _simple_scene(t60=0.3)
        scene.max_rir_len = 50
        taps = image_source_rir(scene).taps
        assert taps.shape == (1, 1, 50)
        assert not np.any(taps)
        assert taps.tobytes() == reference_image_source_rir(scene).tobytes()

    def test_anechoic_pulse_matches_analytic_form(self):
        # src-mic distance 2 m -> delay 2/343*16000 = 93.29 samples,
        # amplitude 1/(4*pi*2), fractional delay as windowed sinc
        scene = _simple_scene()
        rir = image_source_rir(scene)
        taps = rir.taps[0, 0]
        delay = 2.0 / 343.0 * 16000
        expected = _pulse(len(taps), delay, 1.0 / (4.0 * np.pi * 2.0))
        np.testing.assert_allclose(taps, expected, atol=1e-15)
        assert abs(int(np.argmax(np.abs(taps))) - delay) <= 1.0

    def test_anechoic_single_pulse(self):
        scene = _simple_scene()
        rir = image_source_rir(scene)
        taps = rir.taps[0, 0]
        peak = int(np.argmax(np.abs(taps)))
        outside = np.concatenate([taps[: max(0, peak - 41)], taps[peak + 42 :]])
        assert np.all(outside == 0.0)

    def test_inverse_distance_amplitude(self):
        # pulse energy, normalized by the reference pulse energy at the
        # same fractional delay, scales as 1/distance^2
        def level(mic, dist):
            rir = image_source_rir(_simple_scene(mic=mic))
            delay = dist / 343.0 * 16000
            ref = _pulse(rir.length, delay, 1.0)
            return np.sqrt(np.sum(rir.taps[0, 0] ** 2) / np.sum(ref**2))

        a_near = level((3.0, 2.0, 1.5), 1.0)
        a_far = level((6.0, 2.0, 1.5), 4.0)
        assert a_near / a_far == pytest.approx(4.0, rel=1e-9)

    def test_mirror_symmetry(self):
        fs = 16000
        scene_a = RoomScene(
            dimensions=(6.0, 5.0, 3.0),
            source_positions=np.array([[1.5, 2.0, 1.2]]),
            mic_positions=np.array([[4.0, 3.0, 1.7]]),
            t60=0.25,
            max_rir_len=fs,
            sample_rate=fs,
        )
        # mirror everything through the room's x midplane
        scene_b = RoomScene(
            dimensions=(6.0, 5.0, 3.0),
            source_positions=np.array([[6.0 - 1.5, 2.0, 1.2]]),
            mic_positions=np.array([[6.0 - 4.0, 3.0, 1.7]]),
            t60=0.25,
            max_rir_len=fs,
            sample_rate=fs,
        )
        ra = image_source_rir(scene_a).taps
        rb = image_source_rir(scene_b).taps
        np.testing.assert_allclose(ra, rb, atol=1e-10)

    def test_schroeder_decay_matches_requested_t60(self):
        # backward-integration oracle: first -60 dB crossing near 0.4 s
        scene = make_scene_sisec(t60=0.4, angle1=50.0, angle2=-30.0)
        rir = image_source_rir(scene)
        measured = schroeder_t60(rir.taps[0, 0], rir.sample_rate)
        assert measured == pytest.approx(0.4, rel=0.2)

    @pytest.mark.parametrize("t60", [0.2, 0.3, 0.6])
    def test_schroeder_decay_grid(self, t60):
        scene = make_scene_sisec(t60=t60, angle1=40.0, angle2=-40.0)
        rir = image_source_rir(scene)
        measured = schroeder_t60(rir.taps[1, 0], rir.sample_rate)
        assert measured == pytest.approx(t60, rel=0.2)

    def test_truncation_respects_max_rir_len(self):
        scene = _simple_scene(t60=0.5)
        scene.max_rir_len = 800
        rir = image_source_rir(scene)
        assert rir.length <= 800

    def test_deterministic(self):
        scene = make_scene_sisec(t60=0.2, angle1=30.0, angle2=-60.0)
        a = image_source_rir(scene).taps
        b = image_source_rir(scene).taps
        np.testing.assert_array_equal(a, b)

    def test_traced_peak_of_a_long_rir_stays_below_32_mb(self):
        # 37 881 images per pair at T60 = 0.6 s: an (images, 81) float
        # array alone would be 25 MB
        scene = make_scene_sisec(0.6, 60.0, -60.0)
        tracemalloc.start()
        try:
            image_source_rir(scene)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6


class TestImageGrid:
    # 23 and 30 are the orders of T60 = 0.3 s and of 0.4 s and longer in
    # the SiSEC room; the taps stay bit-identical only in this order
    @pytest.mark.parametrize("max_order", [0, 1, 2, 5, 23, 30])
    def test_matches_explicit_enumeration_in_order(self, max_order):
        got = roomsim._image_grid(max_order)
        for g, want in zip(got, reference_image_grid(max_order)):
            assert g.dtype == want.dtype
            np.testing.assert_array_equal(g, want)

    def test_traced_peak_at_order_30_stays_below_8_mb(self):
        # 8 parities x 35 937 shifts x 3 int64 would be 6.9 MB per array
        tracemalloc.start()
        try:
            roomsim._image_grid(30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


def _pulse_sums(n, delays, amps):
    """Blocked and direct pulse sums into ``n`` taps, and each tap's error scale.

    The scale of a tap is the summed |amplitude| of the pulses whose
    2w + 1 taps cover it, so a tap no pulse reaches must be exactly 0.
    """
    got = np.zeros(n)
    roomsim._windowed_sinc_add(got, delays, amps)
    expected = np.zeros(n)
    reference_windowed_sinc_add(expected, delays, amps)
    scale = np.zeros(n)
    for start, amp in zip(np.round(delays).astype(np.int64) - W, amps):
        scale[max(start, 0) : max(start + 2 * W + 1, 0)] += abs(amp)
    return got, expected, scale


class TestWindowedSincAdd:
    def _check(self, n, delays, amps):
        got, expected, scale = _pulse_sums(n, np.asarray(delays, float), np.asarray(amps, float))
        assert np.all(np.abs(got - expected) <= PULSE_RTOL * scale)
        return got

    def test_exact_integer_delay_puts_the_amplitude_on_its_tap(self):
        # sinc(k) = 0 at every other integer offset, so the three
        # overlapping pulses leave only their own taps
        got = self._check(300, [100.0, 7.0, 0.0], [0.3, -0.2, 0.5])
        assert (got[0], got[7], got[100]) == (0.5, -0.2, 0.3)
        assert np.count_nonzero(got) == 3

    @pytest.mark.parametrize("delay, first, last", [(100.5, 61, 140), (101.5, 62, 141)])
    def test_half_integer_delay_rounds_half_to_even_and_zeroes_the_far_end(self, delay, first, last):
        # 100.5 -> tap 100 (x = -40.5 at tap 60), 101.5 -> tap 102 (x = 40.5 at tap 142)
        got = self._check(300, [delay], [1.0])
        nonzero = np.flatnonzero(got)
        assert (nonzero[0], nonzero[-1]) == (first, last)

    def test_pulses_straddling_tap_0_and_the_end(self):
        n = 120
        delays = [0.3, 12.7, 39.5, n - 3.3, n + 20.7, n + W - 0.6, n + W + 0.4]
        got = self._check(n, delays, [1.0, -0.7, 0.4, 0.9, -1.1, 0.8, 2.0])
        # the last pulse starts at tap n: it is dropped and adds nothing
        without_last = self._check(n, delays[:-1], [1.0, -0.7, 0.4, 0.9, -1.1, 0.8])
        np.testing.assert_array_equal(got, without_last)

    @pytest.mark.parametrize(
        "count",
        [0, 1, roomsim._PULSE_BLOCK - 1, roomsim._PULSE_BLOCK, roomsim._PULSE_BLOCK + 1],
    )
    def test_every_pulse_counts_once_across_block_boundaries(self, count):
        rng = np.random.default_rng(count)
        n = 3000
        delays = rng.uniform(0.0, n + 2 * W, size=count)
        amps = rng.uniform(-1.0, 1.0, size=count)
        self._check(n, delays, amps)


class TestConvolveMix:
    def test_unit_impulse_rirs_sum_sources(self):
        fs = 8000
        rng = np.random.default_rng(0)
        s1 = TimeSignal(rng.standard_normal((1, 500)), fs)
        s2 = TimeSignal(rng.standard_normal((1, 500)), fs)
        taps = np.zeros((2, 2, 8))
        taps[:, :, 0] = 1.0
        mix, images = convolve_mix([s1, s2], Rir(taps, fs))
        np.testing.assert_allclose(
            mix.samples, np.vstack([s1.samples + s2.samples] * 2), atol=1e-12
        )
        assert len(images) == 2

    def test_delayed_impulse_shifts_signal(self):
        fs = 8000
        rng = np.random.default_rng(1)
        s = TimeSignal(rng.standard_normal((1, 300)), fs)
        taps = np.zeros((1, 1, 16))
        taps[0, 0, 5] = 1.0
        mix, _ = convolve_mix([s], Rir(taps, fs))
        np.testing.assert_allclose(mix.samples[0, 5:], s.samples[0, :-5], atol=1e-12)
        np.testing.assert_allclose(mix.samples[0, :5], 0.0, atol=1e-12)

    def test_mixture_is_exact_sum_of_images(self):
        scene = make_scene_sisec(t60=0.2, angle1=20.0, angle2=-70.0)
        rir = image_source_rir(scene)
        srcs = [synth_speech(0.5, 16000, seed=i) for i in range(2)]
        mix, images = convolve_mix(srcs, rir)
        np.testing.assert_array_equal(
            mix.samples, images[0].samples + images[1].samples
        )

    def test_linearity_in_each_source(self):
        fs = 16000
        scene = make_scene_sisec(t60=0.1, angle1=10.0, angle2=-10.0)
        rir = image_source_rir(scene)
        rng = np.random.default_rng(2)
        a = TimeSignal(rng.standard_normal((1, 2000)), fs)
        b = TimeSignal(rng.standard_normal((1, 2000)), fs)
        zero = TimeSignal(np.zeros((1, 2000)), fs)
        mix_a, _ = convolve_mix([a, zero], rir)
        mix_b, _ = convolve_mix([b, zero], rir)
        scaled = TimeSignal(2.0 * a.samples - b.samples, fs)
        mix_s, _ = convolve_mix([scaled, zero], rir)
        np.testing.assert_allclose(
            mix_s.samples, 2.0 * mix_a.samples - mix_b.samples, atol=1e-10
        )

    @pytest.mark.parametrize("n_samples", [300, 4000, 32000])
    def test_matches_scipy_fftconvolve(self, n_samples):
        from scipy.signal import fftconvolve

        rir = image_source_rir(make_scene_sisec(t60=0.3, angle1=60.0, angle2=-60.0))
        rng = np.random.default_rng(n_samples)
        srcs = [TimeSignal(rng.standard_normal((1, n_samples)), 16000) for _ in range(2)]
        _, images = convolve_mix(srcs, rir)
        for n, img in enumerate(images):
            for m in range(rir.n_mics):
                expected = fftconvolve(srcs[n].samples[0], rir.taps[n, m])[:n_samples]
                err = np.max(np.abs(img.samples[m] - expected))
                assert err <= 1e-13 * np.max(np.abs(expected))

    def test_length_mismatch_rejected(self):
        fs = 8000
        s1 = TimeSignal(np.zeros((1, 100)), fs)
        s2 = TimeSignal(np.zeros((1, 101)), fs)
        taps = np.zeros((2, 1, 4))
        taps[:, :, 0] = 1.0
        with pytest.raises(ValueError):
            convolve_mix([s1, s2], Rir(taps, fs))

    def test_rate_mismatch_rejected(self):
        s = TimeSignal(np.zeros((1, 100)), 8000)
        taps = np.zeros((1, 1, 4))
        taps[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            convolve_mix([s], Rir(taps, 16000))


class TestSisecScene:
    def test_mic_positions(self):
        scene = make_scene_sisec(t60=0.0, angle1=45.0, angle2=-45.0)
        np.testing.assert_allclose(
            scene.mic_positions,
            [[4.0 - 0.0283, 4.0, 1.5], [4.0 + 0.0283, 4.0, 1.5]],
            atol=1e-12,
        )

    def test_source_distance_from_center(self):
        scene = make_scene_sisec(t60=0.0, angle1=30.0, angle2=-60.0)
        center = np.array([4.0, 4.0, 1.5])
        for pos in scene.source_positions:
            assert np.linalg.norm(pos - center) == pytest.approx(2.0, abs=1e-12)

    def test_angle_90_lies_on_mic_axis(self):
        scene = make_scene_sisec(t60=0.0, angle1=90.0, angle2=-45.0)
        np.testing.assert_allclose(scene.source_positions[0], [6.0, 4.0, 1.5], atol=1e-12)

    def test_broadside_angle_zero_is_straight_ahead(self):
        scene = make_scene_sisec(t60=0.0, angle1=0.0, angle2=-45.0)
        np.testing.assert_allclose(scene.source_positions[0], [4.0, 6.0, 1.5], atol=1e-12)

    def test_coincident_angles_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            make_scene_sisec(t60=0.0, angle1=0.0, angle2=0.0)

    def test_angle_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_scene_sisec(t60=0.0, angle1=91.0, angle2=-45.0)
        with pytest.raises(ValueError):
            make_scene_sisec(t60=0.0, angle1=45.0, angle2=10.0)


class TestSynthSpeech:
    def test_deterministic_per_seed(self):
        a = synth_speech(0.5, 16000, seed=7)
        b = synth_speech(0.5, 16000, seed=7)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_seeds_differ(self):
        a = synth_speech(0.5, 16000, seed=1)
        b = synth_speech(0.5, 16000, seed=2)
        assert np.max(np.abs(a.samples - b.samples)) > 1e-3

    def test_shape_and_level(self):
        sig = synth_speech(1.25, 16000, seed=3)
        assert sig.samples.shape == (1, 20000)
        assert np.max(np.abs(sig.samples)) <= 0.7 + 1e-12
        assert np.std(sig.samples) > 1e-3

    def test_envelope_varies(self):
        # speech-like signals are nonstationary: frame energies spread
        sig = synth_speech(2.0, 16000, seed=4).samples[0]
        frames = sig[: len(sig) // 800 * 800].reshape(-1, 800)
        energies = np.sum(frames**2, axis=1)
        assert energies.min() < 0.1 * energies.max()


class TestPeakFilter:
    @pytest.mark.parametrize("freq", [500.0, 1234.5, 3200.0])
    @pytest.mark.parametrize("n", [1, 2, 100, 32000])
    def test_matches_scipy_lfilter(self, freq, n):
        from scipy.signal import iirpeak, lfilter

        x = np.random.default_rng(n).standard_normal(n)
        expected = lfilter(*iirpeak(freq, 6.0, fs=16000), x)
        got = roomsim._peak_filter(x, freq, 6.0, 16000)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))
