"""WAV round trips and STFT/ISTFT identities.

Oracle values: PCM16 quantization checked against hand-computed integer
codes; the STFT frame content checked against a direct DFT summation on
an independently windowed frame; Parseval energy checked against direct
summation on both sides; the Hann window checked bit for bit against
scipy's ``get_window``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otbss.audio import (
    PCM16_SCALE,
    Spectrogram,
    StftConfig,
    TimeSignal,
    istft,
    read_wav,
    stft,
    write_wav,
)
from otbss.errors import UnsupportedWavError, WavFormatError


def _tone(freq, fs, n, channels=1, seed=0):
    t = np.arange(n) / fs
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0, 2 * np.pi, size=channels)
    return TimeSignal(
        samples=np.sin(2 * np.pi * freq * t[None, :] + phases[:, None]),
        sample_rate=fs,
    )


class TestWavIo:
    def test_pcm16_scaling_hand_values(self, tmp_path):
        # codes: round(0.5*32768)=16384, round(-1.0*32768)=-32768,
        # 1.0 clips to 32767; read back divides by 32768.
        sig = TimeSignal(samples=np.array([[0.5, -1.0, 1.0, 0.0]]), sample_rate=8000)
        path = tmp_path / "q.wav"
        write_wav(path, sig, encoding="pcm16")
        back = read_wav(path)
        expected = np.array([[16384.0, -32768.0, 32767.0, 0.0]]) / PCM16_SCALE
        np.testing.assert_array_equal(back.samples, expected)
        assert back.sample_rate == 8000

    def test_pcm16_round_trip_error_bound(self, tmp_path):
        rng = np.random.default_rng(1)
        sig = TimeSignal(samples=rng.uniform(-0.9, 0.9, size=(2, 500)), sample_rate=16000)
        path = tmp_path / "r.wav"
        write_wav(path, sig, encoding="pcm16")
        back = read_wav(path)
        assert back.samples.shape == (2, 500)
        # quantization error of round() is at most half a step
        assert np.max(np.abs(back.samples - sig.samples)) <= 0.5 / PCM16_SCALE

    def test_float32_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        vals = rng.standard_normal((3, 257)).astype(np.float32)
        sig = TimeSignal(samples=vals.astype(np.float64), sample_rate=44100)
        path = tmp_path / "f.wav"
        write_wav(path, sig, encoding="float32")
        back = read_wav(path)
        np.testing.assert_array_equal(back.samples, vals.astype(np.float64))

    def test_mono_shape_is_two_dimensional(self, tmp_path):
        sig = TimeSignal(samples=np.zeros((1, 64)), sample_rate=8000)
        path = tmp_path / "m.wav"
        write_wav(path, sig)
        back = read_wav(path)
        assert back.samples.shape == (1, 64)

    def test_rejects_unsupported_encoding(self, tmp_path):
        from scipy.io import wavfile

        path = tmp_path / "i32.wav"
        wavfile.write(path, 8000, np.zeros(16, dtype=np.int32))
        with pytest.raises(UnsupportedWavError):
            read_wav(path)

    def test_rejects_garbage_file(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"not a riff file at all")
        with pytest.raises(WavFormatError):
            read_wav(path)

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_wav(tmp_path / "absent.wav")

    def test_write_rejects_non_finite(self, tmp_path):
        sig = TimeSignal(samples=np.array([[0.0, np.nan]]), sample_rate=8000)
        with pytest.raises(ValueError):
            write_wav(tmp_path / "n.wav", sig)


class TestStftConfig:
    def test_defaults(self):
        cfg = StftConfig()
        assert cfg.window_len == 1024
        assert cfg.hop == 256
        assert cfg.n_bins == 513

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            StftConfig(window_len=1000)

    def test_rejects_bad_hop(self):
        with pytest.raises(ValueError):
            StftConfig(window_len=1024, hop=0)
        with pytest.raises(ValueError):
            StftConfig(window_len=1024, hop=2048)

    def test_rejects_non_cola_pair(self):
        # hop == window_len leaves gaps in the Hann overlap-add
        with pytest.raises(ValueError):
            StftConfig(window_len=512, hop=512)

    def test_cola_sum_is_two_at_half_overlap(self):
        # periodic Hann with hop = L/2 tiles to exactly 1.0;
        # with hop = L/4 to exactly 2.0
        cfg = StftConfig(window_len=1024, hop=256)
        taper = cfg.taper()
        acc = np.zeros(cfg.hop)
        np.add.at(acc, np.arange(cfg.window_len) % cfg.hop, taper)
        np.testing.assert_allclose(acc, 2.0, atol=1e-12)

    @pytest.mark.parametrize("window_len", [2**k for k in range(1, 13)])
    def test_taper_is_scipy_periodic_hann(self, window_len):
        from scipy.signal import get_window

        taper = StftConfig(window_len=window_len, hop=window_len // 2).taper()
        expected = get_window("hann", window_len, fftbins=True)
        assert taper.dtype == expected.dtype
        np.testing.assert_array_equal(taper, expected)

    @pytest.mark.parametrize("window", ["hamming", "boxcar", "Hann"])
    def test_rejects_other_windows(self, window):
        # the periodic Hann is fixed: no window can be named at all
        with pytest.raises(TypeError, match="window"):
            StftConfig(window=window)


class TestStft:
    def test_shapes_and_metadata(self):
        sig = _tone(440.0, 16000, 4000, channels=2)
        spec = stft(sig)
        assert spec.data.shape[0] == 2
        assert spec.n_bins == 513
        assert spec.original_length == 4000
        assert spec.sample_rate == 16000

    def test_single_frame_matches_direct_dft(self):
        # oracle: explicit O(L^2) DFT of the window-weighted frame
        L, hop = 256, 64
        cfg = StftConfig(window_len=L, hop=hop)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(2000)
        sig = TimeSignal(samples=x[None, :], sample_rate=8000)
        spec = stft(sig, cfg)

        m = 7  # interior frame; starts at m*hop - L relative to x
        start = m * hop - L
        frame = x[start : start + L] * cfg.taper()
        n_idx = np.arange(L)
        oracle = np.array(
            [np.sum(frame * np.exp(-2j * np.pi * f * n_idx / L)) for f in range(L // 2 + 1)]
        )
        np.testing.assert_allclose(spec.data[0, :, m], oracle, atol=1e-10)

    def test_sinusoid_peaks_at_its_bin(self):
        # bin-32 center frequency of a 256-point DFT at fs=8000
        L, hop, fs, k = 256, 64, 8000, 32
        cfg = StftConfig(window_len=L, hop=hop)
        freq = k * fs / L
        sig = _tone(freq, fs, 3000)
        spec = stft(sig, cfg)
        mags = np.abs(spec.data[0])
        n_frames = mags.shape[1]
        interior = range(L // hop + 1, n_frames - L // hop - 1)
        assert len(interior) > 5
        for t in interior:
            assert np.argmax(mags[:, t]) == k

    def test_parseval_energy_identity(self):
        # direct-summation oracle on both sides: frame energy in time
        # equals (1/L) * one-sided-expanded spectral energy per frame
        L, hop = 512, 128
        cfg = StftConfig(window_len=L, hop=hop)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(5000)
        sig = TimeSignal(samples=x[None, :], sample_rate=8000)
        spec = stft(sig, cfg)

        n_frames = spec.n_frames
        padded = np.zeros((n_frames - 1) * hop + L)
        padded[L : L + 5000] = x
        taper = cfg.taper()
        time_energy = sum(
            np.sum((padded[m * hop : m * hop + L] * taper) ** 2) for m in range(n_frames)
        )
        weights = np.ones(L // 2 + 1) * 2.0
        weights[0] = 1.0
        weights[-1] = 1.0
        spec_energy = np.sum(weights[:, None] * np.abs(spec.data[0]) ** 2) / L
        np.testing.assert_allclose(spec_energy, time_energy, rtol=1e-8)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((1, 2000))
        b = rng.standard_normal((1, 2000))
        cfg = StftConfig(window_len=256, hop=64)
        sa = stft(TimeSignal(a, 8000), cfg).data
        sb = stft(TimeSignal(b, 8000), cfg).data
        sab = stft(TimeSignal(2.0 * a - 0.5 * b, 8000), cfg).data
        np.testing.assert_allclose(sab, 2.0 * sa - 0.5 * sb, atol=1e-12)


class TestIstft:
    @pytest.mark.parametrize("n", [1, 255, 256, 1000, 4096, 5001])
    def test_round_trip_identity(self, n):
        rng = np.random.default_rng(n)
        sig = TimeSignal(samples=rng.standard_normal((2, n)), sample_rate=16000)
        cfg = StftConfig(window_len=256, hop=64)
        out = istft(stft(sig, cfg))
        assert out.n_samples == n
        np.testing.assert_allclose(out.samples, sig.samples, atol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(
        log_len=st.integers(1, 10),
        hop_shift=st.integers(1, 10),
        n=st.integers(1, 5000),
        channels=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip_any_length_and_cola_hop(self, log_len, hop_shift, n, channels, seed):
        # the periodic Hann is COLA at every hop L / 2**k, down to one sample
        window_len = 2**log_len
        cfg = StftConfig(window_len=window_len, hop=window_len >> min(hop_shift, log_len))
        x = np.random.default_rng(seed).standard_normal((channels, n))
        out = istft(stft(TimeSignal(x, 16000), cfg))
        assert out.n_samples == n
        np.testing.assert_allclose(out.samples, x, rtol=0, atol=1e-12)

    def test_round_trip_default_config(self):
        rng = np.random.default_rng(9)
        sig = TimeSignal(samples=rng.standard_normal((3, 20000)), sample_rate=16000)
        out = istft(stft(sig))
        err = np.max(np.abs(out.samples - sig.samples))
        assert err < 1e-10

    def test_round_trip_half_overlap(self):
        rng = np.random.default_rng(10)
        sig = TimeSignal(samples=rng.standard_normal((1, 3000)), sample_rate=8000)
        cfg = StftConfig(window_len=512, hop=256)
        out = istft(stft(sig, cfg))
        np.testing.assert_allclose(out.samples, sig.samples, atol=1e-10)

    def test_istft_linearity_on_spectrograms(self):
        rng = np.random.default_rng(11)
        base = stft(TimeSignal(rng.standard_normal((1, 2000)), 8000))
        za = rng.standard_normal(base.data.shape) + 1j * rng.standard_normal(base.data.shape)
        zb = rng.standard_normal(base.data.shape) + 1j * rng.standard_normal(base.data.shape)

        def inv(z):
            return istft(
                Spectrogram(
                    data=z,
                    window_len=base.window_len,
                    hop=base.hop,
                    sample_rate=base.sample_rate,
                    original_length=base.original_length,
                )
            ).samples

        np.testing.assert_allclose(
            inv(za + 3.0 * zb), inv(za) + 3.0 * inv(zb), atol=1e-12
        )
