"""WAV I/O and the STFT/ISTFT pair.

The STFT turns time-domain convolutive mixtures into per-frequency
instantaneous mixtures; the ISTFT resynthesizes separated spectrograms.
Both directions are exact inverses of each other on the original sample
range (weighted overlap-add with per-sample normalization). The analysis
window is a periodic Hann built in numpy; scipy is imported only by the
WAV reader and writer, on first use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedWavError, WavFormatError

PCM16_SCALE = 32768.0

_COLA_TOL = 1e-8


@dataclass
class TimeSignal:
    """Multichannel time-domain signal.

    Parameters
    ----------
    samples : np.ndarray, shape=(channels, n_samples)
        Real-valued samples, nominally in [-1, 1].
    sample_rate : int
        Sampling rate in Hz, > 0.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=np.float64))
        if self.samples.ndim != 2:
            raise ValueError("samples must be a (channels, n_samples) array")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    @property
    def channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class StftConfig:
    """Analysis/synthesis configuration for the STFT.

    The FFT length equals ``window_len``; the one-sided spectrum has
    ``window_len // 2 + 1`` bins. The window/hop pair must satisfy
    constant overlap-add so that every sample is uniformly weighted.
    The window is always the periodic Hann of ``taper``.
    """

    window_len: int = 1024
    hop: int = 256

    def __post_init__(self):
        if self.window_len < 2 or (self.window_len & (self.window_len - 1)) != 0:
            raise ValueError("window_len must be a power of two >= 2")
        if not 0 < self.hop <= self.window_len:
            raise ValueError("hop must satisfy 0 < hop <= window_len")
        cola = _ola(self.taper(), self.hop)
        dev = np.max(np.abs(cola - np.mean(cola)))
        if dev > _COLA_TOL * max(np.mean(cola), 1e-12):
            raise ValueError(
                f"Hann window with hop {self.hop} is not constant-overlap-add"
            )

    @property
    def n_bins(self) -> int:
        return self.window_len // 2 + 1

    def taper(self) -> np.ndarray:
        """Periodic Hann window of ``window_len`` samples.

        The symmetric window of ``window_len + 1`` points without its last
        sample, in the same arithmetic as scipy's ``general_cosine``, so it
        is bit-identical to ``get_window("hann", window_len, fftbins=True)``.
        """
        fac = np.linspace(-np.pi, np.pi, self.window_len + 1)
        return (0.5 + 0.5 * np.cos(fac))[:-1]


def _ola(taper: np.ndarray, hop: int) -> np.ndarray:
    """Overlap-added window weights; periodic with period hop."""
    acc = np.zeros(hop)
    np.add.at(acc, np.arange(len(taper)) % hop, taper)
    return acc


@dataclass
class Spectrogram:
    """Complex STFT coefficients plus the metadata needed to invert them.

    ``data`` has shape (channels_or_sources, n_bins, n_frames) with
    ``n_bins = window_len // 2 + 1`` (one-sided spectrum).
    """

    data: np.ndarray
    window_len: int
    hop: int
    sample_rate: int
    original_length: int

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.complex128)
        if self.data.ndim != 3:
            raise ValueError("data must have shape (channels, n_bins, n_frames)")
        if self.data.shape[1] != self.window_len // 2 + 1:
            raise ValueError("n_bins inconsistent with window_len")

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_bins(self) -> int:
        return self.data.shape[1]

    @property
    def n_frames(self) -> int:
        return self.data.shape[2]


def read_wav(path) -> TimeSignal:
    """Read a PCM16 or IEEE float32 WAV file.

    PCM16 samples are scaled by 1/32768 so the integer range maps into
    [-1, 1); float32 data is passed through unchanged.

    Raises
    ------
    WavFormatError
        If the file is not a parseable RIFF/WAVE file.
    UnsupportedWavError
        If the encoding is neither PCM16 nor IEEE float32.
    """
    from scipy.io import wavfile

    try:
        rate, data = wavfile.read(path)
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise WavFormatError(f"cannot parse WAV file {path}: {exc}") from exc
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / PCM16_SCALE
    elif data.dtype == np.float32:
        samples = data.astype(np.float64)
    else:
        raise UnsupportedWavError(
            f"unsupported WAV encoding {data.dtype} in {path}; need PCM16 or float32"
        )
    if samples.ndim == 1:
        samples = samples[np.newaxis, :]
    else:
        samples = samples.T  # wavfile uses (samples, channels)
    return TimeSignal(samples=samples, sample_rate=int(rate))


def write_wav(path, sig: TimeSignal, encoding: str = "float32") -> None:
    """Write a TimeSignal as PCM16 or IEEE float32 WAV.

    PCM16 quantizes by round(sample * 32768) clipped to the int16 range,
    so 0.5 maps to 16384. float32 writes are bit-exact for data already
    representable in single precision.
    """
    from scipy.io import wavfile

    if not np.all(np.isfinite(sig.samples)):
        raise ValueError("signal contains non-finite samples")
    data = sig.samples.T  # (samples, channels) for wavfile
    if data.shape[1] == 1:
        data = data[:, 0]
    if encoding == "pcm16":
        quant = np.round(data * PCM16_SCALE)
        out = np.clip(quant, -32768, 32767).astype(np.int16)
    elif encoding == "float32":
        out = data.astype(np.float32)
    else:
        raise ValueError(f"unknown encoding {encoding!r}; use 'pcm16' or 'float32'")
    wavfile.write(path, sig.sample_rate, out)


def _frame_starts(n_samples: int, cfg: StftConfig) -> int:
    """Number of frames covering a front-padded signal of n_samples."""
    return (cfg.window_len + n_samples - 1) // cfg.hop + 1


def stft(sig: TimeSignal, cfg: StftConfig = StftConfig()) -> Spectrogram:
    """Short-time Fourier transform of all channels.

    The signal is zero-padded by one window length at the front (and as
    needed at the back) so every original sample receives the full
    overlap-add weight; frames advance by ``cfg.hop``.
    """
    n = sig.n_samples
    if n < 1:
        raise ValueError("signal must contain at least one sample")
    L, hop = cfg.window_len, cfg.hop
    n_frames = _frame_starts(n, cfg)
    padded_len = (n_frames - 1) * hop + L
    padded = np.zeros((sig.channels, padded_len))
    padded[:, L : L + n] = sig.samples

    idx = np.arange(L)[None, :] + hop * np.arange(n_frames)[:, None]
    frames = padded[:, idx] * cfg.taper()[None, None, :]
    spec = np.fft.rfft(frames, n=L, axis=-1)  # (C, T, F)
    return Spectrogram(
        data=spec.transpose(0, 2, 1),
        window_len=L,
        hop=hop,
        sample_rate=sig.sample_rate,
        original_length=n,
    )


def istft(spec: Spectrogram) -> TimeSignal:
    """Invert a Spectrogram by weighted overlap-add.

    The window and hop are the spectrogram's own. Each frame is windowed
    again on synthesis and the result is divided by the accumulated
    squared window, which makes ``istft(stft(x))`` reproduce ``x``
    exactly (up to rounding) on the original sample range.
    """
    L, hop = spec.window_len, spec.hop
    n = spec.original_length
    n_frames = spec.n_frames
    padded_len = (n_frames - 1) * hop + L
    taper = StftConfig(window_len=L, hop=hop).taper()

    frames = np.fft.irfft(spec.data.transpose(0, 2, 1), n=L, axis=-1)
    frames *= taper[None, None, :]

    out = np.zeros((spec.n_channels, padded_len))
    den = np.zeros(padded_len)
    for m in range(n_frames):
        out[:, m * hop : m * hop + L] += frames[:, m]
        den[m * hop : m * hop + L] += taper**2
    nz = den > 1e-12
    out[:, nz] /= den[nz]
    return TimeSignal(samples=out[:, L : L + n], sample_rate=spec.sample_rate)
