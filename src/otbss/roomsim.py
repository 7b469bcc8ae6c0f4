"""Image-source room acoustics and convolutive mixture synthesis.

Rooms are rectangular with uniform wall absorption derived from the
requested reverberation time by Sabine's formula. Impulse responses come
from the image source method with fractional delays realized as
Hann-windowed sinc pulses, summed in factored form (trig once per
image) over blocks of ``_PULSE_BLOCK`` images, so no (images, taps)
array is formed; the taps agree with a direct evaluation to 1e-14 of
each (source, mic) pair's direct-path amplitude. Mixtures are full
linear convolutions of the per-(source, mic) impulse responses with the
dry source signals. Both the convolutions and the peak filters of the
speech-like test signal are products on a zero-padded numpy FFT grid;
no scipy module is used.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .audio import TimeSignal
from .errors import DegenerateGeometryError

SPEED_OF_SOUND = 343.0

SINC_HALF_WIDTH = 40  # 81-tap Hann-windowed sinc for fractional delays

_PULSE_BLOCK = 1024  # sinc pulses evaluated per block: bounds the (pulses, 81) temporaries

MAX_IMAGE_ORDER = 30

_COINCIDENCE_TOL = 1e-6  # meters


@dataclass
class RoomScene:
    """A shoebox room with point sources and microphones.

    Positions are in meters; all must lie strictly inside the room.
    ``max_rir_len`` truncates generated impulse responses.
    """

    dimensions: np.ndarray
    source_positions: np.ndarray
    mic_positions: np.ndarray
    t60: float
    max_rir_len: int
    sample_rate: int

    def __post_init__(self):
        self.dimensions = np.asarray(self.dimensions, dtype=np.float64).reshape(3)
        self.source_positions = np.atleast_2d(
            np.asarray(self.source_positions, dtype=np.float64)
        )
        self.mic_positions = np.atleast_2d(np.asarray(self.mic_positions, dtype=np.float64))
        if np.any(self.dimensions <= 0):
            raise ValueError("room dimensions must be positive")
        if self.source_positions.shape[1] != 3 or self.mic_positions.shape[1] != 3:
            raise ValueError("positions must be (count, 3) arrays")
        if self.n_sources < 1 or self.n_mics < 1:
            raise ValueError("need at least one source and one mic")
        if self.t60 < 0:
            raise ValueError("t60 must be >= 0")
        if self.max_rir_len < 1:
            raise ValueError("max_rir_len must be >= 1")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        for name, pts in (("source", self.source_positions), ("mic", self.mic_positions)):
            inside = np.all((pts > 0) & (pts < self.dimensions[None, :]), axis=1)
            if not np.all(inside):
                raise DegenerateGeometryError(
                    f"{name} positions must lie strictly inside the room"
                )

    @property
    def n_sources(self) -> int:
        return self.source_positions.shape[0]

    @property
    def n_mics(self) -> int:
        return self.mic_positions.shape[0]


@dataclass
class Rir:
    """Room impulse responses, one per (source, mic) pair.

    ``taps`` has shape (n_sources, n_mics, length).
    """

    taps: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.taps = np.asarray(self.taps, dtype=np.float64)
        if self.taps.ndim != 3:
            raise ValueError("taps must have shape (sources, mics, length)")
        if not np.all(np.isfinite(self.taps)):
            raise ValueError("impulse response contains non-finite taps")

    @property
    def n_sources(self) -> int:
        return self.taps.shape[0]

    @property
    def n_mics(self) -> int:
        return self.taps.shape[1]

    @property
    def length(self) -> int:
        return self.taps.shape[2]


def sabine_absorption(dimensions, t60: float) -> float:
    """Uniform wall absorption 0.161*V/(S*t60), clamped to (0, 1].

    ``t60 <= 0`` signals anechoic mode and returns 1.0 (fully absorbing
    walls, direct path only). Too-short t60 for the room clamps to 1.0
    with a warning.
    """
    dims = np.asarray(dimensions, dtype=np.float64)
    if np.any(dims <= 0):
        raise ValueError("room dimensions must be positive")
    if t60 <= 0:
        return 1.0
    lx, ly, lz = dims
    volume = lx * ly * lz
    surface = 2.0 * (lx * ly + lx * lz + ly * lz)
    # compared before dividing: a subnormal t60 would overflow the quotient
    if 0.161 * volume > surface * t60:
        warnings.warn(
            f"t60={t60:g} s is shorter than this room supports; clamping absorption to 1",
            stacklevel=2,
        )
        return 1.0
    return 0.161 * volume / (surface * t60)


def _image_grid(max_order: int):
    """All (mirror-parity, shift) image indices with reflection counts.

    Returns (parity p in {0,1}^3, integer shifts r, reflection counts)
    filtered to total reflections <= max_order, parity by parity.
    """
    half = max_order // 2 + 1
    shifts = np.arange(-half, half + 1)
    r = np.stack(np.meshgrid(shifts, shifts, shifts, indexing="ij"), axis=-1).reshape(-1, 3)
    far = np.abs(r).sum(axis=1)
    parity = np.array(list(itertools.product((0, 1), repeat=3)))
    kept, refl = [], []
    for p in parity:
        # wall hits per axis: |r - p| on the near wall, |r| on the far wall
        counts = np.abs(r - p).sum(axis=1) + far
        keep = counts <= max_order
        kept.append(r[keep])
        refl.append(counts[keep])
    sizes = [len(k) for k in kept]
    return np.repeat(parity, sizes, axis=0), np.concatenate(kept), np.concatenate(refl)


def _windowed_sinc_add(out: np.ndarray, delays: np.ndarray, amps: np.ndarray) -> None:
    """Accumulate Hann-windowed sinc pulses at fractional sample delays.

    A pulse at delay D = c + f, with c = round(D) and f in [-1/2, 1/2],
    has taps c + k for k in [-w, w]. Its value there is amp * sinc(k - f)
    * 0.5 * (1 + cos(pi (k - f) / w)), evaluated in factored form:

        sinc(k - f) = -(-1)^k sin(pi f) / (pi (k - f))
        cos(pi (k - f) / w) = cos(pi k / w) cos(pi f / w) + sin(pi k / w) sin(pi f / w)

    so the sines and cosines are taken once per pulse and once per tap
    offset, and each tap costs one division. |k - f| > w can hold only
    at k = -w (f > 0) and k = w (f < 0), where the window is zero; the
    exact hit f = 0, k = 0 is the amplitude itself. Each tap agrees with
    a direct evaluation of every sinc and cosine to within 1e-14 of the
    summed |amplitude| of the pulses that reach it.

    Pulses whose first tap lies past the end of ``out`` add nothing and
    are dropped before they are evaluated. The rest are evaluated
    ``_PULSE_BLOCK`` at a time, so the transient arrays hold at most
    that many rows of 2w + 1 taps whatever the image count. Every tap
    lies in [-w, len(out) + 2w), so each block's bincount into a buffer
    padded by w in front and 2w behind takes them all without a mask.
    """
    w = SINC_HALF_WIDTH
    n = out.shape[0]
    k = np.arange(-w, w + 1)
    sign = np.where(k % 2 == 0, -1.0, 1.0)
    cos_k = np.cos(np.pi * k / w)
    sin_k = np.sin(np.pi * k / w)
    centers = np.round(delays)
    keep = centers - w < n
    centers, delays, amps = centers[keep], delays[keep], amps[keep]
    padded = np.zeros(n + 3 * w)
    for lo in range(0, centers.shape[0], _PULSE_BLOCK):
        c = centers[lo : lo + _PULSE_BLOCK]
        a = amps[lo : lo + _PULSE_BLOCK]
        f = delays[lo : lo + _PULSE_BLOCK] - c  # exact: c is within 1/2 of the delay
        hit = f == 0.0
        x = k - f[:, None]
        x[hit, w] = 1.0  # the 0/0 tap, set below
        vals = np.multiply.outer(0.5 / np.pi * a * np.sin(np.pi * f), sign)
        vals /= x
        window = np.multiply.outer(np.cos(np.pi * f / w), cos_k)
        window += np.multiply.outer(np.sin(np.pi * f / w), sin_k)
        window += 1.0
        vals *= window
        vals[f > 0.0, 0] = 0.0
        vals[f < 0.0, 2 * w] = 0.0
        vals[hit, w] = a[hit]
        idx = c.astype(np.int64)[:, None] + (k + w)
        padded += np.bincount(idx.ravel(), weights=vals.ravel(), minlength=n + 3 * w)
    out += padded[w : w + n]


def image_source_rir(scene: RoomScene) -> Rir:
    """Simulate impulse responses for every (source, mic) pair.

    Each image source at distance d with k wall reflections contributes
    a pulse of amplitude (1-alpha)^(k/2) / (4*pi*d) at delay d/c. The
    image order is chosen so reflected amplitude falls 60 dB below the
    direct path, capped at MAX_IMAGE_ORDER.
    """
    dists = np.linalg.norm(
        scene.source_positions[:, None, :] - scene.mic_positions[None, :, :], axis=-1
    )
    if np.any(dists < _COINCIDENCE_TOL):
        raise DegenerateGeometryError("a source coincides with a microphone")

    alpha = sabine_absorption(scene.dimensions, scene.t60)
    beta = float(np.sqrt(max(0.0, 1.0 - alpha)))
    if scene.t60 <= 0 or beta == 0.0:
        max_order = 0
    else:
        # reflection loss alone reaches -60 dB after -3/log10(beta) hits
        max_order = min(MAX_IMAGE_ORDER, int(np.ceil(-3.0 / np.log10(beta))))
    parity, shifts, refl = _image_grid(max_order)

    # image positions (sources, images, 3) depend on the source only:
    # (1-2p)*src + 2*r*L; distances are (sources, mics, images)
    images = (1.0 - 2.0 * parity) * scene.source_positions[:, None, :]
    images += 2.0 * shifts * scene.dimensions
    d = np.linalg.norm(images[:, None, :, :] - scene.mic_positions[None, :, None, :], axis=-1)
    amps = beta**refl / (4.0 * np.pi * d)
    delays = d / SPEED_OF_SOUND * scene.sample_rate
    length = min(int(np.ceil(delays.max())) + SINC_HALF_WIDTH + 1, scene.max_rir_len)
    taps = np.zeros((scene.n_sources, scene.n_mics, length))
    for n in range(scene.n_sources):
        for m in range(scene.n_mics):
            _windowed_sinc_add(taps[n, m], delays[n, m], amps[n, m])
    return Rir(taps=taps, sample_rate=scene.sample_rate)


def convolve_mix(sources, rir: Rir):
    """Convolve dry sources with the RIRs and sum into a mixture.

    Parameters
    ----------
    sources : sequence of TimeSignal
        N single-channel signals of equal length and sample rate.
    rir : Rir
        Impulse responses for N sources and M mics.

    Returns
    -------
    mixture : TimeSignal
        M-channel mixture, exactly the channel-wise sum of the images.
    images : list of TimeSignal
        Per-source M-channel spatial images (source convolved with its
        RIRs, trimmed to the source length).
    """
    if len(sources) != rir.n_sources:
        raise ValueError(f"got {len(sources)} sources for an {rir.n_sources}-source RIR")
    lengths = {s.n_samples for s in sources}
    if len(lengths) != 1:
        raise ValueError("all sources must have the same length")
    rates = {s.sample_rate for s in sources}
    if rates != {rir.sample_rate}:
        raise ValueError("source sample rates must match the RIR sample rate")
    for s in sources:
        if s.channels != 1:
            raise ValueError("sources must be single-channel")

    n_samples = lengths.pop()
    # the full linear convolution fits in n_fft, so nothing wraps around
    n_fft = 1 << int(np.ceil(np.log2(n_samples + rir.length - 1)))
    dry = np.fft.rfft(np.vstack([s.samples[0] for s in sources]), n_fft)
    wet = np.fft.irfft(dry[:, None, :] * np.fft.rfft(rir.taps, n_fft), n_fft)
    images = [
        TimeSignal(samples=wet[n, :, :n_samples], sample_rate=rir.sample_rate)
        for n in range(rir.n_sources)
    ]
    mix = images[0].samples.copy()
    for img in images[1:]:
        mix += img.samples
    return TimeSignal(samples=mix, sample_rate=rir.sample_rate), images


MIC_SPACING = 0.0566  # meters

SISEC_ROOM = (8.0, 8.0, 3.0)

SOURCE_DISTANCE = 2.0  # meters from the array center

ARRAY_HEIGHT = 1.5  # meters


def make_scene_sisec(
    t60: float,
    angle1: float,
    angle2: float,
    sample_rate: int = 16000,
) -> RoomScene:
    """Two-source, two-mic scene in an 8 x 8 x 3 m room.

    Mics sit at the room center (height 1.5 m) spaced 5.66 cm along the
    x axis; sources stand 2 m from the array center at the given angles
    measured from broadside (the +y direction), angle1 in [0, 90] and
    angle2 in [-90, 0] degrees.
    """
    if not 0.0 <= angle1 <= 90.0:
        raise ValueError("angle1 must lie in [0, 90] degrees")
    if not -90.0 <= angle2 <= 0.0:
        raise ValueError("angle2 must lie in [-90, 0] degrees")
    center = np.array([SISEC_ROOM[0] / 2.0, SISEC_ROOM[1] / 2.0, ARRAY_HEIGHT])
    half = MIC_SPACING / 2.0
    mics = np.array([center + [-half, 0, 0], center + [half, 0, 0]])
    srcs = []
    for ang in (angle1, angle2):
        rad = np.deg2rad(ang)
        srcs.append(center + SOURCE_DISTANCE * np.array([np.sin(rad), np.cos(rad), 0.0]))
    srcs = np.array(srcs)
    if np.linalg.norm(srcs[0] - srcs[1]) < _COINCIDENCE_TOL:
        raise DegenerateGeometryError("the two sources coincide; pick distinct angles")
    # long enough to cover the requested decay; sparse grazing-path
    # images beyond it sit more than 60 dB down and are cut off
    max_len = int(sample_rate * (t60 + 0.05)) + 128
    return RoomScene(
        dimensions=np.array(SISEC_ROOM),
        source_positions=srcs,
        mic_positions=mics,
        t60=t60,
        max_rir_len=max_len,
        sample_rate=sample_rate,
    )


def _control_curve(rng, n: int, fs: int, knot_ms: float, lo: float, hi: float) -> np.ndarray:
    """Piecewise-linear random curve with knots every knot_ms milliseconds."""
    step = max(1, int(fs * knot_ms / 1000.0))
    n_knots = n // step + 2
    knots = rng.uniform(lo, hi, size=n_knots)
    return np.interp(np.arange(n), np.arange(n_knots) * step, knots)


def _peak_filter(x: np.ndarray, freq: float, q: float, fs: int) -> np.ndarray:
    """Second-order IIR peak filter at ``freq`` Hz with quality factor q.

    The coefficients are the closed form of ``scipy.signal.iirpeak``, in
    the same arithmetic. The filter is applied as B/A on the rfft grid of
    a length n >= len(x) + tail, where tail is the number of samples
    after which r**tail < eps for the largest pole radius r. This equals
    ``lfilter(b, a, x)`` to rounding because the filter is stable
    (r < 1) and its response to x has died out within the padding, so
    the circular product wraps nothing above eps back onto x.
    """
    w0 = 2.0 * float(freq) / fs
    bw = w0 / float(q) * np.pi
    gain = 1.0 / (1.0 + math.tan(bw / 2.0))
    b = (1.0 - gain) * np.array([1.0, 0.0, -1.0])
    a = np.array([1.0, -2.0 * gain * math.cos(w0 * np.pi), 2.0 * gain - 1.0])
    radius = np.max(np.abs(np.roots(a)))
    tail = int(np.ceil(np.log(np.finfo(np.float64).eps) / np.log(radius)))
    n_fft = 1 << int(np.ceil(np.log2(len(x) + tail)))
    response = np.fft.rfft(b, n_fft) / np.fft.rfft(a, n_fft)
    return np.fft.irfft(np.fft.rfft(x, n_fft) * response, n_fft)[: len(x)]


def synth_speech(duration: float, sample_rate: int = 16000, seed: int = 0) -> TimeSignal:
    """Speech-like test signal: harmonics under a syllabic envelope.

    A pitched harmonic stack with a slowly wandering fundamental is
    mixed with formant-shaped noise and gated by a pause-bearing
    envelope. Deterministic per seed; peak level 0.7.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    rng = np.random.default_rng(seed)
    n = int(round(duration * sample_rate))
    fs = sample_rate

    base_f0 = rng.uniform(110.0, 230.0)
    f0 = base_f0 * 2.0 ** _control_curve(rng, n, fs, 120.0, -0.25, 0.25)
    phase = 2.0 * np.pi * np.cumsum(f0) / fs

    n_harm = max(1, min(14, int(0.45 * fs / f0.max())))
    voiced = np.zeros(n)
    for k in range(1, n_harm + 1):
        amp = rng.uniform(0.4, 1.0) / k
        voiced += amp * np.sin(k * phase + rng.uniform(0, 2 * np.pi))

    noise = rng.standard_normal(n)
    for _ in range(2):
        freq = rng.uniform(500.0, 3200.0)
        noise = _peak_filter(noise, freq, 6.0, fs)
    noise /= max(np.max(np.abs(noise)), 1e-12)

    env = _control_curve(rng, n, fs, 140.0, 0.0, 1.0) ** 2
    gate_knots = (rng.uniform(0, 1, size=n // (fs // 4) + 2) > 0.25).astype(float)
    step = fs // 4
    gate = np.interp(np.arange(n), np.arange(len(gate_knots)) * step, gate_knots)
    env *= gate

    sig = env * (voiced + 0.3 * noise)
    peak = np.max(np.abs(sig))
    if peak > 0:
        sig *= 0.7 / peak
    return TimeSignal(samples=sig[None, :], sample_rate=fs)
