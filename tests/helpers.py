"""Shared oracles for the test suite.

These are independent reference implementations (direct summations,
dense assemblies) used to pin down expected values; they favor clarity
over speed. Also hosts the registry of end-to-end verdict lines that
the terminal summary replays after the run.
"""

import numpy as np

ACCEPTANCE_VERDICTS = []


def schroeder_t60(taps: np.ndarray, sample_rate: int) -> float:
    """Time after the direct-path peak at which the backward-integrated
    energy decay curve first reaches -60 dB."""
    energy = taps.astype(np.float64) ** 2
    edc = np.cumsum(energy[::-1])[::-1]
    edc /= edc[0]
    db = 10.0 * np.log10(np.maximum(edc, 1e-300))
    below = np.nonzero(db <= -60.0)[0]
    if below.size == 0:
        raise AssertionError("decay never reaches -60 dB within the impulse response")
    direct = int(np.argmax(np.abs(taps)))
    return (below[0] - direct) / sample_rate


def dft_one_sided(frame: np.ndarray) -> np.ndarray:
    """O(L^2) one-sided DFT by explicit summation."""
    L = len(frame)
    n = np.arange(L)
    return np.array(
        [np.sum(frame * np.exp(-2j * np.pi * f * n / L)) for f in range(L // 2 + 1)]
    )


def reference_ip_update(demixing, data, variances) -> np.ndarray:
    """One iterative-projection sweep, one np.linalg.solve per (source, bin).

    V = (1/T) sum_t x x^H / lambda, (D_f V) d = e_n, row n of D_f
    becomes d^H with d^H V d = 1; sources are updated in order.
    """
    data = np.asarray(data)
    n_chan, n_bins, n_frames = data.shape
    out = np.array(demixing, dtype=np.complex128)
    for n in range(variances.shape[0]):
        for f in range(n_bins):
            x = data[:, f, :]
            cov = (x / variances[n, f]) @ x.conj().T / n_frames
            d = np.linalg.solve(out[f] @ cov, np.eye(n_chan)[n])
            out[f, n] = d.conj() / np.sqrt(np.real(d.conj() @ cov @ d))
    return out
