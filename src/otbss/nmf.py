"""Low-rank nonnegative variance models with Itakura-Saito updates.

Each source's time-varying spectral variance is modeled as a product of
a basis matrix and an activation matrix. The multiplicative updates
below never increase the Itakura-Saito divergence between an observed
power spectrogram and the modeled variance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

EPS = 1e-12


@dataclass
class NmfModel:
    """Nonnegative factorization of an F x T variance matrix.

    ``basis`` is F x K, ``activation`` is K x T; both are floored at
    ``EPS`` so divisions and logs stay finite.
    """

    basis: np.ndarray
    activation: np.ndarray

    def __post_init__(self):
        self.basis = np.asarray(self.basis, dtype=np.float64)
        self.activation = np.asarray(self.activation, dtype=np.float64)
        if self.basis.ndim != 2 or self.activation.ndim != 2:
            raise ValueError("basis and activation must be matrices")
        if self.basis.shape[1] != self.activation.shape[0]:
            raise ValueError("basis columns must match activation rows")
        self.basis = np.maximum(self.basis, EPS)
        self.activation = np.maximum(self.activation, EPS)

    @property
    def n_bins(self) -> int:
        return self.basis.shape[0]

    @property
    def n_frames(self) -> int:
        return self.activation.shape[1]


def init_nmf(n_bins: int, n_frames: int, n_components: int, seed: int = 0) -> NmfModel:
    """Random model with entries i.i.d. uniform on [EPS, 1)."""
    if min(n_bins, n_frames, n_components) < 1:
        raise ValueError("all dimensions must be >= 1")
    if n_components > min(n_bins, n_frames):
        warnings.warn(
            f"rank {n_components} exceeds min(F, T) = {min(n_bins, n_frames)}; "
            "the factorization is over-complete",
            stacklevel=2,
        )
    rng = np.random.default_rng(seed)
    basis = rng.uniform(EPS, 1.0, size=(n_bins, n_components))
    activation = rng.uniform(EPS, 1.0, size=(n_components, n_frames))
    return NmfModel(basis=basis, activation=activation)


def variance(model: NmfModel) -> np.ndarray:
    """Modeled variance W @ H, floored."""
    return np.maximum(model.basis @ model.activation, EPS)


def is_update(model: NmfModel, power: np.ndarray, lam: np.ndarray) -> NmfModel:
    """One multiplicative sweep: update W, refresh the variance, update H.

    The square-root multiplicative rules are the standard majorization
    steps for the Itakura-Saito objective; each half-step is
    guaranteed not to increase the divergence. ``power`` is whatever
    the model is fitted to: the demixed power for ILRMA, the transport
    marginals for SDILRMA. ``lam`` is the model's ``variance``, which
    the caller already holds, so the first half-step forms no product.
    """
    p = np.maximum(np.asarray(power, dtype=np.float64), EPS)
    if p.shape != (model.n_bins, model.n_frames):
        raise ValueError("power shape must match (n_bins, n_frames)")

    w, h = model.basis, model.activation
    if np.shape(lam) != p.shape:
        raise ValueError("lam shape must match (n_bins, n_frames)")
    ratio = p / lam**2
    numer = ratio @ h.T
    denom = (1.0 / lam) @ h.T
    w = np.maximum(w * np.sqrt(numer / np.maximum(denom, EPS)), EPS)

    lam = np.maximum(w @ h, EPS)
    ratio = p / lam**2
    numer = w.T @ ratio
    denom = w.T @ (1.0 / lam)
    h = np.maximum(h * np.sqrt(numer / np.maximum(denom, EPS)), EPS)

    return NmfModel(basis=w, activation=h)

