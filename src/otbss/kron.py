"""Kronecker-sum cost factorization and matrix-free kernel products.

The dense transport cost used on spectra is separable across a mixed-
radix split of the bin index: writing the flat bin i with digits
(i_1, ..., i_Q) for dims (f_1, ..., f_Q), the surrogate cost

    C[i, j] = sum_q ((i_q - j_q) * stride_q / F)^2

is a Kronecker sum of Q small tables, so its Gibbs kernel is a
Kronecker product of Q small kernels and kernel-vector products reduce
from F^2 to F * sum_q f_q multiply-adds: one reshape and one batched
matmul per factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, FactorizationError
from .sinkhorn import floor_underflow

MATERIALIZE_MAX_BINS = 1024


def _prime_factors(n: int) -> list:
    """Prime factorization by trial division, largest factors first."""
    factors = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors.append(d)
            n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return sorted(factors, reverse=True)


def factorize_bins(n_bins: int, n_factors: int):
    """Split F into n_factors integer dims with balanced sizes.

    Greedily assigns the prime factors of F (largest first) to the
    currently smallest group. Q = 1 returns (F,). Raises
    FactorizationError when F has fewer prime factors than requested
    groups (notably F prime with Q >= 2).
    """
    if n_bins < 1 or n_factors < 1:
        raise ValueError("n_bins and n_factors must be >= 1")
    if n_factors == 1:
        return (n_bins,)
    primes = _prime_factors(n_bins)
    if len(primes) < n_factors:
        raise FactorizationError(
            f"{n_bins} splits into only {len(primes)} prime factors; "
            f"cannot form {n_factors} dims >= 2"
        )
    groups = [1] * n_factors
    for p in primes:
        groups[int(np.argmin(groups))] *= p
    return tuple(sorted(groups, reverse=True))


def _strides(dims) -> np.ndarray:
    """Row-major strides: stride_q = prod of dims after q."""
    out = np.ones(len(dims), dtype=np.int64)
    for q in range(len(dims) - 2, -1, -1):
        out[q] = out[q + 1] * dims[q + 1]
    return out


@dataclass(frozen=True)
class KroneckerCost:
    """Small symmetric cost tables whose Kronecker sum is the full cost."""

    factors: tuple
    dims: tuple

    @property
    def n_bins(self) -> int:
        return int(np.prod(self.dims))


def kron_sum_cost(dims) -> KroneckerCost:
    """Cost tables C_q[i,j] = ((i-j) * stride_q / F)^2 per digit.

    Their Kronecker sum evaluated at flat indices equals the separable
    surrogate of the squared normalized bin distance; Q = 1 reproduces
    the dense cost exactly.
    """
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValueError("dims must be positive")
    if len(dims) > 1 and any(d < 2 for d in dims):
        raise ValueError("dims must all be >= 2 when Q >= 2")
    n_bins = int(np.prod(dims))
    strides = _strides(dims)
    factors = []
    for q, f in enumerate(dims):
        idx = np.arange(f, dtype=np.float64)
        diff = (idx[:, None] - idx[None, :]) * strides[q]
        factors.append((diff / n_bins) ** 2)
    return KroneckerCost(factors=tuple(factors), dims=dims)


@dataclass(frozen=True)
class FactorizedKernel:
    """Gibbs kernel e^(-1) * (G_1 x ... x G_Q) held in factored form.

    ``kernels[q] = exp(-mu * C_q)``; the e^(-1) of the dense kernel
    exp(-mu*C - 1) is kept as a single global scale. Provides the
    matrix-free ``apply``/``apply_adjoint`` pair used by the scaling
    iteration; both accept (F,) vectors or (F, T) column batches.
    """

    kernels: tuple
    dims: tuple
    scale: float = float(np.exp(-1.0))

    @property
    def n_bins(self) -> int:
        return int(np.prod(self.dims))

    def _apply_factors(self, x: np.ndarray, transpose: bool) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim not in (1, 2) or x.shape[0] != self.n_bins:
            raise ValueError(
                f"expected a length-{self.n_bins} vector or ({self.n_bins}, T) matrix, got {x.shape}"
            )
        # mode q of the row-major digits: (lead, f_q, rest) with the
        # batch of lead digit blocks multiplied by G_q in one matmul
        y, lead = x, 1
        for f_q, g in zip(self.dims, self.kernels):
            y = np.matmul(g.T if transpose else g, y.reshape(lead, f_q, -1))
            lead *= f_q
        y *= self.scale  # the last matmul's output is fresh: scale it in place
        return y.reshape(x.shape)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self._apply_factors(x, transpose=False)

    def apply_adjoint(self, x: np.ndarray) -> np.ndarray:
        return self._apply_factors(x, transpose=True)

    def apply_cost(self) -> int:
        """Multiply-adds per single-vector apply: F * sum_q f_q."""
        return int(self.n_bins * sum(self.dims))

    def materialize(self) -> np.ndarray:
        """Dense e^(-1) * (G_1 x ... x G_Q), up to MATERIALIZE_MAX_BINS bins."""
        if self.n_bins > MATERIALIZE_MAX_BINS:
            raise CapabilityError(
                f"refusing to materialize a {self.n_bins}x{self.n_bins} kernel"
            )
        dense = np.ones((1, 1))
        for g in self.kernels:
            dense = np.kron(dense, g)
        return self.scale * dense


def factorized_kernel(cost: KroneckerCost, mu: float) -> FactorizedKernel:
    """Per-factor kernels exp(-mu*C_q), floored as the dense kernel is, and the e^(-1) scale."""
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    kernels = []
    for c in cost.factors:  # not a comprehension, whose frame the warning would name
        kernels.append(floor_underflow(np.exp(-mu * c), "Kronecker kernel factor"))
    return FactorizedKernel(kernels=tuple(kernels), dims=cost.dims)
