"""Host-speed calibration: a fixed piece of numpy work, timed between rounds.

The shared host the benchmark was tuned on runs the same code at two
speeds about a factor of 2 apart, in phases that last minutes: the
reference `separate()` took 13.9 s of CPU time in one phase and 6.7 s
in the next, with no waiting in either. CPU time alone cannot remove
that, so every reported time is CPU time scaled by how much slower the
calibration piece ran in the same run than on the reference host:

    reported = measured CPU time * REFERENCE_PIECE_S / median piece time

The piece does not call otbss, so a change to the program cannot move
it. It mixes the kinds of work the program does: a dense BLAS product,
exp/log over a spectrogram-sized array, a product over a strided view,
and interpreted Python.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# median CPU time of one piece on the reference host in its fast phase
# (2 vCPUs, one OpenBLAS thread; see README.md)
REFERENCE_PIECE_S = 0.030
PIECES_PER_CALL = 6


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.kernel = rng.uniform(size=(513, 513))
        self.columns = rng.uniform(size=(513, 129))
        self.strided = rng.uniform(size=(2, 129, 513)).transpose(0, 2, 1)
        self.pieces = []

    def _piece(self) -> float:
        # four parts of about equal cost on the reference host
        start = time.process_time()
        for _ in range(8):
            y = self.kernel @ self.columns
        for _ in range(48):
            np.log(np.exp(-y / 513.0) + 1.0)
        for _ in range(128):
            np.einsum("nft,nft->ft", self.strided, self.strided)
        total = 0
        for i in range(200_000):
            total += i * i
        return time.process_time() - start

    def run(self):
        """Time PIECES_PER_CALL pieces; call it between rounds."""
        self.pieces += [self._piece() for _ in range(PIECES_PER_CALL)]

    def piece_s(self) -> float:
        return statistics.median(self.pieces)

    def scale(self) -> float:
        """Factor that brings this run's CPU times to the reference host's speed."""
        return REFERENCE_PIECE_S / self.piece_s()
