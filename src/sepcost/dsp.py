"""Analysis window and one-third-octave band grouping.

Constants of the intelligibility front end: the loss and the metric
both run `diff_engine.band_envelopes` with this window and this band
matrix, which pools the squared bin magnitudes of each frame.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

log = logging.getLogger(__name__)


@dataclass
class BandMatrix:
    """0/1 matrix mapping FFT bins to one-third-octave bands, shape (J, F).

    Each bin belongs to at most one band; every retained band owns at
    least one bin.
    """

    weights: np.ndarray
    band_edges: list[tuple[float, float]]
    centers: list[float]

    @property
    def num_bands(self) -> int:
        return self.weights.shape[0]


@lru_cache(maxsize=16)
def hann_periodic(n: int) -> np.ndarray:
    """Periodic (DFT-even) Hann window of length n (cached, read-only)."""
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    window.setflags(write=False)
    return window


@lru_cache(maxsize=16)
def octave_band_matrix(
    sample_rate: int, fft_len: int, num_bands: int = 15, lowest_center: float = 150.0
) -> BandMatrix:
    """Build the bin-to-band assignment for one-third-octave bands.

    Band k is centered at lowest_center * 2^(k/3) with edges a factor
    2^(1/6) either side; bin i sits at i * sample_rate / fft_len and is
    assigned to the band whose [low, high) interval contains it. Bands
    reaching past Nyquist or capturing no bin are dropped.
    """
    if lowest_center <= 0:
        raise ValueError("lowest_center must be positive")
    if num_bands < 1:
        raise ValueError("num_bands must be at least 1")
    n_bins = fft_len // 2 + 1
    bin_centers = np.arange(n_bins) * (sample_rate / fft_len)
    nyquist = sample_rate / 2.0

    rows, edges, centers = [], [], []
    for k in range(num_bands):
        center = lowest_center * 2.0 ** (k / 3.0)
        low = center * 2.0 ** (-1.0 / 6.0)
        high = center * 2.0 ** (1.0 / 6.0)
        if high > nyquist:
            continue
        row = (bin_centers >= low) & (bin_centers < high)
        if not row.any():
            continue
        rows.append(row.astype(np.float64))
        edges.append((low, high))
        centers.append(center)
    weights = np.array(rows) if rows else np.zeros((0, n_bins))
    weights.setflags(write=False)
    log.debug(
        "octave bands: retained %d of %d requested at %d Hz / %d-point FFT",
        len(rows), num_bands, sample_rate, fft_len,
    )
    return BandMatrix(weights, edges, centers)
