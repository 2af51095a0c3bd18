"""Cross-checks of the intelligibility pipeline against an independent,
loop-based reimplementation, plus its Monte-Carlo noise behavior."""

import numpy as np
import pytest

from sepcost.losses import StoiConfig, stoi_forward
from sepcost.metrics import stoi_metric
from sepcost.signal_io import Waveform

from reference import reference_stoi, speechlike


def test_matches_reference_on_noisy_speech():
    rng = np.random.default_rng(0)
    fs = 10000
    for trial in range(6):
        y = speechlike(rng, 12000, fs)
        x = y + (0.1 + 0.4 * trial) * y.std() * rng.standard_normal(y.size)
        score, _ = stoi_forward(Waveform(x, fs), Waveform(y, fs))
        ref = reference_stoi(x, y, fs)
        assert score.item() == pytest.approx(ref, abs=1e-9)


def test_matches_reference_with_heavy_clipping():
    # strong noise forces the clip branch of the min to engage
    rng = np.random.default_rng(1)
    fs = 10000
    y = speechlike(rng, 11000, fs)
    x = y + 5.0 * y.std() * rng.standard_normal(y.size)
    score, _ = stoi_forward(Waveform(x, fs), Waveform(y, fs))
    assert score.item() == pytest.approx(reference_stoi(x, y, fs), abs=1e-9)


def test_matches_reference_on_small_config():
    cfg = StoiConfig(
        frame_len=64, fft_len=128, num_bands=8, lowest_center=300.0,
        segment_frames=8, analysis_rate=4000,
    )
    rng = np.random.default_rng(2)
    y = speechlike(rng, 2000, 4000, band=(150.0, 1700.0))
    x = y + 0.6 * y.std() * rng.standard_normal(y.size)
    score, _ = stoi_forward(Waveform(x, 4000), Waveform(y, 4000), cfg)
    ref = reference_stoi(
        x, y, fs=4000, frame_len=64, fft_len=128, hop=32, num_bands=8,
        lowest_center=300.0, seg_frames=8,
    )
    assert score.item() == pytest.approx(ref, abs=1e-9)


def test_snr_ladder_monotone():
    rng = np.random.default_rng(3)
    fs = 10000
    snrs = [20.0, 10.0, 0.0, -10.0]
    means = []
    for snr in snrs:
        scores = []
        for _ in range(20):
            y = speechlike(rng, 12000, fs)
            noise = rng.standard_normal(y.size)
            noise *= y.std() / noise.std() * 10.0 ** (-snr / 20.0)
            scores.append(stoi_metric(Waveform(y + noise, fs), Waveform(y, fs)))
        means.append(np.mean(scores))
    assert means[0] > means[1] > means[2] > means[3]
    assert means[0] > 0.9  # clean-ish end of the ladder behaves sanely
