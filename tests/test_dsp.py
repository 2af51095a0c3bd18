import numpy as np
import pytest

from sepcost.diff_engine import Tensor, band_envelopes
from sepcost.dsp import hann_periodic, octave_band_matrix
from sepcost.errors import ShapeError


def stft(x, frame_len=256, fft_len=512, hop=128):
    """Magnitude STFT (bins, frames) of the intelligibility front end.

    The front end's band envelopes over one band per bin: bitwise the
    magnitudes, since sqrt(1 * m * m) == m in binary64.
    """
    bands = np.eye(fft_len // 2 + 1)
    return band_envelopes(Tensor(x), frame_len, fft_len, hop, hann_periodic(frame_len), bands).data


def test_frame_count():
    mag = stft(np.zeros(1024), frame_len=256, fft_len=512, hop=128)
    assert mag.shape == (257, 7)  # floor((1024-256)/128)+1


def test_zero_signal_zero_frames():
    assert not stft(np.zeros(3000)).any()


def test_too_short_raises():
    with pytest.raises(ShapeError):
        stft(np.zeros(100), frame_len=256)


def test_hann_windowed_sinusoid_analytic():
    # exact-bin sinusoid, no zero padding: the windowed DFT has magnitude
    # N/4 at the bin and N/8 at the two neighbors, zero elsewhere
    n = 512
    k = 32
    x = np.sin(2 * np.pi * k * np.arange(n) / n)
    mag = stft(x, frame_len=n, fft_len=n, hop=n)[:, 0]
    assert mag[k] == pytest.approx(n / 4, rel=1e-12)
    assert mag[k - 1] == pytest.approx(n / 8, rel=1e-12)
    assert mag[k + 1] == pytest.approx(n / 8, rel=1e-12)
    others = np.delete(mag, [k - 1, k, k + 1])
    assert np.abs(others).max() < 1e-9
    assert mag[k] ** 2 / (mag**2).sum() > 0.6
    assert (mag[k - 1 : k + 2] ** 2).sum() / (mag**2).sum() > 0.95


def test_zero_padded_sinusoid_concentration():
    # with 2x zero padding the energy sits within +-2 padded bins
    x = np.sin(2 * np.pi * 16 * np.arange(256) / 256)  # bin 32 of the 512 grid
    mag = stft(x, frame_len=256, fft_len=512, hop=256)[:, 0]
    k = int(mag.argmax())
    assert k == 32
    assert (mag[k - 2 : k + 3] ** 2).sum() / (mag**2).sum() > 0.95


def test_octave_band_centers():
    bm = octave_band_matrix(10000, 512, 15, 150.0)
    assert bm.centers[3] == pytest.approx(300.0)  # 150 * 2^(3/3)
    # highest requested center stays below Nyquist at 10 kHz
    assert 150.0 * 2 ** (14 / 3) == pytest.approx(3809.76, abs=0.01)
    assert max(c for c in bm.centers) < 5000.0


def test_octave_band_rows_and_partition():
    bm = octave_band_matrix(10000, 512, 15, 150.0)
    assert bm.weights.shape[1] == 257
    # every retained band owns at least one bin; no bin is shared
    assert (bm.weights.sum(axis=1) >= 1).all()
    assert (bm.weights.sum(axis=0) <= 1).all()
    assert set(np.unique(bm.weights)) <= {0.0, 1.0}


def test_octave_band_drops_beyond_nyquist():
    narrow = octave_band_matrix(4000, 512, 15, 150.0)
    full = octave_band_matrix(10000, 512, 15, 150.0)
    assert narrow.num_bands < full.num_bands
    assert all(hi <= 2000.0 for _, hi in narrow.band_edges)


def test_scaling_equivariance():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(4000)
    base = stft(x)
    doubled = stft(2.0 * x)
    np.testing.assert_array_equal(doubled, 2.0 * base)  # powers of two scale exactly
    scaled = stft(0.7 * x)
    np.testing.assert_allclose(scaled, 0.7 * base, rtol=1e-12, atol=1e-12)


def test_shift_equivariance_on_hop_grid():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(2000)
    hop = 128
    base = stft(x, hop=hop)
    shifted = stft(np.concatenate([np.zeros(hop), x]), hop=hop)
    np.testing.assert_array_equal(shifted[:, 1 : base.shape[1] + 1], base)


def test_hann_periodic_is_dft_even():
    w = hann_periodic(256)
    assert w[0] == 0.0
    assert w[128] == pytest.approx(1.0)
    # periodic window: w[n] == w[N-n] for n >= 1
    np.testing.assert_allclose(w[1:], w[1:][::-1], atol=1e-12)
