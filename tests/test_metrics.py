import math

import numpy as np
import pytest

from sepcost.errors import ShapeError, SilentSignal
from sepcost.losses import stoi_loss
from sepcost.metrics import (
    EvalReport,
    bss_decompose,
    bss_eval_metrics,
    evaluate,
    format_report_row,
    stoi_metric,
)
from sepcost.signal_io import Waveform

from reference import speechlike


def orthogonal_pair(rng, n):
    y = rng.standard_normal(n)
    z = rng.standard_normal(n)
    z -= (z @ y) / (y @ y) * y  # Gram-Schmidt
    return y, z


def test_decompose_pure_target():
    rng = np.random.default_rng(0)
    y, z = orthogonal_pair(rng, 64)
    s, ei, ea = bss_decompose(y, y, z)
    np.testing.assert_allclose(s, y, atol=1e-12)
    assert np.abs(ei).max() < 1e-12
    assert np.abs(ea).max() < 1e-12


def test_decompose_sum_of_orthogonal_sources():
    rng = np.random.default_rng(1)
    y, z = orthogonal_pair(rng, 64)
    s, ei, ea = bss_decompose(y + z, y, z)
    np.testing.assert_allclose(s, y, atol=1e-10)
    np.testing.assert_allclose(ei, z, atol=1e-10)
    assert np.abs(ea).max() < 1e-10


def test_decompose_reconstructs_to_machine_precision():
    rng = np.random.default_rng(2)
    for _ in range(50):
        x, y, z = rng.standard_normal((3, 130))
        s, ei, ea = bss_decompose(x, y, z)
        assert np.abs(x - (s + ei + ea)).max() <= 1e-14 * max(1.0, np.abs(x).max())


def test_artifact_orthogonal_to_span_when_sources_orthogonal():
    rng = np.random.default_rng(3)
    y, z = orthogonal_pair(rng, 100)
    x = rng.standard_normal(100)
    _, _, ea = bss_decompose(x, y, z)
    assert abs(ea @ y) / np.linalg.norm(y) < 1e-10
    assert abs(ea @ z) / np.linalg.norm(z) < 1e-10


def test_decompose_waveform_container_and_silence():
    rng = np.random.default_rng(4)
    y, z = orthogonal_pair(rng, 64)
    s, ei, ea = bss_decompose(Waveform(y + z, 8000), Waveform(y, 8000), Waveform(z, 8000))
    assert isinstance(s, Waveform) and s.sample_rate == 8000
    with pytest.raises(SilentSignal):
        bss_decompose(y, np.zeros(64) + 1e-12, z)
    with pytest.raises(ShapeError):
        bss_decompose(y[:10], y, z)
    # losses' signal checks, then metrics' own 1-D check
    with pytest.raises(ShapeError, match="rates"):
        bss_eval_metrics(Waveform(y + z, 8000), Waveform(y, 16000), z)
    with pytest.raises(ShapeError, match="lengths"):
        bss_eval_metrics(y[:10], y, z)
    with pytest.raises(ShapeError, match="1-D"):
        bss_eval_metrics(np.stack([y + z] * 2), np.stack([y] * 2), np.stack([z] * 2))


def test_all_infinite_for_perfect_estimate():
    rng = np.random.default_rng(5)
    y, z = orthogonal_pair(rng, 64)
    report = bss_eval_metrics(y, y, z)
    assert report.sdr_db == math.inf
    assert report.sir_db == math.inf
    assert report.sar_db == math.inf


def test_estimate_without_target_component_scores_minus_infinity():
    # talkers in disjoint time spans: y @ z == 0 exactly, so x = z has no
    # target component and no artifact
    rng = np.random.default_rng(11)
    y, z = rng.standard_normal(64), rng.standard_normal(64)
    y[1::2] = 0.0
    z[0::2] = 0.0
    report = bss_eval_metrics(z, y, z)
    assert report.sdr_db == -math.inf
    assert report.sir_db == -math.inf
    assert report.sar_db == math.inf


def test_silent_estimate_raises_and_a_tiny_one_scores_as_at_full_scale():
    rng = np.random.default_rng(10)
    y, z = orthogonal_pair(rng, 64)
    with pytest.raises(SilentSignal, match="estimate is silent"):
        bss_eval_metrics(np.zeros(64), y, z)
    with pytest.raises(SilentSignal, match="estimate is silent"):
        evaluate(Waveform(np.zeros(64), 8000), Waveform(y, 8000), Waveform(z, 8000))
    x = y + 0.5 * z + 0.1 * rng.standard_normal(64)
    full, tiny = bss_eval_metrics(x, y, z), bss_eval_metrics(1e-30 * x, y, z)
    for field in ("sdr_db", "sir_db", "sar_db"):
        assert getattr(tiny, field) == pytest.approx(getattr(full, field), rel=1e-12)
    assert bss_eval_metrics(1e-30 * y, y, z).sdr_db == math.inf


def test_equal_energy_mixture_gives_zero_db():
    rng = np.random.default_rng(6)
    y, z = orthogonal_pair(rng, 256)
    y /= np.linalg.norm(y)
    z /= np.linalg.norm(z)
    report = bss_eval_metrics(y + z, y, z)
    assert report.sdr_db == pytest.approx(0.0, abs=1e-9)
    assert report.sir_db == pytest.approx(0.0, abs=1e-9)
    assert report.sar_db == math.inf


def test_sdr_matches_correlation_formula():
    # projection SDR vs <xy>^2 / (<yy><xx> - <xy>^2), in dB
    rng = np.random.default_rng(7)
    for _ in range(300):
        x, y, z = rng.standard_normal((3, 120))
        report = bss_eval_metrics(x, y, z)
        xy, yy, xx = x @ y, y @ y, x @ x
        expected = 10.0 * math.log10(xy**2 / (yy * xx - xy**2))
        assert report.sdr_db == pytest.approx(expected, abs=1e-9)


def test_sir_closed_form_and_scale_invariance():
    rng = np.random.default_rng(8)
    y, z = orthogonal_pair(rng, 200)
    for beta in (0.1, 0.5, 1.0, 2.0):
        report = bss_eval_metrics(y + beta * z, y, z)
        expected = -20.0 * math.log10(beta * np.linalg.norm(z) / np.linalg.norm(y))
        assert report.sir_db == pytest.approx(expected, abs=1e-9)
    base = bss_eval_metrics(y + 0.7 * z, y, z)
    scaled = bss_eval_metrics(3.0 * (y + 0.7 * z), y, z)
    assert scaled.sir_db == pytest.approx(base.sir_db, abs=1e-9)


def test_stoi_metric_complements_loss():
    rng = np.random.default_rng(9)
    fs = 10000
    y = speechlike(rng, 11000, fs)
    x = y + 0.4 * y.std() * rng.standard_normal(y.size)
    metric = stoi_metric(Waveform(x, fs), Waveform(y, fs))
    loss = stoi_loss(Waveform(x, fs), Waveform(y, fs)).item()
    assert metric == 1.0 - loss
    assert stoi_metric(Waveform(y, fs), Waveform(y, fs)) == pytest.approx(1.0, abs=1e-9)


def test_evaluate_and_csv_row():
    rng = np.random.default_rng(10)
    fs = 10000
    y = speechlike(rng, 11000, fs)
    z = speechlike(rng, 11000, fs)
    z = z - (z @ y) / (y @ y) * y  # estimate = target, orthogonal interferer
    report = evaluate(Waveform(y, fs), Waveform(y, fs), Waveform(z, fs))
    row = format_report_row("clean.wav", report)
    name, sdr, sir, sar, stoi = row.split(",")
    assert name == "clean.wav"
    assert sdr == "inf" and sir == "inf" and sar == "inf"
    assert float(stoi) == pytest.approx(1.0, abs=1e-6)

    # six significant digits
    row2 = format_report_row("x", EvalReport(1.2345678, -3.14159265, 12345.678, 0.87654321))
    assert row2 == "x,1.23457,-3.14159,12345.7,0.876543"
