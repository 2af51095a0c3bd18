import numpy as np
import pytest

from sepcost import diff_engine as E
from sepcost.errors import DegenerateScale, ShapeError, SignalTooShort
from sepcost.losses import (
    EPS,
    CompositeCost,
    CostComponent,
    StoiConfig,
    composite_terms,
    mse_loss,
    normalize_cost_scales,
    parse_cost_spec,
    sar_loss,
    sdr_loss,
    sir_loss,
    stoi_forward,
    stoi_loss,
    stoi_reference,
)
from sepcost.metrics import bss_eval_metrics, stoi_metric
from sepcost.signal_io import Waveform

from reference import SMALL_STOI, speechlike


def test_mse_examples():
    assert mse_loss([1.0, 2.0], [1.0, 2.0]).item() == 0.0
    assert mse_loss([1.0, 1.0], [0.0, 0.0]).item() == 1.0
    with pytest.raises(ShapeError):
        mse_loss([1.0], [1.0, 2.0])
    with pytest.raises(ShapeError):
        mse_loss(Waveform(np.ones(4), 8000), Waveform(np.ones(4), 16000))


def test_mse_gradient():
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal(128), rng.standard_normal(128)
    _, grads = E.evaluate_with_gradient(lambda t: mse_loss(t["x"], t["y"]), {"x": x, "y": y}, ["x"])
    np.testing.assert_allclose(grads["x"], 2.0 / 128 * (x - y), rtol=1e-12)


def test_sdr_loss_examples():
    v = sdr_loss([1.0, 0.0], [1.0, 0.0]).item()
    assert v == pytest.approx(1.0 / (1.0 + EPS))
    # scale invariance: alpha squared cancels; correlated pair keeps <x,y>^2 >> eps
    rng = np.random.default_rng(1)
    x = rng.standard_normal(256)
    y = x + 0.1 * rng.standard_normal(256)
    base = sdr_loss(x, y).item()
    for alpha in (0.3, -2.0, 17.0):
        assert sdr_loss(alpha * x, y).item() == pytest.approx(base, rel=1e-12)


def test_sdr_minimum_recovers_target_direction():
    # projected gradient descent on the sphere must land on x proportional to y
    rng = np.random.default_rng(2)
    y = rng.standard_normal(16)
    x = rng.standard_normal(16)
    x /= np.linalg.norm(x)
    for _ in range(800):
        _, grads = E.evaluate_with_gradient(lambda t: sdr_loss(t["x"], y), {"x": x}, ["x"])
        g = grads["x"]
        x = x - 2.0 * (g - (g @ x) * x)  # tangent component only
        x /= np.linalg.norm(x)
    cosine = abs(x @ y) / np.linalg.norm(y)
    assert cosine > 0.999999  # closed-form minimizer is the projection direction


def test_sir_loss_examples():
    assert sir_loss([1.0, 0.0], [1.0, 0.0], [0.0, 1.0]).item() == 0.0
    rng = np.random.default_rng(3)
    x, y, z = rng.standard_normal((3, 200))
    base = sir_loss(x, y, z).item()
    assert sir_loss(x, y, 2.0 * z).item() == 4.0 * base  # exact: numerator scales by 4


def test_sir_degenerate_blowup_is_bounded_by_eps():
    z = np.array([0.0, 1.0])
    y = np.array([1.0, 0.0])
    v = sir_loss(z, y, z).item()
    assert v == pytest.approx(np.dot(z, z) ** 2 / EPS)


def test_sar_loss_examples():
    y = np.array([1.0, 0.0])
    z = np.array([0.0, 1.0])
    assert sar_loss(y + z, y, z).item() == pytest.approx(1.0, abs=1e-9)
    assert sar_loss(y, y, z).item() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("loss", [sir_loss, sar_loss], ids=["sir", "sar"])
def test_interference_must_match_the_estimate_rate_and_length(loss):
    rng = np.random.default_rng(14)
    x, y, z = rng.standard_normal((3, 64))
    assert np.isfinite(loss(Waveform(x, 16000), Waveform(y, 16000), Waveform(z, 16000)).item())
    with pytest.raises(ShapeError, match="rates"):
        loss(Waveform(x, 16000), Waveform(y, 16000), Waveform(z, 8000))
    with pytest.raises(ShapeError, match="rates"):
        loss(x, Waveform(y, 16000), Waveform(z, 8000))
    with pytest.raises(ShapeError, match="lengths"):
        loss(x, y, z[:-1])


def test_sar_identity_is_minimizer_on_toys():
    rng = np.random.default_rng(4)
    y = np.zeros(8)
    y[0] = 1.0
    z = np.zeros(8)
    z[1] = 1.0
    best = sar_loss(y + z, y, z).item()
    for _ in range(200):
        x = rng.standard_normal(8)
        x /= np.linalg.norm(x)
        assert sar_loss(x, y, z).item() >= best


def test_losses_pass_fd_checks():
    rng = np.random.default_rng(5)
    x, y, z = rng.standard_normal((3, 256))
    cases = {
        "mse": lambda t: mse_loss(t["x"], t["y"]),
        "sdr": lambda t: sdr_loss(t["x"], t["y"]),
        "sir": lambda t: sir_loss(t["x"], t["y"], t["z"]),
        "sar": lambda t: sar_loss(t["x"], t["y"], t["z"]),
    }
    for name, graph in cases.items():
        _, grads = E.evaluate_with_gradient(graph, {"x": x, "y": y, "z": z}, ["x"])
        fd = E.finite_difference_gradient(graph, {"x": x, "y": y, "z": z}, "x")
        assert E.max_relative_error(grads["x"], fd) <= 1e-6, name


def test_stoi_identity_is_one():
    rng = np.random.default_rng(6)
    y = speechlike(rng, 12000, 10000)
    score, d = stoi_forward(Waveform(y, 10000), Waveform(y, 10000))
    assert score.item() == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.abs(d.data) <= 1.0 + 1e-12)


def test_stoi_blind_to_global_sign():
    rng = np.random.default_rng(7)
    y = speechlike(rng, 8000, 10000)
    flipped, d_f = stoi_forward(Waveform(-y, 10000), Waveform(y, 10000))
    same, d_s = stoi_forward(Waveform(y, 10000), Waveform(y, 10000))
    np.testing.assert_array_equal(d_f.data, d_s.data)  # |STFT| ignores global sign
    assert flipped.item() == pytest.approx(1.0, abs=1e-9)


def test_stoi_loss_range_and_complement():
    rng = np.random.default_rng(8)
    y = speechlike(rng, 9000, 10000)
    x = y + 0.5 * rng.standard_normal(y.size) * y.std()
    score, _ = stoi_forward(Waveform(x, 10000), Waveform(y, 10000))
    loss = stoi_loss(Waveform(x, 10000), Waveform(y, 10000))
    assert 0.0 <= loss.item() <= 2.0
    assert loss.item() == 1.0 - score.item()


def test_stoi_too_short():
    with pytest.raises(SignalTooShort):
        stoi_forward(np.zeros(1000), np.zeros(1000), sample_rate=10000)


def test_stoi_config_rejects_fft_shorter_than_frame():
    with pytest.raises(ValueError, match="fft_len"):
        StoiConfig(frame_len=256, fft_len=128)
    StoiConfig(frame_len=256, fft_len=256)  # no zero padding is fine


def test_stoi_config_hop_is_half_the_frame():
    assert StoiConfig().hop == 128
    assert StoiConfig(frame_len=2, fft_len=2).hop == 1
    # one-sample frames would give hop 0
    with pytest.raises(ValueError, match="frame_len must be at least 2"):
        StoiConfig(frame_len=1)
    with pytest.raises(TypeError):
        StoiConfig(hop=64)


def test_stoi_fd_small_config_no_resample():
    rng = np.random.default_rng(9)
    inputs = {"x": rng.standard_normal(400), "y": rng.standard_normal(400)}
    graph = lambda t: stoi_loss(t["x"], t["y"], SMALL_STOI, sample_rate=4000)
    _, grads = E.evaluate_with_gradient(graph, inputs, ["x"])
    fd = E.finite_difference_gradient(graph, inputs, "x")
    assert E.max_relative_error(grads["x"], fd) <= 1e-5


def test_stoi_fd_small_config_with_resample():
    rng = np.random.default_rng(10)
    inputs = {"x": rng.standard_normal(440), "y": rng.standard_normal(440)}
    graph = lambda t: stoi_loss(t["x"], t["y"], SMALL_STOI, sample_rate=4400)
    _, grads = E.evaluate_with_gradient(graph, inputs, ["x"])
    fd = E.finite_difference_gradient(graph, inputs, "x")
    assert E.max_relative_error(grads["x"], fd) <= 1e-5


@pytest.mark.parametrize("n,rate", [(400, 4000), (440, 4400)])
def test_stoi_fd_target_gradient(n, rate):
    # y reaches the score through the prepared reference, which must stay on its tape
    rng = np.random.default_rng(11)
    inputs = {"x": rng.standard_normal(n), "y": rng.standard_normal(n)}
    graph = lambda t: stoi_loss(t["x"], t["y"], SMALL_STOI, sample_rate=rate)
    _, grads = E.evaluate_with_gradient(graph, inputs, ["y"])
    assert np.abs(grads["y"]).max() > 0.0
    fd = E.finite_difference_gradient(graph, inputs, "y")
    assert E.max_relative_error(grads["y"], fd) <= 1e-5


@pytest.mark.parametrize("cfg,n,rate", [(SMALL_STOI, 440, 4400), (StoiConfig(), 4000, 10080)])
def test_stoi_reference_scores_like_fresh_forward(cfg, n, rate):
    rng = np.random.default_rng(12)
    y = rng.standard_normal(n)
    ref = stoi_reference(Waveform(y, rate), cfg)
    for _ in range(3):
        x = y + rng.standard_normal(n)
        score, d = stoi_forward(x, ref, cfg)
        fresh, d_fresh = stoi_forward(x, y, cfg, sample_rate=rate)
        assert score.item() == fresh.item()
        np.testing.assert_array_equal(d.data, d_fresh.data)
        _, g_ref = E.evaluate_with_gradient(lambda t: stoi_loss(t["x"], ref, cfg), {"x": x}, ["x"])
        _, g_fresh = E.evaluate_with_gradient(
            lambda t: stoi_loss(t["x"], t["y"], cfg, sample_rate=rate), {"x": x, "y": y}, ["x"]
        )
        np.testing.assert_array_equal(g_ref["x"], g_fresh["x"])
        metric = stoi_metric(Waveform(x, rate), ref, cfg)
        assert metric == stoi_metric(Waveform(x, rate), Waveform(y, rate), cfg)
        assert metric + stoi_loss(x, ref, cfg).item() == 1.0


STACK_CASES = [(SMALL_STOI, 400, 4000), (SMALL_STOI, 440, 4400), (StoiConfig(), 4000, 10080)]


@pytest.mark.parametrize("cfg,n,rate", STACK_CASES)
def test_stoi_stack_scores_rows_bitwise(cfg, n, rate):
    # a (3, n) stack of estimates against one reference: one score per row,
    # bitwise the row's own score, and the gradient of the summed losses
    # bitwise each row's own gradient
    rng = np.random.default_rng(14)
    y = rng.standard_normal(n)
    xs = y + rng.standard_normal((3, n))
    ref = stoi_reference(y, cfg, sample_rate=rate)
    scores, d = stoi_forward(xs, ref, cfg, sample_rate=rate)
    assert scores.data.shape == (3,)
    assert d.data.shape[0] == 3
    _, g_stack = E.evaluate_with_gradient(lambda t: E.sum_(stoi_loss(t["x"], ref, cfg)), {"x": xs}, ["x"])
    for row, x in enumerate(xs):
        score, d_row = stoi_forward(x, ref, cfg, sample_rate=rate)
        assert scores.data[row] == score.item()
        np.testing.assert_array_equal(d.data[row], d_row.data)
        _, g_row = E.evaluate_with_gradient(lambda t: stoi_loss(t["x"], ref, cfg), {"x": x}, ["x"])
        np.testing.assert_array_equal(g_stack["x"][row], g_row["x"])


# the gradient check's default case is checked bitwise against the serial
# reference in test_diff_engine.py
@pytest.mark.parametrize("cfg,n,rate", [STACK_CASES[1]])
def test_stacked_finite_differences_match_serial_oracle(cfg, n, rate):
    # 440 samples leave a short last block of coordinates
    rng = np.random.default_rng(21)
    inputs = {"x": rng.standard_normal(n), "y": rng.standard_normal(n)}
    ref = stoi_reference(inputs["y"], cfg, sample_rate=rate)
    graph = lambda t: stoi_loss(t["x"], ref, cfg, sample_rate=rate)
    stacked = E.finite_difference_gradient(graph, inputs, "x", stacked=True)
    np.testing.assert_array_equal(stacked, E.finite_difference_gradient(graph, inputs, "x"))


def test_stacked_finite_differences_need_one_value_per_row():
    graph = lambda t: E.sum_(E.square(t["x"]))
    with pytest.raises(ShapeError, match="one value per row"):
        E.finite_difference_gradient(graph, {"x": np.ones(4)}, "x", stacked=True)


def test_stoi_reference_rejects_mismatched_estimates():
    rng = np.random.default_rng(13)
    y = rng.standard_normal(440)
    ref = stoi_reference(y, SMALL_STOI, sample_rate=4400)
    with pytest.raises(ShapeError, match="lengths"):
        stoi_forward(y[:-1], ref, SMALL_STOI)
    with pytest.raises(ShapeError, match="rates"):
        stoi_forward(Waveform(y, 4000), ref, SMALL_STOI)
    with pytest.raises(ShapeError, match="rates"):
        stoi_forward(y, ref, SMALL_STOI, sample_rate=4000)
    with pytest.raises(ValueError, match="StoiConfig"):
        stoi_forward(y, ref)
    with pytest.raises(SignalTooShort):
        stoi_reference(np.zeros(1000), sample_rate=10000)


def test_stoi_term_tape_keeps_envelopes_not_segments():
    # a 2 s, 16 kHz STOI term with x on the tape: the segment stage keeps the
    # envelopes and (J, M') statistics, not (J, 30, M') segment arrays, so
    # what the tape holds after forward is mostly the front end's spectrum
    # (0.98 MB here; 4.05 MB with the segment arrays of the generic-op chain)
    tracemalloc = pytest.importorskip("tracemalloc")
    rng = np.random.default_rng(26)
    y = rng.standard_normal(32000)
    x = E.parameter(y + rng.standard_normal(32000))
    stoi_loss(x, y, sample_rate=16000)  # fills the resample-plan and band caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = stoi_loss(x, y, sample_rate=16000)
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert loss.requires_grad
    assert kept <= 1.5e6, kept


def test_monotone_link_between_sdr_loss_and_metric():
    rng = np.random.default_rng(11)
    y = rng.standard_normal(64)
    z = rng.standard_normal(64)
    losses_, metrics_ = [], []
    for _ in range(1000):
        x = rng.standard_normal(64)
        x /= np.linalg.norm(x)
        losses_.append(sdr_loss(x, y).item())
        metrics_.append(bss_eval_metrics(x, y, z).sdr_db)
    order = np.argsort(metrics_)
    assert np.all(np.diff(np.asarray(losses_)[order]) < 0.0)


def test_parse_cost_spec():
    cost = parse_cost_spec("sdr:0.75+stoi:0.25")
    assert [c.kind for c in cost.components] == ["sdr", "stoi"]
    assert [c.weight for c in cost.components] == [0.75, 0.25]
    assert cost.scales == (1.0, 1.0)
    assert parse_cost_spec("mse").components == (CostComponent("mse", 1.0),)
    for bad in ("sdr:+", "nope", "sdr:0", "sdr:-1", "", "sdr++mse", "sdr:nan", "sdr+sdr"):
        with pytest.raises(ValueError):
            parse_cost_spec(bad)


def test_normalize_cost_scales():
    cost = parse_cost_spec("sdr:0.75+stoi:0.25")
    normalized = normalize_cost_scales(cost, [4.0, 0.5])
    assert normalized.scales == (0.25, 2.0)
    assert normalize_cost_scales(cost, [1.0, 1.0]).scales == (1.0, 1.0)
    with pytest.raises(DegenerateScale):
        normalize_cost_scales(cost, [0.0, 1.0])
    with pytest.raises(DegenerateScale):
        normalize_cost_scales(cost, [-2.0, 1.0])


def test_scaled_composite_starts_at_total_weight():
    rng = np.random.default_rng(12)
    fs = 10000
    y = speechlike(rng, 10000, fs)
    z = speechlike(rng, 10000, fs)
    x = y + 0.7 * z
    cost = parse_cost_spec("sdr:0.75+stoi:0.25")
    raw = [
        sdr_loss(x, y).item(),
        stoi_loss(Waveform(x, fs), Waveform(y, fs)).item(),
    ]
    normalized = normalize_cost_scales(cost, raw)
    total, _ = composite_terms(normalized, Waveform(x, fs), Waveform(y, fs), Waveform(z, fs))
    assert total.item() == pytest.approx(0.75 + 0.25, rel=1e-9)


def test_composite_single_component_equals_plain_loss():
    rng = np.random.default_rng(13)
    x, y = rng.standard_normal((2, 300))
    cost = parse_cost_spec("mse")
    total, terms = composite_terms(cost, x, y)
    assert total.item() == mse_loss(x, y).item()
    assert terms["mse"].item() == mse_loss(x, y).item()


def test_composite_matches_manual_combination():
    rng = np.random.default_rng(14)
    fs = 10000
    y = speechlike(rng, 9000, fs)
    z = speechlike(rng, 9000, fs)
    x = y + 0.5 * z
    cost = parse_cost_spec("sdr:0.75+stoi:0.25")
    total, _ = composite_terms(cost, Waveform(x, fs), Waveform(y, fs), Waveform(z, fs))
    total = total.item()
    manual = 0.75 * sdr_loss(x, y).item() + 0.25 * stoi_loss(Waveform(x, fs), Waveform(y, fs)).item()
    assert total == manual


def test_composite_cost_validation():
    with pytest.raises(ValueError):
        CompositeCost((CostComponent("mse", 0.0),), (1.0,))
    with pytest.raises(ValueError):
        CompositeCost((CostComponent("mse", 1.0),), (1.0, 2.0))
