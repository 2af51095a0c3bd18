"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report. The overfit runs (criteria 7-9) train a reduced-size network on
a synthetic two-talker fixture; sizes are configuration, not contract.
"""

import json
import math
import time

import numpy as np
import pytest

from sepcost import diff_engine as E
from sepcost.aet_net import init_params, separate
from sepcost.cli import GRADCHECK_TOLERANCE, gradcheck_cases
from sepcost.losses import sar_loss, sdr_loss, sir_loss, stoi_forward, stoi_loss
from sepcost.metrics import bss_eval_metrics, stoi_metric
from sepcost.signal_io import Waveform, mix_at_snr
from sepcost.trainer import (
    Dataset,
    TrainConfig,
    fit,
    initial_component_means,
    save_checkpoint,
)

from reference import SMOKE_NET, fixture_speakers, speechlike

SMOKE_EPOCHS = 500  # single-pair dataset: one step per epoch

COST_CONFIGS = {
    "(i) mse": "mse",
    "(ii) sdr": "sdr",
    "(iii) 0.75 sdr + 0.25 stoi": "sdr:0.75+stoi:0.25",
    "(iv) 0.5 sdr + 0.5 stoi": "sdr:0.5+stoi:0.5",
    "(v) 0.75 sir + 0.25 sar": "sir:0.75+sar:0.25",
    "(vi) 0.5 sir + 0.5 sar": "sir:0.5+sar:0.5",
    "(vii) 0.25 sir + 0.75 sar": "sir:0.25+sar:0.75",
}


def report(criterion: int, message: str) -> None:
    print(f"PASS criterion {criterion}: {message}")


def smoke_train_config(cost: str) -> TrainConfig:
    return TrainConfig(
        cost=cost, learning_rate=1e-3, optimizer="adam", epochs=SMOKE_EPOCHS,
        seed=0, excerpt_len=0, trim=1024, sample_rate=16000,
    )


@pytest.fixture(scope="module")
def smoke_pair():
    low, high = fixture_speakers(fs=16000, seconds=2.0)
    return mix_at_snr(Waveform(low, 16000), Waveform(high, 16000), 0.0)


@pytest.fixture(scope="module")
def overfit_runs(smoke_pair, tmp_path_factory):
    """Criterion 7's two trainings, with per-step tying checks and a
    full rerun of each for the determinism criterion."""
    out_dir = tmp_path_factory.mktemp("overfit")
    dataset = Dataset([smoke_pair])
    runs = {}
    elapsed = {}
    rng = np.random.default_rng(99)
    probe = rng.standard_normal(SMOKE_NET.components)

    for tag, cost in (("sdr", "sdr"), ("iii", "sdr:0.75+stoi:0.25")):
        tying = []

        def check_tying(params, opt_state, entry):
            tied = params.synthesis_filters is params.analysis
            frame = E._synthesize(probe[:, None], params.synthesis_filters.data, SMOKE_NET.stride)
            tied &= np.array_equal(frame, params.analysis.data.T @ probe)
            tying.append(tied)

        cfg = smoke_train_config(cost)
        artifacts = {}
        for attempt in ("run", "rerun"):
            start = time.perf_counter()
            result = fit(
                dataset, cfg, SMOKE_NET,
                step_callback=check_tying if attempt == "run" else None,
            )
            took = time.perf_counter() - start
            ckpt = out_dir / f"{tag}-{attempt}.json"
            save_checkpoint(
                result.params, result.opt_state, ckpt, cfg,
                meta={"steps_done": result.steps_done, "cost_scales": list(result.cost.scales)},
            )
            log_path = out_dir / f"{tag}-{attempt}.jsonl"
            log_path.write_text("\n".join(json.dumps(e) for e in result.log) + "\n")
            artifacts[attempt] = {"result": result, "ckpt": ckpt, "log": log_path, "seconds": took}
        runs[tag] = artifacts
        runs[tag]["tying"] = tying
        elapsed[tag] = artifacts["run"]["seconds"]
    runs["train_seconds"] = sum(elapsed.values())
    return runs


def aligned_eval_signals(pair, params, trim):
    estimate = separate(pair.mixture, params)
    n_out = len(estimate)
    window = slice(trim, n_out - trim)
    return (
        estimate.samples[window],
        pair.mixture.samples[window],
        pair.target.samples[window],
        pair.interference.samples[window],
    )


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    worst = {}
    for loss in ("mse", "sdr", "sir", "sar", "stoi", "network"):
        for seed in range(5):
            for name, err in gradcheck_cases(loss, seed).items():
                key = f"{loss}/{name}" if loss == "network" else loss
                worst[key] = max(worst.get(key, 0.0), err)
                assert err <= GRADCHECK_TOLERANCE, f"{loss} seed {seed} d/d{name}: {err}"
    took = time.perf_counter() - start
    assert took <= 120.0, f"gradient checks took {took:.1f}s (budget 120s)"
    top = max(worst.values())
    report(1, f"max relative gradient error {top:.2e} <= 1e-4 over 5 seeds each, {took:.0f}s")


def test_criterion_2_sdr_surrogate_metric_identity():
    rng = np.random.default_rng(2001)
    worst = 0.0
    for _ in range(1000):
        x, y, z = rng.standard_normal((3, 120))
        projection_db = bss_eval_metrics(x, y, z).sdr_db
        xy, yy, xx = x @ y, y @ y, x @ x
        correlation_db = 10.0 * math.log10(xy**2 / (yy * xx - xy**2))
        worst = max(worst, abs(projection_db - correlation_db))
    assert worst <= 1e-9
    report(2, f"projection SDR equals correlation form within {worst:.2e} dB over 1000 pairs")


def test_criterion_3_decomposition_and_sir_closed_form():
    from sepcost.metrics import bss_decompose

    rng = np.random.default_rng(3001)
    worst_residual = 0.0
    for _ in range(200):
        x, y, z = rng.standard_normal((3, 160))
        s, ei, ea = bss_decompose(x, y, z)
        worst_residual = max(worst_residual, np.abs(x - (s + ei + ea)).max())
    assert worst_residual <= 1e-14  # machine-precision exact by construction

    y = rng.standard_normal(300)
    z = rng.standard_normal(300)
    z -= (z @ y) / (y @ y) * y
    worst_sir = 0.0
    for beta in (0.1, 0.5, 1.0, 2.0):
        sir = bss_eval_metrics(y + beta * z, y, z).sir_db
        closed = -20.0 * math.log10(beta * np.linalg.norm(z) / np.linalg.norm(y))
        worst_sir = max(worst_sir, abs(sir - closed))
    assert worst_sir <= 1e-9
    report(3, f"decomposition residual {worst_residual:.1e}; SIR closed form within {worst_sir:.1e} dB")


def test_criterion_4_stoi_properties():
    rng = np.random.default_rng(4001)
    fs = 10000

    y = speechlike(rng, 14000, fs)
    score, d = stoi_forward(Waveform(y, fs), Waveform(y, fs))
    assert abs(score.item() - 1.0) <= 1e-9
    assert np.all(np.abs(d.data) <= 1.0 + 1e-12)

    snrs = (20.0, 10.0, 0.0, -10.0)
    means = []
    worst_identity = 0.0
    for snr in snrs:
        scores = []
        for _ in range(20):
            clean = speechlike(rng, 12000, fs)
            noise = rng.standard_normal(clean.size)
            noise *= clean.std() / noise.std() * 10.0 ** (-snr / 20.0)
            noisy = Waveform(clean + noise, fs)
            ref = Waveform(clean, fs)
            metric = stoi_metric(noisy, ref)
            loss = stoi_loss(noisy, ref).item()
            worst_identity = max(worst_identity, abs(metric - (1.0 - loss)))
            _, d_noisy = stoi_forward(noisy, ref)
            assert np.all(np.abs(d_noisy.data) <= 1.0 + 1e-12)
            scores.append(metric)
        means.append(float(np.mean(scores)))
    assert means[0] > means[1] > means[2] > means[3], means
    assert worst_identity == 0.0  # metric and loss share one forward value
    report(4, f"identity 1.0, d in range, ladder {['%.3f' % m for m in means]} strictly decreasing")


def test_criterion_5_loss_sanity_minima():
    rng = np.random.default_rng(5001)
    x = rng.standard_normal(512)
    y = x + 0.05 * rng.standard_normal(512)
    base = sdr_loss(x, y).item()
    for alpha in (0.125, -8.0, 3.7):
        rel = abs(sdr_loss(alpha * x, y).item() - base) / base
        assert rel <= 1e-10

    e1 = np.zeros(8)
    e1[0] = 1.0
    e2 = np.zeros(8)
    e2[1] = 1.0
    assert sir_loss(e1, e1, e2).item() == 0.0

    mix_loss = sar_loss(e1 + e2, e1, e2).item()
    assert mix_loss == pytest.approx(1.0, abs=1e-9)
    for _ in range(10_000):
        u = rng.standard_normal(8)
        u /= np.linalg.norm(u)
        assert mix_loss <= sar_loss(u, e1, e2).item()
    report(5, "sdr scale-invariant to 1e-10; sir zero at x=y; sar identity beats 10^4 random unit x")


def test_criterion_6_unity_normalization(smoke_pair):
    rng_pairs = [smoke_pair]
    for seed in (77, 78):
        low, high = fixture_speakers(fs=16000, seconds=2.0, seed=seed)
        rng_pairs.append(mix_at_snr(Waveform(low, 16000), Waveform(high, 16000), 0.0))

    worst = 0.0
    for label, spec in COST_CONFIGS.items():
        cfg = TrainConfig(
            cost=spec, learning_rate=1e-3, epochs=0, seed=0, excerpt_len=0, trim=1024, sample_rate=16000,
        )
        result = fit(Dataset(rng_pairs), cfg, SMOKE_NET)
        params = init_params(0, SMOKE_NET)
        means = initial_component_means(params, rng_pairs, result.cost, cfg)
        for comp, scale in zip(result.cost.components, result.cost.scales):
            deviation = abs(scale * means[comp.kind] - 1.0)
            worst = max(worst, deviation)
            assert deviation <= 1e-6, f"{label}: {comp.kind} off by {deviation}"
    report(6, f"all seven cost configs normalize to unity within {worst:.1e}")


def test_criterion_7_overfit_smoke(smoke_pair, overfit_runs):
    assert overfit_runs["train_seconds"] <= 300.0, overfit_runs["train_seconds"]

    sdr_result = overfit_runs["sdr"]["run"]["result"]
    est, mix, target, interference = aligned_eval_signals(smoke_pair, sdr_result.params, 1024)
    sdr_est = bss_eval_metrics(est, target, interference).sdr_db
    sdr_mix = bss_eval_metrics(mix, target, interference).sdr_db
    assert sdr_est >= sdr_mix + 6.0, (sdr_est, sdr_mix)

    # trained transform round trip (oracle modulation, no separator) keeps
    # the signal energy within sanity range: measured ~11x on this fixture
    from sepcost.aet_net import analysis_forward, synthesis_forward

    with E.no_grad():
        rep = analysis_forward(smoke_pair.mixture.samples, sdr_result.params)
        round_trip = synthesis_forward(rep.M, rep, sdr_result.params)
    energy_ratio = np.linalg.norm(round_trip.data) / np.linalg.norm(smoke_pair.mixture.samples)
    assert 0.05 < energy_ratio < 50.0, energy_ratio

    totals = [e["total"] for e in sdr_result.log if "step" in e]
    assert np.mean(totals[-10:]) < 0.5 * np.mean(totals[:10])

    iii_result = overfit_runs["iii"]["run"]["result"]
    est3, mix3, target3, _ = aligned_eval_signals(smoke_pair, iii_result.params, 1024)
    fs = smoke_pair.mixture.sample_rate
    stoi_est = stoi_metric(Waveform(est3, fs), Waveform(target3, fs))
    stoi_mix = stoi_metric(Waveform(mix3, fs), Waveform(target3, fs))
    assert stoi_est > stoi_mix, (stoi_est, stoi_mix)

    steps = [e for e in iii_result.log if "step" in e]
    for kind in ("sdr", "stoi"):
        first = np.mean([e["components"][kind] for e in steps[:10]])
        last = np.mean([e["components"][kind] for e in steps[-10:]])
        assert last < first, kind

    _check_cli_separation(smoke_pair, overfit_runs, sdr_mix)

    report(
        7,
        f"SDR {sdr_mix:.1f} -> {sdr_est:.1f} dB (gain {sdr_est - sdr_mix:.1f} >= 6); "
        f"STOI {stoi_mix:.3f} -> {stoi_est:.3f}; {overfit_runs['train_seconds']:.0f}s <= 300s",
    )


def _check_cli_separation(smoke_pair, overfit_runs, sdr_mix):
    """End-to-end file path: separate the fixture mixture through the CLI
    with the trained checkpoint and confirm the reported SDR gain."""
    from sepcost.cli import main
    from sepcost.signal_io import write_wav

    out_dir = overfit_runs["sdr"]["run"]["ckpt"].parent
    fs = smoke_pair.mixture.sample_rate
    mix_wav = out_dir / "mix.wav"
    target_wav = out_dir / "target.wav"
    interference_wav = out_dir / "interference.wav"
    est_wav = out_dir / "est.wav"
    write_wav(smoke_pair.mixture, mix_wav)
    write_wav(smoke_pair.target, target_wav)
    write_wav(smoke_pair.interference, interference_wav)
    code = main([
        "separate",
        "--checkpoint", str(overfit_runs["sdr"]["run"]["ckpt"]),
        "--input", str(mix_wav),
        "--output", str(est_wav),
    ])
    assert code == 0
    from sepcost.signal_io import read_wav

    est = read_wav(est_wav)
    assert len(est) == len(smoke_pair.mixture)
    trimmed = slice(1024, len(est) - 1024)
    cli_sdr = bss_eval_metrics(
        est.samples[trimmed],
        smoke_pair.target.samples[trimmed],
        smoke_pair.interference.samples[trimmed],
    ).sdr_db
    assert cli_sdr >= sdr_mix + 6.0, (cli_sdr, sdr_mix)


def test_criterion_8_shared_weight_invariant(overfit_runs):
    for tag in ("sdr", "iii"):
        tying = overfit_runs[tag]["tying"]
        assert len(tying) == SMOKE_EPOCHS
        assert all(tying)
    report(8, "synthesis bank == analysis bank^T after every optimizer step of both runs")


def test_criterion_9_bitwise_determinism(overfit_runs):
    for tag in ("sdr", "iii"):
        run = overfit_runs[tag]["run"]
        rerun = overfit_runs[tag]["rerun"]
        assert run["ckpt"].read_bytes() == rerun["ckpt"].read_bytes(), tag
        assert run["log"].read_bytes() == rerun["log"].read_bytes(), tag
    report(9, "rerun checkpoints and training logs are byte-identical for both runs")
