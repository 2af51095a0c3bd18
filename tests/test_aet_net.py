import threading
import time

import numpy as np
import pytest

from sepcost import aet_net
from sepcost import diff_engine as E
from sepcost.aet_net import (
    NetConfig,
    SeparatorParams,
    analysis_forward,
    export_bases_csv,
    forward,
    init_params,
    order_bases_by_dominant_frequency,
    separate,
    separate_full_length,
    separator_forward,
    synthesis_forward,
)
from sepcost.errors import ShapeError, SignalTooShort
from sepcost.losses import sdr_loss
from sepcost.signal_io import Waveform

from reference import counting_pool

SMALL = NetConfig(components=8, filter_len=64, stride=16, hidden_units=8, weight_sharing="shared")
SMALL_INDEP = NetConfig(components=8, filter_len=64, stride=16, hidden_units=8, weight_sharing="independent")
STRIDE8_W6 = NetConfig(components=8, filter_len=64, stride=8, smoothing_width=6, hidden_units=8)
WIDTH1 = NetConfig(components=8, filter_len=64, stride=16, smoothing_width=1, hidden_units=8)


def test_init_deterministic_and_bounded():
    a = init_params(7, SMALL)
    b = init_params(7, SMALL)
    for (name, ta), tb in zip(a.tensors().items(), b.tensors().values()):
        np.testing.assert_array_equal(ta.data, tb.data, err_msg=name)
    bound = np.sqrt(6.0 / (SMALL.filter_len + SMALL.components))
    assert np.abs(a.analysis.data).max() <= bound
    assert not a.b1.data.any() and not a.b2.data.any()


def test_default_config_fan_bound():
    # 1024 filters x 1024 taps: |w| <= sqrt(6/2048)
    params = init_params(0, NetConfig())
    assert np.abs(params.analysis.data).max() <= np.sqrt(6.0 / 2048.0)
    assert params.analysis.data.shape == (1024, 1024)


@pytest.mark.parametrize(
    "field,value",
    [
        # a zero floor makes the carrier of a silent input 0/0
        ("modulation_floor", 0.0),
        ("modulation_floor", -1e-8),
        ("modulation_floor", float("nan")),
        ("modulation_floor", float("inf")),
        # zero components divide by zero in init_params
        ("components", 0),
        ("hidden_units", 0),
        ("hidden_units", -4),
    ],
)
def test_net_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ValueError, match=field):
        NetConfig(**{field: value})
    NetConfig(**{field: 1})  # the smallest accepted value of each


def test_shared_mode_ties_synthesis_storage():
    p = init_params(0, SMALL)
    assert p.synthesis_filters is p.analysis
    assert "synthesis" not in p.tensors()
    q = init_params(0, SMALL_INDEP)
    assert q.synthesis_filters is not q.analysis
    assert "synthesis" in q.tensors()
    with pytest.raises(ValueError, match="shared mode"):
        SeparatorParams(SMALL, **q.tensors())
    with pytest.raises(ValueError, match="independent mode"):
        SeparatorParams(SMALL_INDEP, **p.tensors())
    # parameter sets compare by identity, never by their tensors
    assert SeparatorParams(SMALL, **p.tensors()) != p


def test_smoothing_kernel_uniform_at_init():
    p = init_params(0, SMALL)
    kernel = p.smoothing_kernel().data
    np.testing.assert_allclose(kernel, 1.0 / SMALL.smoothing_width, rtol=1e-12)
    assert (kernel >= 0).all()


def test_analysis_zero_input():
    p = init_params(0, SMALL)
    rep = analysis_forward(np.zeros(256), p)
    assert not rep.X.data.any()
    np.testing.assert_array_equal(rep.M.data, np.full_like(rep.M.data, SMALL.modulation_floor))
    assert not (rep.X / rep.M).data.any()


def test_frame_count_formula():
    big = NetConfig()
    assert (2048 - big.filter_len) // big.stride + 1 == 65  # floor((2048-1024)/16)+1
    p = init_params(0, SMALL)
    rep = analysis_forward(np.random.default_rng(0).standard_normal(2048), p)
    assert rep.X.data.shape == (8, (2048 - SMALL.filter_len) // SMALL.stride + 1)


def test_modulation_carrier_identity():
    rng = np.random.default_rng(1)
    p = init_params(1, SMALL)
    rep = analysis_forward(rng.standard_normal(512), p)
    assert (rep.M.data > 0).all()
    recon = rep.M.data * (rep.X / rep.M).data
    np.testing.assert_allclose(recon, rep.X.data, rtol=1e-10, atol=1e-12)


def test_analysis_too_short():
    with pytest.raises(SignalTooShort):
        analysis_forward(np.zeros(32), init_params(0, SMALL))


def test_separator_positive_and_ln2_at_zero_params():
    p = init_params(2, SMALL)
    rng = np.random.default_rng(2)
    m_hat = separator_forward(np.abs(rng.standard_normal((8, 5))), p)
    assert (m_hat.data > 0).all()

    for t in (p.w1, p.b1, p.w2, p.b2):
        t.data[:] = 0.0
    m_hat = separator_forward(np.abs(rng.standard_normal((8, 5))), p)
    np.testing.assert_allclose(m_hat.data, np.log(2.0), rtol=1e-12)

    with pytest.raises(ShapeError):
        separator_forward(np.zeros((9, 4)), p)


def test_synthesis_oracle_modulation():
    # feeding back the mixture modulation reconstructs X, so the output
    # equals the transposed convolution of X itself
    rng = np.random.default_rng(3)
    p = init_params(3, SMALL)
    rep = analysis_forward(rng.standard_normal(512), p)
    out = synthesis_forward(rep.M, rep, p)
    direct = E._synthesize(rep.X.data, p.synthesis_filters.data, SMALL.stride)
    np.testing.assert_allclose(out.data, direct, rtol=1e-9, atol=1e-12)
    assert out.data.size == (rep.X.data.shape[1] - 1) * 16 + 64

    zero = synthesis_forward(E.Tensor(np.zeros_like(rep.M.data)), rep, p)
    assert not zero.data.any()


def test_separate_finite_and_deterministic():
    rng = np.random.default_rng(4)
    w = Waveform(rng.standard_normal(1000), 16000)
    p = init_params(4, SMALL)
    a = separate(w, p)
    b = separate(w, p)
    assert np.all(np.isfinite(a.samples))
    np.testing.assert_array_equal(a.samples, b.samples)
    assert a.sample_rate == 16000


def test_separate_full_length_matches_input_length():
    rng = np.random.default_rng(5)
    p = init_params(5, SMALL)
    for n in (1000, 1024, 1037):
        w = Waveform(rng.standard_normal(n), 16000)
        assert len(separate_full_length(w, p)) == n


def _one_pass(samples, params):
    with E.no_grad():
        return forward(samples, params).data


def _blocked_params(seed, cfg):
    # a random smoothing kernel, so a halo taken from the wrong side shows
    params = init_params(seed, cfg)
    params.smoothing_raw.data[:] = np.random.default_rng(seed).standard_normal(params.smoothing_raw.data.shape)
    return params


@pytest.mark.parametrize("cfg", [SMALL, SMALL_INDEP], ids=["shared", "independent"])
def test_separation_in_one_block_is_bitwise_the_one_pass_network(cfg):
    rng = np.random.default_rng(10)
    params = _blocked_params(10, cfg)
    half = cfg.filter_len // 2
    for n in (cfg.filter_len, 1000, 1037):
        w = Waveform(rng.standard_normal(n), 16000)
        np.testing.assert_array_equal(separate(w, params).samples, _one_pass(w.samples, params))
        padded = np.concatenate([np.zeros(half), w.samples, np.zeros(half)])
        expected = _one_pass(padded, params)[half : half + n]
        np.testing.assert_array_equal(separate_full_length(w, params).samples, expected)


@pytest.mark.parametrize("block_frames", [1, 2, 3, 7])
@pytest.mark.parametrize(
    "cfg", [SMALL, SMALL_INDEP, STRIDE8_W6, WIDTH1], ids=["shared", "independent", "stride8-width6", "width1"]
)
def test_separation_in_many_blocks_matches_the_one_pass_network(monkeypatch, cfg, block_frames):
    monkeypatch.setattr(aet_net, "BLOCK_FRAMES", block_frames)
    rng = np.random.default_rng(11)
    params = _blocked_params(11, cfg)
    taps, stride, half = cfg.filter_len, cfg.stride, cfg.filter_len // 2

    def on_workers(run, *args):
        # one worker, then 2 and 3, which need not divide the block
        # count: the same bits each time
        outputs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(E, "_workers", lambda blocks, cap=workers: min(blocks, cap))
            outputs.append(run(*args).samples)
        for other in outputs[1:]:
            np.testing.assert_array_equal(other, outputs[0])
        return outputs[0]

    # frame counts 1, a multiple of the block plus one, and odd sizes
    for frames in (1, 2, 3 * block_frames + 1, 4 * block_frames, 29):
        for extra in (0, stride - 1):
            x = rng.standard_normal(taps + (frames - 1) * stride + extra)
            expected = _one_pass(x, params)
            got = on_workers(separate, Waveform(x, 16000), params)
            assert got.shape == expected.shape
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * np.abs(expected).max())
    for n in (1, 255, 1000):
        w = Waveform(rng.standard_normal(n), 16000)
        padded = np.concatenate([np.zeros(half), w.samples, np.zeros(half)])
        expected = _one_pass(padded, params)[half : half + n]
        got = on_workers(separate_full_length, w, params)
        assert got.shape == (n,)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * np.abs(expected).max())


@pytest.mark.parametrize(
    "cpus, env, blocks, workers",
    [
        (2, {"OPENBLAS_NUM_THREADS": "1"}, 5, 2),
        (2, {}, 5, 1),
        (4, {}, 5, 1),
        (4, {"OPENBLAS_NUM_THREADS": "2"}, 5, 2),
        (4, {"OMP_NUM_THREADS": "1"}, 3, 3),
        (4, {"MKL_NUM_THREADS": "1"}, 9, 4),
        (4, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 5, 1),
        (2, {"OPENBLAS_NUM_THREADS": "0"}, 5, 1),
        (2, {"OPENBLAS_NUM_THREADS": "abc"}, 5, 1),
        (2, {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 5, 2),
        (2, {"OPENBLAS_NUM_THREADS": "8"}, 5, 1),
        (2, {"OPENBLAS_NUM_THREADS": "1"}, 1, 1),
    ],
)
def test_block_workers_fill_the_cpus_blas_leaves_idle(monkeypatch, cpus, env, blocks, workers):
    monkeypatch.setattr(E.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    for var in E._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert E._workers(blocks) == workers


def test_block_workers_fall_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(E.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(E.os, "cpu_count", lambda: 3)
    for var in E._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert E._workers(7) == 3


def test_separation_threads_end_with_the_call_and_pass_on_a_block_failure(monkeypatch):
    monkeypatch.setattr(aet_net, "BLOCK_FRAMES", 2)
    monkeypatch.setattr(E, "_workers", lambda blocks: min(blocks, 2))
    params = init_params(0, SMALL)
    w = Waveform(np.random.default_rng(13).standard_normal(SMALL.filter_len + 9 * SMALL.stride), 16000)
    threads = threading.active_count()
    assert len(separate(w, params)) == len(w)
    assert threading.active_count() == threads

    caller = threading.current_thread()
    forward_block = aet_net.analysis_forward  # called once per block

    def fail_in_a_pool_thread(x, params):
        # the caller takes every other block, a pool thread the rest
        if threading.current_thread() is not caller:
            raise FloatingPointError("block failed")
        return forward_block(x, params)

    monkeypatch.setattr(aet_net, "analysis_forward", fail_in_a_pool_thread)
    with pytest.raises(FloatingPointError, match="block failed"):
        separate(w, params)
    assert threading.active_count() == threads
    # recording is back on: an op on a parameter records a tape again
    loss = E.sum_(params.w1 * params.w1)
    assert loss.requires_grad
    loss.backward()
    np.testing.assert_array_equal(params.w1.grad, 2 * params.w1.data)


def test_separation_starts_one_pool_of_marked_threads_and_no_product_pool(monkeypatch):
    # every product at the floor would split on an unmarked thread; one
    # block and three full blocks, on 1, 2 and 3 workers: the caller takes
    # every w-th block and a pool of w - 1 threads the others (none at w = 1)
    monkeypatch.setattr(E, "_SPLIT_FLOOR", 0)
    monkeypatch.setattr(E, "_blas_threads", lambda: 1)
    pool, pools = counting_pool()
    monkeypatch.setattr(E, "ThreadPoolExecutor", pool)
    # analysis_forward is called once per block
    caller, forward_block, blocks_run = threading.current_thread(), aet_net.analysis_forward, []

    def recording(x, params):
        blocks_run.append((threading.current_thread() is caller, getattr(E._whole_products, "marked", False)))
        return forward_block(x, params)

    monkeypatch.setattr(aet_net, "analysis_forward", recording)
    cfg = NetConfig(components=64, filter_len=128, stride=16, hidden_units=64)
    params = _blocked_params(14, cfg)
    rng = np.random.default_rng(14)
    for blocks in (1, 3):
        frames = blocks * aet_net.BLOCK_FRAMES
        w = Waveform(rng.standard_normal(cfg.filter_len + (frames - 1) * cfg.stride), 16000)
        for workers in (1, 2, 3):
            monkeypatch.setattr(E, "_workers", lambda tasks, cap=workers: max(1, min(tasks, cap)))
            w_blocks = min(blocks, workers)
            pooled = sum(i % w_blocks != 0 for i in range(blocks))
            pools.clear()
            blocks_run.clear()
            threads = threading.active_count()
            assert len(separate(w, params)) == len(w)
            assert threading.active_count() == threads
            assert pools == ([["synthesize", w_blocks - 1, pooled]] if w_blocks > 1 else []), (blocks, workers)
            # every block on a marked thread, the caller's share on the caller
            expected = [(i % w_blocks == 0, True) for i in range(blocks)]
            assert sorted(blocks_run) == sorted(expected), (blocks, workers)
            assert not getattr(E._whole_products, "marked", False)


def test_a_failing_block_cancels_the_blocks_not_yet_started(monkeypatch):
    # 40 blocks on the caller and one pool thread; the first block to start
    # fails at once and the others take 20 ms, so each thread starts at
    # most two more blocks before the failure reaches the caller, which
    # cancels the rest
    monkeypatch.setattr(aet_net, "BLOCK_FRAMES", 2)
    monkeypatch.setattr(E, "_workers", lambda blocks: min(blocks, 2))
    params = init_params(0, SMALL)
    w = Waveform(np.random.default_rng(15).standard_normal(SMALL.filter_len + 79 * SMALL.stride), 16000)
    # analysis_forward is called once per block
    forward_block, lock, started = aet_net.analysis_forward, threading.Lock(), []

    def fail_first(x, params):
        with lock:
            first = not started
            started.append(threading.current_thread())
        if first:
            raise FloatingPointError("block failed")
        time.sleep(0.02)
        return forward_block(x, params)

    monkeypatch.setattr(aet_net, "analysis_forward", fail_first)
    threads = threading.active_count()
    with pytest.raises(FloatingPointError, match="block failed"):
        separate(w, params)
    assert threading.active_count() == threads
    assert 1 <= len(started) <= 5, started
    assert not getattr(E._whole_products, "marked", False)


def test_halo_frames_only_feed_the_smoothing():
    # the block loop's premise: analysing frames [lo, hi) of the input, the
    # block [a, b) plus its halo, gives the full analysis's X and M at
    # frames [a, b) bitwise (so also the carrier X / M, elementwise in them)
    rng = np.random.default_rng(12)
    frames = 37
    for cfg in (SMALL, STRIDE8_W6):
        params = _blocked_params(12, cfg)
        taps, stride = cfg.filter_len, cfg.stride
        before, after = aet_net._smoothing_pad(cfg)
        x = rng.standard_normal(taps + (frames - 1) * stride)
        full = analysis_forward(x, params)
        for a, b in ((0, frames), (0, 1), (0, 3), (2, 7), (5, 6), (11, 30), (30, frames), (frames - 1, frames)):
            lo, hi = max(0, a - before), min(frames, b + after)
            part = analysis_forward(x[lo * stride : (hi - 1) * stride + taps], params)
            for name in ("X", "M"):
                got, want = getattr(part, name).data[:, a - lo : b - lo], getattr(full, name).data[:, a:b]
                np.testing.assert_array_equal(got, want, err_msg=f"{cfg} {name} [{a}, {b})")


def test_separate_too_short_raises_before_the_block_loop(monkeypatch):
    monkeypatch.setattr(aet_net, "BLOCK_FRAMES", 1)
    params = init_params(0, SMALL)
    with pytest.raises(SignalTooShort):
        separate(Waveform(np.zeros(SMALL.filter_len - 1), 16000), params)
    with pytest.raises(SignalTooShort):
        separate(Waveform(np.zeros(1), 16000), params)
    assert len(separate(Waveform(np.zeros(SMALL.filter_len), 16000), params)) == SMALL.filter_len


def test_separation_memory_is_flat_in_input_length(monkeypatch):
    # traced peak: the synthesis, which the returned view holds (about 1
    # input size; each block pads its own slice of the input), plus one
    # block's working set per worker; a one-pass forward holds about 22
    # input sizes at every length
    tracemalloc = pytest.importorskip("tracemalloc")
    monkeypatch.setattr(aet_net, "BLOCK_FRAMES", 128)
    cfg = NetConfig(components=64, filter_len=128, stride=16, hidden_units=64)
    params = init_params(0, cfg)
    block = 8 * aet_net.BLOCK_FRAMES * max(cfg.components, cfg.filter_len)
    for workers in (1, 2):
        monkeypatch.setattr(E, "_workers", lambda blocks, cap=workers: min(blocks, cap))
        for n in (16000, 64000, 256000):
            w = Waveform(np.random.default_rng(n).standard_normal(n), 16000)
            tracemalloc.start()
            try:
                out = separate_full_length(w, params)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(out) == n
            assert peak < w.samples.nbytes + 8 * block * workers, (workers, n, peak)


def test_default_net_separation_peak_is_bounded(monkeypatch):
    # traced peak of 2 s at the default net on 2 workers: two 256-frame
    # blocks in flight, each holding X (the carrier) with its halo and
    # at most two of M, the separator's hidden layer and its output, as
    # M is freed before the second layer, about 13.2-13.5 MB in all; with
    # M alive through both layers it read 17.3-17.6 MB, and 512-frame
    # blocks that copied X and M read 37.6-41.6 MB
    tracemalloc = pytest.importorskip("tracemalloc")
    monkeypatch.setattr(E, "_workers", lambda blocks: min(blocks, 2))
    params = init_params(0, NetConfig())
    w = Waveform(np.random.default_rng(16).standard_normal(32000), 16000)
    tracemalloc.start()
    try:
        out = separate_full_length(w, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out) == len(w) and np.all(np.isfinite(out.samples))
    assert peak < 14.5e6, peak


def test_stride_shift_covariance_of_analysis():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(512)
    p = init_params(6, SMALL)
    base = analysis_forward(x, p)
    shifted = analysis_forward(np.concatenate([np.zeros(SMALL.stride), x]), p)
    np.testing.assert_array_equal(shifted.X.data[:, 1 : base.X.data.shape[1] + 1], base.X.data)


@pytest.mark.parametrize("cfg", [SMALL, SMALL_INDEP], ids=["shared", "independent"])
def test_full_network_gradients(cfg):
    rng = np.random.default_rng(7)
    mix = 0.5 * rng.standard_normal(512)
    target = 0.5 * rng.standard_normal(512)
    params = init_params(7, cfg)
    trim = cfg.filter_len

    def graph(t):
        kwargs = dict(
            analysis=t["analysis"], smoothing_raw=t["smoothing_raw"],
            w1=t["w1"], b1=t["b1"], w2=t["w2"], b2=t["b2"],
        )
        if cfg.weight_sharing == "independent":
            kwargs["synthesis"] = t["synthesis"]
        p = SeparatorParams(cfg, **kwargs)
        est = forward(mix, p)
        n_out = est.data.size
        return sdr_loss(est[trim : n_out - trim], E.Tensor(target[trim : n_out - trim]))

    inputs = {name: t.data.copy() for name, t in params.tensors().items()}
    _, grads = E.evaluate_with_gradient(graph, inputs, sorted(inputs))
    for name in inputs:
        fd = E.finite_difference_gradient(graph, inputs, name)
        err = E.max_relative_error(grads[name], fd)
        assert err <= 1e-4, f"{name}: {err}"


def test_shared_gradients_accumulate_from_both_banks():
    # analysis gradient in shared mode = analysis-side + synthesis-side parts
    rng = np.random.default_rng(8)
    mix = 0.5 * rng.standard_normal(512)
    params = init_params(8, SMALL)

    def graph(t):
        p = SeparatorParams(
            SMALL, analysis=t["analysis"], smoothing_raw=t["smoothing_raw"],
            w1=t["w1"], b1=t["b1"], w2=t["w2"], b2=t["b2"],
        )
        return E.sum_(E.square(forward(mix, p)))

    inputs = {name: t.data.copy() for name, t in params.tensors().items()}
    _, grads = E.evaluate_with_gradient(graph, inputs, ["analysis"])
    fd = E.finite_difference_gradient(graph, inputs, "analysis")
    assert E.max_relative_error(grads["analysis"], fd) <= 1e-4


def test_order_bases_by_dominant_frequency():
    cfg = NetConfig(components=3, filter_len=256, stride=16, hidden_units=3)
    p = init_params(0, cfg)
    fs = 16000
    t = np.arange(256) / fs
    p.analysis.data[0] = np.sin(2 * np.pi * 1000.0 * t)
    p.analysis.data[1] = np.sin(2 * np.pi * 200.0 * t)
    p.analysis.data[2] = np.sin(2 * np.pi * 100.0 * t)
    perm, freqs = order_bases_by_dominant_frequency(p, fs)
    assert abs(freqs[0] - 1000.0) <= fs / 4096
    np.testing.assert_array_equal(perm, [2, 1, 0])
    perm2, _ = order_bases_by_dominant_frequency(p, fs)
    np.testing.assert_array_equal(perm, perm2)


@pytest.mark.parametrize("rate", [0, -16000, 16000.0])
def test_order_bases_rejects_a_rate_that_is_no_positive_integer(rate):
    # a rate of 0 gave all-zero frequencies and a negative one negative frequencies
    with pytest.raises(ValueError, match="sample rates must be positive integers"):
        order_bases_by_dominant_frequency(init_params(9, SMALL), rate)


def test_export_bases_csv(tmp_path):
    p = init_params(9, SMALL)
    path = tmp_path / "bases.csv"
    export_bases_csv(p, 16000, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == SMALL.components
    freqs = [float(line.split(",")[0]) for line in lines]
    assert freqs == sorted(freqs)
    assert len(lines[0].split(",")) == 1 + SMALL.filter_len
    first = path.read_bytes()
    export_bases_csv(p, 16000, path)
    assert path.read_bytes() == first
