import sys
import threading
import time
import weakref
import zlib

import numpy as np
import pytest

from sepcost import cli
from sepcost import diff_engine as E
from sepcost.dsp import hann_periodic, octave_band_matrix
from sepcost.errors import NotScalar, ShapeError
from sepcost.losses import StoiConfig, _envelopes, sdr_loss, stoi_loss, stoi_reference
from sepcost.signal_io import SINC_TAPS, resample_plan

from reference import (
    SMALL_STOI,
    band_envelopes_reference,
    counting_pool,
    finite_difference_reference,
    minimum,
    modulation_reference,
    norm,
    plan_rows,
    remodulate_reference,
    run_on_one_blas_thread,
    softplus_reference,
    stoi_chain,
    windows,
)


def fd_check(graph, inputs, wrt, tol=1e-6):
    value, grads = E.evaluate_with_gradient(graph, inputs, wrt)
    assert np.isfinite(value)
    for name in wrt:
        numeric = E.finite_difference_gradient(graph, inputs, name)
        err = E.max_relative_error(grads[name], numeric)
        assert err <= tol, f"{name}: {err}"


def test_dot_example():
    x = E.parameter([1.0, 2.0])
    out = E.dot(x, x)
    out.backward()
    assert out.item() == 5.0
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_softplus_at_zero():
    x = E.parameter([0.0])
    out = E.sum_(E.softplus(x))
    out.backward()
    assert out.item() == pytest.approx(np.log(2.0))
    np.testing.assert_allclose(x.grad, [0.5])

    # the backward sigmoid stays finite and accurate far out in both tails
    xs = np.array([30.0, -30.0, 700.0, -700.0])
    x = E.parameter(xs)
    with np.errstate(over="raise", invalid="raise"):
        E.sum_(E.softplus(x)).backward()
    logistic = 1.0 / (1.0 + np.exp(-xs))
    np.testing.assert_allclose(x.grad, logistic, rtol=1e-13, atol=0.0)


def test_softplus_matches_logaddexp():
    # the vectorised form agrees with numpy's logaddexp to a few ulp, subnormal tail included
    z = np.concatenate([np.linspace(-760.0, 760.0, 20001), 5.0 * np.random.default_rng(25).standard_normal(2000)])
    with np.errstate(over="raise", invalid="raise"):
        out = E.softplus(E.Tensor(z)).data
    np.testing.assert_allclose(out, np.logaddexp(0.0, z), rtol=1e-15, atol=0.0)
    # a transposed (Fortran-ordered) input is not written back through a copy
    zt = z[:20000].reshape(100, 200).T
    np.testing.assert_allclose(E.softplus(E.Tensor(zt)).data, np.logaddexp(0.0, zt), rtol=1e-15, atol=0.0)


def test_fd_of_square_matches_derivative():
    graph = lambda t: E.sum_(E.square(t["x"]))
    fd = E.finite_difference_gradient(graph, {"x": np.array([3.0])}, "x", step=1e-5)
    assert abs(fd[0] - 6.0) <= 1e-8


def on_workers(monkeypatch, workers):
    monkeypatch.setattr(E, "_workers", lambda tasks: max(1, min(tasks, workers)))


def test_finite_differences_are_bitwise_the_serial_reference(monkeypatch):
    # every parameter tensor of the network gradient check (several blocks of
    # coordinates each), a 2-D input of the op table, and the SDR loss
    graph, inputs, wrt = cli._network_check_case(0)
    cases = [(graph, inputs, name) for name in wrt]
    rng = np.random.default_rng(31)
    table = lambda t: E.sum_(E.square(E.sum_(t["a"] * t["b"], axis=0)))
    cases.append((table, {"a": rng.standard_normal((5, 6)), "b": rng.standard_normal((5, 6))}, "a"))
    sdr = lambda t: sdr_loss(t["x"], t["y"])
    cases.append((sdr, {"x": rng.standard_normal(2048), "y": rng.standard_normal(2048)}, "x"))
    for graph, inputs, name in cases:
        fd = E.finite_difference_gradient(graph, inputs, name)
        assert fd.tobytes() == finite_difference_reference(graph, inputs, name).tobytes(), name
    # the STOI check stacked, its blocks in chunks on 1, 2 and 3 threads: 440
    # samples make 6 blocks, the last one short; the default case is the
    # gradient check's (`cli.gradcheck_cases("stoi", ...)`), 500 blocks
    for cfg, n, rate in ((SMALL_STOI, 440, 4400), (StoiConfig(), 4000, 10080)):
        inputs = {"x": rng.standard_normal(n), "y": rng.standard_normal(n)}
        ref = stoi_reference(inputs["y"], cfg, sample_rate=rate)
        graph = lambda t, ref=ref, cfg=cfg, rate=rate: stoi_loss(t["x"], ref, cfg, sample_rate=rate)
        expected = finite_difference_reference(graph, inputs, "x").tobytes()
        for workers in (1, 2, 3):
            on_workers(monkeypatch, workers)
            assert E.finite_difference_gradient(graph, inputs, "x", stacked=True).tobytes() == expected, (n, workers)


def row_squares(t):
    # one value per row of a stacked input
    return E.sum_(E.square(t["x"]), axis=-1)


def test_stacked_finite_differences_leave_gradients_on_and_marks_off(monkeypatch):
    # no_grad is process-wide: entered and left by each thread on its own, it
    # could stay closed after the call; every scoring thread is marked
    seen = []

    def graph(t):
        seen.append((E._grad_enabled, getattr(E._whole_products, "marked", False), threading.get_ident()))
        time.sleep(1e-4)  # lets the threads' calls interleave
        return row_squares(t)

    x = np.random.default_rng(32).standard_normal(1000)  # 31 blocks of 32 coordinates and one of 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # frequent switches; a lost gradient entry would stay 0
    try:
        for workers in (1, 2, 3):
            on_workers(monkeypatch, workers)
            for _ in range(20):
                seen.clear()
                grad = E.finite_difference_gradient(graph, {"x": x}, "x", stacked=True)
                np.testing.assert_allclose(grad, 2.0 * x, atol=1e-6)
                assert E._grad_enabled and not getattr(E._whole_products, "marked", False)
                # one call per block; the caller runs the first chunk, and a
                # pool thread that is done may take a second
                threads = {ident for _, _, ident in seen}
                assert len(seen) == 32 and threading.get_ident() in threads
                assert len(threads) == 1 if workers == 1 else 1 < len(threads) <= workers
                assert not any(enabled for enabled, _, _ in seen)
                # every scoring thread is marked, the caller alone too
                assert all(marked for _, marked, _ in seen)
    finally:
        sys.setswitchinterval(interval)


def test_stacked_finite_differences_raise_a_chunks_error_and_join_the_pool(monkeypatch):
    x = np.ones(300)  # 3 blocks
    caller = threading.get_ident()
    for fails_on_caller in (False, True):

        def graph(t):
            if (threading.get_ident() == caller) == fails_on_caller:
                raise RuntimeError("chunk failed")
            return row_squares(t)

        for workers in (2, 3):
            on_workers(monkeypatch, workers)
            threads = threading.active_count()
            with pytest.raises(RuntimeError, match="chunk failed"):
                E.finite_difference_gradient(graph, {"x": x}, "x", stacked=True)
            assert threading.active_count() == threads
            assert E._grad_enabled and not getattr(E._whole_products, "marked", False)


def test_finite_differences_start_only_their_own_pool(monkeypatch):
    # a graph with a 128 x 512 x 512 product, which splits on an unmarked thread
    w = np.random.default_rng(33).standard_normal((512, 512))
    graph = lambda t: E.sum_(E.affine_softplus(t["x"], w, np.zeros((t["x"].shape[0], 1))), axis=-1)
    x = np.random.default_rng(34).standard_normal(512)  # 8 blocks of 64 coordinates
    monkeypatch.setattr(E, "_SPLIT_FLOOR", 0)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    pool, pools = counting_pool()
    monkeypatch.setattr(E, "ThreadPoolExecutor", pool)
    results = []
    for workers in (1, 2, 3):
        on_workers(monkeypatch, workers)
        pools.clear()
        with E.no_grad():
            graph({"x": E.Tensor(np.ones((128, 512)))})
        # two column spans, one on the caller and one on a pool thread
        assert pools == ([["span", 1, 1]] if workers > 1 else [])
        pools.clear()
        results.append(E.finite_difference_gradient(graph, {"x": x}, "x", stacked=True).tobytes())
        # the oracle's own pool of w - 1 helpers, one chunk each, and no product pool
        assert pools == ([["differences", workers - 1, workers - 1]] if workers > 1 else [])
        # the serial mode starts no pool of its own
        pools.clear()
        row = lambda t: E.sum_(E.square(t["x"]))
        E.finite_difference_gradient(row, {"x": x}, "x")
        assert pools == []
    # each block's rows go through the same product on any worker count
    assert results[1] == results[0] and results[2] == results[0]


def marked():
    return getattr(E._whole_products, "marked", False)


def test_beside_yields_in_task_order_and_runs_nested_calls_in_place(monkeypatch):
    # tasks of uneven length finish out of order; each runs a nested _beside
    pool, pools = counting_pool()
    monkeypatch.setattr(E, "ThreadPoolExecutor", pool)
    delays = np.random.default_rng(35).uniform(0.0, 2e-3, 12)
    caller = threading.get_ident()

    def task(i):
        if i == fails:
            raise RuntimeError("task failed")
        time.sleep(delays[i])
        inner = list(E._beside(lambda j: (threading.get_ident(), E._grad_enabled, marked()), range(3)))
        # on the task's own thread, still marked and not recording afterwards
        assert inner == [(threading.get_ident(), False, True)] * 3
        return i, threading.get_ident(), E._grad_enabled, marked()

    for workers in (1, 2, 3):
        on_workers(monkeypatch, workers)
        threads = threading.active_count()
        fails = None
        pools.clear()
        got = list(E._beside(task, range(12)))
        assert [i for i, _, _, _ in got] == list(range(12))
        # the caller computes every w-th task, one pool of w - 1 threads the rest
        assert [ident == caller for _, ident, _, _ in got] == [i % workers == 0 for i in range(12)]
        assert pools == ([["task", workers - 1, 12 - len(range(0, 12, workers))]] if workers > 1 else [])
        assert all(not enabled and mark for _, _, enabled, mark in got)
        assert E._grad_enabled and not marked() and threading.active_count() == threads
        for fails in (0, 5):  # on the caller, and on a pool thread when w > 1
            with pytest.raises(RuntimeError, match="task failed"):
                list(E._beside(task, range(12)))
            assert E._grad_enabled and not marked() and threading.active_count() == threads


@pytest.mark.parametrize(
    "name,graph,shapes",
    [
        ("add_bcast", lambda t: E.sum_(E.square(t["a"] + t["b"])), {"a": (3, 1), "b": (3, 4)}),
        ("sub_mul", lambda t: E.sum_(E.square((t["a"] - t["b"]) * t["a"])), {"a": (8,), "b": (8,)}),
        ("div", lambda t: E.sum_(t["a"] / (t["b"] * t["b"] + 1.0)), {"a": (6,), "b": (6,)}),
        ("minimum", lambda t: E.sum_(E.square(minimum(t["a"], t["b"]))), {"a": (40,), "b": (40,)}),
        ("sum_axis", lambda t: E.sum_(E.square(E.sum_(t["a"] * t["b"], axis=0))), {"a": (5, 6), "b": (5, 6)}),
        # a one-tap modulation is floor + k * |a|, so this entry checks the |a| subgradient
        ("abs", lambda t: E.sum_(E.modulation(t["a"], t["k"], (0, 0), 0.5) * t["b"]), {"a": (2, 10), "k": (2, 1), "b": (2, 10)}),
        # |a| as a norm over a new last axis, as in the depthwise-conv composed-graph test
        ("norm_newaxis", lambda t: E.sum_(norm(t["a"][..., None], axis=-1) * t["b"]), {"a": (12,), "b": (12,)}),
        ("softplus", lambda t: E.sum_(E.square(E.softplus(t["a"]))), {"a": (15,)}),
        ("norm_axis", lambda t: E.sum_(norm(t["a"], axis=0) * t["b"]), {"a": (5, 7), "b": (7,)}),
        ("mean_keep", lambda t: E.sum_(E.square(t["a"] - E.mean(t["a"], axis=1, keepdims=True))), {"a": (4, 6)}),
        ("dot", lambda t: E.dot(t["a"], t["b"]) / (E.dot(t["a"], t["a"]) + 1.0), {"a": (16,), "b": (16,)}),
        # a dense product from slicing, broadcasting and a sum, as in the affine_softplus composed-graph test
        (
            "dense_composed",
            lambda t: E.sum_(E.square(E.sum_(t["a"][:, :, None] * t["b"][None, :, :], axis=1))),
            {"a": (3, 5), "b": (5, 4)},
        ),
        (
            "depthwise_pad",
            lambda t: E.sum_(E.square(E.modulation(t["a"], t["k"], (1, 2), 0.25)) * t["b"]),
            {"a": (3, 7), "k": (3, 4), "b": (3, 7)},
        ),
        # a clip factor of 1.5 clips some of the scaled segments
        (
            "segment_correlation",
            lambda t: E.sum_(E.segment_correlation(t["a"], t["b"], 3, 1.5, 1e-12) * t["c"]),
            {"a": (2, 3, 9), "b": (3, 9), "c": (2, 3, 7)},
        ),
        ("mean_all", lambda t: E.mean(E.square(t["a"] - t["b"])), {"a": (3, 4), "b": (3, 4)}),
        (
            "depthwise_w5",
            lambda t: E.sum_(E.square(E.modulation(t["a"], t["k"], (2, 2), 0.25)) * t["b"]),
            {"a": (3, 9), "k": (3, 5), "b": (3, 9)},
        ),
        (
            "depthwise_w1",
            lambda t: E.sum_(E.square(E.modulation(t["a"], t["k"], (0, 0), 0.25)) * t["b"]),
            {"a": (2, 6), "k": (2, 1), "b": (2, 6)},
        ),
        (
            "affine_softplus",
            lambda t: E.sum_(E.square(E.affine_softplus(t["w"], t["x"], t["b"])) * t["c"]),
            {"w": (4, 3), "x": (3, 5), "b": (4, 1), "c": (4, 5)},
        ),
        (
            "remodulate",
            # conv1d_transpose's carrier path; the divisor m * m + 0.5 stays away from zero
            lambda t: E.sum_(E.conv1d_transpose(t["h"], t["f"], 2, carrier=(t["x"], E.square(t["m"]) + 0.5)) * t["b"]),
            {"h": (3, 5), "f": (3, 4), "x": (3, 5), "m": (3, 5), "b": (12,)},
        ),
    ],
)
def test_elementwise_and_shape_ops_fd(name, graph, shapes):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    inputs = {k: rng.standard_normal(s) for k, s in shapes.items()}
    fd_check(graph, inputs, sorted(shapes))


def test_conv1d_fd_both_inputs():
    rng = np.random.default_rng(10)
    # stride 3 leaves a one-tap last block in the backward overlap-add
    for stride in (4, 3):
        inputs = {"x": rng.standard_normal(70), "f": rng.standard_normal((3, 16))}
        graph = lambda t: E.sum_(E.square(E.conv1d(t["x"], t["f"], stride=stride)))
        fd_check(graph, inputs, ["x", "f"])


def test_conv1d_with_leftover_tail_fd():
    # signal length not landing on the stride grid: tail gets zero gradient
    rng = np.random.default_rng(11)
    inputs = {"x": rng.standard_normal(77), "f": rng.standard_normal((2, 16))}
    graph = lambda t: E.sum_(E.square(E.conv1d(t["x"], t["f"], stride=4)))
    fd_check(graph, inputs, ["x", "f"])
    _, grads = E.evaluate_with_gradient(graph, inputs, ["x"])
    assert not grads["x"][-1:].any()  # 77 = 15*4 + 16 + 1 leftover


def test_conv1d_transpose_fd_both_inputs():
    rng = np.random.default_rng(12)
    inputs = {"c": rng.standard_normal((3, 9)), "f": rng.standard_normal((3, 16))}
    graph = lambda t: E.sum_(E.square(E.conv1d_transpose(t["c"], t["f"], stride=4)))
    fd_check(graph, inputs, ["c", "f"])


def test_conv1d_transpose_irregular_stride_fd():
    # taps not divisible by stride: the overlap-add's last tap block is short
    rng = np.random.default_rng(13)
    inputs = {"c": rng.standard_normal((2, 7)), "f": rng.standard_normal((2, 10))}
    graph = lambda t: E.sum_(E.square(E.conv1d_transpose(t["c"], t["f"], stride=3)))
    fd_check(graph, inputs, ["c", "f"])


def test_conv_transpose_is_conv_adjoint():
    # <conv(x), c> == <x, conv_transpose(c)> for matching shapes
    rng = np.random.default_rng(14)
    x = rng.standard_normal(64)
    f = rng.standard_normal((5, 16))
    c = rng.standard_normal((5, 13))  # L = (64-16)/4+1 = 13
    lhs = float((E.conv1d(E.Tensor(x), E.Tensor(f), 4).data * c).sum())
    rhs = float(x @ E.conv1d_transpose(E.Tensor(c), E.Tensor(f), 4).data)
    assert lhs == pytest.approx(rhs, rel=1e-12)


# 5 phases down, 125 phases down (the gradcheck rate), 5 phases up (repeated
# starts), 400 phases down (one block of 400 rows in 40 groups), and the
# large steps Q / P = 4.41 and 4.8 of 44.1 and 48 kHz (groups of 10 and 8)
GATHER_RATES = (16000, 10080, 8000, 11025, 44100, 48000)


def test_gather_linear_fd():
    rng = np.random.default_rng(15)
    for src_rate in GATHER_RATES:
        plan = resample_plan(120, src_rate, 10000)
        # one signal, and a (2, 3) stack of them along the leading dims
        for shape in ((120,), (2, 3, 120)):
            inputs = {"x": rng.standard_normal(shape)}
            graph = lambda t: E.sum_(E.square(E.gather_linear(t["x"], plan)))
            fd_check(graph, inputs, ["x"])


def test_gather_linear_rows_match_single_signals():
    rng = np.random.default_rng(20)
    for src_rate in GATHER_RATES:
        plan = resample_plan(2011, src_rate, 10000)
        xs, g = rng.standard_normal((3, 2011)), rng.standard_normal((3, plan.out_len))
        x = E.parameter(xs)
        out = E.gather_linear(x, plan)
        E.sum_(out * E.Tensor(g)).backward()
        for row in range(3):
            single = E.parameter(xs[row])
            alone = E.gather_linear(single, plan)
            E.dot(alone, E.Tensor(g[row])).backward()
            np.testing.assert_array_equal(out.data[row], alone.data)
            np.testing.assert_array_equal(x.grad[row], single.grad)


def test_gather_linear_adjoint_identity():
    # <A x, g> = <x, A^T g>; below 64 samples every row is an edge row, and
    # 1 sample gives one output row
    rng = np.random.default_rng(17)
    for n_in in (1, 5, 63, 120, 2011):
        for src_rate in GATHER_RATES:
            plan = resample_plan(n_in, src_rate, 10000)
            x = E.parameter(rng.standard_normal(n_in))
            g = rng.standard_normal(plan.out_len)
            out = E.gather_linear(x, plan)
            E.dot(out, E.Tensor(g)).backward()
            assert out.data.shape == (plan.out_len,)
            assert float(out.data @ g) == pytest.approx(float(x.data @ x.grad), rel=1e-12)
            # taps outside x read zero; edge rows match bitwise, and interior
            # rows, summed in BLAS order, within 1e-14 of the sum of their
            # terms' magnitudes; below 64 samples every row is an edge row
            start, weights = plan_rows(plan, n_in)
            taps = weights.shape[1]
            xp = np.concatenate([np.zeros(taps), x.data, np.zeros(2 * taps)])
            windows = np.array([xp[s + taps : s + 2 * taps] for s in start]).reshape(-1, taps)
            expected = np.einsum("jk,jk->j", windows, weights)
            magnitude = np.einsum("jk,jk->j", np.abs(windows), np.abs(weights))
            assert (np.abs(out.data - expected) <= 1e-14 * magnitude).all()
            np.testing.assert_array_equal(out.data[plan.edge_rows], expected[plan.edge_rows])
            if n_in < 64:
                assert plan.edge_rows.size == plan.out_len
    assert resample_plan(1, 10080, 10000).out_len == 1


def test_gather_linear_reads_the_signal_in_place():
    # A steady 16-row gather at the gradcheck rate allocates its output and
    # its padded buffer, and beyond them only the edge rows' (62, 64) tap
    # gather (31.7 KB) and einsum's buffers: a 44 KB slack. A copy of one
    # signal's frames, 32 blocks of the 188 samples a dense block of 125
    # rows spans (48.1 KB), would not fit in it.
    tracemalloc = pytest.importorskip("tracemalloc")
    plan = resample_plan(4000, 10080, 10000)
    n_groups, width, group_rows = plan.groups.shape
    assert width <= plan.stride  # one group's windows do not overlap
    n_blocks = -(-plan.out_len // (n_groups * group_rows))
    span = (n_blocks - 1) * plan.stride + (n_groups - 1) * plan.group_stride + width
    padded = max(span, plan.n_in - plan.offset, plan.edge_start.max() - plan.offset + SINC_TAPS) * 8
    out_bytes = 16 * n_blocks * n_groups * group_rows * 8
    slack = 44 * 1024
    assert slack < n_blocks * ((125 - 1) * 126 // 125 + SINC_TAPS) * 8
    xs = np.random.default_rng(21).standard_normal((16, 4000))
    with E.no_grad():
        E.gather_linear(xs, plan)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = E.gather_linear(xs, plan)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert out.data.shape == (16, 3968)
    assert peak <= out_bytes + padded + slack, (peak, out_bytes, padded)


def _signal_op(name):
    if name == "gather_linear":
        plan = resample_plan(2011, 16000, 10000)
        return lambda x: E.gather_linear(x, plan)
    bands = octave_band_matrix(SMALL_STOI.analysis_rate, SMALL_STOI.fft_len, SMALL_STOI.num_bands,
                               SMALL_STOI.lowest_center).weights
    args = (SMALL_STOI.frame_len, SMALL_STOI.fft_len, SMALL_STOI.hop, hann_periodic(SMALL_STOI.frame_len), bands)
    return lambda x: E.band_envelopes(x, *args)


@pytest.mark.parametrize("name", ["gather_linear", "band_envelopes"])
def test_signal_op_gradients_are_owned_and_stored_uncopied(monkeypatch, name):
    # the x gradient of one signal and of a (2, 3) stack owns its memory,
    # so the walk stores it without a copy; each row is bitwise the
    # signal's own
    op = _signal_op(name)
    xs = np.random.default_rng(31).standard_normal((2, 3, 2011))
    accum, seen = E._accum, []

    def spy(t, g):
        accum(t, g)
        if t._backward is None:  # the leaf x
            seen.append((g, t.grad))

    monkeypatch.setattr(E, "_accum", spy)
    grads = []
    for x in (xs[1, 2], xs):
        seen.clear()
        xt = E.parameter(x)
        E.sum_(E.square(op(xt))).backward()
        ((g, stored),) = seen
        assert g.flags.owndata and stored is g and g.shape == x.shape
        grads.append(stored)
    assert np.array_equal(grads[1][1, 2], grads[0])


def identity_bands(fft_len):
    """One band per bin: band_envelopes then gives the magnitude STFT itself.

    Bitwise so: each product sums one exact square with exact zeros, and
    sqrt(x * x) == |x| in binary64 when x * x neither overflows nor
    underflows.
    """
    return np.eye(fft_len // 2 + 1)


def test_band_envelopes_fd():
    rng = np.random.default_rng(16)
    # (63, 127, 31): odd lengths and a short last tap block; (64, 64, 32): no zero padding
    for frame_len, fft_len, hop in ((64, 128, 32), (63, 127, 31), (64, 64, 32)):
        inputs = {"x": rng.standard_normal(200)}
        win, bands = hann_periodic(frame_len), identity_bands(fft_len)
        graph = lambda t: E.sum_(E.square(E.band_envelopes(t["x"], frame_len, fft_len, hop, win, bands)))
        fd_check(graph, inputs, ["x"])


def test_band_envelopes_rejects_cropping_fft_len():
    # an fft_len below frame_len would crop every frame in the forward
    with pytest.raises(ShapeError, match="crop"):
        E.band_envelopes(E.Tensor(np.zeros(200)), 64, 48, 32, hann_periodic(64), identity_bands(48))


@pytest.mark.parametrize("hop", [0, -2])
def test_band_envelopes_rejects_hop_below_one(hop):
    with pytest.raises(ShapeError, match="hop"):
        E.band_envelopes(E.Tensor(np.zeros(200)), 4, 8, hop, hann_periodic(4), identity_bands(8))


def test_band_envelopes_rejects_mismatched_band_matrix():
    with pytest.raises(ShapeError, match="bins"):
        E.band_envelopes(E.Tensor(np.zeros(200)), 64, 128, 32, hann_periodic(64), identity_bands(64))


def test_band_envelopes_matches_rfft():
    rng = np.random.default_rng(17)
    x = rng.standard_normal(300)
    win = hann_periodic(64)
    mag = E.band_envelopes(E.Tensor(x), 64, 128, 32, win, identity_bands(128)).data
    frames = np.lib.stride_tricks.sliding_window_view(x, 64)[::32]
    ref = np.abs(np.fft.rfft(frames * win, n=128, axis=1)).T
    np.testing.assert_array_equal(mag, ref)


@pytest.mark.parametrize(
    "cfg,n",
    [(SMALL_STOI, 400), (StoiConfig(), 3968)],
)
def test_band_envelopes_bitwise_equal_to_chain(cfg, n):
    # the fused op against the unfused chain, one signal and a (2, 3, n) stack
    rng = np.random.default_rng(19)
    bands = octave_band_matrix(cfg.analysis_rate, cfg.fft_len, cfg.num_bands, cfg.lowest_center).weights
    args = (cfg.frame_len, cfg.fft_len, cfg.hop, hann_periodic(cfg.frame_len), bands)
    xs = rng.standard_normal((2, 3, n))
    xs[0, 1, :300] = 0.0  # zero envelopes and zero-magnitude bins take the subgradient 0
    n_frames = (n - cfg.frame_len) // cfg.hop + 1
    g = rng.standard_normal((2, 3, bands.shape[0], n_frames))
    x = E.parameter(xs)
    out = E.band_envelopes(x, *args)
    E.sum_(out * E.Tensor(g)).backward()
    assert out.data.shape == g.shape
    for idx in np.ndindex(2, 3):
        env, gx = band_envelopes_reference(xs[idx], *args, g[idx])
        np.testing.assert_array_equal(out.data[idx], env)
        np.testing.assert_array_equal(x.grad[idx], gx)
        single = E.parameter(xs[idx])
        alone = E.band_envelopes(single, *args)
        E.sum_(alone * E.Tensor(g[idx])).backward()
        np.testing.assert_array_equal(alone.data, env)
        np.testing.assert_array_equal(single.grad, gx)


def test_band_envelopes_without_a_tape_transform_in_blocks():
    # 60 s at 10 kHz without a tape: the padded frames and the spectrum go in
    # blocks, so the peak is the whole magnitude array, the output and a little
    # scratch (11.0 MB here; 48.7 MB with both whole); values are bitwise
    # those of the recording path, for one signal and for a stack
    tracemalloc = pytest.importorskip("tracemalloc")
    cfg = StoiConfig()
    bands = octave_band_matrix(cfg.analysis_rate, cfg.fft_len, cfg.num_bands, cfg.lowest_center).weights
    args = (cfg.frame_len, cfg.fft_len, cfg.hop, hann_periodic(cfg.frame_len), bands)
    x = np.random.default_rng(27).standard_normal(600_077)
    n_frames = (x.size - cfg.frame_len) // cfg.hop + 1
    with E.no_grad():
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = E.band_envelopes(x, *args).data
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    mag_bytes = n_frames * (cfg.fft_len // 2 + 1) * 8
    assert peak <= mag_bytes + out.nbytes + 1.5e6, (peak, mag_bytes)
    np.testing.assert_array_equal(out, E.band_envelopes(E.parameter(x), *args).data)
    stack = x[: 2 * 40_000].reshape(2, 40_000)
    with E.no_grad():
        blocked = E.band_envelopes(stack, *args).data
    np.testing.assert_array_equal(blocked, E.band_envelopes(E.parameter(stack), *args).data)


@pytest.mark.parametrize(
    "cfg,n,rate,stack",
    # with and without resampling; 20000 samples split each row's bands
    # into two blocks, and 80 rows of 30 frames fill two blocks of rows
    [
        (SMALL_STOI, 400, 4000, (2, 3)),
        (SMALL_STOI, 440, 4400, (2, 3)),
        (StoiConfig(), 20000, 10000, (2, 3)),
        (StoiConfig(), 4000, 10080, (2, 40)),
    ],
)
def test_segment_correlation_matches_generic_chain(cfg, n, rate, stack):
    # d bitwise the chain's, for one row and for a stack, and the gradients
    # of x and y through the front end within 1e-13 of the chain's
    rng = np.random.default_rng(23)
    y = rng.standard_normal(n)
    xs = y + rng.standard_normal((*stack, n))
    xs[0, 1, : n * 3 // 4] = 0.0  # zero segments take the norms' subgradient 0
    args = (cfg.segment_frames, cfg.clip_factor, 1e-12)
    for x in (xs[0, 1], xs[1, 2], xs):
        grads = []
        for op in (E.segment_correlation, stoi_chain):
            xt, yt = E.parameter(x), E.parameter(y)
            d = op(_envelopes(xt, rate, cfg), _envelopes(yt, rate, cfg), *args)
            g = np.random.default_rng(24).standard_normal(d.data.shape)
            E.sum_(d * g).backward()
            grads.append((d.data, xt.grad, yt.grad))
        (d, gx, gy), (d_chain, gx_chain, gy_chain) = grads
        np.testing.assert_array_equal(d, d_chain)
        assert E.max_relative_error(gx, gx_chain) <= 1e-13
        assert E.max_relative_error(gy, gy_chain) <= 1e-13


def test_segment_correlation_skips_a_constant_target():
    rng = np.random.default_rng(25)
    xe = E.parameter(np.abs(rng.standard_normal((2, 3, 12))))
    ye = E.Tensor(np.abs(rng.standard_normal((3, 12))))
    d = E.segment_correlation(xe, ye, 4, 1.5, 1e-12)
    assert d.data.shape == (2, 3, 9)
    assert d._parents == (xe, ye)
    assert d._backward(np.ones((2, 3, 9)))[1] is None
    with E.no_grad():
        assert not E.segment_correlation(xe, ye, 4, 1.5, 1e-12).requires_grad


def test_segment_correlation_rejects_mismatched_shapes():
    env = E.Tensor(np.ones((3, 12)))
    E.segment_correlation(env, env, 12, 1.5, 1e-12)  # exactly fits: one segment
    with pytest.raises(ShapeError, match="segments"):
        E.segment_correlation(env, env, 13, 1.5, 1e-12)
    with pytest.raises(ShapeError, match="pair"):
        E.segment_correlation(env, E.Tensor(np.ones((3, 11))), 4, 1.5, 1e-12)
    with pytest.raises(ShapeError, match="pair"):
        E.segment_correlation(env, E.Tensor(np.ones((2, 3, 12))), 4, 1.5, 1e-12)


@pytest.mark.parametrize("taps,stride", [(64, 32), (5, 3), (7, 7), (9, 1)])
def test_frames_match_sliding_window_view(taps, stride):
    # a contiguous signal, a strided slice and a zero-stride broadcast
    base = np.random.default_rng(18).standard_normal(301)
    for x in (base, base[::2], np.broadcast_to(np.float64(0.5), (140,))):
        view = E._frame_view(x, taps, stride)
        expected = np.lib.stride_tricks.sliding_window_view(x, taps)[::stride]
        np.testing.assert_array_equal(view, expected)
        assert not view.flags.writeable
        frames = E._frames(x, taps, stride)
        np.testing.assert_array_equal(frames, expected)
        assert frames.flags.c_contiguous
    # leading dims: each signal of a stack, or of a strided slice of one, frames as it would alone
    stack = np.random.default_rng(19).standard_normal((2, 3, 301))
    for xs in (stack, stack[:, ::2, ::3]):
        view = E._frame_view(xs, taps, stride)
        for idx in np.ndindex(xs.shape[:-1]):
            np.testing.assert_array_equal(view[idx], E._frame_view(xs[idx], taps, stride))


def _windows_reference(x, width, pad=(0, 0)):
    xp = np.pad(x, [(0, 0)] * (x.ndim - 1) + [pad])
    return np.swapaxes(np.lib.stride_tricks.sliding_window_view(xp, width, axis=-1), -1, -2)


@pytest.mark.parametrize(
    "shape,width,pad",
    # the last case pads past the kernel, so its first tap overlaps no column of x
    [((4, 11), 5, (2, 2)), ((1, 9), 3, (0, 1)), ((3, 7), 4, (1, 2)), ((2, 6), 1, (0, 0)), ((2, 1), 4, (3, 0))],
)
def test_depthwise_conv_matches_composed_graph(shape, width, pad):
    # modulation's depthwise convolution against a graph of generic ops: windows of
    # the padded |x| (as a norm over a length-1 axis), times the kernel, summed over taps, plus the floor
    rng = np.random.default_rng(22)
    x = rng.standard_normal(shape)
    kernel = rng.standard_normal((shape[0], width))
    n_out = shape[1] + sum(pad) - width + 1
    r = rng.standard_normal((shape[0], n_out))
    floor = 0.25

    xt, kt = E.parameter(x), E.parameter(kernel)
    out = E.modulation(xt, kt, pad, floor)
    E.sum_(out * r).backward()

    xp, kp = E.parameter(np.pad(x, [(0, 0), pad])), E.parameter(kernel)
    ref = E.sum_(windows(norm(xp[..., None], axis=-1), width) * kp[:, :, None], axis=1) + floor
    E.sum_(ref * r).backward()

    np.testing.assert_allclose(out.data, ref.data, rtol=1e-12, atol=0.0)
    frames = _windows_reference(np.abs(x), width, pad)
    np.testing.assert_allclose(out.data, (frames * kernel[:, :, None]).sum(axis=1) + floor, rtol=1e-12)
    np.testing.assert_allclose(xt.grad, xp.grad[:, pad[0] : pad[0] + shape[1]], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(kt.grad, kp.grad, rtol=1e-12, atol=0.0)


# The last case has several row blocks of modulation and of the
# re-modulation of conv1d_transpose's carrier path, the last of them short
# (checked in the test).
FRONT_END_CASES = [((4, 11), 5, (2, 2)), ((1, 9), 3, (0, 1)), ((3, 7), 4, (1, 2)), ((2, 6), 1, (0, 0)),
                   ((2, 1), 4, (3, 0)), ((69, 998), 5, (2, 2))]


@pytest.mark.parametrize("shape,width,pad", FRONT_END_CASES)
def test_modulation_is_bitwise_its_loop_reference(shape, width, pad):
    rng = np.random.default_rng(26)
    x = rng.standard_normal(shape)
    x[:, ::4] = 0.0  # sign(0) = 0: no x gradient there
    kernel = rng.uniform(0.0, 1.0, (shape[0], width))
    n_out = shape[1] + sum(pad) - width + 1
    g = rng.standard_normal((shape[0], n_out))
    rows, blocks = E._row_blocks(shape[0], max(shape[1], n_out))
    if (shape, width, pad) == FRONT_END_CASES[-1]:
        assert len(blocks) >= 3 and blocks[-1].stop - blocks[-1].start < rows

    xt, kt = E.parameter(x), E.parameter(kernel)
    out = E.modulation(xt, kt, pad, 1e-3)
    E.sum_(out * g).backward()

    ref_out, ref_gx, ref_gk = modulation_reference(x, kernel, pad, 1e-3, g)
    assert np.array_equal(out.data, ref_out)
    assert np.array_equal(xt.grad, ref_gx)
    assert np.array_equal(kt.grad, ref_gk)


@pytest.mark.parametrize("shape", [case[0] for case in FRONT_END_CASES])
def test_remodulate_is_bitwise_its_loop_reference(shape):
    # conv1d_transpose's carrier path is the plain op on the loop
    # reference's coefficients, and its coeffs, x and m gradients are the
    # reference's under the plain op's coefficient gradient
    rng = np.random.default_rng(27)
    m_hat, x = rng.standard_normal(shape), rng.standard_normal(shape)
    m = rng.uniform(1e-3, 2.0, shape)
    filters, stride = rng.standard_normal((shape[0], 8)), 4
    g = rng.standard_normal((shape[1] - 1) * stride + 8)

    ht, ft, xt, mt = (E.parameter(v) for v in (m_hat, filters, x, m))
    out = E.conv1d_transpose(ht, ft, stride, carrier=(xt, mt))
    E.sum_(out * g).backward()

    coeffs = E.parameter(remodulate_reference(m_hat, x, m, np.zeros(shape))[0])
    plain_filters = E.parameter(filters)
    plain = E.conv1d_transpose(coeffs, plain_filters, stride)
    E.sum_(plain * g).backward()
    _, ref_gh, ref_gx, ref_gm = remodulate_reference(m_hat, x, m, coeffs.grad)
    assert np.array_equal(out.data, plain.data)
    assert np.array_equal(ft.grad, plain_filters.grad)
    assert np.array_equal(ht.grad, ref_gh)
    assert np.array_equal(xt.grad, ref_gx)
    assert np.array_equal(mt.grad, ref_gm)


@pytest.mark.parametrize("shape", [(69, 998), (E._ROW_BLOCK // 998 + 1, 998), (3, 40, 998)])
def test_softplus_row_blocks_are_bitwise_the_whole_array_sequence(shape):
    # several row blocks of the last axis, the last of them short
    rng = np.random.default_rng(28)
    z = 30.0 * rng.standard_normal(shape)
    rows, blocks = E._row_blocks(z.size // shape[-1], shape[-1])
    assert len(blocks) >= 2 and blocks[-1].stop - blocks[-1].start < rows
    assert np.array_equal(E._softplus_into(z.copy()), softplus_reference(z))


def test_affine_softplus_matches_composed_graph():
    rng = np.random.default_rng(23)
    w, x, b = rng.standard_normal((5, 4)), 3.0 * rng.standard_normal((4, 6)), rng.standard_normal((5, 1))
    r = rng.standard_normal((5, 6))
    fused = [E.parameter(v) for v in (w, x, b)]
    out = E.affine_softplus(*fused)
    E.sum_(out * r).backward()
    composed = [E.parameter(v) for v in (w, x, b)]
    ref = E.softplus(E.sum_(composed[0][:, :, None] * composed[1][None, :, :], axis=1) + composed[2])
    E.sum_(ref * r).backward()
    np.testing.assert_allclose(out.data, ref.data, rtol=1e-12, atol=0.0)
    for t, t_ref in zip(fused, composed):
        np.testing.assert_allclose(t.grad, t_ref.grad, rtol=1e-12, atol=0.0)


def test_affine_softplus_saturation():
    # the sigmoid the backward forms from the output stays finite and accurate in both tails
    zs = np.array([[30.0], [-30.0], [700.0], [-700.0]])
    w, x, b = E.parameter(np.eye(4)), E.parameter(np.zeros((4, 1))), E.parameter(zs)
    with np.errstate(over="raise", invalid="raise"):
        out = E.affine_softplus(w, x, b)
        E.sum_(out).backward()
    np.testing.assert_allclose(out.data, np.logaddexp(0.0, zs), rtol=1e-15, atol=0.0)
    logistic = 1.0 / (1.0 + np.exp(-zs))
    np.testing.assert_allclose(b.grad, logistic, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(x.grad, logistic, rtol=1e-13, atol=0.0)


# the ops with row passes, on inputs of three row blocks, the last one
# short; "remodulate" is conv1d_transpose's carrier path
ROW_PASS_OPS = {
    "modulation": (lambda a: E.modulation(a[0], a[1], (2, 2), 1e-3), [(69, 998), (69, 5)]),
    "remodulate": (
        lambda a: E.conv1d_transpose(a[0], a[1], 4, carrier=(a[2], a[3])),
        [(69, 998), (69, 8), (69, 998), (69, 998)],
    ),
    "affine_softplus": (lambda a: E.affine_softplus(*a), [(69, 40), (40, 998), (69, 1)]),
}


@pytest.mark.parametrize("name", ROW_PASS_OPS)
def test_row_passes_are_bitwise_the_same_for_any_worker_count(monkeypatch, name):
    op, shapes = ROW_PASS_OPS[name]
    monkeypatch.setattr(E, "_CHUNK_FLOOR", 0)
    pool, pools = counting_pool()
    monkeypatch.setattr(E, "ThreadPoolExecutor", pool)
    rng = np.random.default_rng(36)
    values = [rng.standard_normal(shape) for shape in shapes]
    values[0][:, ::4] = 0.0  # modulation's sign(0) = 0
    if name == "remodulate":
        values[3] = rng.uniform(1e-3, 2.0, shapes[3])
    g = rng.standard_normal(op([E.Tensor(v) for v in values]).shape)
    results = []
    for workers in (1, 2, 3):
        on_workers(monkeypatch, workers)
        threads = threading.active_count()
        pools.clear()
        inputs = [E.parameter(v) for v in values]
        out = op(inputs)
        assert E._grad_enabled and not marked() and threading.active_count() == threads
        E.sum_(out * g).backward()
        assert E._grad_enabled and not marked() and threading.active_count() == threads
        results.append([out.data.tobytes()] + [t.grad.tobytes() for t in inputs])
        # each pass splits three blocks in w chunks: the caller's and one
        # task each on a pool of w - 1 threads; forward runs one pass, and
        # backward one, or two in the carrier path, which forms the
        # coefficients again before their gradients
        passes = 3 if name == "remodulate" else 2
        assert pools == ([["run_chunk", workers - 1, workers - 1]] * passes if workers > 1 else [])
    assert results[1] == results[0] and results[2] == results[0]

    # on a marked thread the passes of the forward and of the closure
    # recorded above run whole, starting no pool
    def inside(_):
        return [op([E.Tensor(v) for v in values]).data.tobytes()] + [a.tobytes() for a in out._backward(g)]

    pools.clear()
    assert list(E._beside(inside, [0])) == [results[0]] and pools == []


def test_row_pass_splits_from_its_floor_up_and_raises_a_chunks_error(monkeypatch):
    # the default net's passes are at or above the floor, the smoke net's below it
    assert 64 * 2000 < E._CHUNK_FLOOR <= 1024 * 1985
    pool, pools = counting_pool()
    monkeypatch.setattr(E, "ThreadPoolExecutor", pool)
    on_workers(monkeypatch, 2)
    blocks = [slice(i, i + 1) for i in range(6)]
    for size, expected in ((E._CHUNK_FLOOR - 1, []), (E._CHUNK_FLOOR, [["run_chunk", 1, 1]])):
        pools.clear()
        E._row_pass(lambda r, scratch: None, blocks, size, (1, 4))
        assert pools == expected, size
    monkeypatch.setattr(E, "_CHUNK_FLOOR", 0)
    caller = threading.get_ident()
    for fails_on_caller in (False, True):

        def block(r, scratch):
            if (threading.get_ident() == caller) == fails_on_caller:
                raise RuntimeError("chunk failed")

        for workers in (2, 3):
            on_workers(monkeypatch, workers)
            threads = threading.active_count()
            with pytest.raises(RuntimeError, match="chunk failed"):
                E._row_pass(block, blocks, len(blocks), (1, 4))
            assert threading.active_count() == threads
            assert E._grad_enabled and not marked()


def _accum_always_copying(t, g):
    if g is None or not t.requires_grad:
        return
    g = E._unbroadcast(np.asarray(g, dtype=np.float64), t.data.shape)
    t.grad = g.copy() if t.grad is None else t.grad + g


@pytest.mark.parametrize(
    "graph",
    [lambda x, y: E.sum_(x + y), lambda x, y: E.sum_(x * 2.0) + E.sum_(x) + E.sum_(y * x)],
    ids=["add_both", "sum_of_sums"],
)
def test_leaf_gradients_own_their_memory(graph, monkeypatch):
    # add hands one array to both parents and sum_ a read-only broadcast view;
    # neither may end up shared between two .grad fields
    rng = np.random.default_rng(24)
    xv, yv = rng.standard_normal(6), rng.standard_normal(6)

    def run():
        x, y = E.parameter(xv), E.parameter(yv)
        graph(x, y).backward()
        return x.grad, y.grad

    gx, gy = run()
    assert not np.shares_memory(gx, gy)
    assert gx.flags.writeable and gy.flags.writeable
    monkeypatch.setattr(E, "_accum", _accum_always_copying)
    rx, ry = run()
    assert gx.tobytes() == rx.tobytes() and gy.tobytes() == ry.tobytes()


def test_in_place_gradients_are_bitwise_the_copying_walk(monkeypatch):
    # m, h and the leaf x receive three gradients each; modulation and
    # affine_softplus write into the g the walk hands them, the carrier
    # path of conv1d_transpose writes the h gradient over its own product,
    # and affine_softplus, its floor lowered to 0, writes its x gradient
    # over g * sigmoid
    monkeypatch.setattr(E, "_SPLIT_FLOOR", 0)
    rng = np.random.default_rng(27)
    values = [rng.standard_normal(shape) for shape in ((6, 40), (6, 5), (6, 6), (6, 1), (6, 8))]

    def run():
        x, k, w, b, f = leaves = [E.parameter(v) for v in values]
        m = E.modulation(x, k, (2, 2), 1e-3)
        h = E.affine_softplus(w, m, b)
        synthesis = E.conv1d_transpose(h, f, 4, carrier=(x, m))
        loss = E.sum_(E.square(synthesis)) + E.sum_(E.affine_softplus(w, h, b) * m) + E.sum_(h * x)
        loss.backward()
        first = [t.grad for t in leaves]
        held = [a.copy() for a in first]
        loss.backward()
        # a second walk adds into new leaf arrays, leaving the ones held unchanged
        assert all(a.tobytes() == c.tobytes() for a, c in zip(first, held))
        assert all(t.grad is not a for t, a in zip(leaves, first))
        return [a.tobytes() for a in held] + [t.grad.tobytes() for t in leaves]

    result = run()
    monkeypatch.setattr(E, "_accum", _accum_always_copying)
    monkeypatch.setattr(E, "_owned", lambda g, like: np.empty_like(like))
    assert run() == result


@pytest.mark.parametrize("name", ROW_PASS_OPS)
def test_closures_writing_into_g_match_a_read_only_g_bitwise(name):
    op, shapes = ROW_PASS_OPS[name]
    rng = np.random.default_rng(28)
    values = [rng.standard_normal(shape) for shape in shapes]
    if name == "remodulate":
        values[3] = rng.uniform(1e-3, 2.0, shapes[3])
    out = op([E.parameter(v) for v in values])
    g = rng.standard_normal(out.shape)
    read_only = g.copy()
    read_only.setflags(write=False)
    expected = [a.tobytes() for a in out._backward(read_only)]
    # a writeable view does not own its data, so it is left alone too
    base = g.copy()
    assert [a.tobytes() for a in out._backward(base[...])] == expected
    assert base.tobytes() == g.tobytes()
    owned = g.copy()
    grads = out._backward(owned)
    assert [a.tobytes() for a in grads] == expected
    # modulation and affine_softplus wrote an output gradient into the
    # owned g, and modulation hands it back as its first parent's; the
    # carrier path's g is a waveform's, which no gradient it forms fits
    assert (owned.tobytes() != g.tobytes()) == (name != "remodulate")
    assert (grads[0] is owned) == (name == "modulation")


def test_backward_keeps_only_leaf_gradients():
    x = E.parameter([1.0, 3.0])
    y = x * x  # one parameter used twice
    out = E.sum_(y)
    out.backward()
    np.testing.assert_array_equal(x.grad, [2.0, 6.0])
    assert y.grad is None and out.grad is None

    # the walk keeps the tape: a second backward adds one more gradient into each leaf
    x = E.parameter([1.0, 3.0])
    out = E.sum_(x * 2.0)
    out.backward()
    out.backward()
    np.testing.assert_array_equal(x.grad, [4.0, 4.0])


def test_backward_frees_an_added_in_gradient_before_the_next_closure():
    # t receives two fresh gradients: the first becomes t.grad, the second
    # is added into it and is garbage from then on, so it must be gone
    # when the next closure (t's own) runs
    x = E.parameter(np.arange(4.0))
    emitted, alive = [], []

    def emit(g):
        pg = np.array(g) * 3.0
        emitted.append(weakref.ref(pg))
        return (pg,)

    def spy(g):
        alive.append([ref() is not None for ref in emitted])
        return (g,)

    t = E._result(x.data.copy(), (x,), spy)
    a, b = E._result(t.data.copy(), (t,), emit), E._result(t.data.copy(), (t,), emit)
    E.sum_(a + b).backward()
    # the first is the g that t's closure receives
    assert alive == [[True, False]]
    np.testing.assert_array_equal(x.grad, np.full(4, 6.0))


def test_getitem_takes_basic_keys_only():
    # a fancy key may read an element twice, and backward's scatter would keep one of its gradients
    x = E.parameter(np.arange(24.0).reshape(2, 3, 4))
    for key in (np.array([0, 0, 1]), [0, 0, 1], np.array([True, False]), True, np.True_, (slice(None), np.array([1])),
                (0, [1, 1])):
        with pytest.raises(IndexError, match="basic slices"):
            x[key]
    # each basic key reads numpy's values, and each entry's gradient is the sum of g over the reads of it
    index = np.arange(x.data.size).reshape(x.data.shape)
    rng = np.random.default_rng(36)
    for key in (1, np.int64(-1), slice(1, None), (Ellipsis, None, slice(0, 4, 2)), (0, slice(None), 2), ()):
        x.zero_grad()
        out = x[key]
        assert out.data.tobytes() == x.data[key].tobytes()
        g = rng.standard_normal(out.data.shape)
        E.sum_(out * g).backward()
        expected = np.zeros(x.data.size)
        np.add.at(expected, index[key].ravel(), g.ravel())
        np.testing.assert_array_equal(x.grad, expected.reshape(x.data.shape))


def test_minimum_tie_goes_to_first():
    a = E.parameter([1.0, 2.0])
    b = E.parameter([1.0, 5.0])
    out = E.sum_(minimum(a, b) * 3.0)
    out.backward()
    np.testing.assert_array_equal(a.grad, [3.0, 3.0])
    np.testing.assert_array_equal(b.grad, [0.0, 0.0])


def test_determinism_bitwise():
    rng = np.random.default_rng(18)
    inputs = {"x": rng.standard_normal(257), "f": rng.standard_normal((4, 32))}

    def graph(t):
        c = E.conv1d(t["x"], t["f"], stride=8)
        return E.sum_(E.square(c)) / (norm(t["x"]) + 1.0)

    v1, g1 = E.evaluate_with_gradient(graph, inputs, ["x", "f"])
    v2, g2 = E.evaluate_with_gradient(graph, inputs, ["x", "f"])
    assert v1 == v2
    np.testing.assert_array_equal(g1["x"], g2["x"])
    np.testing.assert_array_equal(g1["f"], g2["f"])


def test_gradient_linearity_exact():
    rng = np.random.default_rng(19)
    x = rng.standard_normal(50)
    f = lambda t: E.dot(t["x"], t["x"])
    g = lambda t: E.sum_(t["x"])
    combined = lambda t: 3.0 * f(t) + 0.5 * g(t)
    _, gc = E.evaluate_with_gradient(combined, {"x": x}, ["x"])
    _, gf = E.evaluate_with_gradient(f, {"x": x}, ["x"])
    _, gg = E.evaluate_with_gradient(g, {"x": x}, ["x"])
    np.testing.assert_array_equal(gc["x"], 3.0 * gf["x"] + 0.5 * gg["x"])


def test_non_scalar_output_rejected():
    with pytest.raises(NotScalar):
        E.evaluate_with_gradient(lambda t: t["x"] * 2.0, {"x": np.zeros(3)}, ["x"])
    with pytest.raises(NotScalar):
        E.Tensor(np.zeros(3)).item()


def test_shape_errors():
    with pytest.raises(ShapeError):
        E.dot(E.Tensor([1.0, 2.0]), E.Tensor([1.0]))
    with pytest.raises(ShapeError):
        E.conv1d(E.Tensor(np.zeros(8)), E.Tensor(np.zeros((1, 16))), 2)
    E.modulation(E.Tensor(np.zeros((2, 3))), E.Tensor(np.zeros((2, 5))), (1, 1), 1.0)  # exactly fits
    with pytest.raises(ShapeError):
        E.modulation(E.Tensor(np.zeros((2, 3))), E.Tensor(np.zeros((2, 6))), (1, 1), 1.0)
    with pytest.raises(ShapeError):
        E.modulation(E.Tensor(np.zeros((2, 3))), E.Tensor(np.zeros((3, 1))), (0, 0), 1.0)
    with pytest.raises(ShapeError):
        E.modulation(E.Tensor(np.zeros(3)), E.Tensor(np.zeros((1, 1))), (0, 0), 1.0)
    ones, filters = E.Tensor(np.ones((2, 3))), E.Tensor(np.ones((2, 4)))
    E.conv1d_transpose(ones, filters, 2, carrier=(ones, ones))  # fits
    with pytest.raises(ShapeError):
        E.conv1d_transpose(ones, filters, 2, carrier=(ones, E.Tensor(np.ones((2, 4)))))
    with pytest.raises(ShapeError):
        E.conv1d_transpose(ones, filters, 2, carrier=(E.Tensor(np.ones((2, 4))), ones))
    with pytest.raises(ShapeError):
        E.conv1d_transpose(E.Tensor(np.ones((2, 4))), filters, 2, carrier=(ones, ones))
    with pytest.raises(ShapeError):
        E.conv1d_transpose(E.Tensor(np.ones(3)), filters, 2, carrier=(E.Tensor(np.ones(3)), E.Tensor(np.ones(3))))
    with pytest.raises(ShapeError):
        E.affine_softplus(E.Tensor(np.zeros((2, 3))), E.Tensor(np.zeros((3, 4))), E.Tensor(np.zeros(2)))
    with pytest.raises(ShapeError):
        E.affine_softplus(E.Tensor(np.zeros((2, 3))), E.Tensor(np.zeros((2, 4))), E.Tensor(np.zeros((2, 1))))
    plan = resample_plan(8, 16000, 10000)
    E.gather_linear(E.Tensor(np.zeros(8)), plan)  # fits
    E.gather_linear(E.Tensor(np.zeros((2, 8))), plan)  # so do leading dims
    with pytest.raises(ShapeError):
        E.gather_linear(E.Tensor(np.zeros(9)), plan)
    with pytest.raises(ShapeError):
        E.gather_linear(E.Tensor(np.zeros((2, 4))), plan)
    with pytest.raises(ShapeError):
        E.gather_linear(E.Tensor(np.float64(0.0)), plan)
    with pytest.raises(ShapeError):
        E.gather_linear(E.Tensor(np.zeros(8)), plan._replace(edge_start=plan.edge_start[:-1]))
    with pytest.raises(ShapeError):
        E.gather_linear(E.Tensor(np.zeros(8)), plan._replace(edge_weights=plan.edge_weights[:-1]))
    with pytest.raises(ShapeError):
        E.gather_linear(E.Tensor(np.zeros(8)), plan._replace(edge_start=plan.edge_start + plan.offset - 1))
    with pytest.raises(ShapeError, match="overlap"):
        E.gather_linear(E.Tensor(np.zeros(8)), plan._replace(stride=plan.groups.shape[1] - 1))


def test_no_grad_suppresses_recording():
    with E.no_grad():
        x = E.parameter([1.0])
        y = E.square(x)
    assert not x.requires_grad
    assert not y.requires_grad


def test_constant_folding():
    x = E.Tensor([1.0, 2.0])  # constant
    y = E.square(x)
    assert not y.requires_grad and y._parents == ()
    p = E.parameter([1.0, 2.0])
    z = E.square(p)
    assert z.requires_grad and len(z._parents) == 1
    # a closure returns None for a constant parent it skips
    c = E.conv1d(E.Tensor(np.arange(8.0)), E.parameter(np.ones((2, 4))), 2)
    x_grad, f_grad = c._backward(np.ones_like(c.data))
    assert x_grad is None and f_grad.shape == (2, 4)


@pytest.mark.parametrize("name", ["mul", "div", "sub", "minimum", "dot"])
def test_closures_skip_constant_parents(name):
    # a closure forms no gradient for a constant parent, and the other
    # parent's is bitwise the one it forms when both need one
    op = minimum if name == "minimum" else getattr(E, name)
    rng = np.random.default_rng(32)
    a, b = rng.standard_normal(6), rng.uniform(0.5, 2.0, 6)
    a[1] = b[1]  # a tie in minimum
    g = rng.standard_normal(() if name == "dot" else 6)
    both = op(E.parameter(a), E.parameter(b))._backward(g.copy())
    for const in (0, 1):
        parents = [E.parameter(a), E.parameter(b)]
        parents[const] = E.Tensor(parents[const].data)
        grads = op(*parents)._backward(g.copy())
        assert grads[const] is None
        assert grads[1 - const].tobytes() == both[1 - const].tobytes()


# m * k is kept above 3906, so a span of 256 columns holds more than the
# 10^6 multiply-adds below which OpenBLAS switches to separate small-matrix
# kernels; _SPLIT_FLOOR keeps every span of a real split far above that
@pytest.mark.parametrize("layout", ["frames.T", "frames", "C", "x.T", "w.T"])
def test_product_is_bitwise_a_at_b_for_any_worker_count(layout):
    failures = run_on_one_blas_thread(
        f"""
        import json
        import numpy as np
        from sepcost import diff_engine as E
        from reference import counting_pool

        E.ThreadPoolExecutor, pools = counting_pool()

        def operands(layout, m, k, n, rng):
            # (a, b) in the layouts the dense call sites pass to _product
            a = rng.standard_normal((m, k))
            if layout == "frames.T":  # conv1d forward, conv1d_transpose coefficient gradient
                return a, E._frames(rng.standard_normal(k + (n - 1) * 3), k, 3).T
            if layout == "frames":  # conv1d and conv1d_transpose filter gradients
                return a, E._frames(rng.standard_normal(k + n - 1), n, 1)
            b = rng.standard_normal((k, n))
            if layout == "C":  # affine_softplus forward
                return a, b
            if layout == "x.T":  # the w gradient of affine_softplus
                return a, np.ascontiguousarray(b.T).T
            return np.ascontiguousarray(a.T).T, b  # "w.T": fv.T and wv.T

        failures = []
        m, k = 40, 128
        # n = 1, 2, 300 and 511 give one span on any worker count, 512 and
        # 777 two at most; split in 128 + 172, 300 would change its last
        # 4 columns, since their kernel path depends on the call's width
        for n in (1, 2, 300, 511, 512, 777, 1985):
            a, b = operands({layout!r}, m, k, n, np.random.default_rng(n))
            for workers in (1, 2, 3):
                E._workers = lambda tasks: max(1, min(tasks, workers))
                expected = min(workers, n // E._MIN_SPAN)
                # just below the floor, then at it
                for floor, split in ((m * k * n + 1, False), (m * k * n, expected > 1)):
                    E._SPLIT_FLOOR = floor
                    pools.clear()
                    got = E._product(a, b)
                    # the caller's span and one pool of a thread per other span, or none
                    if not np.array_equal(got, a @ b) or pools != ([["span", expected - 1, expected - 1]] if split else []):
                        failures.append([n, workers, floor, pools[:]])
        print(json.dumps(failures))
        """
    )
    assert failures == []


def test_product_over_b_is_bitwise_a_at_b_for_any_worker_count():
    failures = run_on_one_blas_thread(
        """
        import json
        import numpy as np
        from sepcost import diff_engine as E
        from reference import counting_pool

        E.ThreadPoolExecutor, pools = counting_pool()
        failures = []
        k = 128
        a = np.ascontiguousarray(np.random.default_rng(0).standard_normal((k, k)).T).T  # wv.T
        # 1 and 200 columns are one block of their own width; 300, 511 and
        # 777 one span of blocks of 256 columns whose last block is wider,
        # at most 511; 1985, the default net's width, splits in up to 3
        # spans of such blocks
        for n in (1, 200, 300, 511, 777, 1985):
            b = np.random.default_rng(n).standard_normal((k, n))
            for workers in (1, 2, 3):
                E._workers = lambda tasks: max(1, min(tasks, workers))
                spans = max(1, min(workers, n // E._MIN_SPAN))
                # just below the floor a new a @ b, at it a @ b over b
                for floor, over in ((k * k * n + 1, False), (k * k * n, True)):
                    E._SPLIT_FLOOR = floor
                    pools.clear()
                    given = b.copy()
                    got = E._product(a, given, over_b=True)
                    ok = np.array_equal(got, a @ b) and (got is given) == over
                    ok &= over or np.array_equal(given, b)
                    # the caller's span and one pool of a thread per other span, or none
                    ok &= pools == ([["span", spans - 1, spans - 1]] if over and spans > 1 else [])
                    # inside _beside the product is one span of blocks, with no pool
                    pools.clear()
                    given = b.copy()
                    (inside,) = E._beside(lambda _: E._product(a, given, over_b=True), [0])
                    ok &= np.array_equal(inside, a @ b) and (inside is given) == over and pools == []
                    if not ok:
                        failures.append([n, workers, floor])
        print(json.dumps(failures))
        """
    )
    assert failures == []


def test_product_splits_from_its_floor_up_on_a_single_threaded_blas(monkeypatch):
    # the default net's products are far above the floor, the smoke net's below it
    assert 64 * 128 * 2000 < E._SPLIT_FLOOR < 1024 * 1024 * 1985
    monkeypatch.setattr(E, "_workers", lambda tasks: max(1, min(tasks, 2)))
    pool, pools = counting_pool()
    monkeypatch.setattr(E, "ThreadPoolExecutor", pool)
    rng = np.random.default_rng(30)
    a, b = rng.standard_normal((40, 128)), rng.standard_normal((128, 600))
    macs = 40 * 128 * 600
    for var in E._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    # the pool's tasks: the caller takes the first of two spans
    for floor, blas_threads, expected in (
        (macs + 1, "1", []),
        (macs, "1", [1]),
        (macs, "2", []),  # a multi-threaded BLAS partitions the product itself
        (macs, None, []),  # so does one left to choose its thread count
    ):
        monkeypatch.setattr(E, "_SPLIT_FLOOR", floor)
        if blas_threads is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)
        pools.clear()
        assert E._product(a, b).shape == (40, 600)
        assert [tasks for _, _, tasks in pools] == expected, (floor, blas_threads)

