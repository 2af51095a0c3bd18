import builtins
import errno
import math
import os
import struct

import numpy as np
import pytest

from sepcost import diff_engine as E
from sepcost import signal_io
from sepcost.diff_engine import gather_linear
from sepcost.errors import CorruptFile, IoError, ShapeError, SilentSignal, UnsupportedFormat
from sepcost.signal_io import (
    KAISER_BETA,
    SINC_TAPS,
    Waveform,
    mix_at_snr,
    read_wav,
    resample,
    resample_plan,
    write_wav,
)

from reference import plan_rows


def make_wav_bytes(payload: bytes, fmt_tag=1, channels=1, rate=16000, bits=16) -> bytes:
    block = channels * bits // 8
    return (
        b"RIFF"
        + struct.pack("<I", 36 + len(payload))
        + b"WAVE"
        + b"fmt "
        + struct.pack("<IHHIIHH", 16, fmt_tag, channels, rate, rate * block, block, bits)
        + b"data"
        + struct.pack("<I", len(payload))
        + payload
    )


def test_pcm16_scaling(tmp_path):
    path = tmp_path / "a.wav"
    path.write_bytes(make_wav_bytes(struct.pack("<3h", 0, 16384, -32768)))
    w = read_wav(path)
    assert w.sample_rate == 16000
    np.testing.assert_array_equal(w.samples, [0.0, 0.5, -1.0])


def test_stereo_averaged_to_mono(tmp_path):
    path = tmp_path / "st.wav"
    path.write_bytes(make_wav_bytes(struct.pack("<2h", 32768 // 2, 0), channels=2))
    w = read_wav(path)
    assert len(w) == 1
    assert w.samples[0] == pytest.approx(0.25, abs=1e-4)


def test_float32_read(tmp_path):
    path = tmp_path / "f.wav"
    vals = np.array([0.25, -0.5, 1.0], dtype="<f4")
    path.write_bytes(make_wav_bytes(vals.tobytes(), fmt_tag=3, bits=32))
    w = read_wav(path)
    np.testing.assert_allclose(w.samples, [0.25, -0.5, 1.0], atol=1e-7)


def test_write_quantization(tmp_path):
    path = tmp_path / "q.wav"
    write_wav(Waveform(np.array([0.0]), 8000), path)
    assert struct.unpack("<h", path.read_bytes()[-2:])[0] == 0
    write_wav(Waveform(np.array([2.0]), 8000), path)
    assert struct.unpack("<h", path.read_bytes()[-2:])[0] == 32767
    write_wav(Waveform(np.array([-1.0]), 8000), path)
    assert struct.unpack("<h", path.read_bytes()[-2:])[0] == -32768


def test_write_wav_converts_in_blocks(tmp_path):
    # the PCM bytes of the whole-array conversion, across block boundaries
    # and past full scale, from a write that holds the int16 payload and one
    # block of float64 scratch: 0.93 MB here, where the whole-array chain
    # and its bytes copy read 3.15 MB
    tracemalloc = pytest.importorskip("tracemalloc")
    n = 3 * signal_io.WRITE_BLOCK + 123
    x = 1.2 * np.random.default_rng(28).uniform(-1.0, 1.0, n)
    x[:4] = np.array([0.5, -0.5, 1.5, 32767.5]) / 32768.0  # ties round to even
    path = tmp_path / "blocks.wav"
    w = Waveform(x, 16000)
    tracemalloc.start()
    try:
        write_wav(w, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    data = path.read_bytes()
    expected = np.clip(np.rint(np.clip(x, -1.0, 1.0) * 32768.0), -32768, 32767).astype("<i2")
    assert data[44:] == expected.tobytes()
    assert struct.unpack("<I", data[40:44]) == (2 * n,)
    assert struct.unpack("<I", data[4:8]) == (36 + 2 * n,)
    assert peak <= 2 * n + 8 * signal_io.WRITE_BLOCK + 50_000, peak


class _FullAfterFirstWrite:
    """File stand-in that takes its first write, then fails as a full disk would."""

    def __init__(self, path, mode="r"):
        self.fh, self.writes = builtins.open(path, mode), 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self.fh.write(data)


def test_failed_write_keeps_the_previous_wav(tmp_path, monkeypatch):
    # the header chunk goes through, the payload fails: the old file must
    # stay byte for byte, and no temporary file may be left beside it
    path = tmp_path / "out.wav"
    write_wav(Waveform(np.linspace(-0.5, 0.5, 101), 8000), path)
    before = path.read_bytes()
    monkeypatch.setattr(signal_io, "open", _FullAfterFirstWrite, raising=False)
    with pytest.raises(IoError, match="out.wav"):
        write_wav(Waveform(np.linspace(0.5, -0.5, 77), 16000), path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.wav"]


def test_round_trip_within_half_lsb(tmp_path):
    rng = np.random.default_rng(0)
    for trial in range(5):
        x = rng.uniform(-1.0, 1.0, size=977)
        x[:3] = [1.0, -1.0, 0.0]  # include the clamp boundary
        path = tmp_path / f"rt{trial}.wav"
        write_wav(Waveform(x, 16000), path)
        back = read_wav(path)
        assert back.sample_rate == 16000
        assert np.abs(back.samples - x).max() <= 1.0 / 32768.0


def test_read_rejects_non_wave(tmp_path):
    path = tmp_path / "nope.wav"
    path.write_bytes(b"OggS" + bytes(64))
    with pytest.raises(UnsupportedFormat):
        read_wav(path)


def test_read_rejects_unknown_codec(tmp_path):
    path = tmp_path / "alaw.wav"
    path.write_bytes(make_wav_bytes(bytes(8), fmt_tag=6))
    with pytest.raises(UnsupportedFormat):
        read_wav(path)


def test_read_rejects_truncated(tmp_path):
    path = tmp_path / "trunc.wav"
    blob = make_wav_bytes(struct.pack("<4h", 1, 2, 3, 4))
    path.write_bytes(blob[:-5])
    with pytest.raises(CorruptFile):
        read_wav(path)


def test_resample_identity():
    rng = np.random.default_rng(1)
    w = Waveform(rng.standard_normal(500), 16000)
    r = resample(w, 16000)
    np.testing.assert_array_equal(r.samples, w.samples)
    assert r.samples is not w.samples


def test_resample_sinusoid_oracle():
    # analytic target: the same sinusoid sampled on the new grid
    fs, fd, f0 = 16000, 10000, 1000.0
    t = np.arange(1600) / fs
    w = Waveform(np.sin(2 * np.pi * f0 * t), fs)
    r = resample(w, fd)
    assert len(r) == round(1600 * fd / fs)
    ref = np.sin(2 * np.pi * f0 * np.arange(len(r)) / fd)
    assert np.abs(r.samples[64:-64] - ref[64:-64]).max() < 1e-3


PLAN_RATES = [(16000, 10000), (10080, 10000), (16000, 11025), (44100, 16000), (8000, 10000)]
STANDARD_RATES = [8000, 10000, 10080, 11025, 12000, 16000, 22050, 24000, 32000, 44100, 48000, 88200, 96000]


def test_resample_dc_preserved():
    for src_rate, dst_rate in PLAN_RATES:
        w = Waveform(np.full(2 * src_rate + 5, 0.37), src_rate)
        _, weights = plan_rows(resample_plan(len(w), src_rate, dst_rate), len(w))
        # every row, the edge rows with masked out-of-range taps included
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, rtol=0, atol=1e-14)
        assert np.abs(resample(w, dst_rate).samples - 0.37).max() < 1e-14


def test_resample_duration_preserved():
    rng = np.random.default_rng(2)
    for fd in (8000, 10000, 22050, 44100):
        w = Waveform(rng.standard_normal(4321), 16000)
        r = resample(w, fd)
        assert abs(r.duration - w.duration) <= 1.0 / fd


def _float_position_start(n_in, src_rate, dst_rate):
    """Unclipped first tap from the float source position j * (src / dst)."""
    out_len = int(round(n_in * dst_rate / src_rate))
    return np.floor(np.arange(out_len) * (src_rate / dst_rate)).astype(np.int64) - SINC_TAPS // 2 + 1


@pytest.mark.parametrize("src_rate,dst_rate", PLAN_RATES)
def test_resample_plan_idx_matches_float_positions(src_rate, dst_rate):
    # the first-tap index of each row, negative or past the end near the edges
    n_in = 3 * src_rate + 17
    plan = resample_plan(n_in, src_rate, dst_rate)
    start, weights = plan_rows(plan, n_in)
    np.testing.assert_array_equal(start, _float_position_start(n_in, src_rate, dst_rate))
    assert start.shape == (plan.out_len,) and weights.shape == (plan.out_len, SINC_TAPS)
    assert start[0] < 0 and start[-1] + SINC_TAPS > n_in
    # the edge rows are exactly the rows whose taps overrun x
    overrun = np.flatnonzero((start < 0) | (start + SINC_TAPS > n_in))
    np.testing.assert_array_equal(plan.edge_rows, overrun)
    assert plan.edge_start.dtype == np.int64 and plan.edge_rows.dtype == np.int64
    for a in (plan.groups, plan.edge_rows, plan.edge_start, plan.edge_weights):
        assert not a.flags.writeable


def _per_length_bytes(plan):
    return plan.edge_rows.nbytes + plan.edge_start.nbytes + plan.edge_weights.nbytes


# Each pair's grouped layout: (groups, window width, rows per group, block
# stride, group stride). A block holds groups * rows-per-group outputs.
PINNED_LAYOUTS = {
    (16000, 10000): (5, 78, 10, 80, 16),
    (10080, 10000): (5, 88, 25, 126, 25),
    (16000, 11025): (49, 78, 9, 640, 13),
    (44100, 16000): (20, 84, 8, 441, 22),
    (8000, 10000): (9, 71, 10, 72, 8),
}


@pytest.mark.parametrize("src_rate,dst_rate", PLAN_RATES)
def test_resample_plan_bytes_pinned(src_rate, dst_rate):
    # the per-length part (the edge rows) is flat in length: 2 s and 60 s
    short = resample_plan(2 * src_rate + 5, src_rate, dst_rate)
    long = resample_plan(60 * src_rate + 5, src_rate, dst_rate)
    assert _per_length_bytes(short) == _per_length_bytes(long) < 100_000
    # one grouped plan per rate pair: a block of R = m * P rows in groups of
    # G rows, stride m * Q and group stride floor(G * Q / P), and each window
    # no wider than the stride, so BLAS reads a group's windows in place
    assert long.groups is short.groups
    n_groups, width, group_rows, stride, group_stride = PINNED_LAYOUTS[src_rate, dst_rate]
    assert short.groups.shape == (n_groups, width, group_rows)
    assert short.groups.nbytes == n_groups * width * group_rows * 8
    assert (short.stride, short.group_stride) == (stride, group_stride)
    g = math.gcd(src_rate, dst_rate)
    p, q = dst_rate // g, src_rate // g
    rows = n_groups * group_rows
    assert rows % p == 0 and rows >= 32 and group_rows >= 8
    assert stride == rows // p * q and group_stride == group_rows * q // p
    assert width <= stride


def _group_width(p, q, rows, group_rows):
    """Window width of groups of group_rows rows: the last tap any row reads, from its group's start."""
    r = np.arange(rows)
    first = r * q // p - r // group_rows * (group_rows * q // p)
    return int(first.max()) + SINC_TAPS


@pytest.mark.parametrize("dst_rate", [10000, 16000])
def test_resample_plan_groups_follow_the_rule(dst_rate):
    # m is the smallest integer with R = m * P >= 32 rows that has an in-place
    # group (G >= 8 dividing R, width <= m * Q); G is the largest of those
    # with a window of at most 1.5 kernels, or else has the narrowest window,
    # the larger G on a tie
    for src_rate in STANDARD_RATES:
        plan = resample_plan(1000, src_rate, dst_rate)
        g = math.gcd(src_rate, dst_rate)
        p, q = dst_rate // g, src_rate // g
        candidates, m = [], -(-32 // p)
        while not candidates:
            rows = m * p
            for k in range(8, rows + 1):
                if rows % k == 0 and _group_width(p, q, rows, k) <= m * q:
                    candidates.append((_group_width(p, q, rows, k), k))
            m += 1
        narrow = [c for c in candidates if c[0] <= 96]
        if narrow:
            width, group_rows = max(narrow, key=lambda c: c[1])
        else:
            width, group_rows = min(candidates, key=lambda c: (c[0], -c[1]))
        assert plan.groups.shape == (rows // group_rows, width, group_rows), (src_rate, dst_rate)
        assert plan.stride == rows // p * q


def test_resample_plan_phase_matrix_size_limit():
    # 44100 -> 10007 Hz has a 10007-row block whose dense band would span
    # 10007 x 44163 entries: every row is an edge row, summed per row as the
    # oracle does
    rng = np.random.default_rng(10007)
    x = rng.standard_normal(4410)
    plan = resample_plan(x.size, 44100, 10007)
    assert plan.groups.shape == (1, 1, 1)
    assert plan.out_len == 1001
    np.testing.assert_array_equal(plan.edge_rows, np.arange(plan.out_len))
    start, weights = plan_rows(plan, x.size)
    np.testing.assert_array_equal(start, np.arange(plan.out_len) * 44100 // 10007 - SINC_TAPS // 2 + 1)
    g = rng.standard_normal(plan.out_len)
    xt = E.parameter(x)
    out = gather_linear(xt, plan)
    E.dot(out, E.Tensor(g)).backward()
    ref_out, ref_grad = _index_array_gather(x, start, weights, g)
    np.testing.assert_array_equal(out.data, ref_out)
    assert np.abs(xt.grad - ref_grad).max() <= 1e-14 * np.abs(ref_grad).max()
    np.testing.assert_allclose(weights.sum(axis=1), 1.0, rtol=1e-14)
    largest = 0
    for src_rate in STANDARD_RATES:
        for dst_rate in STANDARD_RATES:
            plan = resample_plan(1000, src_rate, dst_rate)
            n_groups, width, group_rows = plan.groups.shape
            assert n_groups * group_rows >= 32 and width <= plan.stride
            largest = max(largest, plan.groups.size)
    assert largest == 5 * 94 * 256  # 11025 -> 96000 Hz
    assert largest <= 1 << 20


def test_fallback_pair_caches_no_grid_and_matches_it_bitwise():
    # the fallback is decided from P and Q alone, so such a pair keeps no
    # P x 64 kernel grid (5.1 MB at 44100 -> 10007 Hz, 98 MB at
    # 11111 -> 192000 Hz) in the rate-pair cache
    for src_rate, dst_rate in ((44100, 10007), (11111, 192000)):
        entry = signal_io._phase_grid(src_rate, dst_rate)
        assert entry[1] is signal_io._NO_PHASES
        assert sum(a.nbytes for a in entry if isinstance(a, np.ndarray)) < 1 << 20
    # each plan evaluates only the phases its rows use (1001 of 10007 here),
    # bitwise the rows of the full grid, masked and renormalised
    n_in, p = 4410, 10007
    plan = resample_plan(n_in, 44100, p)
    grid = signal_io._kernels(44100, p, np.arange(p))
    phase = plan.edge_rows * 44100 % p
    assert np.unique(phase).size == plan.out_len < p
    k = plan.edge_start[:, None] + np.arange(SINC_TAPS)
    h = grid[phase] * ((k >= 0) & (k < n_in))
    h /= h.sum(axis=1, keepdims=True)
    assert h.tobytes() == plan.edge_weights.tobytes()


@pytest.mark.parametrize("src_rate,dst_rate", [(16000, 10000.0), (16000.0, 10000), (16000, 0), (-8000, 10000)])
def test_resample_plan_rejects_non_integer_rates(src_rate, dst_rate):
    with pytest.raises(ValueError, match="positive integers"):
        resample_plan(100, src_rate, dst_rate)


def test_resample_rejects_non_positive_target_rate():
    w = Waveform(np.ones(100), 16000)
    for rate in (0, -10000):
        with pytest.raises(ValueError, match="positive integers"):
            resample(w, rate)


def test_resample_plan_interior_rows_of_one_phase_are_identical():
    start, weights = plan_rows(resample_plan(16000, 16000, 10000), 16000)
    out_len = start.size
    # 16 -> 10 kHz has 5 phases: rows j and j + 5 share a kernel, 8 samples on
    interior = np.arange(SINC_TAPS, out_len - SINC_TAPS)
    for phase in range(5):
        rows = interior[interior % 5 == phase]
        assert (weights[rows] == weights[rows[0]]).all()
        assert (np.diff(start[rows]) == 8).all()  # src / gcd samples per 5 rows
    assert not np.array_equal(weights[interior[0]], weights[interior[1]])


def test_resample_plan_weights_match_exact_phase_reference():
    # 8 s at 16 kHz: source positions j * 1.6 reach 128000, where a float
    # position has lost bits; the reference takes the exact phase from integers
    n_in, src_rate, dst_rate = 128000, 16000, 10000
    _, weights = plan_rows(resample_plan(n_in, src_rate, dst_rate), n_in)
    out_len = weights.shape[0]
    ld = np.longdouble
    half = SINC_TAPS // 2
    # both edges and every 7th row (all 5 phases), to keep the reference small
    j = np.unique(np.r_[:SINC_TAPS, :out_len:7, out_len - SINC_TAPS : out_len])
    k = ((j * src_rate) // dst_rate - half + 1)[:, None] + np.arange(SINC_TAPS)
    t = (j[:, None] * src_rate - k * dst_rate).astype(ld) / ld(dst_rate)
    pi = ld("3.14159265358979323846264338327950288")
    cutoff = ld(dst_rate) / ld(src_rate)
    arg = pi * cutoff * t
    sinc = np.where(arg == 0, ld(1), np.sin(arg) / np.where(arg == 0, ld(1), arg))
    u = t / half
    window = np.i0(KAISER_BETA * np.sqrt(np.maximum(ld(0), 1 - u * u))) / np.i0(ld(KAISER_BETA))
    ref = cutoff * sinc * np.where(np.abs(u) < 1, window, ld(0))
    ref *= (k >= 0) & (k < n_in)
    ref /= ref.sum(axis=1, keepdims=True)
    err = np.abs(weights[j].astype(ld) - ref).max() / np.abs(ref).max()
    assert err < 1e-14


@pytest.mark.parametrize("src_rate,dst_rate", PLAN_RATES)
def test_resample_matches_in_graph_gather_bitwise(src_rate, dst_rate):
    w = Waveform(np.random.default_rng(6).standard_normal(src_rate // 4 + 3), src_rate)
    in_graph = gather_linear(w.samples, resample_plan(len(w), src_rate, dst_rate)).data
    np.testing.assert_array_equal(resample(w, dst_rate).samples, in_graph)


def _index_array_gather(x, start, weights, g):
    """Forward and adjoint of dense plan rows over a full (rows, taps) index array.

    Out-of-range taps read x[0]; the plan's weights are zero there.
    """
    k = start[:, None] + np.arange(weights.shape[1])
    idx = np.where((k >= 0) & (k < x.size), k, 0)
    out = np.einsum("jk,jk->j", x[idx], weights)
    grad = np.bincount(idx.ravel(), weights=(weights * g[:, None]).ravel(), minlength=x.size)
    return out, grad


@pytest.mark.parametrize("src_rate,dst_rate", PLAN_RATES)
@pytest.mark.parametrize("n_in", [120, 2011])
def test_banded_gather_matches_index_array_oracle_bitwise(src_rate, dst_rate, n_in):
    # The edge rows are bitwise the oracle's banded sums. The interior rows
    # and the adjoint come from BLAS matmuls, which sum in their own order,
    # so they are held to 1e-14 of the largest magnitude instead.
    # 120 samples: rows overrun both ends; 8 -> 10 kHz repeats starts
    rng = np.random.default_rng(n_in)
    x = rng.standard_normal(n_in)
    plan = resample_plan(n_in, src_rate, dst_rate)
    start, weights = plan_rows(plan, n_in)
    if src_rate < dst_rate:
        assert (np.diff(start) == 0).any()
    g = rng.standard_normal(plan.out_len)
    xt = E.parameter(x)
    out = gather_linear(xt, plan)
    E.dot(out, E.Tensor(g)).backward()
    ref_out, ref_grad = _index_array_gather(x, start, weights, g)
    np.testing.assert_array_equal(out.data[plan.edge_rows], ref_out[plan.edge_rows])
    assert np.abs(out.data - ref_out).max() <= 1e-14 * np.abs(ref_out).max()
    assert np.abs(xt.grad - ref_grad).max() <= 1e-14 * np.abs(ref_grad).max()


@pytest.mark.parametrize("dst_rate", [10000, 16000])
@pytest.mark.parametrize("src_rate", STANDARD_RATES)
def test_gather_linear_matches_dense_plan_rows(src_rate, dst_rate):
    # every standard pair's grouped gather against plan_rows's dense rows:
    # edge rows bitwise, interior rows (summed in BLAS order over the group
    # window's zeros too) within 1e-14 of the sum of their terms' magnitudes
    n_in = 3001
    x = np.random.default_rng(src_rate + dst_rate).standard_normal(n_in)
    plan = resample_plan(n_in, src_rate, dst_rate)
    start, weights = plan_rows(plan, n_in)
    xp = np.concatenate([np.zeros(SINC_TAPS), x, np.zeros(2 * SINC_TAPS)])
    windows = np.lib.stride_tricks.sliding_window_view(xp, SINC_TAPS)[start + SINC_TAPS]
    expected = np.einsum("jk,jk->j", windows, weights)
    magnitude = np.einsum("jk,jk->j", np.abs(windows), np.abs(weights))
    out = gather_linear(x, plan).data
    assert plan.edge_rows.size < plan.out_len
    np.testing.assert_array_equal(out[plan.edge_rows], expected[plan.edge_rows])
    assert (np.abs(out - expected) <= 1e-14 * magnitude).all()


def test_mix_scale_from_rms_ratio():
    y = Waveform(np.full(100, 0.1), 8000)
    z = Waveform(np.full(100, 0.2), 8000)
    pair = mix_at_snr(y, z, 0.0)
    np.testing.assert_allclose(pair.interference.samples, 0.5 * z.samples)


def test_mix_zero_db_matches_rms():
    rng = np.random.default_rng(3)
    y = Waveform(rng.standard_normal(4000) * 0.03, 16000)
    z = Waveform(rng.standard_normal(4000) * 0.4, 16000)
    pair = mix_at_snr(y, z, 0.0)
    assert pair.target.rms() == pytest.approx(pair.interference.rms(), rel=1e-9)


def test_mix_sixty_db():
    rng = np.random.default_rng(4)
    y = Waveform(rng.standard_normal(1000), 8000)
    z = Waveform(rng.standard_normal(1000), 8000)
    pair = mix_at_snr(y, z, 60.0)
    assert pair.interference.rms() == pytest.approx(pair.target.rms() * 1e-3, rel=1e-9)


def test_mix_sum_is_exact_and_truncates():
    rng = np.random.default_rng(5)
    y = Waveform(rng.standard_normal(900), 8000)
    z = Waveform(rng.standard_normal(1100), 8000)
    pair = mix_at_snr(y, z, 3.0)
    assert len(pair.mixture) == 900
    # no re-quantization: the mixture is bitwise the sum of the returned parts
    np.testing.assert_array_equal(
        pair.mixture.samples, pair.target.samples + pair.interference.samples
    )


def test_mix_rejects_silence_and_rate_mismatch():
    loud = Waveform(np.full(100, 0.5), 8000)
    with pytest.raises(SilentSignal):
        mix_at_snr(Waveform(np.zeros(100) + 1e-12, 8000), loud, 0.0)
    with pytest.raises(ShapeError):
        mix_at_snr(loud, Waveform(np.full(100, 0.5), 16000), 0.0)


def test_waveform_validation():
    with pytest.raises(ValueError):
        Waveform(np.array([np.nan]), 8000)
    with pytest.raises(ValueError):
        Waveform(np.array([0.0]), 0)
    # write_wav would fail on these with struct.error, and resample_plan rejects them
    for rate in (16000.5, 16000.0, True):
        with pytest.raises(ValueError, match="positive integers"):
            Waveform(np.array([0.0]), rate)
        with pytest.raises(ValueError, match="positive integers"):
            resample_plan(100, 16000, rate)
    assert Waveform(np.array([0.0]), np.int64(8000)).sample_rate == 8000
    with pytest.raises(ShapeError):
        Waveform(np.zeros((2, 2)), 8000)
