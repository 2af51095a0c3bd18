"""Independent reference implementations, signal generators and test helpers.

norm and minimum are engine ops that no product path calls; they are
built here on diff_engine's own node constructor (`_result`) for the
generic reference graphs, such as stoi_chain, that the fused ops are
checked against.

reference_stoi is a deliberately plain, loop-based reimplementation of
the intelligibility pipeline (own band bookkeeping, own framing); it
exists to cross-check the library's vectorized graph implementation and
must not share code with it.
"""

import json
import os
import subprocess
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

import sepcost
from sepcost import diff_engine as E
from sepcost.aet_net import NetConfig
from sepcost.diff_engine import _BLAS_THREAD_VARS, Tensor, no_grad
from sepcost.losses import StoiConfig

# criterion 7's reduced-size network: 64 filters of 128 taps, stride 16
SMOKE_NET = NetConfig(components=64, filter_len=128, stride=16, hidden_units=64, weight_sharing="shared")

# a STOI configuration small enough for dense finite-difference checks
SMALL_STOI = StoiConfig(
    frame_len=64, fft_len=128, num_bands=8, lowest_center=300.0,
    segment_frames=8, analysis_rate=4000,
)


def run_on_one_blas_thread(code: str):
    """Run `code` in a fresh interpreter whose BLAS is set to one thread; return its last printed line as JSON.

    The BLAS reads its thread count once, when it loads, and sepcost
    splits dense products only on a single-threaded BLAS, so bitwise
    checks of split products need a process of their own when the suite
    runs with a multi-threaded one.
    """
    paths = [str(Path(sepcost.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths), **{var: "1" for var in _BLAS_THREAD_VARS})
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counting_pool():
    """A ThreadPoolExecutor subclass and the list of [fn name, threads, tasks] it keeps, one per pool.

    Patched over `ThreadPoolExecutor` in sepcost.diff_engine, which
    builds every pool, it counts the pools that split products and run
    separation blocks or finite-difference chunks, and the tasks
    submitted to each (fn name None for a pool given none); it runs them
    as the real pool does.
    """
    pools = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            super().__init__(max_workers, **kwargs)
            self.record = [None, max_workers, 0]
            pools.append(self.record)

        def submit(self, fn, /, *args, **kwargs):
            self.record[0] = fn.__name__
            self.record[2] += 1
            return super().submit(fn, *args, **kwargs)

    return CountingPool, pools


def reference_stoi(
    x,
    y,
    fs=10000,
    frame_len=256,
    fft_len=512,
    hop=128,
    num_bands=15,
    lowest_center=150.0,
    seg_frames=30,
    clip_db=-15.0,
    eps=1e-12,
):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    assert x.shape == y.shape

    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(frame_len) / frame_len)
    n_frames = (len(x) - frame_len) // hop + 1
    n_bins = fft_len // 2 + 1
    mag_x = np.zeros((n_bins, n_frames))
    mag_y = np.zeros((n_bins, n_frames))
    for m in range(n_frames):
        seg = slice(m * hop, m * hop + frame_len)
        mag_x[:, m] = np.abs(np.fft.rfft(x[seg] * win, fft_len))
        mag_y[:, m] = np.abs(np.fft.rfft(y[seg] * win, fft_len))

    bin_freqs = np.arange(n_bins) * fs / fft_len
    selections = []
    for k in range(num_bands):
        center = lowest_center * 2.0 ** (k / 3.0)
        lo, hi = center * 2.0 ** (-1.0 / 6.0), center * 2.0 ** (1.0 / 6.0)
        if hi > fs / 2.0:
            continue
        sel = (bin_freqs >= lo) & (bin_freqs < hi)
        if sel.any():
            selections.append(sel)

    n_b = len(selections)
    band_x = np.zeros((n_b, n_frames))
    band_y = np.zeros((n_b, n_frames))
    for j, sel in enumerate(selections):
        band_x[j] = np.sqrt((mag_x[sel] ** 2).sum(axis=0))
        band_y[j] = np.sqrt((mag_y[sel] ** 2).sum(axis=0))

    clip = 1.0 + 10.0 ** (-clip_db / 20.0)
    values = []
    for m in range(seg_frames - 1, n_frames):
        for j in range(n_b):
            seg_x = band_x[j, m - seg_frames + 1 : m + 1]
            seg_y = band_y[j, m - seg_frames + 1 : m + 1]
            alpha = np.linalg.norm(seg_y) / (np.linalg.norm(seg_x) + eps)
            xbar = np.minimum(alpha * seg_x, clip * seg_y)
            xc = xbar - xbar.mean()
            yc = seg_y - seg_y.mean()
            values.append((xc @ yc) / (np.linalg.norm(xc) * np.linalg.norm(yc) + eps))
    return float(np.mean(values))


# ---------------------------------------------------------------------------
# signal generators

def band_noise(rng, n, fs, lo, hi):
    """Unit-RMS white noise band-limited to [lo, hi] Hz."""
    spec = np.fft.rfft(rng.standard_normal(n))
    freqs = np.fft.rfftfreq(n, 1.0 / fs)
    spec[(freqs < lo) | (freqs > hi)] = 0.0
    out = np.fft.irfft(spec, n)
    return out / max(np.sqrt(np.mean(out**2)), 1e-12)


def am_envelope(rng, n, fs, rate):
    """Syllabic-rate positive amplitude envelope."""
    t = np.arange(n) / fs
    env = 0.30 + 0.70 * 0.5 * (1.0 + np.sin(2.0 * np.pi * rate * t + rng.uniform(0, 2 * np.pi)))
    env *= 0.55 + 0.45 * 0.5 * (1.0 + np.sin(2.0 * np.pi * 0.37 * rate * t + rng.uniform(0, 2 * np.pi)))
    return env


def harmonic_comb(rng, n, fs, f0, lo, hi):
    t = np.arange(n) / fs
    sig = np.zeros(n)
    k = 1
    while k * f0 <= hi:
        if k * f0 >= lo:
            amp = rng.uniform(0.4, 1.0) / np.sqrt(k)
            sig += amp * np.sin(2.0 * np.pi * k * f0 * t + rng.uniform(0, 2 * np.pi))
        k += 1
    return sig


def speechlike(rng, n, fs, f0=None, band=(120.0, 3500.0), env_rate=None, noise_level=0.15, rms=0.05):
    """Amplitude-modulated harmonic comb plus band noise; RMS-normalized."""
    f0 = rng.uniform(95.0, 230.0) if f0 is None else f0
    env_rate = rng.uniform(2.2, 5.5) if env_rate is None else env_rate
    sig = harmonic_comb(rng, n, fs, f0, band[0], band[1])
    sig = sig / np.sqrt(np.mean(sig**2))
    sig = sig + noise_level * band_noise(rng, n, fs, band[0], band[1])
    sig = sig * am_envelope(rng, n, fs, env_rate)
    return rms * sig / np.sqrt(np.mean(sig**2))


def fixture_speakers(fs=16000, seconds=2.0, seed=2024):
    """Two spectrally distinct synthetic talkers for the overfit runs."""
    rng = np.random.default_rng(seed)
    n = int(fs * seconds)
    low = speechlike(rng, n, fs, f0=112.0, band=(100.0, 1900.0), env_rate=3.1)
    high = speechlike(rng, n, fs, f0=283.0, band=(2300.0, 5800.0), env_rate=4.7)
    return low, high


# ---------------------------------------------------------------------------
# finite-difference oracle


def finite_difference_reference(graph, inputs, wrt, step=1e-5):
    """Central differences one coordinate at a time, perturbing x itself.

    The reference for diff_engine.finite_difference_gradient, which
    perturbs blocks of coordinates in the rows of a stack; for a graph
    that scores each row as it scores that input alone, the two agree
    bitwise.
    """
    base = {name: np.asarray(val, dtype=np.float64).copy() for name, val in inputs.items()}
    x = base[wrt]
    grad = np.zeros_like(x)
    flat_x = x.ravel()
    flat_g = grad.ravel()

    def evaluate(rows):
        with no_grad():
            return graph({name: Tensor(rows if name == wrt else val) for name, val in base.items()})

    for i in range(flat_x.size):
        orig = flat_x[i]
        h = step * max(1.0, abs(orig))
        flat_x[i] = orig + h
        f_plus = evaluate(x).item()
        flat_x[i] = orig - h
        f_minus = evaluate(x).item()
        flat_x[i] = orig
        flat_g[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


# ---------------------------------------------------------------------------
# resampler plans

def plan_rows(plan, n_in):
    """Expand a polyphase resample plan of an n_in-sample input into its dense banded form.

    Returns (start, weights): output j = sum_k x[start[j] + k] * weights[j, k],
    taps outside x reading zero, with weights of shape (out_len, taps).
    Row r = k * G + i of a block of R rows sits at block column
    floor(r * stride / R), which is floor(r * Q / P), and its first tap is
    taps // 2 - 1 samples before that; its kernel is the `taps` entries of
    groups[k, :, i] from that tap's place in group k's window, and every
    other entry of groups[k, :, i] is zero.
    """
    assert plan.n_in == n_in
    n_groups, width, group_rows = plan.groups.shape
    rows = n_groups * group_rows
    taps = plan.edge_weights.shape[1]
    start = np.zeros(plan.out_len, dtype=np.int64)
    weights = np.zeros((plan.out_len, taps))
    inner = np.ones(plan.out_len, dtype=bool)
    inner[plan.edge_rows] = False
    block, r = np.divmod(np.flatnonzero(inner), rows)
    group, i = np.divmod(r, group_rows)
    start[inner] = block * plan.stride + r * plan.stride // rows - taps // 2 + 1
    place = start[inner] - (block * plan.stride + group * plan.group_stride + plan.offset)
    assert ((place >= 0) & (place + taps <= width)).all()
    band = (place[:, None] <= np.arange(width)) & (np.arange(width) < place[:, None] + taps)
    column = plan.groups[group, :, i]  # (rows, width): each row's weights over its group's window
    assert not column[~band].any()
    weights[inner] = column[band].reshape(-1, taps)
    start[plan.edge_rows] = plan.edge_start
    weights[plan.edge_rows] = plan.edge_weights
    return start, weights


# ---------------------------------------------------------------------------
# adaptive front-end ops, element by element


def softplus_reference(z):
    """diff_engine._softplus_into's numpy sequence, max(z, 0) + log1p(exp(-|z|)), on the whole of z at once."""
    tail = np.log1p(np.exp(np.negative(np.abs(z))))
    return np.maximum(z, 0.0) + tail


def modulation_reference(x, kernel, pad, floor, g):
    """Loop form of diff_engine.modulation and its backward under output gradient g.

    Returns (out, gx, gk) in the arithmetic order of the unfused graph
    floor + depthwise(|x|): each output sums its taps from zero in
    increasing d, skipping the zero padding, then adds the floor; each x
    gradient sums kernel * g over its taps in increasing d, then takes
    the sign of x; each kernel gradient is one dot product (np.einsum)
    of a row of g with the row of |x| its tap reads.
    """
    left = pad[0]
    rows, n_in = x.shape
    width = kernel.shape[1]
    n_out = n_in + pad[0] + pad[1] - width + 1
    out = np.zeros((rows, n_out))
    gx = np.zeros_like(x)
    gk = np.zeros_like(kernel)
    for k in range(rows):
        xr, kr, gr = x[k].tolist(), kernel[k].tolist(), g[k].tolist()
        for col in range(n_out):
            acc = 0.0
            for d in range(width):
                j = col + d - left
                if 0 <= j < n_in:
                    acc += kr[d] * abs(xr[j])
            out[k, col] = acc + floor
        for j in range(n_in):
            acc = 0.0
            for d in range(width):
                col = j - d + left
                if 0 <= col < n_out:
                    acc += kr[d] * gr[col]
            gx[k, j] = acc * float(np.sign(xr[j]))
        for d in range(width):
            cols = [col for col in range(n_out) if 0 <= col + d - left < n_in]
            if cols:
                read = np.abs(x[k, cols[0] + d - left : cols[-1] + d - left + 1])
                gk[k, d] = np.einsum("l,l->", g[k, cols[0] : cols[-1] + 1], read)
    return out, gx, gk


def remodulate_reference(m_hat, x, m, g):
    """Loop form of the re-modulation in diff_engine.conv1d_transpose.

    Returns the coefficients out = m_hat * (x / m) and, under their
    gradient g, (g_m_hat, gx, gm) in the arithmetic order of the unfused
    graph m_hat * (x / m): with p = x / m and gp = g * m_hat, the
    gradients are g * p, gp / m and (-gp) * x / (m * m).
    """
    out, g_m_hat, gx, gm = (np.zeros_like(x) for _ in range(4))
    for idx in np.ndindex(x.shape):
        h, xv, mv, gv = float(m_hat[idx]), float(x[idx]), float(m[idx]), float(g[idx])
        p = xv / mv
        gp = gv * h
        out[idx] = h * p
        g_m_hat[idx] = gv * p
        gx[idx] = gp / mv
        gm[idx] = -gp * xv / (mv * mv)
    return out, g_m_hat, gx, gm


# ---------------------------------------------------------------------------
# intelligibility front end


def band_envelopes_reference(x, frame_len, fft_len, hop, window, bands, g):
    """The chain magnitude STFT -> square -> bands @ -> sqrt on one 1-D signal, and its adjoint under g.

    Returns (envelopes (J, M), gradient of <envelopes, g> w.r.t. x) in
    the arithmetic order of the unfused engine graph: the rfft of each
    windowed frame zero-padded to fft_len, |spec|.T squared and pooled by
    one product, the square root; backward, 0.5 / envelope (0 at zero),
    bands.T @, 2 * magnitude, the complex adjoint on the inverse FFT
    (0 at zero-magnitude bins), and an overlap-add in which each sample
    sums its frames' taps from the lowest tap up.
    """
    frames = np.lib.stride_tricks.sliding_window_view(x, frame_len)[::hop]
    spec = np.fft.rfft(frames * window, n=fft_len, axis=1)
    mag = np.abs(spec).T
    env = np.sqrt(bands @ (mag * mag))
    with np.errstate(divide="ignore", invalid="ignore"):
        g_mag = (bands.T @ (g * np.where(env > 0.0, 0.5 / env, 0.0))) * (2.0 * mag)
        c = np.where(mag > 0.0, g_mag / mag, 0.0).T * spec
    c[:, 1 : (fft_len + 1) // 2] *= 0.5
    fg = np.fft.irfft(c, n=fft_len, axis=1)[:, :frame_len] * (fft_len * window)
    gx = np.zeros(x.size)
    for m in reversed(range(fg.shape[0])):  # later frames hold a sample's lower taps
        gx[m * hop : m * hop + frame_len] += fg[m]
    return env, gx


# ---------------------------------------------------------------------------
# generic ops of the reference graphs


def minimum(a, b):
    """Elementwise min; on exact ties the gradient goes to the first argument."""
    a, b = E.as_tensor(a), E.as_tensor(b)
    take_a = a.data <= b.data
    out = np.where(take_a, a.data, b.data)
    return E._result(out, (a, b), lambda g: (g * take_a, g * ~take_a))


def norm(x, axis=None, keepdims=False):
    """L2 norm, optionally along one axis; the subgradient at 0 is 0."""
    x = E.as_tensor(x)
    out = np.sqrt((x.data**2).sum(axis=axis, keepdims=keepdims))

    def bw(g):
        n = E._unreduce(out, axis, keepdims)
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.where(n > 0.0, x.data / n, 0.0)
        return (E._unreduce(g, axis, keepdims) * d,)

    return E._result(out, (x,), bw)


def windows(t, width):
    """Sliding windows (..., T) -> (..., width, T - width + 1) built from generic engine ops.

    [..., n, p] is t[..., p + n]: the sum over n of the slice starting at
    n, placed in row n by a one-hot column. Each entry sums one exact
    product by 1 with exact zeros, so the values are t's own, and the
    gradient comes from getitem, mul and add alone.
    """
    n_out = t.shape[-1] - width + 1
    rows = np.eye(width)
    out = None
    for n in range(width):
        term = t[..., None, n : n + n_out] * rows[:, n : n + 1]
        out = term if out is None else out + term
    return out


def stoi_chain(xe, ye, width, clip_factor, eps):
    """STOI's segment correlations d (..., J, M') from band envelopes as a chain of generic engine ops.

    The graph `diff_engine.segment_correlation` fuses: the target's
    segment norms, clipping ceiling and centred segments, then the
    estimate's segments scaled to the target's norms, clipped, centred
    and correlated (norm and minimum from this module; div, mul, mean,
    sub and sum_ from the engine).
    """
    seg_y, seg_x = windows(ye, width), windows(xe, width)
    yc = seg_y - E.mean(seg_y, axis=-2, keepdims=True)
    norm_y = norm(seg_y, axis=-2, keepdims=True)
    clip_y = clip_factor * seg_y
    norm_yc = norm(yc, axis=-2)
    alpha = norm_y / (norm(seg_x, axis=-2, keepdims=True) + eps)
    clipped = minimum(alpha * seg_x, clip_y)
    xc = clipped - E.mean(clipped, axis=-2, keepdims=True)
    num = E.sum_(xc * yc, axis=-2)
    den = norm(xc, axis=-2) * norm_yc + eps
    return num / den
