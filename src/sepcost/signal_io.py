"""Mono audio I/O, band-limited resampling, and SNR-controlled mixing.

All numeric work is done in float64; files are plain little-endian
RIFF/WAVE (PCM 16-bit or IEEE float 32-bit read, PCM 16-bit write).
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import diff_engine as engine
from .errors import CorruptFile, IoError, ShapeError, SilentSignal, UnsupportedFormat

PCM_SCALE = 32768.0
# samples per block of write_wav's float64 scratch (512 KB)
WRITE_BLOCK = 1 << 16
RMS_SILENCE_FLOOR = 1e-8

# Windowed-sinc resampler: 64-tap kernel under a Kaiser window.
SINC_TAPS = 64
KAISER_BETA = 8.0


def _check_rate(rate) -> None:
    """Raise ValueError unless rate is a positive int (a bool is not one)."""
    if isinstance(rate, bool) or not isinstance(rate, (int, np.integer)) or rate <= 0:
        raise ValueError(f"sample rates must be positive integers, got {rate!r}")


@dataclass
class Waveform:
    """A mono time-domain signal plus its sample rate in Hz, a positive int."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size < 1:
            raise ShapeError("waveform must be a non-empty 1-D signal")
        _check_rate(self.sample_rate)
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("waveform samples must be finite")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate

    def rms(self) -> float:
        return float(np.sqrt(np.mean(self.samples**2)))


@dataclass
class MixturePair:
    """Aligned mixture / target / (scaled) interference triple.

    The mixture is exactly target + interference, sample for sample.
    """

    mixture: Waveform
    target: Waveform
    interference: Waveform


def read_wav(path) -> Waveform:
    """Read a RIFF/WAVE file into a mono float64 waveform.

    PCM 16-bit samples are scaled by 1/32768; float32 samples are taken
    as-is. Multichannel audio is averaged down to mono.

    Raises:
        UnsupportedFormat: not a WAVE file, or codec is neither PCM16 nor float32.
        CorruptFile: header claims more data than the file contains.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise UnsupportedFormat(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(blob):
        chunk_id = blob[pos : pos + 4]
        (size,) = struct.unpack_from("<I", blob, pos + 4)
        body = blob[pos + 8 : pos + 8 + size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise CorruptFile(f"{path}: fmt chunk truncated")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            if len(body) < size:
                raise CorruptFile(f"{path}: data chunk truncated")
            data = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None or data is None:
        raise CorruptFile(f"{path}: missing fmt or data chunk")
    tag, channels, rate, _byte_rate, _block_align, bits = fmt
    if channels < 1:
        raise CorruptFile(f"{path}: zero channels")

    if tag == 1 and bits == 16:
        if len(data) % 2:
            raise CorruptFile(f"{path}: odd PCM16 payload size")
        x = np.frombuffer(data, dtype="<i2").astype(np.float64) / PCM_SCALE
    elif tag == 3 and bits == 32:
        if len(data) % 4:
            raise CorruptFile(f"{path}: bad float32 payload size")
        x = np.frombuffer(data, dtype="<f4").astype(np.float64)
    else:
        raise UnsupportedFormat(f"{path}: format tag {tag} / {bits}-bit not supported")

    if x.size % channels:
        raise CorruptFile(f"{path}: sample count not divisible by channel count")
    if channels > 1:
        x = x.reshape(-1, channels).mean(axis=1)
    return Waveform(x, int(rate))


def write_wav(w: Waveform, path) -> None:
    """Write a mono PCM 16-bit WAV.

    Samples are clamped to [-1, 1] and quantized round-to-nearest. They
    go through one float64 scratch of WRITE_BLOCK samples into the int16
    payload, whose buffer is written as it is, so the write holds 2 bytes
    per sample beyond the waveform.
    """
    payload = np.empty(w.samples.size, dtype="<i2")
    scratch = np.empty(min(WRITE_BLOCK, payload.size))
    for start in range(0, payload.size, WRITE_BLOCK):
        part = w.samples[start : start + WRITE_BLOCK]
        q = scratch[: part.size]
        np.clip(part, -1.0, 1.0, out=q)
        q *= PCM_SCALE
        np.rint(q, out=q)
        np.clip(q, -32768, 32767, out=q)
        payload[start : start + part.size] = q
    header = (
        b"RIFF"
        + struct.pack("<I", 36 + payload.nbytes)
        + b"WAVE"
        + b"fmt "
        + struct.pack("<IHHIIHH", 16, 1, 1, w.sample_rate, w.sample_rate * 2, 2, 16)
        + b"data"
        + struct.pack("<I", payload.nbytes)
    )
    try:
        _write_atomic(path, (header, payload))
    except OSError as exc:
        raise IoError(f"{path}: {exc}") from exc


def _write_atomic(path, chunks) -> None:
    """Write an iterable of bytes-like chunks to a temp file beside path, then rename it over path.

    A write killed part-way leaves the previous file intact.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


# Polyphase blocks hold at least 32 outputs, in groups of at least 8 rows
# (the width of a BLAS register tile) whose windows should hold at most 1.5
# kernels. A pair whose block band or grouped plan would exceed 2**20
# entries (8 MB of float64) gets the 1 x 1 x 1 zero plan below, and all its
# rows are edge rows.
MIN_BLOCK_ROWS = 32
MIN_GROUP_ROWS = 8
MAX_GROUP_WIDTH = SINC_TAPS + SINC_TAPS // 2
MAX_PHASE_ENTRIES = 1 << 20
_NO_PHASES = np.zeros((1, 1, 1))
_NO_PHASES.setflags(write=False)


def _group_width(n_phases: int, q: int, rows: int, group_rows: int) -> int:
    """Window width of each group of group_rows consecutive rows in a block of `rows` rows.

    Row r reads SINC_TAPS samples from block column (r * Q) // P, and group
    k's window starts at column k * ((group_rows * Q) // P), so a window
    spans its rows' taps plus the drift of that floor over k groups.
    """
    r = np.arange(rows)
    return int((r * q // n_phases - r // group_rows * (group_rows * q // n_phases)).max()) + SINC_TAPS


def _kernels(src_rate: int, dst_rate: int, phases: np.ndarray) -> np.ndarray:
    """Un-normalised Kaiser-windowed sinc kernels of the given phases, one row of SINC_TAPS taps each.

    Phase p in [0, P) reads its taps at offsets t = p / P + half - 1 - m,
    one rounding from an exact integer ratio. Every step is elementwise,
    so a phase's row is bitwise the same whichever other phases are asked
    for.
    """
    half = SINC_TAPS // 2
    n_phases = dst_rate // math.gcd(src_rate, dst_rate)
    t = (phases[:, None] + (half - 1 - np.arange(SINC_TAPS)) * n_phases) / n_phases
    cutoff = min(1.0, dst_rate / src_rate)
    u = t / half
    window = np.where(np.abs(u) < 1.0, np.i0(KAISER_BETA * np.sqrt(np.maximum(0.0, 1.0 - u**2))), 0.0)
    window /= np.i0(KAISER_BETA)
    return cutoff * np.sinc(cutoff * t) * window


@lru_cache(maxsize=8)
def _phase_grid(src_rate: int, dst_rate: int):
    """(kernels, groups, stride, group_stride) of one rate pair, shared by every input length.

    kernels[p] is the un-normalised kernel of phase p in [0, P). A block of
    R = m * P rows reads its input from column b * stride, stride = m * Q;
    row r holds the normalised kernel of phase (r * Q) mod P from column
    (r * Q) // P. The block's rows go in R / G groups of G consecutive
    rows, and groups[k] is the (width, G) weights of group k over its
    window, which starts at column k * group_stride, group_stride =
    (G * Q) // P.

    The rule: m is the smallest integer with R >= MIN_BLOCK_ROWS for which
    some divisor G >= MIN_GROUP_ROWS of R has width <= stride, so that one
    group's windows do not overlap from block to block and BLAS reads them
    in place. Among those divisors G is the largest whose window is at
    most MAX_GROUP_WIDTH, so at most a third of a group's multiply-adds
    meet zeros while its products stay as wide and as few as that allows;
    when none is that narrow, G has the narrowest window (the larger G on
    a tie). groups is _NO_PHASES when the dense band of a block of m0 * P
    rows, m0 = ceil(32 / P), which spans floor((m0 * P - 1) * Q / P) +
    SINC_TAPS samples, or the grouped weights (R * width entries) would
    exceed MAX_PHASE_ENTRIES. The rule reads only P and Q, so such a
    fallback pair evaluates no kernel here and caches no array: kernels is
    None.
    """
    step = math.gcd(src_rate, dst_rate)
    n_phases, q = dst_rate // step, src_rate // step
    m = -(-MIN_BLOCK_ROWS // n_phases)
    band = m * n_phases * ((m * n_phases - 1) * q // n_phases + SINC_TAPS)
    m = max(m, -(-SINC_TAPS // q))  # a stride below SINC_TAPS fits no window
    # every window spans SINC_TAPS samples or more, so past
    # MAX_PHASE_ENTRIES / SINC_TAPS rows no grouped plan fits the cap
    fits = []
    while not fits and band <= MAX_PHASE_ENTRIES and m * n_phases * SINC_TAPS <= MAX_PHASE_ENTRIES:
        rows, stride = m * n_phases, m * q
        sizes = np.arange(MIN_GROUP_ROWS, rows + 1)
        for g in sizes[rows % sizes == 0].tolist():
            if (width := _group_width(n_phases, q, rows, g)) <= stride:
                fits.append((width, g))
        m += 1
    if fits:
        narrow = [fit for fit in fits if fit[0] <= MAX_GROUP_WIDTH]
        width, g = max(narrow, key=lambda fit: fit[1]) if narrow else min(fits, key=lambda fit: (fit[0], -fit[1]))
    if not fits or rows * width > MAX_PHASE_ENTRIES:
        return None, _NO_PHASES, 1, 1
    kernels = _kernels(src_rate, dst_rate, np.arange(n_phases))
    kernels.setflags(write=False)
    r = np.arange(rows)
    column, phase = np.divmod(r * q, n_phases)
    h = kernels[phase]
    h /= h.sum(axis=1, keepdims=True)
    group, i = np.divmod(r, g)
    group_stride = g * q // n_phases
    groups = np.zeros((rows // g, width, g))
    groups[group[:, None], (column - group * group_stride)[:, None] + np.arange(SINC_TAPS), i[:, None]] = h
    groups.setflags(write=False)
    return kernels, groups, stride, group_stride


@lru_cache(maxsize=32)
def resample_plan(n_in: int, src_rate: int, dst_rate: int) -> engine.PolyphasePlan:
    """Precompute the polyphase plan of the windowed-sinc resampler.

    Returns the `diff_engine.PolyphasePlan` that `gather_linear` applies.
    Output j sits at source position j * src_rate / dst_rate = base + p / P
    exactly, found in integers, with phase p in [0, P), P = dst_rate / g,
    Q = src_rate / g and g = gcd(src_rate, dst_rate); it sums the
    SINC_TAPS taps from x[base - SINC_TAPS // 2 + 1], taps outside x
    reading zero. Tap offsets depend on p alone, so the Kaiser-windowed
    sinc is evaluated on the P x SINC_TAPS phase grid (P kernels; 5 for
    16 -> 10 kHz), and the outputs repeat with period P (Smith & Gossett,
    ICASSP 1984): each block of R = m * P outputs reads its input m * Q
    samples after the block before it.

    The block's rows go in groups of G consecutive rows (`_phase_grid`
    gives the rule that picks m and G). A group's weights span only the
    window its rows read, w ~ (G - 1) * Q / P + SINC_TAPS samples, where
    a dense block matrix would span (R - 1) * Q / P + SINC_TAPS columns,
    SINC_TAPS of them non-zero in each row. w never exceeds the block stride
    m * Q, so each group's windows are a strided view that BLAS reads in
    place. The grouped weights, each kernel normalised to sum 1, take
    R * w * 8 bytes, cached per rate pair and shared by every input
    length: 5 groups of 25 rows, w = 88, at 10080 -> 10000 Hz (88,000
    bytes); 5 of 10, w = 78, at 16 -> 10 kHz (31,200); 10 of 10,
    w = 104, at 44.1 -> 10 kHz (83,200). The rows whose taps
    overrun x, about 63 * P / Q of them, are kept apart with their
    out-of-range taps masked and the rest renormalised, so DC is
    preserved exactly; at 8 * (SINC_TAPS + 2) bytes each they are the
    plan's only per-length part.

    The plan is capped at 2**20 entries (8 MB), both as the band of one
    block of ceil(32 / P) * P rows and as the grouped weights. Every pair
    of the common rates from 8 to 96 kHz fits; a pair past the cap, such
    as 44100 -> 10007 Hz, gets a 1 x 1 x 1 zero plan and every output
    becomes an edge row, the per-row banded sum at 8 * (SINC_TAPS + 2)
    bytes per output sample. Such a pair caches no phase grid: each plan
    evaluates the kernels of just the phases its rows use.

    Raises:
        ValueError: a rate is not a positive integer.
    """
    for rate in (src_rate, dst_rate):
        _check_rate(rate)
    kernels, groups, stride, group_stride = _phase_grid(src_rate, dst_rate)
    step = math.gcd(src_rate, dst_rate)
    n_phases, q = dst_rate // step, src_rate // step
    out_len = int(round(n_in * dst_rate / src_rate))
    half = SINC_TAPS // 2
    # output j's first tap base - half + 1 is below 0 for j < left and
    # its last tap past n_in - 1 for j >= right
    left = min(out_len, -(-(half - 1) * n_phases // q))
    if groups is _NO_PHASES:
        left = out_len
    right = max(left, -(-(n_in - half) * n_phases // q))
    edge = np.r_[0:left, right:out_len].astype(np.int64)
    base, phase = np.divmod(edge * q, n_phases)
    start = base - half + 1
    k = start[:, None] + np.arange(SINC_TAPS)
    if kernels is None:  # a fallback pair evaluates only the phases its edge rows use
        phases, phase = np.unique(phase, return_inverse=True)
        kernels = _kernels(src_rate, dst_rate, phases)
    h = kernels[phase]
    h *= (k >= 0) & (k < n_in)
    h /= h.sum(axis=1, keepdims=True)
    for a in (edge, start, h):
        a.setflags(write=False)
    return engine.PolyphasePlan(n_in, out_len, groups, stride, group_stride, 1 - half, edge, start, h)


def resample(w: Waveform, target_rate: int) -> Waveform:
    """Band-limited resampling through the polyphase plan above.

    Output length is round(len * target_rate / source_rate). Same-rate
    input is returned unchanged (copied). The sum is the forward of
    `diff_engine.gather_linear` over the cached plan, so offline and
    in-graph resampling are one implementation and agree bitwise.

    Raises:
        ValueError: target_rate is not a positive integer.
    """
    if target_rate == w.sample_rate:
        return Waveform(w.samples.copy(), w.sample_rate)
    plan = resample_plan(len(w), w.sample_rate, target_rate)
    return Waveform(engine.gather_linear(w.samples, plan).data, target_rate)


def mix_at_snr(target: Waveform, interference: Waveform, snr_db: float) -> MixturePair:
    """Scale the interferer so target/interference RMS ratio hits snr_db, then sum.

    Both inputs are truncated to the shorter length. The returned
    interference is the scaled one, so mixture - target - interference
    is exactly zero.

    Raises:
        ShapeError: sample rates differ.
        SilentSignal: either input has RMS <= 1e-8 after truncation.
    """
    if target.sample_rate != interference.sample_rate:
        raise ShapeError("mix_at_snr needs equal sample rates")
    n = min(len(target), len(interference))
    y = target.samples[:n].copy()
    z = interference.samples[:n]
    rms_y = float(np.sqrt(np.mean(y**2)))
    rms_z = float(np.sqrt(np.mean(z**2)))
    if rms_y <= RMS_SILENCE_FLOOR or rms_z <= RMS_SILENCE_FLOOR:
        raise SilentSignal("mix_at_snr requires non-silent inputs")
    scale = rms_y / (rms_z * 10.0 ** (snr_db / 20.0))
    z_scaled = z * scale
    rate = target.sample_rate
    return MixturePair(
        mixture=Waveform(y + z_scaled, rate),
        target=Waveform(y, rate),
        interference=Waveform(z_scaled, rate),
    )
