"""Mono audio I/O, band-limited resampling, and SNR-controlled mixing.

All numeric work is done in float64; files are plain little-endian
RIFF/WAVE (PCM 16-bit or IEEE float 32-bit read, PCM 16-bit write).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import diff_engine as engine
from .errors import CorruptFile, IoError, ShapeError, SilentSignal, UnsupportedFormat

PCM_SCALE = 32768.0
RMS_SILENCE_FLOOR = 1e-8

# Windowed-sinc resampler: 64-tap kernel under a Kaiser window.
SINC_TAPS = 64
KAISER_BETA = 8.0


@dataclass
class Waveform:
    """A mono time-domain signal plus its sample rate in Hz."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size < 1:
            raise ShapeError("waveform must be a non-empty 1-D signal")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
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

    Samples are clamped to [-1, 1] and quantized round-to-nearest.
    """
    q = np.clip(np.rint(np.clip(w.samples, -1.0, 1.0) * PCM_SCALE), -32768, 32767)
    payload = q.astype("<i2").tobytes()
    header = (
        b"RIFF"
        + struct.pack("<I", 36 + len(payload))
        + b"WAVE"
        + b"fmt "
        + struct.pack("<IHHIIHH", 16, 1, 1, w.sample_rate, w.sample_rate * 2, 2, 16)
        + b"data"
        + struct.pack("<I", len(payload))
    )
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(payload)
    except OSError as exc:
        raise IoError(f"{path}: {exc}") from exc


@lru_cache(maxsize=32)
def resample_plan(n_in: int, src_rate: int, dst_rate: int):
    """Precompute the banded plan of the windowed-sinc resampler.

    Returns (start, weights, out_len); output j = sum_k x[start[j] + k] *
    weights[j, k], the `diff_engine.gather_linear` map, with taps outside
    x reading zero. start[j] = base - SINC_TAPS // 2 + 1 may be negative
    near the edges. Output j sits at source position j * src_rate /
    dst_rate = base + p / P exactly, found in integers, with phase p in
    [0, P) and P = dst_rate / gcd(src_rate, dst_rate). Tap offsets depend
    on p alone, so the Kaiser-windowed sinc is evaluated on the
    P x SINC_TAPS phase grid (P kernels; 5 for 16 -> 10 kHz) and each row
    takes its phase's kernel (Smith & Gossett, ICASSP 1984). Rows are
    renormalized over in-range taps so DC is preserved exactly, including
    at the edges. A plan holds 8 * (SINC_TAPS + 1) bytes per output
    sample. Both rates must be positive integers.
    """
    for rate in (src_rate, dst_rate):
        if not isinstance(rate, (int, np.integer)) or rate <= 0:
            raise ValueError(f"sample rates must be positive integers, got {rate!r}")
    out_len = int(round(n_in * dst_rate / src_rate))
    half = SINC_TAPS // 2
    step = math.gcd(src_rate, dst_rate)
    n_phases = dst_rate // step
    base, phase = np.divmod(np.arange(out_len, dtype=np.int64) * (src_rate // step), n_phases)
    taps = np.arange(SINC_TAPS)
    # t[p, m] = p / P + half - 1 - m, one rounding from an exact integer ratio
    t = (np.arange(n_phases)[:, None] + (half - 1 - taps) * n_phases) / n_phases
    cutoff = min(1.0, dst_rate / src_rate)
    u = t / half
    window = np.where(np.abs(u) < 1.0, np.i0(KAISER_BETA * np.sqrt(np.maximum(0.0, 1.0 - u**2))), 0.0)
    window /= np.i0(KAISER_BETA)
    kernels = cutoff * np.sinc(cutoff * t) * window
    start = base - half + 1
    k = start[:, None] + taps
    h = kernels[phase]
    h *= (k >= 0) & (k < n_in)
    h /= h.sum(axis=1, keepdims=True)
    start.setflags(write=False)
    h.setflags(write=False)
    return start, h, out_len


def resample(w: Waveform, target_rate: int) -> Waveform:
    """Band-limited resampling via the windowed-sinc kernel above.

    Output length is round(len * target_rate / source_rate). Same-rate
    input is returned unchanged (copied). The sum is the forward of
    `diff_engine.gather_linear` over the cached plan, so offline and
    in-graph resampling are one implementation and agree bitwise.
    """
    if target_rate <= 0:
        raise ValueError("target_rate must be positive")
    if target_rate == w.sample_rate:
        return Waveform(w.samples.copy(), w.sample_rate)
    start, weights, _ = resample_plan(len(w), w.sample_rate, target_rate)
    return Waveform(engine.gather_linear(w.samples, start, weights).data, target_rate)


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
