"""End-to-end separation network with a learned analysis/synthesis transform.

Dataflow: a strided 1-D convolution bank turns the mixture waveform into
an adaptive time-frequency representation X; a nonnegative smoothing
kernel over |X|, plus a small floor, yields the modulation envelope M
(an STFT-magnitude analogue, one `engine.modulation` node), and the
carrier X / M keeps the rapid variation (a phase analogue). Two softplus
dense layers estimate the target's modulation from M; the estimate
re-modulates the mixture carrier and a transposed convolution bank
synthesizes the output waveform, both in one `engine.conv1d_transpose`
node (its carrier=(X, M)), which forms X / M and the re-modulated
coefficients itself, so the tape keeps neither.

In shared mode the synthesis bank is storage-tied to the analysis bank:
conv1d_transpose applies filters as their transpose, so passing the same
tensor realizes W^T synthesis with no copy.

Every stage is frame-local: a frame's output reads its own input window
and, through the smoothing, its (width-1)//2 and width//2 neighbour
frames. So separation runs over blocks of at most BLOCK_FRAMES frames,
each with only those neighbours as a halo, and overlap-adds the blocks'
syntheses: memory stays flat in the input length (one block's
representation alive per worker thread), and the output equals the
one-pass network up to roundoff (bitwise when one block holds every
frame). A block records no tape: it re-modulates in place and
synthesizes with `engine._synthesize` (see `_separate_blocks`), beside
the caller under the engine's thread rule (`engine._beside`); the output
does not depend on the thread count. Training runs the one-pass graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diff_engine as engine
from .diff_engine import Tensor, as_tensor, parameter
from .errors import ShapeError, SignalTooShort, check_field_types
from .signal_io import Waveform, _check_rate, _write_atomic

# analysis frames per separation block: about 0.26 s at stride 16 and
# 16 kHz, so with one BLAS thread the two blocks in flight, one per CPU,
# together hold about what one 512-frame block held
BLOCK_FRAMES = 256
# zero-padded DFT length for finding each analysis filter's spectral peak
BASIS_DFT_LEN = 4096


@dataclass(frozen=True)
class NetConfig:
    components: int = 1024
    filter_len: int = 1024
    stride: int = 16
    smoothing_width: int = 5
    hidden_units: int | None = None  # defaults to components
    weight_sharing: str = "shared"  # "shared" | "independent"
    modulation_floor: float = 1e-8

    def __post_init__(self):
        check_field_types(self)
        if self.weight_sharing not in ("shared", "independent"):
            raise ValueError("weight_sharing must be 'shared' or 'independent'")
        if self.components < 1:
            raise ValueError(f"components must be at least 1, got {self.components}")
        if self.hidden_units is not None and self.hidden_units < 1:
            raise ValueError(f"hidden_units must be at least 1 or null, got {self.hidden_units}")
        if self.stride < 1 or self.filter_len < self.stride:
            raise ValueError("need filter_len >= stride >= 1")
        if self.smoothing_width < 1:
            raise ValueError("smoothing_width must be at least 1")
        # the carrier divides by the modulation, which is the floor on silence
        if not (math.isfinite(self.modulation_floor) and self.modulation_floor > 0):
            raise ValueError(f"modulation_floor must be finite and positive, got {self.modulation_floor}")

    @property
    def hidden(self) -> int:
        return self.hidden_units if self.hidden_units is not None else self.components


@dataclass
class AetRepresentation:
    """Adaptive transform X and its modulation M (> 0).

    The carrier X / M is not stored: `synthesis_forward` re-modulates
    from X and M.
    """

    X: Tensor
    M: Tensor


@dataclass(eq=False)  # identity comparison: a generated __eq__ would compare Tensors
class SeparatorParams:
    """Parameter tensors of the separation network.

    smoothing_raw is the unconstrained form of the smoothing kernel; the
    effective kernel is softplus(raw) renormalized to sum to one per
    component, which keeps it nonnegative under gradient updates.
    """

    cfg: NetConfig
    analysis: Tensor
    smoothing_raw: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    synthesis: Tensor | None = None  # independent mode only

    def __post_init__(self):
        if self.cfg.weight_sharing == "shared" and self.synthesis is not None:
            raise ValueError("shared mode must not carry a separate synthesis bank")
        if self.cfg.weight_sharing == "independent" and self.synthesis is None:
            raise ValueError("independent mode needs a synthesis bank")

    @property
    def synthesis_filters(self) -> Tensor:
        """Synthesis bank; in shared mode this is the analysis tensor itself."""
        return self.analysis if self.synthesis is None else self.synthesis

    def tensors(self) -> dict[str, Tensor]:
        """Named leaf tensors (the tied synthesis view is not duplicated)."""
        return {name: getattr(self, name) for name in param_shapes(self.cfg)}

    def smoothing_kernel(self) -> Tensor:
        positive = engine.softplus(self.smoothing_raw)
        return positive / engine.sum_(positive, axis=1, keepdims=True)


def param_shapes(cfg: NetConfig) -> dict[str, tuple[int, int]]:
    """Shape of every parameter tensor, keyed as in SeparatorParams.tensors()."""
    k, hidden = cfg.components, cfg.hidden
    shapes = {
        "analysis": (k, cfg.filter_len),
        "smoothing_raw": (k, cfg.smoothing_width),
        "w1": (hidden, k),
        "b1": (hidden, 1),
        "w2": (k, hidden),
        "b2": (k, 1),
    }
    if cfg.weight_sharing == "independent":
        shapes["synthesis"] = (k, cfg.filter_len)
    return shapes


def init_params(seed: int, cfg: NetConfig = NetConfig()) -> SeparatorParams:
    """Deterministic uniform [-a, a] init with a = sqrt(6 / (fan_in + fan_out)).

    Biases start at zero; the smoothing kernel starts uniform (1/width
    after normalization).
    """
    rng = np.random.default_rng(seed)
    shapes = param_shapes(cfg)
    k, taps, hidden = cfg.components, cfg.filter_len, cfg.hidden
    bound_bank = np.sqrt(6.0 / (taps + k))
    analysis = parameter(rng.uniform(-bound_bank, bound_bank, size=shapes["analysis"]))
    synthesis = None
    if "synthesis" in shapes:
        synthesis = parameter(rng.uniform(-bound_bank, bound_bank, size=shapes["synthesis"]))
    w1 = parameter(rng.uniform(-np.sqrt(6.0 / (k + hidden)), np.sqrt(6.0 / (k + hidden)), size=shapes["w1"]))
    w2 = parameter(rng.uniform(-np.sqrt(6.0 / (hidden + k)), np.sqrt(6.0 / (hidden + k)), size=shapes["w2"]))
    b1 = parameter(np.zeros(shapes["b1"]))
    b2 = parameter(np.zeros(shapes["b2"]))
    # softplus(log(e - 1)) = 1, so the normalized kernel is exactly uniform
    smoothing_raw = parameter(np.full(shapes["smoothing_raw"], np.log(np.e - 1.0)))
    return SeparatorParams(cfg, analysis, smoothing_raw, w1, b1, w2, b2, synthesis)


def _smoothing_pad(cfg: NetConfig) -> tuple[int, int]:
    """Neighbour frames the modulation smoothing reads before and after a frame."""
    width = cfg.smoothing_width
    return (width - 1) // 2, width // 2


def analysis_forward(w, params: SeparatorParams) -> AetRepresentation:
    """Mixture waveform (a Waveform or an array) -> (X, M), one column per analysis frame."""
    cfg = params.cfg
    if isinstance(w, Tensor):  # the input is constant: no gradient reaches it
        raise TypeError("analysis_forward takes a Waveform or an array, not a Tensor")
    x = np.asarray(w.samples if isinstance(w, Waveform) else w, dtype=np.float64)
    if x.size < cfg.filter_len:
        raise SignalTooShort(f"need at least {cfg.filter_len} samples, got {x.size}")
    X = engine.conv1d(x, params.analysis, cfg.stride)

    # "same" convolution of |X| along frames, per component
    pad = _smoothing_pad(cfg)
    M = engine.modulation(X, params.smoothing_kernel(), pad, cfg.modulation_floor)
    return AetRepresentation(X=X, M=M)


def separator_forward(modulation, params: SeparatorParams) -> Tensor:
    """Estimate the target modulation from the mixture modulation (per frame)."""
    m = as_tensor(modulation)
    if m.data.ndim != 2 or m.data.shape[0] != params.cfg.components:
        raise ShapeError(f"modulation must be ({params.cfg.components}, frames), got {m.data.shape}")
    hidden = engine.affine_softplus(params.w1, m, params.b1)
    return engine.affine_softplus(params.w2, hidden, params.b2)


def synthesis_forward(modulation_hat, rep: AetRepresentation, params: SeparatorParams) -> Tensor:
    """Re-modulate rep's carrier X / M and synthesize a waveform by transposed convolution."""
    return engine.conv1d_transpose(modulation_hat, params.synthesis_filters, params.cfg.stride, carrier=(rep.X, rep.M))


def forward(w, params: SeparatorParams) -> Tensor:
    """Full network composition of a Waveform or an array; output length (L-1)*stride + filter_len for L frames."""
    rep = analysis_forward(w, params)
    return synthesis_forward(separator_forward(rep.M, params), rep, params)


def _separate_blocks(samples: np.ndarray, params: SeparatorParams, edge: int = 0) -> np.ndarray:
    """forward(samples with `edge` zeros on each side) without gradient recording, over blocks of frames.

    The L analysis frames split into ceil(L / BLOCK_FRAMES) near-equal
    blocks. Block [a, b) is analysed from its own zero-padded slice of
    the input, with the smoothing pad's neighbour frames as a halo, and
    its synthesis is overlap-added at sample a * stride, so only one
    block's representation per worker is alive at once, and the padded
    input is never formed whole.

    A block keeps X and M of its kept frames as views, writes the carrier
    X / M over X, runs the separator's two dense layers on M, freeing M
    before the second, re-modulates the separator's output in place, in
    conv1d_transpose's arithmetic, and synthesizes with
    `engine._synthesize`. It records no tape and is the only holder of
    these arrays, so it neither copies nor allocates beside them.

    The blocks run through engine._beside (the engine's thread rule),
    which yields their syntheses in block order, and the caller adds them
    in that order, so the output is bitwise the same for any worker count.
    """
    cfg = params.cfg
    taps, stride = cfg.filter_len, cfg.stride
    n = samples.size + 2 * edge
    if n < taps:
        raise SignalTooShort(f"need at least {taps} samples, got {n}")
    frames = (n - taps) // stride + 1
    blocks = -(-frames // BLOCK_FRAMES)
    bounds = [frames * i // blocks for i in range(blocks + 1)]
    pad = _smoothing_pad(cfg)

    def synthesize(span: tuple[int, int]) -> np.ndarray:
        a, b = span
        lo, hi = max(0, a - pad[0]), min(frames, b + pad[1])
        # the block's slice of the input with `edge` zeros on each side
        start = lo * stride - edge
        x = np.zeros((hi - 1 - lo) * stride + taps)
        part = samples[max(start, 0) : start + x.size]
        x[max(-start, 0) : max(-start, 0) + part.size] = part
        rep = analysis_forward(x, params)
        kept = slice(a - lo, b - lo)
        # views of the kept frames: each array is freed with its last view
        carrier, M = rep.X.data[:, kept], rep.M.data[:, kept]
        del rep
        np.divide(carrier, M, out=carrier)
        # separator_forward's two layers, with M freed before the second
        hidden = engine.affine_softplus(params.w1, M, params.b1).data
        del M
        coeffs = engine.affine_softplus(params.w2, hidden, params.b2).data
        del hidden
        coeffs *= carrier
        del carrier
        return engine._synthesize(coeffs, params.synthesis_filters.data, stride)

    out = np.zeros((frames - 1) * stride + taps)
    spans = list(zip(bounds, bounds[1:]))
    for (a, _), y in zip(spans, engine._beside(synthesize, spans)):
        out[a * stride : a * stride + y.size] += y
    return out


def separate(w_mix: Waveform, params: SeparatorParams) -> Waveform:
    """Run the network without gradient recording, in blocks of frames.

    Equals forward(w_mix) up to roundoff, bitwise when the input has at
    most BLOCK_FRAMES (256) frames, and bitwise the same however many
    threads run the blocks; memory does not grow with the input beyond
    the output itself and one block's working set per thread.
    """
    return Waveform(_separate_blocks(w_mix.samples, params), w_mix.sample_rate)


def separate_full_length(w_mix: Waveform, params: SeparatorParams) -> Waveform:
    """Length-preserving separation: pad, separate, cut the synthesis edges.

    The network runs on the input zero-padded by half a filter length on
    each side, so the synthesis covers the whole original extent; the
    output is the view of the synthesis aligned with the input samples.
    Separation runs in blocks of frames as in separate, each block padding
    its own slice, so besides one block's working set per thread it holds
    only the synthesis, about one input size.
    """
    cfg = params.cfg
    half = cfg.filter_len // 2
    if cfg.stride > half:
        raise ValueError("length-preserving separation needs stride <= filter_len/2")
    n = len(w_mix)
    return Waveform(_separate_blocks(w_mix.samples, params, half)[half : half + n], w_mix.sample_rate)


def order_bases_by_dominant_frequency(params: SeparatorParams, sample_rate: int):
    """Ascending sort of the analysis filters by their spectral peak.

    Returns (permutation, dominant_frequencies_hz); the permutation is a
    stable argsort, so re-computation is reproducible. ValueError unless
    sample_rate is a positive integer.
    """
    _check_rate(sample_rate)
    spectra = np.abs(np.fft.rfft(params.analysis.data, n=BASIS_DFT_LEN, axis=1))
    freqs = spectra.argmax(axis=1) * (sample_rate / BASIS_DFT_LEN)
    perm = np.argsort(freqs, kind="stable")
    return perm, freqs


def export_bases_csv(params: SeparatorParams, sample_rate: int, path) -> None:
    """CSV of analysis filters, one row per filter sorted by dominant frequency.

    Column 1 is the dominant frequency in Hz; the remaining columns are
    the filter taps at full precision.
    """
    perm, freqs = order_bases_by_dominant_frequency(params, sample_rate)
    bank = params.analysis.data
    rows = (",".join([repr(float(freqs[i]))] + [repr(float(v)) for v in bank[i]]) + "\n" for i in perm)
    _write_atomic(path, (row.encode("ascii") for row in rows))
