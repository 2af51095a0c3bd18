"""Differentiable separation costs and their composites.

Minimization surrogates for the BSS energy ratios (an estimate x against
target y and interference z, all time-domain):

    sdr_loss = <x,x> / (<x,y>^2 + eps)
    sir_loss = <x,z>^2 / (<x,y>^2 + eps)
    sar_loss = <x,x> / (<x,y>^2/<y,y> + <x,z>^2/<z,z> + eps)

plus MSE and an intelligibility loss (1 - short-time octave-band envelope
correlation). Every denominator that can vanish carries an explicit
epsilon; the graphs record the math as written otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diff_engine as engine
from . import dsp
from .diff_engine import Tensor, as_tensor
from .errors import DegenerateScale, ShapeError, SignalTooShort, check_field_types
from .signal_io import Waveform, resample_plan

EPS = 1e-12

COST_KINDS = ("mse", "sdr", "sir", "sar", "stoi")


@dataclass(frozen=True)
class StoiConfig:
    """Parameters of the intelligibility pipeline."""

    frame_len: int = 256
    fft_len: int = 512
    num_bands: int = 15
    lowest_center: float = 150.0
    segment_frames: int = 30
    clip_db: float = -15.0
    analysis_rate: int = 10000

    def __post_init__(self):
        if not isinstance(self.analysis_rate, int) or self.analysis_rate <= 0:  # ahead of the type check, for its message
            raise ValueError(f"analysis_rate must be a positive integer, got {self.analysis_rate!r}")
        check_field_types(self)
        if self.segment_frames < 1:
            raise ValueError("segment_frames must be at least 1")
        if self.frame_len < 2:
            raise ValueError(f"frame_len must be at least 2, got {self.frame_len}")
        if self.fft_len < self.frame_len:
            raise ValueError(f"fft_len {self.fft_len} must be at least frame_len {self.frame_len}")
        if self.clip_db >= 0:
            raise ValueError("clip_db must be negative")

    @property
    def hop(self) -> int:
        """Frames overlap by half."""
        return self.frame_len // 2

    @property
    def clip_factor(self) -> float:
        return 1.0 + 10.0 ** (-self.clip_db / 20.0)


def _signal(x, rate: int | None = None) -> tuple[Tensor, int | None]:
    """x as a tensor, with a Waveform's own sample rate or else `rate`."""
    if isinstance(x, Waveform):
        return as_tensor(x.samples), x.sample_rate
    return as_tensor(x), rate


def _pair(x, y, z=None) -> tuple[Tensor, ...]:
    """(x, y) or (x, y, z) as tensors; their lengths and known sample rates must agree."""
    signals = [_signal(s) for s in ((x, y) if z is None else (x, y, z))]
    rates = sorted({rate for _, rate in signals if rate is not None})
    if len(rates) > 1:
        raise ShapeError(f"sample rates differ: {rates}")
    shapes = [t.data.shape for t, _ in signals]
    if len(set(shapes)) > 1:
        raise ShapeError(f"signal lengths differ: {shapes}")
    return tuple(t for t, _ in signals)


def mse_loss(x, y) -> Tensor:
    """Mean squared sample error."""
    xt, yt = _pair(x, y)
    return engine.mean(engine.square(xt - yt))


def sdr_loss(x, y) -> Tensor:
    """Distortion surrogate: scale-invariant, minimized when x is proportional to y.

    This is the correlation form of SI-SDR (Le Roux et al., "SDR -
    half-baked or well done?", arXiv 1811.02508): with rho the cosine
    between x and y, the loss is 1 / (|y|^2 rho^2), and SI-SDR is
    10 log10(rho^2 / (1 - rho^2)).
    """
    xt, yt = _pair(x, y)
    return engine.dot(xt, xt) / (engine.square(engine.dot(xt, yt)) + EPS)


def sir_loss(x, y, z) -> Tensor:
    """Interference surrogate: correlation with z over correlation with y.

    Assumes y and z are orthogonal in time (y ⟂ z), so that <x,y> and
    <x,z> measure the target and interference parts of x separately.
    """
    xt, yt, zt = _pair(x, y, z)
    return engine.square(engine.dot(xt, zt)) / (engine.square(engine.dot(xt, yt)) + EPS)


def sar_loss(x, y, z) -> Tensor:
    """Artifact surrogate: estimate energy over its projection onto span{y, z}.

    Assumes y and z are orthogonal in time (y ⟂ z), so the two projections
    add; minimized by any x inside the span (the identity map on the
    mixture, in particular).
    """
    xt, yt, zt = _pair(x, y, z)
    proj = engine.square(engine.dot(xt, yt)) / engine.dot(yt, yt) + engine.square(
        engine.dot(xt, zt)
    ) / engine.dot(zt, zt)
    return engine.dot(xt, xt) / (proj + EPS)


def _envelopes(t: Tensor, rate: int, cfg: StoiConfig) -> Tensor:
    """(..., J bands, F frames) band envelopes of signals sampled at `rate`.

    The signals, along t's last axis, are resampled (in-graph) to
    cfg.analysis_rate first, then run through the one front end,
    `diff_engine.band_envelopes`: Hann frames zero-padded to fft_len, and
    the one-third-octave band matrix applied in the power domain.
    SignalTooShort unless F holds at least one segment of
    cfg.segment_frames frames.
    """
    if rate != cfg.analysis_rate:
        t = engine.gather_linear(t, resample_plan(t.data.shape[-1], rate, cfg.analysis_rate))
    n10 = t.data.shape[-1]
    if n10 < cfg.frame_len:
        raise SignalTooShort(f"{n10} samples at {cfg.analysis_rate} Hz is less than one frame")
    n_frames = (n10 - cfg.frame_len) // cfg.hop + 1
    if n_frames < cfg.segment_frames:
        raise SignalTooShort(f"{n_frames} frames < {cfg.segment_frames} needed for one segment")
    bands = dsp.octave_band_matrix(cfg.analysis_rate, cfg.fft_len, cfg.num_bands, cfg.lowest_center)
    return engine.band_envelopes(
        t, cfg.frame_len, cfg.fft_len, cfg.hop, dsp.hann_periodic(cfg.frame_len), bands.weights
    )


@dataclass(frozen=True)
class StoiReference:
    """The target half of stoi_forward, which depends on the target y alone.

    Made by `stoi_reference`; pass it as `y` to score any number of
    estimates of the same length and rate against one target. It holds
    the target's band envelopes, which stay on y's tape, so y is
    differentiated through them when it requires a gradient.
    """

    cfg: StoiConfig
    rate: int  # sample rate of y, and of every estimate scored against it
    n_in: int  # samples of y
    envelopes: Tensor  # (J, F) band envelopes of y


def stoi_reference(y, cfg: StoiConfig = StoiConfig(), sample_rate: int | None = None) -> StoiReference:
    """Prepare target y once for scoring several estimates against it.

    y's rate is its Waveform rate, else sample_rate, else
    cfg.analysis_rate. Raises SignalTooShort if y holds less than one
    segment at the analysis rate.
    """
    yt, rate = _signal(y, sample_rate if sample_rate is not None else cfg.analysis_rate)
    return StoiReference(cfg, rate, yt.data.shape[-1], _envelopes(yt, rate, cfg))


def stoi_forward(x, y, cfg: StoiConfig = StoiConfig(), sample_rate: int | None = None):
    """Short-time octave-band envelope correlation between estimate and target.

    Both signals are resampled (in-graph) to cfg.analysis_rate, framed
    and pooled into one-third-octave band envelopes; one engine op,
    `diff_engine.segment_correlation`, cuts them into overlapping
    segment_frames-long segments, normalizes each estimate segment to the
    target's scale, clips it and correlates the two once centred. Returns
    (score, d) where score is the mean of the per-(band, segment)
    correlation matrix d.

    Signals lie along the last axis of x. A stack of estimates, shape
    (..., n), gives one score per leading index in one pass, d of shape
    (..., J, M'), and each row's score and gradient are bitwise those of
    that estimate alone.

    y is a target signal or a `StoiReference` prepared from one. A signal
    goes through `stoi_reference` (at x's rate if y has none), so both
    run the same ops in the same order. cfg must be the reference's, else
    ValueError; an estimate whose rate or length differs from the
    reference's raises ShapeError.
    """
    xt, rate = _signal(x, sample_rate)
    ref = y if isinstance(y, StoiReference) else stoi_reference(y, cfg, rate)
    if cfg != ref.cfg:
        raise ValueError("the STOI reference was prepared with a different StoiConfig")
    if rate is not None and rate != ref.rate:
        raise ShapeError(f"sample rates differ: {rate} vs {ref.rate}")
    if xt.data.shape[-1:] != (ref.n_in,):
        raise ShapeError(f"signal lengths differ: {xt.data.shape} vs {(ref.n_in,)}")

    d = engine.segment_correlation(
        _envelopes(xt, ref.rate, cfg), ref.envelopes, cfg.segment_frames, cfg.clip_factor, EPS
    )
    return engine.mean(d, axis=(-2, -1)), d


def stoi_loss(x, y, cfg: StoiConfig = StoiConfig(), sample_rate: int | None = None) -> Tensor:
    """1 - stoi_forward score (minimization form, range [0, 2]), one per estimate; y may be a StoiReference."""
    score, _ = stoi_forward(x, y, cfg, sample_rate=sample_rate)
    return 1.0 - score


@dataclass(frozen=True)
class CostComponent:
    kind: str
    weight: float


@dataclass(frozen=True)
class CompositeCost:
    """Weighted cost components with per-component normalization scales."""

    components: tuple[CostComponent, ...]
    scales: tuple[float, ...]

    def __post_init__(self):
        if len(self.components) != len(self.scales):
            raise ValueError("one scale per component required")
        if sum(c.weight for c in self.components) <= 0:
            raise ValueError("total weight must be positive")


def parse_cost_spec(spec: str) -> CompositeCost:
    """Parse a cost string such as "mse", "sdr", or "sir:0.75+sar:0.25".

    Component names and positive decimal weights, joined by '+'.
    """
    parts = [p.strip() for p in spec.strip().lower().split("+")]
    components = []
    seen = set()
    for part in parts:
        if not part:
            raise ValueError(f"empty component in cost spec {spec!r}")
        name, sep, weight_text = part.partition(":")
        if sep:
            try:
                weight = float(weight_text)
            except ValueError:
                raise ValueError(f"bad weight {weight_text!r} in cost spec {spec!r}") from None
            if not np.isfinite(weight) or weight <= 0:
                raise ValueError(f"weight must be a positive decimal, got {weight_text!r}")
        else:
            weight = 1.0
        if name not in COST_KINDS:
            raise ValueError(f"unknown cost component {name!r}")
        if name in seen:
            raise ValueError(f"duplicate cost component {name!r}")
        seen.add(name)
        components.append(CostComponent(name, weight))
    return CompositeCost(tuple(components), tuple(1.0 for _ in components))


def normalize_cost_scales(cost: CompositeCost, initial_losses) -> CompositeCost:
    """Set each scale to 1/initial so every scaled component starts at unity."""
    initial = [float(v) for v in initial_losses]
    if len(initial) != len(cost.components):
        raise ValueError("one initial loss per component required")
    for comp, value in zip(cost.components, initial):
        if not np.isfinite(value) or value <= 0:
            raise DegenerateScale(f"initial {comp.kind} loss {value!r} cannot be normalized")
    return CompositeCost(cost.components, tuple(1.0 / v for v in initial))


def component_loss(kind: str, x, y, z=None, cfg: StoiConfig = StoiConfig(), sample_rate: int | None = None) -> Tensor:
    """The raw loss of one cost kind; for "stoi", y may be a StoiReference."""
    if kind == "mse":
        return mse_loss(x, y)
    if kind == "sdr":
        return sdr_loss(x, y)
    if kind in ("sir", "sar"):
        if z is None:
            raise ValueError(f"{kind} loss needs an interference signal")
        return sir_loss(x, y, z) if kind == "sir" else sar_loss(x, y, z)
    if kind == "stoi":
        return stoi_loss(x, y, cfg, sample_rate=sample_rate)
    raise ValueError(f"unknown cost component {kind!r}")


def composite_terms(
    cost: CompositeCost, x, y, z=None, cfg: StoiConfig = StoiConfig(), sample_rate: int | None = None
) -> tuple[Tensor, dict[str, Tensor]]:
    """(sum_i weight_i * scale_i * raw_i, {kind: raw_i}) over the cost components.

    The raw terms are the unweighted, unscaled loss tensors; the total
    is accumulated in component order.
    """
    terms = {c.kind: component_loss(c.kind, x, y, z, cfg, sample_rate) for c in cost.components}
    total = None
    for comp, scale in zip(cost.components, cost.scales):
        term = comp.weight * (scale * terms[comp.kind])
        total = term if total is None else total + term
    return total, terms
