"""Projection-based separation metrics (dB) and the intelligibility score.

The estimate is decomposed against the clean references by plain inner-
product projections (no allowed-distortion filtering):

    s_target = (<x,y>/<y,y>) y
    e_interf = (<x,z>/<z,z>) z
    e_artif  = x - s_target - e_interf

SDR/SIR/SAR are energy ratios over that decomposition; vanishing error
energies report +infinity, a vanishing numerator over a nonvanishing
error energy (an estimate with no target component) reports -infinity,
and a silent estimate raises SilentSignal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diff_engine as engine
from . import losses
from .errors import ShapeError, SilentSignal
from .losses import StoiConfig
from .signal_io import RMS_SILENCE_FLOOR, Waveform

ENERGY_FLOOR_RATIO = 1e-30


@dataclass
class EvalReport:
    """Separation quality numbers; dB fields may be math.inf."""

    sdr_db: float
    sir_db: float
    sar_db: float
    stoi: float | None = None


def _triple(x, y, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample arrays of x, y, z (`losses._pair`'s checks), 1-D, with y and z not silent."""
    xs, ys, zs = (t.data for t in losses._pair(x, y, z))
    if xs.ndim != 1:
        raise ShapeError(f"need 1-D signals, got shape {xs.shape}")
    for name, s in (("target", ys), ("interference", zs)):
        if math.sqrt(float(np.mean(s**2))) <= RMS_SILENCE_FLOOR:
            raise SilentSignal(f"{name} is silent")
    return xs, ys, zs


def _project(xs: np.ndarray, ys: np.ndarray, zs: np.ndarray):
    """(s_target, e_interf, e_artif) of validated sample arrays."""
    s_target = (float(xs @ ys) / float(ys @ ys)) * ys
    e_interf = (float(xs @ zs) / float(zs @ zs)) * zs
    return s_target, e_interf, xs - s_target - e_interf


def bss_decompose(x, y, z):
    """Split the estimate into target projection, interference projection, and residual.

    Returns (s_target, e_interf, e_artif) matching the input container
    type; their sum reconstructs x exactly.
    """
    s_target, e_interf, e_artif = _project(*_triple(x, y, z))
    if isinstance(x, Waveform):
        rate = x.sample_rate
        return Waveform(s_target, rate), Waveform(e_interf, rate), Waveform(e_artif, rate)
    return s_target, e_interf, e_artif


def _ratio_db(num: float, den: float, floor: float) -> float:
    if den <= floor:
        return math.inf
    if num == 0.0:
        return -math.inf
    return 10.0 * math.log10(num / den)


def bss_eval_metrics(x, y, z) -> EvalReport:
    """SDR/SIR/SAR in dB from the projection decomposition (stoi left unset)."""
    xs, ys, zs = _triple(x, y, z)
    energy = float(xs @ xs)
    if energy == 0.0:  # every ratio would be 0/0, and the floor 0
        raise SilentSignal("estimate is silent")
    s_target, e_interf, e_artif = _project(xs, ys, zs)
    floor = ENERGY_FLOOR_RATIO * energy
    e_st = float(s_target @ s_target)
    e_ei = float(e_interf @ e_interf)
    e_ea = float(e_artif @ e_artif)
    e_dist = float((e_interf + e_artif) @ (e_interf + e_artif))
    e_sti = float((s_target + e_interf) @ (s_target + e_interf))
    return EvalReport(
        sdr_db=_ratio_db(e_st, e_dist, floor),
        sir_db=_ratio_db(e_st, e_ei, floor),
        sar_db=_ratio_db(e_sti, e_ea, floor),
    )


def stoi_metric(x, y, cfg: StoiConfig = StoiConfig(), sample_rate: int | None = None) -> float:
    """Intelligibility score; same code path as the loss, no gradient recording.

    `band_envelopes` transforms its frames in blocks and
    `segment_correlation` works in blocks of bands, so a 60 s or 240 s
    pair at 16 kHz peaks at 16 or 63 MB traced, mostly one signal's
    resampling buffers and magnitude array.

    y is a target signal or a `losses.StoiReference` prepared from one,
    which scores several estimates against one target without redoing
    the target's half. Defined as the exact complement of the
    minimization loss (1 - loss), so metric + loss == 1 holds bitwise
    for every input.
    """
    with engine.no_grad():
        score, _ = losses.stoi_forward(x, y, cfg, sample_rate=sample_rate)
    return 1.0 - (1.0 - score.item())


def evaluate(estimate, target, interference, cfg: StoiConfig = StoiConfig()) -> EvalReport:
    """Full report: projection metrics plus the intelligibility score."""
    report = bss_eval_metrics(estimate, target, interference)
    report.stoi = stoi_metric(estimate, target, cfg)
    return report


def format_report_row(name: str, report: EvalReport) -> str:
    """CSV row `file,sdr_db,sir_db,sar_db,stoi` with 6 significant digits."""
    fields = [report.sdr_db, report.sir_db, report.sar_db, report.stoi]
    rendered = ["" if v is None else f"{v:.6g}" for v in fields]
    return ",".join([name] + rendered)
