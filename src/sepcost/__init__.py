"""Performance-based separation costs, an adaptive-transform separation
network, and projection-based evaluation metrics."""

from .aet_net import (
    AetRepresentation,
    NetConfig,
    SeparatorParams,
    analysis_forward,
    export_bases_csv,
    init_params,
    order_bases_by_dominant_frequency,
    separate,
    separate_full_length,
    separator_forward,
    synthesis_forward,
)
from .diff_engine import (
    Tensor,
    evaluate_with_gradient,
    finite_difference_gradient,
    max_relative_error,
    no_grad,
)
from .dsp import BandMatrix, octave_band_matrix
from .losses import (
    CompositeCost,
    CostComponent,
    StoiConfig,
    StoiReference,
    composite_terms,
    mse_loss,
    normalize_cost_scales,
    parse_cost_spec,
    sar_loss,
    sdr_loss,
    sir_loss,
    stoi_forward,
    stoi_loss,
    stoi_reference,
)
from .metrics import EvalReport, bss_decompose, bss_eval_metrics, evaluate, format_report_row, stoi_metric
from .signal_io import MixturePair, Waveform, mix_at_snr, read_wav, resample, write_wav
from .trainer import (
    Dataset,
    FitResult,
    OptState,
    TrainConfig,
    build_dataset,
    fit,
    load_checkpoint,
    save_checkpoint,
    train_step,
)

__version__ = "0.1.0"
