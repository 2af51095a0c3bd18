"""Dataset assembly, gradient training on composite costs, checkpoints.

Determinism contract: every run is a pure function of (seed, config,
data). Per-step randomness is derived statelessly from
(seed, epoch, position), so training resumed from a checkpoint replays
the exact step sequence of an uninterrupted run.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import aet_net, losses
from . import diff_engine as engine
from .aet_net import NetConfig, SeparatorParams, init_params
from .diff_engine import Tensor
from .errors import CorruptFile, IncompatibleCheckpoint, NoData, NumericalDivergence, ShapeError, SilentSignal
from .errors import check_field_types
from .losses import CompositeCost, StoiConfig, normalize_cost_scales, parse_cost_spec
from .signal_io import MixturePair, _write_atomic, mix_at_snr, read_wav, resample

CHECKPOINT_VERSION = 2
# longest first line load_checkpoint reads: a version-2 header is a few
# hundred bytes, while the first line of a version-1 file is the whole file
MAX_HEADER_BYTES = 1 << 20
# a random training excerpt whose target RMS is below this fraction of the
# utterance's is silent, and is drawn again at most EXCERPT_DRAWS - 1 times
SILENT_EXCERPT_RATIO = 1e-3
EXCERPT_DRAWS = 8


@dataclass
class TrainConfig:
    cost: str = "sdr"
    learning_rate: float = 1e-3
    optimizer: str = "adam"  # "adam" | "sgd"
    beta1: float = 0.9
    beta2: float = 0.999
    eps_opt: float = 1e-8
    epochs: int = 1
    seed: int = 0
    snr_db: float = 0.0
    excerpt_len: int = 32768  # 0 trains on full utterances
    trim: int = 1024  # samples cut from each end before the loss
    sample_rate: int = 16000

    def __post_init__(self):
        if not isinstance(self.sample_rate, int) or self.sample_rate <= 0:  # ahead of the type check, for its message
            raise ValueError(f"sample_rate must be a positive integer, got {self.sample_rate!r}")
        check_field_types(self)
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be nonnegative")
        if self.excerpt_len != 0 and self.excerpt_len < 4096:
            raise ValueError("excerpt_len must be 0 (full) or at least 4096")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError("optimizer must be 'adam' or 'sgd'")
        if self.epochs < 0 or self.trim < 0:
            raise ValueError("epochs and trim must be nonnegative")


@dataclass
class Dataset:
    pairs: list[MixturePair]


@dataclass
class OptState:
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


@dataclass
class FitResult:
    params: SeparatorParams
    opt_state: OptState
    cost: CompositeCost
    log: list[dict]
    steps_done: int


def _wav_files(directory) -> list[Path]:
    return sorted(p for p in Path(directory).iterdir() if p.suffix.lower() == ".wav")


def build_dataset(
    target_dir, interference_dir, snr_db: float = 0.0, seed: int = 0, sample_rate: int = 16000
) -> Dataset:
    """Pair target and interference WAVs (seeded shuffle, zip) and mix each pair.

    Files are resampled to sample_rate first; pairing and mixing are
    fully reproducible from the seed.
    """
    targets = _wav_files(target_dir)
    interferences = _wav_files(interference_dir)
    if not targets or not interferences:
        raise NoData(f"no WAV files under {target_dir} or {interference_dir}")
    rng = np.random.default_rng(seed)
    t_order = rng.permutation(len(targets))
    i_order = rng.permutation(len(interferences))
    pairs = []
    for ti, ii in zip(t_order, i_order):
        y = resample(read_wav(targets[ti]), sample_rate)
        z = resample(read_wav(interferences[ii]), sample_rate)
        pairs.append(mix_at_snr(y, z, snr_db))
    return Dataset(pairs)


def _excerpt(pair: MixturePair, cfg: TrainConfig, rng=None):
    """Cut one training excerpt; rng=None takes the leading excerpt.

    An excerpt whose target RMS is below SILENT_EXCERPT_RATIO of the
    whole target's is silent, so a step never trains on silence and a
    cost is never scaled by one. A random excerpt is drawn again from the
    same rng, up to EXCERPT_DRAWS draws in all. A silent leading excerpt
    gives way to the first one at a multiple of the excerpt length that
    is not silent. If every draw, or every such excerpt, is silent,
    SilentSignal is raised.
    """
    n = len(pair.mixture)
    length = n if cfg.excerpt_len == 0 else min(cfg.excerpt_len, n)
    max_offset = n - length
    if rng is None:
        offsets = range(0, max_offset + 1, length)
    elif max_offset > 0:
        offsets = (int(rng.integers(0, max_offset + 1)) for _ in range(EXCERPT_DRAWS))
    else:
        offsets = [0]
    target = pair.target.samples
    floor = SILENT_EXCERPT_RATIO * pair.target.rms()
    offset = next((o for o in offsets if np.sqrt(np.mean(np.square(target[o : o + length]))) >= floor), None)
    if offset is None:
        if rng is None:
            raise SilentSignal(f"every {length}-sample excerpt at a multiple of its length is silent")
        raise SilentSignal(f"{EXCERPT_DRAWS} draws of a {length}-sample excerpt were all silent")
    window = slice(offset, offset + length)
    return (
        pair.mixture.samples[window],
        pair.target.samples[window],
        pair.interference.samples[window],
    )


def _aligned_loss_inputs(estimate: Tensor, y: np.ndarray, z: np.ndarray, trim: int):
    """Trim synthesis edges; all three signals leave with identical lengths."""
    n_out = estimate.data.size
    if n_out <= 2 * trim:
        raise ValueError(f"trim {trim} leaves no samples of a {n_out}-sample output")
    x_al = estimate[trim : n_out - trim]
    y_al = Tensor(y[trim : n_out - trim])
    z_al = Tensor(z[trim : n_out - trim])
    return x_al, y_al, z_al


def _check_rate(pair: MixturePair, cfg: TrainConfig) -> None:
    """ShapeError unless all three signals of the pair are sampled at cfg.sample_rate.

    That is the rate the STOI cost and the checkpoint assume.
    """
    rates = sorted({w.sample_rate for w in (pair.mixture, pair.target, pair.interference)})
    if rates != [cfg.sample_rate]:
        raise ShapeError(f"pair sampled at {'/'.join(map(str, rates))} Hz, training at {cfg.sample_rate} Hz")


def _excerpt_terms(
    params: SeparatorParams,
    pair: MixturePair,
    cost: CompositeCost,
    cfg: TrainConfig,
    stoi_cfg: StoiConfig,
    rng,
):
    """Run one excerpt through the network and the cost: (total, {kind: raw}).

    ShapeError if the pair is not sampled at cfg.sample_rate (`_check_rate`).
    """
    _check_rate(pair, cfg)
    mix, y, z = _excerpt(pair, cfg, rng)
    estimate = aet_net.forward(Tensor(mix), params)
    x_al, y_al, z_al = _aligned_loss_inputs(estimate, y, z, cfg.trim)
    return losses.composite_terms(cost, x_al, y_al, z_al, stoi_cfg, cfg.sample_rate)


def _apply_update(params: SeparatorParams, opt: OptState, cfg: TrainConfig) -> None:
    opt.step += 1
    trained = [(name, t) for name, t in params.tensors().items() if t.grad is not None]
    if cfg.optimizer == "sgd":
        for _, t in trained:
            t.data -= cfg.learning_rate * t.grad
        return
    for name, t in trained:
        if name not in opt.m:
            opt.m[name] = np.zeros_like(t.data)
            opt.v[name] = np.zeros_like(t.data)
        data, m, v, g = t.data, opt.m[name], opt.v[name], t.grad

        def update(r: slice, scratch: np.ndarray) -> None:
            _adam_block(data[r], m[r], v[r], g[r], scratch, opt.step, cfg)

        # One row pass (engine._row_pass) per parameter, over its row blocks
        # (engine._row_blocks), whose slices are views of any layout. The
        # scratch is 2 x _ROW_BLOCK for every parameter: with block-sized
        # scratch, or one pass over every parameter's blocks, a smoke-net
        # step took twice the page faults and ran about 8% slower.
        scratch = (2, max(engine._ROW_BLOCK, data.shape[1]))
        engine._row_pass(update, engine._row_blocks(*data.shape)[1], data.size, scratch)


def _adam_block(data, m, v, g, scratch: np.ndarray, step: int, cfg: TrainConfig) -> None:
    """One Adam update of a block of data, m and v in place, with scratch's rows as temporaries.

    The same operations in the same order as the textbook form
      m = beta1*m + (1-beta1)*g;  v = beta2*v + (1-beta2)*g*g
      data -= lr * m_hat / (sqrt(v_hat) + eps)
    so parameters and moments are bitwise those of that form.
    """
    a, b = (row[: g.size].reshape(g.shape) for row in scratch)
    m *= cfg.beta1
    m += np.multiply(1.0 - cfg.beta1, g, out=a)
    v *= cfg.beta2
    np.multiply(1.0 - cfg.beta2, g, out=a)
    v += np.multiply(a, g, out=a)
    np.divide(v, 1.0 - cfg.beta2**step, out=a)
    np.sqrt(a, out=a)
    a += cfg.eps_opt
    np.divide(m, 1.0 - cfg.beta1**step, out=b)
    np.multiply(cfg.learning_rate, b, out=b)
    data -= np.divide(b, a, out=b)


def train_step(
    params: SeparatorParams,
    pair: MixturePair,
    cost: CompositeCost,
    cfg: TrainConfig,
    opt_state: OptState,
    stoi_cfg: StoiConfig = StoiConfig(),
    rng=None,
):
    """One optimizer step on one excerpt.

    Returns (pre-update total loss, raw per-component values). Aborts
    before any update if the loss or a gradient is non-finite.
    """
    total, terms = _excerpt_terms(params, pair, cost, cfg, stoi_cfg, rng)
    loss_value = total.item()
    if not math.isfinite(loss_value):
        raise NumericalDivergence(f"non-finite loss {loss_value!r}")

    for t in params.tensors().values():
        t.zero_grad()
    total.backward()
    for name, t in params.tensors().items():
        if t.grad is not None and not np.all(np.isfinite(t.grad)):
            raise NumericalDivergence(f"non-finite gradient for {name}")
    _apply_update(params, opt_state, cfg)
    raw = {kind: tensor.item() for kind, tensor in terms.items()}
    return loss_value, raw


def initial_component_means(
    params: SeparatorParams,
    pairs,
    cost: CompositeCost,
    cfg: TrainConfig,
    stoi_cfg: StoiConfig = StoiConfig(),
) -> dict[str, float]:
    """Average raw loss per component over the normalization batch.

    Uses the leading excerpt of each pair (`_excerpt` with rng=None) with
    the given (initial) parameters; no gradients are recorded.
    """
    sums = {c.kind: 0.0 for c in cost.components}
    with engine.no_grad():
        for index, pair in enumerate(pairs):
            try:
                _, terms = _excerpt_terms(params, pair, cost, cfg, stoi_cfg, rng=None)
            except (SilentSignal, ShapeError) as exc:
                raise type(exc)(f"pair {index}: {exc}") from exc
            for kind, tensor in terms.items():
                sums[kind] += tensor.item()
    return {kind: total / len(pairs) for kind, total in sums.items()}


def fit(
    dataset: Dataset,
    cfg: TrainConfig,
    net_cfg: NetConfig = NetConfig(),
    stoi_cfg: StoiConfig = StoiConfig(),
    log_path=None,
    resume=None,
    step_callback=None,
) -> FitResult:
    """Normalization pass, then epochs x dataset sweeps of train_step.

    Each epoch visits the pairs in a seeded shuffled order. resume
    continues from a checkpoint of the same run: net_cfg and every cfg
    field but epochs must equal the stored configs, and its meta must
    hold steps_done and cost_scales, else IncompatibleCheckpoint. On
    divergence the log is still written, and the NumericalDivergence
    carries the last good state as a FitResult in its .result. A pair
    not sampled at cfg.sample_rate raises ShapeError before either pass.
    """
    if not dataset.pairs:
        raise NoData("dataset is empty")
    for index, pair in enumerate(dataset.pairs):
        try:
            _check_rate(pair, cfg)
        except ShapeError as exc:
            raise ShapeError(f"pair {index}: {exc}") from exc
    cost = parse_cost_spec(cfg.cost)
    log: list[dict] = []

    if resume is not None:
        params, opt_state, meta = load_checkpoint(resume)
        if params.cfg != net_cfg:
            raise IncompatibleCheckpoint(f"{resume}: network config {params.cfg} differs from {net_cfg}")
        # a checkpoint saved without its TrainConfig is checked for the network alone
        stored = meta["train"] or {}
        changed = [key for key, value in stored.items() if key != "epochs" and getattr(cfg, key, None) != value]
        if changed:
            raise IncompatibleCheckpoint(f"{resume}: train config differs from the checkpoint in {changed}")
        missing = [key for key in ("steps_done", "cost_scales") if key not in meta]
        if missing:
            raise IncompatibleCheckpoint(f"{resume}: cannot resume, checkpoint meta lacks {', '.join(missing)}")
        steps_done = int(meta["steps_done"])
        cost = CompositeCost(cost.components, tuple(meta["cost_scales"]))
    else:
        params = init_params(cfg.seed, net_cfg)
        opt_state = OptState()
        steps_done = 0
        batch = dataset.pairs[: min(10, len(dataset.pairs))]
        initial = initial_component_means(params, batch, cost, cfg, stoi_cfg)
        cost = normalize_cost_scales(cost, [initial[c.kind] for c in cost.components])
        for comp, scale in zip(cost.components, cost.scales):
            log.append(
                {
                    "event": "normalize",
                    "component": comp.kind,
                    "initial": initial[comp.kind],
                    "scale": scale,
                }
            )

    steps_per_epoch = len(dataset.pairs)
    total_steps = cfg.epochs * steps_per_epoch
    epoch_order = None
    order_epoch = -1
    for global_step in range(steps_done, total_steps):
        epoch, position = divmod(global_step, steps_per_epoch)
        if epoch != order_epoch:
            epoch_order = np.random.default_rng([cfg.seed, epoch]).permutation(steps_per_epoch)
            order_epoch = epoch
        index = int(epoch_order[position])
        step_rng = np.random.default_rng([cfg.seed, epoch, position])
        try:
            loss_value, raw = train_step(params, dataset.pairs[index], cost, cfg, opt_state, stoi_cfg, step_rng)
        except (SilentSignal, ShapeError) as exc:
            raise type(exc)(f"pair {index}: {exc}") from exc
        except NumericalDivergence as exc:
            exc.result = FitResult(params, opt_state, cost, log, global_step)
            if log_path is not None:
                write_log(log, log_path)
            raise
        entry = {"epoch": epoch, "step": global_step, "components": raw, "total": loss_value}
        log.append(entry)
        if step_callback is not None:
            step_callback(params, opt_state, entry)

    if log_path is not None:
        write_log(log, log_path)
    # a resume past this run's length trains nothing and keeps the checkpoint's count
    return FitResult(params, opt_state, cost, log, max(total_steps, steps_done))


def write_log(log: list[dict], path) -> None:
    """JSON-lines training log, one object per entry, replaced atomically."""
    _write_atomic(path, ((json.dumps(entry) + "\n").encode("ascii") for entry in log))


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(
    params: SeparatorParams,
    opt_state: OptState,
    path,
    train_cfg: TrainConfig | None = None,
    meta: dict | None = None,
) -> None:
    """Checkpoint: one JSON header line, then the raw tensors.

    The header is json.dumps of {"format_version", "config", "tensors"}
    and a newline (json.dumps never writes a raw one); "tensors" lists
    [name, shape] in payload order. Each tensor's little-endian float64
    bytes follow, back to back. The file is replaced atomically, so an
    interrupted save keeps the previous checkpoint.
    """
    tensors = [(name, t.data) for name, t in params.tensors().items()]
    tensors += [(f"opt.m.{name}", arr) for name, arr in opt_state.m.items()]
    tensors += [(f"opt.v.{name}", arr) for name, arr in opt_state.v.items()]
    header = {
        "format_version": CHECKPOINT_VERSION,
        "config": {
            "network": asdict(params.cfg),
            "train": asdict(train_cfg) if train_cfg is not None else None,
            "meta": dict(meta or {}, opt_step=opt_state.step),
        },
        "tensors": [[name, list(arr.shape)] for name, arr in tensors],
    }
    chunks = [(json.dumps(header) + "\n").encode("ascii")]
    chunks += [np.ascontiguousarray(arr, dtype="<f8") for _, arr in tensors]
    _write_atomic(path, chunks)


def _tensor_entry(entry, shapes: dict, path) -> tuple[str, tuple]:
    """Check one [name, shape] header entry against the network's parameter shapes."""
    if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)):
        raise CorruptFile(f"{path}: tensor entry {entry!r} is not [name, shape]")
    name, shape = entry
    param = name[6:] if name[:6] in ("opt.m.", "opt.v.") else name
    if param not in shapes:
        raise CorruptFile(f"{path}: tensor {name!r} names no parameter of this network")
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise CorruptFile(f"{path}: tensor {name!r} shape {shape!r} is not a list of non-negative integers")
    if tuple(shape) != shapes[param]:
        raise CorruptFile(f"{path}: tensor {name!r} has shape {tuple(shape)}, network needs {shapes[param]}")
    return name, shapes[param]


def load_checkpoint(path):
    """Rebuild (params, opt_state, meta) bit-exactly from a checkpoint file.

    The whole header is checked before any payload is read: its
    format_version (any other, such as the base64 JSON of version 1,
    raises IncompatibleCheckpoint, as does a first line longer than
    MAX_HEADER_BYTES, which is not read past), then the network config,
    and each entry's name and shape against it. Each tensor is then read
    straight into its own array, so a load holds little beyond the arrays
    it returns. A malformed header, an unknown, repeated or missing
    tensor, an Adam moment without its pair, a short file or trailing
    bytes raise CorruptFile.
    """
    with open(path, "rb") as fh:
        line = fh.readline(MAX_HEADER_BYTES)
        if len(line) == MAX_HEADER_BYTES and not line.endswith(b"\n"):
            raise IncompatibleCheckpoint(
                f"{path}: first line exceeds {MAX_HEADER_BYTES} bytes, so this is not a "
                f"version-{CHECKPOINT_VERSION} checkpoint"
            )
        try:
            header = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CorruptFile(f"{path}: checkpoint header is not valid JSON") from exc
        if not isinstance(header, dict) or "format_version" not in header:
            raise CorruptFile(f"{path}: missing format_version")
        if header["format_version"] != CHECKPOINT_VERSION:
            raise IncompatibleCheckpoint(
                f"{path}: format_version {header['format_version']} != {CHECKPOINT_VERSION}"
            )
        try:
            config = header["config"]
            net_cfg = NetConfig(**config["network"])
            meta = dict(config.get("meta") or {})
            opt_step = int(meta.pop("opt_step", 0))
            entries = list(header["tensors"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptFile(f"{path}: malformed checkpoint structure") from exc

        shapes = aet_net.param_shapes(net_cfg)
        layout = {}
        for entry in entries:
            name, shape = _tensor_entry(entry, shapes, path)
            if name in layout:
                raise CorruptFile(f"{path}: tensor {name!r} is listed twice")
            layout[name] = shape
        missing = [name for name in shapes if name not in layout]
        if missing:
            raise CorruptFile(f"{path}: missing tensor {missing[0]!r}")
        tensors = {name: np.empty(shape, dtype="<f8") for name, shape in layout.items()}
        for name, arr in tensors.items():
            if fh.readinto(arr) != arr.nbytes:
                raise CorruptFile(f"{path}: file ends inside tensor {name!r}")
        if fh.read(1):
            raise CorruptFile(f"{path}: bytes follow the last tensor")

    # the arrays are fresh, so the parameters take them without parameter()'s copy
    params = SeparatorParams(net_cfg, **{name: Tensor(tensors[name], requires_grad=True) for name in shapes})
    opt_state = OptState(step=opt_step)
    moments = {"opt.m.": opt_state.m, "opt.v.": opt_state.v}
    for name, arr in tensors.items():
        if name[:6] in moments:
            moments[name[:6]][name[6:]] = arr
    if opt_state.m.keys() != opt_state.v.keys():
        raise CorruptFile(f"{path}: Adam moments m and v name different parameters")
    meta["train"] = config.get("train")
    return params, opt_state, meta
