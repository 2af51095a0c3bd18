"""Dataset assembly, gradient training on composite costs, checkpoints.

Determinism contract: every run is a pure function of (seed, config,
data). Per-step randomness is derived statelessly from
(seed, epoch, position), so training resumed from a checkpoint replays
the exact step sequence of an uninterrupted run.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
import os
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import aet_net, losses
from . import diff_engine as engine
from .aet_net import NetConfig, SeparatorParams, init_params
from .diff_engine import Tensor, parameter
from .errors import CorruptFile, IncompatibleCheckpoint, NoData, NumericalDivergence, SilentSignal
from .losses import CompositeCost, StoiConfig, normalize_cost_scales, parse_cost_spec
from .signal_io import MixturePair, mix_at_snr, read_wav, resample

CHECKPOINT_VERSION = 1
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
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be nonnegative")
        if self.excerpt_len != 0 and self.excerpt_len < 4096:
            raise ValueError("excerpt_len must be 0 (full) or at least 4096")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError("optimizer must be 'adam' or 'sgd'")
        if self.epochs < 0 or self.trim < 0:
            raise ValueError("epochs and trim must be nonnegative")
        if not isinstance(self.sample_rate, int) or self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be a positive integer, got {self.sample_rate!r}")


@dataclass
class Dataset:
    pairs: list[MixturePair]


@dataclass
class OptState:
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    # two flat buffers the Adam update reuses for its temporaries; not checkpointed
    scratch: np.ndarray = field(default_factory=lambda: np.empty((2, 0)), repr=False, compare=False)


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

    A random excerpt whose target RMS is below SILENT_EXCERPT_RATIO of
    the whole target's is drawn again from the same rng, up to
    EXCERPT_DRAWS draws in all, so a step never trains on silence; if
    every draw is silent, SilentSignal is raised.
    """
    n = len(pair.mixture)
    length = n if cfg.excerpt_len == 0 else min(cfg.excerpt_len, n)
    max_offset = n - length
    offset = 0
    if rng is not None and max_offset > 0:
        floor = SILENT_EXCERPT_RATIO * pair.target.rms()
        for _ in range(EXCERPT_DRAWS):
            offset = int(rng.integers(0, max_offset + 1))
            y = pair.target.samples[offset : offset + length]
            if np.sqrt(np.mean(y * y)) >= floor:
                break
        else:
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


def _excerpt_terms(
    params: SeparatorParams,
    pair: MixturePair,
    cost: CompositeCost,
    cfg: TrainConfig,
    stoi_cfg: StoiConfig,
    rng,
):
    """Run one excerpt through the network and the cost: (total, {kind: raw})."""
    mix, y, z = _excerpt(pair, cfg, rng)
    estimate = aet_net.forward(Tensor(mix), params)
    x_al, y_al, z_al = _aligned_loss_inputs(estimate, y, z, cfg.trim)
    return losses.composite_terms(cost, x_al, y_al, z_al, stoi_cfg, cfg.sample_rate)


def _apply_update(params: SeparatorParams, opt: OptState, cfg: TrainConfig) -> None:
    opt.step += 1
    tensors = params.tensors()
    largest = max(t.data.size for t in tensors.values())
    if cfg.optimizer == "adam" and opt.scratch.shape[1] < largest:
        opt.scratch = np.empty((2, largest))
    for name, t in tensors.items():
        g = t.grad
        if g is None:
            continue
        if cfg.optimizer == "sgd":
            t.data -= cfg.learning_rate * g
            continue
        if name not in opt.m:
            opt.m[name] = np.zeros_like(t.data)
            opt.v[name] = np.zeros_like(t.data)
        m = opt.m[name]
        v = opt.v[name]
        a, b = (buf[: g.size].reshape(g.shape) for buf in opt.scratch)
        # the same operations in the same order as the textbook form
        #   m = beta1*m + (1-beta1)*g;  v = beta2*v + (1-beta2)*g*g
        #   data -= lr * m_hat / (sqrt(v_hat) + eps)
        # so parameters and moments are bitwise those of that form
        m *= cfg.beta1
        m += np.multiply(1.0 - cfg.beta1, g, out=a)
        v *= cfg.beta2
        np.multiply(1.0 - cfg.beta2, g, out=a)
        v += np.multiply(a, g, out=a)
        np.divide(v, 1.0 - cfg.beta2**opt.step, out=a)
        np.sqrt(a, out=a)
        a += cfg.eps_opt
        np.divide(m, 1.0 - cfg.beta1**opt.step, out=b)
        np.multiply(cfg.learning_rate, b, out=b)
        t.data -= np.divide(b, a, out=b)


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

    Uses the leading excerpt of each pair with the given (initial)
    parameters; no gradients are recorded.
    """
    sums = {c.kind: 0.0 for c in cost.components}
    with engine.no_grad():
        for pair in pairs:
            _, terms = _excerpt_terms(params, pair, cost, cfg, stoi_cfg, rng=None)
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
    divergence the exception carries the last good state in its
    .params/.opt_state/.log/.steps_done attributes.
    """
    if not dataset.pairs:
        raise NoData("dataset is empty")
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
        except SilentSignal as exc:
            raise SilentSignal(f"pair {index}: {exc}") from exc
        except NumericalDivergence as exc:
            exc.params = params
            exc.opt_state = opt_state
            exc.log = log
            exc.steps_done = global_step
            exc.cost = cost
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
    _write_atomic(path, (json.dumps(entry) + "\n" for entry in log))


def _write_atomic(path, chunks) -> None:
    """Write an iterable of text chunks to a temp file beside path, then rename it over path.

    A write killed part-way leaves the previous file intact.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# checkpoints

# bytes base64-encoded per write; a multiple of 3, so the pieces join without padding
_B64_CHUNK = 3 << 18


def _checkpoint_chunks(head: dict, tensors):
    """json.dumps of head plus a "tensors" object, yielded piece by piece.

    Each (name, array) pair becomes {"shape": [...], "data": base64 of its
    little-endian float64 bytes}, encoded a chunk at a time, so no whole
    document or whole tensor string is ever held.
    """
    yield json.dumps(head)[:-1] + ', "tensors": {'
    for i, (name, arr) in enumerate(tensors):
        data = np.ascontiguousarray(arr, dtype="<f8")
        yield f'{", " if i else ""}{json.dumps(name)}: {{"shape": {json.dumps(list(data.shape))}, "data": "'
        raw = data.reshape(-1).view(np.uint8)
        for lo in range(0, raw.size, _B64_CHUNK):
            yield base64.b64encode(raw[lo : lo + _B64_CHUNK]).decode("ascii")
        yield '"}'
    yield "}}"


# characters read per refill of _JsonStream's buffer
_READ_CHUNK = 1 << 20
_WHITESPACE = re.compile(r"[ \t\n\r]*")
_JSON = json.JSONDecoder()


class _JsonStream:
    """A JSON text file walked one value at a time through a bounded buffer.

    members() steps through an object's keys and value() parses the next
    whole value, so the buffer holds at most about twice the largest value
    still being parsed. Syntax errors raise json.JSONDecodeError.
    """

    def __init__(self, fh):
        self.fh = fh
        self.buf = ""
        self.pos = 0

    def _fill(self, until: str = "") -> bool:
        """Append at least as much as is buffered, then read on to the next
        `until` character if one is given; False at end of file.

        Doubling keeps the rescans of a value that spans reads linear in its
        length; reading on to `until` spares them for a long string.
        """
        rest = self.buf[self.pos :]
        pieces = [rest, self.fh.read(max(_READ_CHUNK, len(rest)))]
        if not pieces[1]:
            return False
        while until not in pieces[-1]:
            more = self.fh.read(_READ_CHUNK)
            if not more:
                break
            pieces.append(more)
        self.buf = "".join(pieces)
        self.pos = 0
        return True

    def _peek(self) -> str:
        """Next character after whitespace, or "" at end of file."""
        while True:
            self.pos = _WHITESPACE.match(self.buf, self.pos).end()
            if self.pos < len(self.buf):
                return self.buf[self.pos]
            if not self._fill():
                return ""

    def _expect(self, chars: str) -> str:
        ch = self._peek()
        if not ch or ch not in chars:
            raise json.JSONDecodeError(f"expecting one of {chars!r}", self.buf, self.pos)
        self.pos += 1
        return ch

    def value(self):
        """Parse the next whole value, reading until it is complete."""
        self._peek()
        while True:
            try:
                val, end = _JSON.raw_decode(self.buf, self.pos)
            except json.JSONDecodeError:
                # mostly an unterminated string, which cannot parse before
                # its closing quote is buffered
                if self._fill('"'):
                    continue
                raise
            # a number or literal that ends the buffer may go on in the file
            if end < len(self.buf) or not self._fill():
                self.pos = end
                return val

    def members(self):
        """Yield each key of the next object; the caller reads its value before resuming."""
        self._expect("{")
        if self._peek() == "}":
            self.pos += 1
            return
        while True:
            if self._peek() != '"':
                raise json.JSONDecodeError("expecting a string key", self.buf, self.pos)
            key = self.value()
            self._expect(":")
            yield key
            if self._expect(",}") == "}":
                return

    def end(self) -> None:
        if self._peek():
            raise json.JSONDecodeError("extra data", self.buf, self.pos)


def _decode_tensor(entry: dict, path) -> np.ndarray:
    try:
        raw = base64.b64decode(entry["data"], validate=True)
    except (binascii.Error, KeyError, TypeError) as exc:
        raise CorruptFile(f"{path}: bad tensor payload") from exc
    shape = entry.get("shape")
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise CorruptFile(f"{path}: tensor shape {shape!r} is not a list of non-negative integers")
    if len(raw) != 8 * math.prod(shape):
        raise CorruptFile(f"{path}: tensor payload does not match shape {shape}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


def save_checkpoint(
    params: SeparatorParams,
    opt_state: OptState,
    path,
    train_cfg: TrainConfig | None = None,
    meta: dict | None = None,
) -> None:
    """JSON checkpoint: config plus base64 little-endian float64 tensors.

    The document is streamed to disk tensor by tensor; the bytes are those
    of json.dumps of the whole document. The file is replaced atomically,
    so an interrupted save keeps the previous checkpoint.
    """
    tensors = [(name, t.data) for name, t in params.tensors().items()]
    tensors += [(f"opt.m.{name}", arr) for name, arr in opt_state.m.items()]
    tensors += [(f"opt.v.{name}", arr) for name, arr in opt_state.v.items()]
    head = {
        "format_version": CHECKPOINT_VERSION,
        "config": {
            "network": asdict(params.cfg),
            "train": asdict(train_cfg) if train_cfg is not None else None,
            "meta": dict(meta or {}, opt_step=opt_state.step),
        },
    }
    _write_atomic(path, _checkpoint_chunks(head, tensors))


def load_checkpoint(path):
    """Rebuild (params, opt_state, meta) bit-exactly from a checkpoint file.

    The file is parsed as it is read, one top-level value or one tensor
    entry at a time, and each tensor is decoded as soon as its entry is
    complete, so no whole document or whole set of base64 strings is held.
    Every parameter and every Adam moment must have the shape the stored
    network config gives it; anything else raises CorruptFile.
    """
    doc, tensors = {}, {}
    try:
        with open(path) as fh:
            stream = _JsonStream(fh)
            for key in stream.members():
                if key != "tensors":
                    doc[key] = stream.value()
                    continue
                for name in stream.members():
                    entry = stream.value()
                    try:  # a bad payload counts only if the tensor is used
                        tensors[name] = _decode_tensor(entry, path)
                    except CorruptFile as exc:
                        tensors[name] = exc
            stream.end()
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptFile(f"{path}: not valid checkpoint JSON") from exc
    if "format_version" not in doc:
        raise CorruptFile(f"{path}: missing format_version")
    if doc["format_version"] != CHECKPOINT_VERSION:
        raise IncompatibleCheckpoint(
            f"{path}: format_version {doc['format_version']} != {CHECKPOINT_VERSION}"
        )
    try:
        net_cfg = NetConfig(**doc["config"]["network"])
    except (KeyError, TypeError) as exc:
        raise CorruptFile(f"{path}: malformed checkpoint structure") from exc

    shapes = aet_net.param_shapes(net_cfg)

    def decode(key: str, name: str) -> np.ndarray:
        if name not in shapes:
            raise CorruptFile(f"{path}: tensor {key!r} names no parameter of this network")
        if key not in tensors:
            raise CorruptFile(f"{path}: missing tensor {key!r}")
        arr = tensors[key]
        if isinstance(arr, CorruptFile):
            raise arr
        if arr.shape != shapes[name]:
            raise CorruptFile(f"{path}: tensor {key!r} has shape {arr.shape}, network needs {shapes[name]}")
        return arr

    params = SeparatorParams(net_cfg, **{name: parameter(decode(name, name)) for name in shapes})
    meta = dict(doc["config"].get("meta") or {})
    opt_state = OptState(step=int(meta.pop("opt_step", 0)))
    moments = {"opt.m.": opt_state.m, "opt.v.": opt_state.v}
    for key in tensors:
        if key[:6] in moments:
            moments[key[:6]][key[6:]] = decode(key, key[6:])
    meta["train"] = doc["config"].get("train")
    return params, opt_state, meta
