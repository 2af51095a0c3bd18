import base64
import builtins
import dataclasses
import io
import json
import math
import re
import threading
import tracemalloc

import numpy as np
import pytest

from sepcost import diff_engine as E
from sepcost import signal_io, trainer
from sepcost.aet_net import NetConfig, init_params
from sepcost.errors import CorruptFile, IncompatibleCheckpoint, NoData, NumericalDivergence, ShapeError, SilentSignal
from sepcost.losses import parse_cost_spec, normalize_cost_scales
from sepcost.signal_io import Waveform, mix_at_snr, write_wav
from sepcost.trainer import (
    Dataset,
    OptState,
    TrainConfig,
    build_dataset,
    fit,
    initial_component_means,
    load_checkpoint,
    save_checkpoint,
    train_step,
    write_log,
)

from reference import SMALL_STOI, counting_pool, run_on_one_blas_thread, speechlike

SMALL_NET = NetConfig(components=8, filter_len=64, stride=16, hidden_units=8, weight_sharing="shared")


def tiny_cfg(**kw):
    base = dict(cost="sdr", learning_rate=1e-3, epochs=1, seed=0, excerpt_len=0, trim=64, sample_rate=16000)
    base.update(kw)
    return TrainConfig(**base)


def make_pair(seed=0, n=4000, fs=16000):
    rng = np.random.default_rng(seed)
    y = speechlike(rng, n, fs, f0=120.0, band=(100.0, 3000.0))
    z = speechlike(rng, n, fs, f0=250.0, band=(2000.0, 6000.0))
    return mix_at_snr(Waveform(y, fs), Waveform(z, fs), 0.0)


def _pair_with_target(keep: slice, n=24000, fs=16000):
    """A mixture whose target is silent (exactly zero) outside `keep`."""
    rng = np.random.default_rng(3)
    y = np.zeros(n)
    y[keep] = speechlike(rng, n, fs, f0=120.0, band=(100.0, 3000.0))[keep]
    z = speechlike(rng, n, fs, f0=250.0, band=(2000.0, 6000.0))
    return mix_at_snr(Waveform(y, fs), Waveform(z, fs), 0.0)


def test_excerpt_redraws_silent_target_from_the_step_rng():
    pair = _pair_with_target(slice(0, 12000))  # the second half is silent
    cfg = tiny_cfg(excerpt_len=4096)
    floor = 1e-3 * pair.target.rms()
    redrawn = kept = 0
    for seed in range(24):
        replay = np.random.default_rng(seed)
        offsets = [int(replay.integers(0, 19905)) for _ in range(8)]
        silent = [np.sqrt(np.mean(pair.target.samples[o : o + 4096] ** 2)) < floor for o in offsets]
        draws = silent.index(False) + 1
        rng = np.random.default_rng(seed)
        mix, y, z = trainer._excerpt(pair, cfg, rng)
        offset = offsets[draws - 1]
        np.testing.assert_array_equal(mix, pair.mixture.samples[offset : offset + 4096])
        np.testing.assert_array_equal(y, pair.target.samples[offset : offset + 4096])
        # the rng is left after exactly `draws` draws: one for a non-silent first draw
        after = np.random.default_rng(seed)
        for _ in range(draws):
            after.integers(0, 19905)
        assert rng.bit_generator.state == after.bit_generator.state
        redrawn += draws > 1
        kept += draws == 1
    assert redrawn and kept


def _pair_with_interference(keep: slice, n=96000, fs=16000):
    """A mixture whose interference is silent (exactly zero) outside `keep`."""
    rng = np.random.default_rng(4)
    y = speechlike(rng, n, fs, f0=120.0, band=(100.0, 3000.0))
    z = np.zeros(n)
    z[keep] = speechlike(rng, n, fs, f0=250.0, band=(2000.0, 6000.0))[keep]
    return mix_at_snr(Waveform(y, fs), Waveform(z, fs), 0.0)


@pytest.mark.parametrize("cost", ["sar", "sir"])
def test_excerpts_skip_a_silent_interference(cost):
    # interference only in the last 2 of 6 s: SAR's projection onto a silent
    # interference excerpt is 0/0, which made fit raise DegenerateScale on
    # the leading excerpt ("initial sar loss nan"); SIR read 0 there
    pair = _pair_with_interference(slice(64000, None))
    cfg = tiny_cfg(cost=cost, excerpt_len=16384, epochs=4)
    # the leading excerpt skips to the first multiple of its length that holds interference
    mix, y, z = trainer._excerpt(pair, cfg)
    np.testing.assert_array_equal(z, pair.interference.samples[49152:65536])
    floor = trainer.SILENT_EXCERPT_RATIO * pair.interference.rms()
    redrawn = 0
    for seed in range(24):
        replay = np.random.default_rng(seed)
        first = int(replay.integers(0, 96000 - 16384 + 1))
        mix, y, z = trainer._excerpt(pair, cfg, np.random.default_rng(seed))
        assert np.sqrt(np.mean(np.square(z))) >= floor
        redrawn += first + 16384 <= 64000
    assert redrawn
    result = fit(Dataset([pair]), cfg, SMALL_NET, SMALL_STOI)
    steps = [e for e in result.log if "step" in e]
    assert len(steps) == 4 and all(math.isfinite(e["total"]) for e in steps)
    assert all(math.isfinite(e["initial"]) and e["initial"] > 0 for e in result.log if "initial" in e)
    # a pair whose interference is silent in every leading candidate is refused, naming it
    with pytest.raises(SilentSignal, match="pair 0: every 16384-sample excerpt .* silent interference"):
        fit(Dataset([_pair_with_interference(slice(82000, None))]), cfg, SMALL_NET, SMALL_STOI)


def test_fit_raises_silent_signal_naming_the_pair():
    # target sound only in its first 4 of 24000 samples: a random 4096-sample
    # excerpt holds it with probability 4 / 19905 per draw
    pairs = [make_pair(n=24000), _pair_with_target(slice(0, 4))]
    with pytest.raises(SilentSignal, match="pair 1: 8 draws"):
        fit(Dataset(pairs), tiny_cfg(excerpt_len=4096), SMALL_NET, SMALL_STOI)


def test_training_refuses_a_pair_at_another_rate():
    # STOI would score an 8 kHz pair as 16 kHz audio, and the checkpoint
    # would record 16000, so separation would then refuse 8 kHz input
    cfg = tiny_cfg(cost="sdr:0.5+stoi:0.5")
    net = NetConfig(components=16, filter_len=64, stride=16, hidden_units=16)
    slow = make_pair(seed=5, fs=8000)
    # among the normalisation pass's pairs, and as the 11th pair, past
    # them: either way before the first step
    steps = []
    for pairs, index in (([make_pair(), slow], 1), ([make_pair(seed) for seed in range(10)] + [slow], 10)):
        with pytest.raises(ShapeError, match=f"pair {index}: pair sampled at 8000 Hz, training at 16000 Hz"):
            fit(Dataset(pairs), cfg, net, SMALL_STOI, step_callback=lambda *args: steps.append(args))
        assert steps == []
    # a step refuses it before any update
    params, opt = init_params(0, net), OptState()
    before = {name: t.data.copy() for name, t in params.tensors().items()}
    with pytest.raises(ShapeError, match="8000 Hz"):
        train_step(params, slow, parse_cost_spec(cfg.cost), cfg, opt, SMALL_STOI)
    assert opt.step == 0
    assert all(np.array_equal(t.data, before[name]) for name, t in params.tensors().items())


def test_leading_excerpt_skips_a_silent_start():
    # the normalisation pass scores each pair's leading excerpt; on this
    # target's silent first 1.25 s it read an SDR loss of about 2.5e16, and
    # the SDR term's scale of about 4e-17 dropped it from the whole run
    pair = _pair_with_target(slice(20000, 40000), n=40000)
    cfg = tiny_cfg(excerpt_len=16384)
    mix, y, z = trainer._excerpt(pair, cfg)
    np.testing.assert_array_equal(mix, pair.mixture.samples[16384:32768])
    np.testing.assert_array_equal(z, pair.interference.samples[16384:32768])
    cost = parse_cost_spec("sdr:0.5+stoi:0.5")
    initial = initial_component_means(init_params(0, SMALL_NET), [pair], cost, cfg, SMALL_STOI)
    assert 0.0 < initial["sdr"] < 10.0
    # a leading excerpt that is not silent stays at offset 0
    loud = make_pair(n=40000)
    np.testing.assert_array_equal(trainer._excerpt(loud, cfg)[1], loud.target.samples[:16384])
    # sound only past the last multiple of the length: every leading candidate is silent
    pairs = [make_pair(n=24000), _pair_with_target(slice(21000, 24000))]
    with pytest.raises(SilentSignal, match="pair 1: every 4096-sample excerpt"):
        fit(Dataset(pairs), tiny_cfg(excerpt_len=4096), SMALL_NET, SMALL_STOI)


def test_build_dataset(tmp_path):
    tdir = tmp_path / "targets"
    idir = tmp_path / "noise"
    tdir.mkdir()
    idir.mkdir()
    rng = np.random.default_rng(1)
    for i in range(10):
        write_wav(Waveform(speechlike(rng, 3000, 16000), 16000), tdir / f"t{i}.wav")
        write_wav(Waveform(speechlike(rng, 3500, 16000), 16000), idir / f"i{i}.wav")

    ds = build_dataset(tdir, idir, snr_db=0.0, seed=3, sample_rate=16000)
    assert len(ds.pairs) == 10
    for pair in ds.pairs:
        assert pair.target.rms() == pytest.approx(pair.interference.rms(), rel=1e-9)

    again = build_dataset(tdir, idir, snr_db=0.0, seed=3, sample_rate=16000)
    for a, b in zip(ds.pairs, again.pairs):
        np.testing.assert_array_equal(a.mixture.samples, b.mixture.samples)

    other = build_dataset(tdir, idir, snr_db=0.0, seed=4, sample_rate=16000)
    assert any(
        a.mixture.samples.shape != b.mixture.samples.shape
        or not np.array_equal(a.mixture.samples, b.mixture.samples)
        for a, b in zip(ds.pairs, other.pairs)
    )

    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(NoData):
        build_dataset(empty, idir)


def test_build_dataset_resamples(tmp_path):
    tdir = tmp_path / "t"
    idir = tmp_path / "i"
    tdir.mkdir()
    idir.mkdir()
    rng = np.random.default_rng(2)
    write_wav(Waveform(speechlike(rng, 4000, 8000), 8000), tdir / "a.wav")
    write_wav(Waveform(speechlike(rng, 4000, 8000), 8000), idir / "b.wav")
    ds = build_dataset(tdir, idir, sample_rate=16000)
    assert ds.pairs[0].mixture.sample_rate == 16000
    assert len(ds.pairs[0].mixture) == 8000


def test_zero_learning_rate_keeps_params():
    pair = make_pair()
    cfg = tiny_cfg(learning_rate=0.0)
    params = init_params(0, SMALL_NET)
    before = {k: t.data.copy() for k, t in params.tensors().items()}
    cost = parse_cost_spec("sdr")
    train_step(params, pair, cost, cfg, OptState(), SMALL_STOI)
    for k, t in params.tensors().items():
        np.testing.assert_array_equal(t.data, before[k])


def test_step_descends_on_mse():
    for seed in range(5):
        pair = make_pair(seed)
        cfg = tiny_cfg(cost="mse", optimizer="sgd", learning_rate=1e-4, seed=seed)
        params = init_params(seed, SMALL_NET)
        cost = parse_cost_spec("mse")
        loss_before, _ = train_step(params, pair, cost, cfg, OptState(), SMALL_STOI)
        loss_after, _ = train_step(params, pair, cost, tiny_cfg(cost="mse", learning_rate=0.0, seed=seed), OptState(), SMALL_STOI)
        assert loss_after < loss_before


def test_adam_update_is_bitwise_the_textbook_form():
    # the update runs in place over row blocks with scratch buffers; the
    # whole-array expression form is the reference. The analysis bank spans
    # 2.5 row blocks, and its gradient is a transposed (non-contiguous) array.
    net = NetConfig(components=5 * E._ROW_BLOCK // 1024, filter_len=512, stride=16, hidden_units=8)
    cfg = tiny_cfg(learning_rate=1e-2)
    params, ref = init_params(3, net), init_params(3, net)
    rows, blocks = E._row_blocks(*params.analysis.data.shape)
    assert len(blocks) == 3 and blocks[-1].stop - blocks[-1].start < rows
    opt = OptState()
    ref_m = {k: np.zeros_like(t.data) for k, t in ref.tensors().items()}
    ref_v = {k: np.zeros_like(t.data) for k, t in ref.tensors().items()}
    rng = np.random.default_rng(4)
    for step in range(1, 4):
        for (name, t), t_ref in zip(params.tensors().items(), ref.tensors().values()):
            t.grad = rng.standard_normal(t.data.shape[::-1]).T if name == "analysis" else rng.standard_normal(t.data.shape)
            assert t.grad.flags.c_contiguous == (name != "analysis")
            g = t.grad.copy()
            ref_m[name] = cfg.beta1 * ref_m[name] + (1.0 - cfg.beta1) * g
            ref_v[name] = cfg.beta2 * ref_v[name] + (1.0 - cfg.beta2) * g * g
            m_hat = ref_m[name] / (1.0 - cfg.beta1**step)
            v_hat = ref_v[name] / (1.0 - cfg.beta2**step)
            t_ref.data -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps_opt)
        trainer._apply_update(params, opt, cfg)
    for name, t in params.tensors().items():
        assert t.data.tobytes() == ref.tensors()[name].data.tobytes()
        assert opt.m[name].tobytes() == ref_m[name].tobytes()
        assert opt.v[name].tobytes() == ref_v[name].tobytes()



def test_adam_update_is_bitwise_the_same_for_any_worker_count(monkeypatch):
    # a row pass per parameter: the analysis bank's 2.5 blocks split, each
    # smaller tensor's one block runs on the caller
    monkeypatch.setattr(E, "_CHUNK_FLOOR", 0)
    pool, pools = counting_pool()
    monkeypatch.setattr(E, "ThreadPoolExecutor", pool)
    net = NetConfig(components=5 * E._ROW_BLOCK // 1024, filter_len=512, stride=16, hidden_units=8)
    cfg = tiny_cfg(learning_rate=1e-2)

    def three_updates(_=None):
        params, opt, rng = init_params(3, net), OptState(), np.random.default_rng(4)
        for _ in range(3):
            for t in params.tensors().values():
                t.grad = rng.standard_normal(t.data.shape)
            trainer._apply_update(params, opt, cfg)
        return [a.tobytes() for name, t in params.tensors().items() for a in (t.data, opt.m[name], opt.v[name])]

    results = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(E, "_workers", lambda tasks, cap=workers: max(1, min(tasks, cap)))
        threads = threading.active_count()
        pools.clear()
        results.append(three_updates())
        assert threading.active_count() == threads
        assert E._grad_enabled and not getattr(E._whole_products, "marked", False)
        # each update: the caller's chunk of the analysis bank and one task
        # each on a pool of w - 1 threads
        assert pools == ([["run_chunk", workers - 1, workers - 1]] * 3 if workers > 1 else [])
    assert results[1] == results[0] and results[2] == results[0]
    # on a marked thread each update is one chunk
    pools.clear()
    assert list(E._beside(three_updates, [0])) == [results[0]] and pools == []

def _traced_step_peak(net: NetConfig) -> int:
    """Traced peak bytes of one step of net on a full 2 s utterance with the sdr+stoi cost.

    A first step fills the resample-plan cache and the Adam moments.
    """
    fs = 16000
    rng = np.random.default_rng(0)
    y = speechlike(rng, 2 * fs, fs)
    z = speechlike(rng, 2 * fs, fs, band=(2000.0, 6000.0))
    pair = mix_at_snr(Waveform(y, fs), Waveform(z, fs), 0.0)
    cfg = TrainConfig(cost="sdr:0.75+stoi:0.25", excerpt_len=0)
    cost = parse_cost_spec(cfg.cost)
    params, opt = init_params(0, net), OptState()
    train_step(params, pair, cost, cfg, opt)
    tracemalloc.start()
    try:
        train_step(params, pair, cost, cfg, opt)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_smoke_net_step_peak_memory():
    # The benchmark's smoke net (64 x 128 / 16, hidden 64): 17.3 MB since
    # the modulation and re-modulation run as row-blocked nodes, 21.3 MB
    # when |X|, sign(X), the smoothed S and the carrier P were whole
    # arrays. Each such 64 x 1993 array is 1.02 MB, so the bound leaves
    # room for none of them to come back.
    net = NetConfig(components=64, filter_len=128, stride=16, hidden_units=64, weight_sharing="shared")
    peak = _traced_step_peak(net)
    assert peak < 17.8e6, peak


def test_step_peak_memory_in_analysis_arrays():
    # A 256 x 256 / 16 net, whose (K, L) arrays dominate: 8.96 of them at
    # the peak since the re-modulated coefficients stay off the tape and
    # the dense layers write their x gradient over g * sigmoid; 10.4 when
    # the tape kept x_hat and each dense layer's x gradient had an array
    # of its own, and 12.4 before conv1d framed its input again in
    # backward and backward reused the gradient buffers it owns.
    net = NetConfig(components=256, filter_len=256, stride=16, weight_sharing="shared")
    frames = (2 * 16000 - 256) // 16 + 1
    peak = _traced_step_peak(net)
    assert peak <= 9.5 * 256 * frames * 8, peak / (256 * frames * 8)


def test_fit_zero_epochs_returns_initial_params():
    pair = make_pair()
    cfg = tiny_cfg(epochs=0)
    result = fit(Dataset([pair]), cfg, SMALL_NET, SMALL_STOI)
    reference_params = init_params(cfg.seed, SMALL_NET)
    for (k, t), r in zip(result.params.tensors().items(), reference_params.tensors().values()):
        np.testing.assert_array_equal(t.data, r.data, err_msg=k)
    assert result.steps_done == 0
    assert all(e.get("event") == "normalize" for e in result.log)


def test_fit_normalization_scales_batch_to_unity():
    pairs = [make_pair(s) for s in range(3)]
    cfg = tiny_cfg(cost="sdr:0.5+stoi:0.5", epochs=0)
    stoi_cfg = SMALL_STOI
    result = fit(Dataset(pairs), cfg, SMALL_NET, stoi_cfg)
    params = init_params(cfg.seed, SMALL_NET)
    means = initial_component_means(params, pairs, result.cost, cfg, stoi_cfg)
    for comp, scale in zip(result.cost.components, result.cost.scales):
        assert scale * means[comp.kind] == pytest.approx(1.0, abs=1e-6)


def test_fit_log_structure_and_file(tmp_path):
    pair = make_pair()
    cfg = tiny_cfg(cost="sdr:0.75+stoi:0.25", epochs=2)
    log_path = tmp_path / "log.jsonl"
    result = fit(Dataset([pair]), cfg, SMALL_NET, SMALL_STOI, log_path=log_path)
    steps = [e for e in result.log if "step" in e]
    assert [e["step"] for e in steps] == [0, 1]
    assert set(steps[0]["components"]) == {"sdr", "stoi"}
    assert all(np.isfinite(e["total"]) for e in steps)
    lines = log_path.read_text().strip().split("\n")
    assert [json.loads(line) for line in lines] == result.log


def test_normalization_absorbs_component_scaling_exactly():
    # scaling one raw component by a power of two leaves every scaled
    # term bitwise unchanged once the scales absorb it
    pair = make_pair()
    cfg = tiny_cfg(cost="sdr:0.75+stoi:0.25", epochs=3)
    result = fit(Dataset([pair]), cfg, SMALL_NET, SMALL_STOI)
    norm_entries = {e["component"]: e for e in result.log if e.get("event") == "normalize"}
    steps = [e for e in result.log if "step" in e]
    kappa = 4.0
    for entry in steps:
        raw = entry["components"]["sdr"]
        scale = norm_entries["sdr"]["scale"]
        scaled_kappa = (1.0 / (kappa * norm_entries["sdr"]["initial"])) * (kappa * raw)
        assert scaled_kappa == scale * raw


def test_checkpoint_round_trip_bitwise(tmp_path):
    pair = make_pair()
    cfg = tiny_cfg(epochs=2)
    result = fit(Dataset([pair]), cfg, SMALL_NET, SMALL_STOI)
    path = tmp_path / "ckpt.json"
    save_checkpoint(result.params, result.opt_state, path, cfg, meta={"steps_done": result.steps_done})
    params, opt, meta = load_checkpoint(path)
    for (k, t), orig in zip(params.tensors().items(), result.params.tensors().values()):
        np.testing.assert_array_equal(t.data, orig.data, err_msg=k)
    assert opt.step == result.opt_state.step
    for k in result.opt_state.m:
        np.testing.assert_array_equal(opt.m[k], result.opt_state.m[k])
        np.testing.assert_array_equal(opt.v[k], result.opt_state.v[k])
    assert meta["steps_done"] == 2
    assert meta["train"]["cost"] == "sdr"


def _moment_state(params, step=3):
    opt = OptState(step=step)
    for name, t in params.tensors().items():
        opt.m[name], opt.v[name] = np.sin(t.data), np.cos(t.data) ** 2
    return opt


def _assert_same_state(loaded, params, opt):
    l_params, l_opt, _ = loaded
    for (name, t), orig in zip(l_params.tensors().items(), params.tensors().values()):
        assert t.data.tobytes() == orig.data.tobytes(), name
    assert l_opt.step == opt.step and l_opt.m.keys() == opt.m.keys() and l_opt.v.keys() == opt.v.keys()
    for name in opt.m:
        assert l_opt.m[name].tobytes() == opt.m[name].tobytes(), name
        assert l_opt.v[name].tobytes() == opt.v[name].tobytes(), name


def _read_parts(path):
    """(header, one bytes payload per header entry) of a checkpoint file."""
    head, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    parts, pos = [], 0
    for _, shape in header["tensors"]:
        parts.append(payload[pos : pos + 8 * math.prod(shape)])
        pos += len(parts[-1])
    assert pos == len(payload)
    return header, parts


def _write_parts(path, header, parts):
    path.write_bytes((json.dumps(header) + "\n").encode("ascii") + b"".join(parts))


class _ShortWrites(io.RawIOBase):
    """Raw file whose every write takes at most `chunk` bytes."""

    def __init__(self, path, chunk):
        self.fh = builtins.open(path, "wb")
        self.chunk = chunk

    def writable(self):
        return True

    def write(self, buf):
        return self.fh.write(memoryview(buf).cast("B")[: self.chunk])

    def close(self):
        self.fh.close()
        super().close()


@pytest.mark.parametrize("chunk", [768 * 1024, 3 * 7])
def test_checkpoint_bytes_match_whole_document_dumps(tmp_path, monkeypatch, chunk):
    # the streamed file is byte for byte the header line and payload built
    # whole; writes cut to 21 bytes split the header and every tensor mid-row
    params = init_params(0, SMALL_NET)
    opt = _moment_state(params, step=4)
    cfg = tiny_cfg()
    path = tmp_path / "ckpt"
    monkeypatch.setattr(signal_io, "open", lambda file, mode: io.BufferedWriter(_ShortWrites(file, chunk)), raising=False)
    save_checkpoint(params, opt, path, cfg, meta={"steps_done": 4})
    monkeypatch.undo()

    tensors = [(name, t.data) for name, t in params.tensors().items()]
    tensors += [(f"opt.m.{name}", arr) for name, arr in opt.m.items()]
    tensors += [(f"opt.v.{name}", arr) for name, arr in opt.v.items()]
    header = {
        "format_version": 2,
        "config": {
            "network": dataclasses.asdict(SMALL_NET),
            "train": dataclasses.asdict(cfg),
            "meta": {"steps_done": 4, "opt_step": 4},
        },
        "tensors": [[name, list(arr.shape)] for name, arr in tensors],
    }
    payload = b"".join(arr.astype("<f8").tobytes() for _, arr in tensors)
    assert path.read_bytes() == (json.dumps(header) + "\n").encode("ascii") + payload


def test_checkpoint_rejects_truncation_and_bad_version(tmp_path):
    params = init_params(0, SMALL_NET)
    path = tmp_path / "ckpt"
    save_checkpoint(params, OptState(), path)
    blob = path.read_bytes()
    bad = tmp_path / "bad"
    # empty, cut in the header, cut in the payloads, one byte short, one byte over
    for edited in (b"", blob[:20], blob[: len(blob) // 2], blob[:-1], blob + b"\0"):
        bad.write_bytes(edited)
        with pytest.raises(CorruptFile):
            load_checkpoint(bad)

    header, parts = _read_parts(path)
    header["format_version"] = 99
    _write_parts(bad, header, parts)
    with pytest.raises(IncompatibleCheckpoint):
        load_checkpoint(bad)


def test_checkpoint_refuses_version_1_json(tmp_path):
    # the earlier format, one JSON document with base64 tensors, is not read
    params = init_params(0, SMALL_NET)
    tensors = {
        name: {"shape": list(t.shape), "data": base64.b64encode(t.data.astype("<f8").tobytes()).decode("ascii")}
        for name, t in params.tensors().items()
    }
    doc = {
        "format_version": 1,
        "config": {"network": dataclasses.asdict(SMALL_NET), "train": None, "meta": {"opt_step": 0}},
        "tensors": tensors,
    }
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(IncompatibleCheckpoint, match="format_version 1 != 2"):
        load_checkpoint(path)


def test_checkpoint_header_read_stops_at_its_cap(tmp_path):
    # a first line past the cap, such as a large version-1 file, is refused
    # having read about the cap (readline joins its chunks: about twice the
    # cap traced), not the whole file, which is eight times the cap
    tracemalloc = pytest.importorskip("tracemalloc")
    cap = trainer.MAX_HEADER_BYTES
    path = tmp_path / "no_newline"
    path.write_bytes(b'{"format_version": 1, "tensors": "' + b"A" * (8 * cap) + b'"}')
    tracemalloc.start()
    try:
        with pytest.raises(IncompatibleCheckpoint, match="not a version-2 checkpoint"):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * cap


class _ShortReads(io.RawIOBase):
    """Raw file whose every read returns at most `chunk` bytes."""

    def __init__(self, path, chunk):
        self.fh = builtins.open(path, "rb")
        self.chunk = chunk

    def readable(self):
        return True

    def readinto(self, buf):
        data = self.fh.read(min(len(buf), self.chunk))
        buf[: len(data)] = data
        return len(data)

    def close(self):
        self.fh.close()
        super().close()


@pytest.mark.parametrize("chunk", [1, 7, 4096])
def test_checkpoint_loads_any_layout_through_small_reads(tmp_path, monkeypatch, chunk):
    # the header and every tensor may straddle reads that come back short, and
    # header keys and tensors in any order load to the same state
    params = init_params(0, SMALL_NET)
    opt = _moment_state(params, step=12345)
    path = tmp_path / "ckpt"
    save_checkpoint(params, opt, path, tiny_cfg(), meta={"steps_done": 12345})
    header, parts = _read_parts(path)
    reordered = tmp_path / "reordered"
    config = dict(reversed(header["config"].items()))
    _write_parts(reordered, {"tensors": header["tensors"][::-1], "config": config, "format_version": 2}, parts[::-1])

    monkeypatch.setattr(trainer, "open", lambda file, mode: io.BufferedReader(_ShortReads(file, chunk)), raising=False)
    _assert_same_state(load_checkpoint(path), params, opt)
    loaded = load_checkpoint(reordered)
    _assert_same_state(loaded, params, opt)
    assert loaded[2]["steps_done"] == 12345 and loaded[2]["train"] == header["config"]["train"]


def _edit_header(edit):
    """A header text edit that applies `edit` to the parsed header."""

    def apply(text):
        header = json.loads(text)
        edit(header)
        return json.dumps(header)

    return apply


@pytest.mark.parametrize(
    "edit",
    [
        lambda t: "",
        lambda t: "[" + t + "]",
        lambda t: t + " {}",
        lambda t: t[:-1] + ",}",
        lambda t: t.replace('"format_version": 2', '"format_version" 2'),
        lambda t: t.replace('"format_version": 2', '1: 2'),
        _edit_header(lambda h: h.update(tensors=dict(h["tensors"]))),
        *(
            lambda t, shape=shape: re.sub(r'\["analysis", \[[^\]]*\]\]', f'["analysis", {shape}]', t, count=1)
            for shape in ("null", "3", '"ab"', "[2.5]", "[[1]]", "[-8, -64]", "[4294967296, 4294967296]", "[8.0, 64]")
        ),
        _edit_header(lambda h: h["tensors"].insert(1, h["tensors"][0])),
        _edit_header(lambda h: h["tensors"][0].pop()),
        _edit_header(lambda h: h["tensors"][0].__setitem__(0, 7)),
        _edit_header(lambda h: h["tensors"].pop(0)),
        _edit_header(lambda h: h.pop("tensors")),
        _edit_header(lambda h: h.pop("config")),
        _edit_header(lambda h: h["config"]["network"].update(components="8")),
        _edit_header(lambda h: h["config"]["network"].update(components=8.0)),
        _edit_header(lambda h: h["config"].update(meta=3)),
    ],
    ids=[
        "empty", "array", "extra_data", "trailing_comma", "missing_colon", "number_key", "tensor_list",
        "shape_null", "shape_int", "shape_string", "shape_float", "shape_nested", "shape_negative",
        "shape_overflow", "shape_whole_floats", "duplicate_name", "entry_without_shape", "name_not_string", "missing_parameter",
        "no_tensors", "no_config", "network_field_type", "network_field_whole_float", "meta_not_object",
    ],
)
def test_checkpoint_rejects_malformed_json(tmp_path, edit):
    # each edit applies to the header line; the payloads are left as written
    path = tmp_path / "ckpt"
    save_checkpoint(init_params(0, SMALL_NET), OptState(), path)
    load_checkpoint(path)  # the unedited file loads
    head, payload = path.read_bytes().split(b"\n", 1)
    path.write_bytes(edit(head.decode("ascii")).encode("ascii") + b"\n" + payload)
    with pytest.raises(CorruptFile):
        load_checkpoint(path)


def test_checkpoint_version_is_checked_before_tensor_payloads(tmp_path):
    # a newer version whose tensor list and payloads this build cannot read
    # is still reported as a version mismatch
    path = tmp_path / "ckpt"
    save_checkpoint(init_params(0, SMALL_NET), OptState(), path)
    header, _ = _read_parts(path)
    header = {"tensors": {"analysis": "!!"}, "config": header["config"], "format_version": 99}
    path.write_bytes((json.dumps(header) + "\n!!").encode("ascii"))
    with pytest.raises(IncompatibleCheckpoint):
        load_checkpoint(path)


def test_checkpoint_load_holds_one_tensor_of_text_at_a_time(tmp_path):
    # traced peak of a load: the arrays it returns plus less than one more
    # tensor, since no text or bytes copy of a payload is ever made
    tracemalloc = pytest.importorskip("tracemalloc")
    net = NetConfig(components=256, filter_len=256, stride=16, hidden_units=256, weight_sharing="independent")
    params = init_params(0, net)
    opt = _moment_state(params)
    path = tmp_path / "ckpt"
    save_checkpoint(params, opt, path)
    arrays = sum(t.data.nbytes for t in params.tensors().values()) * 3
    largest = max(t.data.nbytes for t in params.tensors().values())
    tracemalloc.start()
    try:
        loaded = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _assert_same_state(loaded, params, opt)
    assert peak < arrays + largest


def _with_tensor(path, key, arr):
    """Rewrite a checkpoint with tensor `key` set to arr, in place or appended."""
    header, parts = _read_parts(path)
    arr = np.asarray(arr, dtype="<f8")
    names = [name for name, _ in header["tensors"]]
    i = names.index(key) if key in names else len(names)
    header["tensors"][i : i + 1] = [[key, list(arr.shape)]]
    parts[i : i + 1] = [arr.tobytes()]
    _write_parts(path, header, parts)


@pytest.mark.parametrize(
    "key,arr",
    [
        ("b2", np.zeros((1, 1))),  # would broadcast silently in forward
        ("w1", np.zeros((SMALL_NET.hidden, SMALL_NET.components + 1))),
        ("opt.m.b2", np.zeros((1, 1))),
        ("opt.v.w1", np.zeros(SMALL_NET.hidden)),
        ("opt.m.synthesis", np.zeros((SMALL_NET.components, SMALL_NET.filter_len))),  # shared mode has none
        ("opt.v.bias", np.zeros((SMALL_NET.components, 1))),
        ("w3", np.zeros((SMALL_NET.hidden, SMALL_NET.components))),  # neither a parameter nor a moment
        ("junk", np.zeros(0)),
    ],
)
def test_checkpoint_rejects_wrong_shapes_and_stray_moments(tmp_path, key, arr):
    pair = make_pair()
    cfg = tiny_cfg(epochs=1)
    result = fit(Dataset([pair]), cfg, SMALL_NET, SMALL_STOI)
    path = tmp_path / "ckpt"
    save_checkpoint(result.params, result.opt_state, path, cfg)
    load_checkpoint(path)  # the unmodified file loads
    _with_tensor(path, key, arr)
    with pytest.raises(CorruptFile, match=key):
        load_checkpoint(path)


def test_checkpoint_rejects_a_moment_without_its_pair(tmp_path):
    # resuming Adam from m without v would fail at the first update
    params = init_params(0, SMALL_NET)
    opt = _moment_state(params)
    del opt.v["analysis"]
    path = tmp_path / "ckpt"
    save_checkpoint(params, opt, path)
    with pytest.raises(CorruptFile, match="moments"):
        load_checkpoint(path)


class _FailingWriter:
    """File stand-in that writes half of what it is given, then fails."""

    def __init__(self, path, mode="r"):
        self.fh = builtins.open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        raise OSError("simulated write failure")


def test_interrupted_writes_keep_previous_files(tmp_path, monkeypatch):
    pair = make_pair()
    cfg = tiny_cfg(epochs=1)
    first = fit(Dataset([pair]), cfg, SMALL_NET, SMALL_STOI)
    ckpt = tmp_path / "ckpt.json"
    log_path = tmp_path / "log.jsonl"
    save_checkpoint(first.params, first.opt_state, ckpt, cfg)
    write_log(first.log, log_path)
    ckpt_bytes, log_bytes = ckpt.read_bytes(), log_path.read_bytes()

    second = fit(Dataset([pair]), tiny_cfg(epochs=2), SMALL_NET, SMALL_STOI)
    with monkeypatch.context() as m:
        m.setattr(signal_io, "open", _FailingWriter, raising=False)
        with pytest.raises(OSError):
            save_checkpoint(second.params, second.opt_state, ckpt, cfg)
        with pytest.raises(OSError):
            write_log(second.log, log_path)

    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.json", "log.jsonl"]
    assert ckpt.read_bytes() == ckpt_bytes and log_path.read_bytes() == log_bytes
    params, opt, _ = load_checkpoint(ckpt)
    for (k, t), orig in zip(params.tensors().items(), first.params.tensors().values()):
        np.testing.assert_array_equal(t.data, orig.data, err_msg=k)
    for k in first.opt_state.m:
        np.testing.assert_array_equal(opt.m[k], first.opt_state.m[k])
        np.testing.assert_array_equal(opt.v[k], first.opt_state.v[k])


def test_training_and_separation_are_bitwise_the_same_for_any_product_split(tmp_path):
    # criterion 9's rerun determinism must not depend on the thread count.
    # A smoke-net fit on 1 s utterances (993 frames, so the products over
    # frames split in up to 3 spans), with every product and row pass at its
    # floor: the log, the checkpoint and a separation in three 512-frame
    # blocks, whose products and row passes run whole, on 1, 2 and 3 workers
    digests = run_on_one_blas_thread(
        f"""
        import hashlib, json
        import numpy as np
        from sepcost import aet_net, diff_engine as E
        from sepcost.aet_net import NetConfig, separate_full_length
        from sepcost.signal_io import Waveform
        from sepcost.trainer import Dataset, fit, save_checkpoint
        from test_trainer import make_pair, tiny_cfg

        from reference import counting_pool

        E.ThreadPoolExecutor, pools = counting_pool()
        E._SPLIT_FLOOR = E._CHUNK_FLOOR = 0
        net = NetConfig(components=64, filter_len=128, stride=16, hidden_units=64, weight_sharing="shared")
        dataset = Dataset([make_pair(0, n=16000), make_pair(1, n=16000)])
        cfg = tiny_cfg(cost="sdr:0.75+stoi:0.25", epochs=2)
        mixture = Waveform(np.random.default_rng(5).standard_normal((3 * aet_net.BLOCK_FRAMES - 1) * 16), 16000)
        out, digests = {str(tmp_path)!r}, []
        for workers in (1, 2, 3):
            E._workers = lambda tasks: max(1, min(tasks, workers))
            pools.clear()
            log, ckpt = f"{{out}}/log{{workers}}.jsonl", f"{{out}}/model{{workers}}.ckpt"
            result = fit(dataset, cfg, net, log_path=log)
            save_checkpoint(result.params, result.opt_state, ckpt, cfg, meta={{"steps_done": result.steps_done}})
            # the caller takes one part of each split, a pool thread each other part
            fit_splits, pools[:] = 1 + max((tasks for _, _, tasks in pools), default=0), []
            separated = separate_full_length(mixture, result.params).samples
            product_splits = sum(name != "synthesize" for name, _, _ in pools)
            files = [open(log, "rb").read(), open(ckpt, "rb").read(), separated.tobytes()]
            digests.append([fit_splits, product_splits] + [hashlib.sha256(f).hexdigest() for f in files])
        print(json.dumps(digests))
        """
    )
    # the most parts of a fit's splits, and how many products and row passes split in separation
    assert [d[0] for d in digests] == [1, 2, 3]
    assert [d[1] for d in digests] == [0, 0, 0]
    assert digests[1][2:] == digests[0][2:] and digests[2][2:] == digests[0][2:]


def test_no_thread_outlives_train_step(monkeypatch):
    monkeypatch.setattr(E, "_SPLIT_FLOOR", 0)
    monkeypatch.setattr(E, "_CHUNK_FLOOR", 0)
    monkeypatch.setattr(E, "_blas_threads", lambda: 1)
    monkeypatch.setattr(E, "_workers", lambda tasks: max(1, min(tasks, 3)))
    pool, pools = counting_pool()
    monkeypatch.setattr(E, "ThreadPoolExecutor", pool)
    params = init_params(0, NetConfig(components=64, filter_len=128, stride=16, hidden_units=64))
    cost = normalize_cost_scales(parse_cost_spec("sdr"), [1.0])
    threads = threading.active_count()
    train_step(params, make_pair(0, n=16000), cost, tiny_cfg(), OptState())
    assert threading.active_count() == threads
    # products and row passes split in up to three parts: the caller's and
    # those of a pool of up to two threads, one task each
    assert {name for name, _, _ in pools} == {"span", "run_chunk"}
    assert max(threads for _, threads, _ in pools) == 2
    assert all(tasks == threads for _, threads, tasks in pools)


def test_resume_matches_uninterrupted_run(tmp_path):
    pair = make_pair()
    dataset = Dataset([pair])
    straight = fit(dataset, tiny_cfg(epochs=4), SMALL_NET, SMALL_STOI)

    half = fit(dataset, tiny_cfg(epochs=2), SMALL_NET, SMALL_STOI)
    path = tmp_path / "half.json"
    save_checkpoint(
        half.params, half.opt_state, path, tiny_cfg(epochs=2),
        meta={"steps_done": half.steps_done, "cost_scales": list(half.cost.scales)},
    )
    resumed = fit(dataset, tiny_cfg(epochs=4), SMALL_NET, SMALL_STOI, resume=path)
    for (k, t), s in zip(resumed.params.tensors().items(), straight.params.tensors().values()):
        np.testing.assert_array_equal(t.data, s.data, err_msg=k)
    assert [e["total"] for e in resumed.log] == [e["total"] for e in straight.log if "step" in e][2:]


def test_resume_shorter_than_the_checkpoint_keeps_its_step_count(tmp_path):
    # a resume that asks for fewer steps than the checkpoint ran trains
    # none and reports the checkpoint's count, so a later resume goes on
    # from there rather than replaying steps on trained weights
    dataset = Dataset([make_pair(0), make_pair(1)])
    straight = fit(dataset, tiny_cfg(epochs=4), SMALL_NET, SMALL_STOI)

    def save(result, cfg, name):
        path = tmp_path / name
        meta = {"steps_done": result.steps_done, "cost_scales": list(result.cost.scales)}
        save_checkpoint(result.params, result.opt_state, path, cfg, meta=meta)
        return path

    three = fit(dataset, tiny_cfg(epochs=3), SMALL_NET, SMALL_STOI)
    short = fit(dataset, tiny_cfg(epochs=1), SMALL_NET, SMALL_STOI, resume=save(three, tiny_cfg(epochs=3), "three.json"))
    assert short.steps_done == short.opt_state.step == 6
    assert short.log == []
    resumed = fit(dataset, tiny_cfg(epochs=4), SMALL_NET, SMALL_STOI, resume=save(short, tiny_cfg(epochs=1), "short.json"))
    assert resumed.steps_done == 8
    for (k, t), s in zip(resumed.params.tensors().items(), straight.params.tensors().values()):
        np.testing.assert_array_equal(t.data, s.data, err_msg=k)
    assert [e["total"] for e in resumed.log] == [e["total"] for e in straight.log if "step" in e][6:]


@pytest.mark.parametrize(
    "net_cfg,cfg",
    [
        (NetConfig(components=8, filter_len=64, stride=16, hidden_units=8, weight_sharing="independent"), tiny_cfg(epochs=4)),
        (NetConfig(components=8, filter_len=64, stride=16, hidden_units=8, smoothing_width=3), tiny_cfg(epochs=4)),
        (SMALL_NET, tiny_cfg(epochs=4, learning_rate=2e-3)),
        (SMALL_NET, tiny_cfg(epochs=4, cost="sdr:0.5+mse:0.5")),
        (SMALL_NET, tiny_cfg(epochs=4, seed=1)),
    ],
    ids=["weight_sharing", "smoothing_width", "learning_rate", "cost", "seed"],
)
def test_resume_rejects_changed_configs(tmp_path, net_cfg, cfg):
    dataset = Dataset([make_pair()])
    half = fit(dataset, tiny_cfg(epochs=2), SMALL_NET, SMALL_STOI)
    path = tmp_path / "half.json"
    save_checkpoint(
        half.params, half.opt_state, path, tiny_cfg(epochs=2),
        meta={"steps_done": half.steps_done, "cost_scales": list(half.cost.scales)},
    )
    with pytest.raises(IncompatibleCheckpoint):
        fit(dataset, cfg, net_cfg, SMALL_STOI, resume=path)


@pytest.mark.parametrize("meta,missing", [(None, "steps_done"), ({"steps_done": 2}, "cost_scales")])
def test_resume_needs_steps_done_and_cost_scales(tmp_path, meta, missing):
    path = tmp_path / "ckpt.json"
    save_checkpoint(init_params(0, SMALL_NET), OptState(), path, tiny_cfg(epochs=2), meta=meta)
    with pytest.raises(IncompatibleCheckpoint, match=missing):
        fit(Dataset([make_pair()]), tiny_cfg(epochs=4), SMALL_NET, SMALL_STOI, resume=path)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_divergence_aborts_before_update():
    pair = make_pair()
    cfg = tiny_cfg()
    params = init_params(0, SMALL_NET)
    params.analysis.data[:] = 1e200  # overflow the forward pass
    snapshot = params.analysis.data.copy()
    with pytest.raises(NumericalDivergence):
        train_step(params, pair, parse_cost_spec("sdr"), cfg, OptState(), SMALL_STOI)
    np.testing.assert_array_equal(params.analysis.data, snapshot)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_fit_divergence_carries_last_good_state(tmp_path):
    pair = make_pair()
    cfg = tiny_cfg(epochs=3)

    def poison(params, opt_state, entry):
        if entry["step"] == 0:
            params.analysis.data[:] = 1e200

    log_path = tmp_path / "log.jsonl"
    with pytest.raises(NumericalDivergence) as info:
        fit(Dataset([pair]), cfg, SMALL_NET, SMALL_STOI, log_path=log_path, step_callback=poison)
    result = info.value.result
    assert isinstance(result, trainer.FitResult)
    assert result.steps_done == result.opt_state.step == 1
    assert len([e for e in result.log if "step" in e]) == 1
    assert result.params.analysis.data[0, 0] == 1e200 and result.cost.scales
    assert [json.loads(line) for line in log_path.read_text().splitlines()] == result.log


def test_write_log_round_trips(tmp_path):
    log = [{"event": "normalize", "component": "sdr", "initial": 2.0, "scale": 0.5}]
    path = tmp_path / "log.jsonl"
    write_log(log, path)
    assert json.loads(path.read_text().strip()) == log[0]


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(excerpt_len=100)
    with pytest.raises(ValueError):
        TrainConfig(optimizer="lbfgs")
    TrainConfig(excerpt_len=0)
    TrainConfig(learning_rate=0.0)


@pytest.mark.parametrize(
    "field,value",
    [("snr_db", math.inf), ("snr_db", math.nan), ("learning_rate", math.nan), ("learning_rate", math.inf),
     ("beta1", 1.0), ("beta1", -0.1), ("beta2", 1.5), ("beta2", math.nan), ("eps_opt", 0.0), ("eps_opt", -1.0),
     ("eps_opt", math.inf)],
)
def test_train_config_rejects_non_finite_and_out_of_range_values(field, value):
    # each would reach the mixing or the Adam update as a NaN or an infinity
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})
    TrainConfig(beta1=0.0, beta2=0.0, eps_opt=1e-300, snr_db=-120.0)


def test_normalize_scale_errors_propagate():
    cost = parse_cost_spec("sdr")
    with pytest.raises(Exception):
        normalize_cost_scales(cost, [float("nan")])
