import base64
import builtins
import dataclasses
import io
import json
import re

import numpy as np
import pytest

from sepcost import trainer
from sepcost.aet_net import NetConfig, init_params
from sepcost.errors import CorruptFile, IncompatibleCheckpoint, NoData, NumericalDivergence, SilentSignal
from sepcost.losses import StoiConfig, parse_cost_spec, normalize_cost_scales
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

from reference import speechlike

SMALL_NET = NetConfig(components=8, filter_len=64, stride=16, hidden_units=8, weight_sharing="shared")
SMALL_STOI = StoiConfig(
    frame_len=64, fft_len=128, num_bands=8, lowest_center=300.0,
    segment_frames=8, analysis_rate=4000,
)


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


def test_fit_raises_silent_signal_naming_the_pair():
    # target sound only in its first 4 of 24000 samples: a random 4096-sample
    # excerpt holds it with probability 4 / 19905 per draw
    pairs = [make_pair(n=24000), _pair_with_target(slice(0, 4))]
    with pytest.raises(SilentSignal, match="pair 1: 8 draws"):
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
    # the update runs in place on scratch buffers; the expression form is the reference
    cfg = tiny_cfg(learning_rate=1e-2)
    params, ref = init_params(3, SMALL_NET), init_params(3, SMALL_NET)
    opt = OptState()
    ref_m = {k: np.zeros_like(t.data) for k, t in ref.tensors().items()}
    ref_v = {k: np.zeros_like(t.data) for k, t in ref.tensors().items()}
    rng = np.random.default_rng(4)
    for step in range(1, 4):
        for (name, t), t_ref in zip(params.tensors().items(), ref.tensors().values()):
            t.grad = rng.standard_normal(t.data.shape)
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


@pytest.mark.parametrize("chunk", [trainer._B64_CHUNK, 3 * 7])
def test_checkpoint_bytes_match_whole_document_dumps(tmp_path, monkeypatch, chunk):
    # the streamed file is byte for byte json.dumps of the whole document;
    # a 21-byte chunk splits every tensor's base64 mid-row
    monkeypatch.setattr(trainer, "_B64_CHUNK", chunk)
    params = init_params(0, SMALL_NET)
    opt = OptState(step=4)
    for name, t in params.tensors().items():
        opt.m[name], opt.v[name] = np.sin(t.data), np.cos(t.data) ** 2
    cfg = tiny_cfg()
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, opt, path, cfg, meta={"steps_done": 4})

    def encode(arr):
        return {"shape": list(arr.shape), "data": base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii")}

    tensors = {name: encode(t.data) for name, t in params.tensors().items()}
    tensors.update({f"opt.m.{name}": encode(arr) for name, arr in opt.m.items()})
    tensors.update({f"opt.v.{name}": encode(arr) for name, arr in opt.v.items()})
    doc = {
        "format_version": trainer.CHECKPOINT_VERSION,
        "config": {
            "network": dataclasses.asdict(SMALL_NET),
            "train": dataclasses.asdict(cfg),
            "meta": {"steps_done": 4, "opt_step": 4},
        },
        "tensors": tensors,
    }
    assert path.read_bytes() == json.dumps(doc).encode("ascii")


def test_checkpoint_rejects_truncation_and_bad_version(tmp_path):
    params = init_params(0, SMALL_NET)
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, OptState(), path)
    blob = path.read_text()

    truncated = tmp_path / "trunc.json"
    truncated.write_text(blob[: len(blob) // 2])
    with pytest.raises(CorruptFile):
        load_checkpoint(truncated)

    doc = json.loads(blob)
    doc["format_version"] = 99
    bad_version = tmp_path / "v99.json"
    bad_version.write_text(json.dumps(doc))
    with pytest.raises(IncompatibleCheckpoint):
        load_checkpoint(bad_version)

    doc = json.loads(blob)
    doc["tensors"]["analysis"]["data"] = doc["tensors"]["analysis"]["data"][:-8]
    bad_payload = tmp_path / "bad64.json"
    bad_payload.write_text(json.dumps(doc))
    with pytest.raises(CorruptFile):
        load_checkpoint(bad_payload)


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


@pytest.mark.parametrize("chunk", [1, 7, 4096])
def test_checkpoint_loads_any_layout_through_small_reads(tmp_path, monkeypatch, chunk):
    # the loader parses as it reads: every token, number and base64 string may
    # straddle a read, and any JSON layout of the same document must load
    monkeypatch.setattr(trainer, "_READ_CHUNK", chunk)
    params = init_params(0, SMALL_NET)
    opt = _moment_state(params, step=12345)
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, opt, path, tiny_cfg(), meta={"steps_done": 12345})
    _assert_same_state(load_checkpoint(path), params, opt)

    doc = json.loads(path.read_text())
    reordered = {"tensors": dict(reversed(doc["tensors"].items())), **doc}
    indented = tmp_path / "indented.json"
    indented.write_text(" \n" + json.dumps(reordered, indent=2) + "\n\t")
    loaded = load_checkpoint(indented)
    _assert_same_state(loaded, params, opt)
    assert loaded[2]["steps_done"] == 12345 and loaded[2]["train"] == doc["config"]["train"]


@pytest.mark.parametrize("chunk", [1, 2, 5, 1 << 20])
def test_json_stream_matches_json_loads(monkeypatch, chunk):
    # numbers, literals and escaped strings cut by a read are parsed whole
    monkeypatch.setattr(trainer, "_READ_CHUNK", chunk)
    text = (' {"a": 12345, "b" : [1.5e-3, -2, "x\\"y"], "c": {"d": true, "e": null},\n'
            '  "f": "' + "QUJD" * 50 + '", "g": 9876543210} \n')
    stream = trainer._JsonStream(io.StringIO(text))
    doc = {key: stream.value() for key in stream.members()}
    stream.end()
    assert doc == json.loads(text)


@pytest.mark.parametrize(
    "edit",
    [
        lambda t: "",
        lambda t: "[" + t + "]",
        lambda t: t + " {}",
        lambda t: t[:-2] + "},}",
        lambda t: t.replace('"format_version": 1', '"format_version" 1'),
        lambda t: t.replace('"format_version": 1', '1: 1'),
        lambda t: t.replace('"tensors": {', '"tensors": [{', 1)[:-1] + "]}",
        *(
            lambda t, shape=shape: re.sub(r'"shape": \[[^\]]*\]', f'"shape": {shape}', t, count=1)
            for shape in ("null", "3", '"ab"', "[2.5]", "[[1]]", "[-8, -64]")
        ),
        # an int64 product of these wraps to 0, which an empty payload would match
        lambda t: re.sub(r'"shape": [^}]*', '"shape": [4294967296, 4294967296], "data": ""', t, count=1),
    ],
    ids=[
        "empty", "array", "extra_data", "trailing_comma", "missing_colon", "number_key", "tensor_list",
        "shape_null", "shape_int", "shape_string", "shape_float", "shape_nested", "shape_negative",
        "shape_overflow",
    ],
)
def test_checkpoint_rejects_malformed_json(tmp_path, edit):
    path = tmp_path / "ckpt.json"
    save_checkpoint(init_params(0, SMALL_NET), OptState(), path)
    load_checkpoint(path)  # the unedited file loads
    path.write_text(edit(path.read_text()))
    with pytest.raises(CorruptFile):
        load_checkpoint(path)


def test_checkpoint_version_is_checked_before_tensor_payloads(tmp_path):
    # tensors first and a bad payload: the version mismatch is still what is reported
    params = init_params(0, SMALL_NET)
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, OptState(), path)
    doc = json.loads(path.read_text())
    doc["tensors"]["analysis"]["data"] = "!!"
    doc = {"tensors": doc.pop("tensors"), **doc, "format_version": 99}
    path.write_text(json.dumps(doc))
    with pytest.raises(IncompatibleCheckpoint):
        load_checkpoint(path)


def test_checkpoint_load_holds_one_tensor_of_text_at_a_time(tmp_path):
    # traced peak of a load: the decoded arrays plus a few copies of the largest
    # tensor entry, never the whole document text (which is 4/3 of the arrays)
    tracemalloc = pytest.importorskip("tracemalloc")
    net = NetConfig(components=256, filter_len=256, stride=16, hidden_units=256, weight_sharing="independent")
    params = init_params(0, net)
    opt = _moment_state(params)
    path = tmp_path / "ckpt.json"
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
    assert peak < arrays + 8 * largest + 2 * trainer._READ_CHUNK < 2 * path.stat().st_size


def _with_tensor(doc, key, arr):
    arr = np.asarray(arr, dtype="<f8")
    doc["tensors"][key] = {"shape": list(arr.shape), "data": base64.b64encode(arr.tobytes()).decode("ascii")}
    return doc


@pytest.mark.parametrize(
    "key,arr",
    [
        ("b2", np.zeros((1, 1))),  # would broadcast silently in forward
        ("w1", np.zeros((SMALL_NET.hidden, SMALL_NET.components + 1))),
        ("opt.m.b2", np.zeros((1, 1))),
        ("opt.v.w1", np.zeros(SMALL_NET.hidden)),
        ("opt.m.synthesis", np.zeros((SMALL_NET.components, SMALL_NET.filter_len))),  # shared mode has none
        ("opt.v.bias", np.zeros((SMALL_NET.components, 1))),
    ],
)
def test_checkpoint_rejects_wrong_shapes_and_stray_moments(tmp_path, key, arr):
    pair = make_pair()
    cfg = tiny_cfg(epochs=1)
    result = fit(Dataset([pair]), cfg, SMALL_NET, SMALL_STOI)
    path = tmp_path / "ckpt.json"
    save_checkpoint(result.params, result.opt_state, path, cfg)
    load_checkpoint(path)  # the unmodified file loads
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_with_tensor(json.loads(path.read_text()), key, arr)))
    with pytest.raises(CorruptFile, match=key):
        load_checkpoint(bad)


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
        m.setattr(trainer, "open", _FailingWriter, raising=False)
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
def test_fit_divergence_carries_last_good_state():
    pair = make_pair()
    cfg = tiny_cfg(epochs=3)

    def poison(params, opt_state, entry):
        if entry["step"] == 0:
            params.analysis.data[:] = 1e200

    with pytest.raises(NumericalDivergence) as info:
        fit(Dataset([pair]), cfg, SMALL_NET, SMALL_STOI, step_callback=poison)
    exc = info.value
    assert exc.steps_done == 1
    assert len([e for e in exc.log if "step" in e]) == 1
    assert exc.params is not None and exc.cost is not None


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


def test_normalize_scale_errors_propagate():
    cost = parse_cost_spec("sdr")
    with pytest.raises(Exception):
        normalize_cost_scales(cost, [float("nan")])
