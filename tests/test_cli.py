import json
import math

import numpy as np
import pytest

from sepcost import aet_net, cli, diff_engine
from sepcost.cli import build_configs, main, merged_config
from sepcost.signal_io import PCM_SCALE, Waveform, read_wav, write_wav
from sepcost.trainer import OptState, load_checkpoint, save_checkpoint

from reference import speechlike


@pytest.fixture()
def data_dirs(tmp_path):
    tdir = tmp_path / "targets"
    idir = tmp_path / "noise"
    tdir.mkdir()
    idir.mkdir()
    rng = np.random.default_rng(0)
    for i in range(2):
        write_wav(Waveform(speechlike(rng, 6000, 16000, band=(100.0, 2500.0)), 16000), tdir / f"t{i}.wav")
        write_wav(Waveform(speechlike(rng, 6000, 16000, band=(2000.0, 6000.0)), 16000), idir / f"i{i}.wav")
    return tdir, idir


def train_args(tmp_path, tdir, idir, **extra):
    args = [
        "train",
        "--target-dir", str(tdir),
        "--interference-dir", str(idir),
        "--checkpoint", str(tmp_path / "ckpt.json"),
        "--log", str(tmp_path / "log.jsonl"),
        "--cost", "sdr",
        "--epochs", "1",
        "--seed", "0",
        "--excerpt-len", "0",
        "--trim", "128",
        "--components", "8",
        "--filter-len", "64",
        "--stride", "16",
        "--hidden-units", "8",
    ]
    for key, value in extra.items():
        args += [key, value]
    return args


def test_train_writes_checkpoint_and_log(tmp_path, data_dirs, capsys):
    tdir, idir = data_dirs
    assert main(train_args(tmp_path, tdir, idir)) == 0
    out = capsys.readouterr().out
    assert "trained 2 steps" in out
    params, opt, meta = load_checkpoint(tmp_path / "ckpt.json")
    assert params.cfg.components == 8
    assert meta["steps_done"] == 2
    lines = (tmp_path / "log.jsonl").read_text().strip().split("\n")
    assert json.loads(lines[0])["event"] == "normalize"
    assert json.loads(lines[-1])["step"] == 1


def test_train_is_reproducible(tmp_path, data_dirs):
    tdir, idir = data_dirs
    assert main(train_args(tmp_path, tdir, idir)) == 0
    first = (tmp_path / "ckpt.json").read_bytes()
    first_log = (tmp_path / "log.jsonl").read_bytes()
    assert main(train_args(tmp_path, tdir, idir)) == 0
    assert (tmp_path / "ckpt.json").read_bytes() == first
    assert (tmp_path / "log.jsonl").read_bytes() == first_log


def test_malformed_cost_exits_2(tmp_path, data_dirs, capsys):
    tdir, idir = data_dirs
    assert main(train_args(tmp_path, tdir, idir, **{"--cost": "sdr:+"})) == 2
    assert "error" in capsys.readouterr().err


def test_separate_preserves_length_and_is_deterministic(tmp_path, data_dirs, capsys):
    tdir, idir = data_dirs
    assert main(train_args(tmp_path, tdir, idir)) == 0
    rng = np.random.default_rng(1)
    mix_path = tmp_path / "mix.wav"
    write_wav(Waveform(speechlike(rng, 5000, 16000), 16000), mix_path)
    out_path = tmp_path / "est.wav"
    args = [
        "separate",
        "--checkpoint", str(tmp_path / "ckpt.json"),
        "--input", str(mix_path),
        "--output", str(out_path),
    ]
    assert main(args) == 0
    est = read_wav(out_path)
    assert len(est) == 5000
    first = out_path.read_bytes()
    assert main(args) == 0
    assert out_path.read_bytes() == first


def test_separate_in_blocks_writes_the_one_pass_pcm(tmp_path, monkeypatch, capsys):
    # a large output bias puts the estimate over full scale, so the rescale runs
    cfg = aet_net.NetConfig(components=8, filter_len=64, stride=16, hidden_units=8)
    params = aet_net.init_params(3, cfg)
    params.b2.data[:] = 50.0
    save_checkpoint(params, OptState(), tmp_path / "ckpt.json")
    mix = Waveform(speechlike(np.random.default_rng(3), 5000, 16000), 16000)
    write_wav(mix, tmp_path / "mix.wav")
    mix = read_wav(tmp_path / "mix.wav")

    half = cfg.filter_len // 2
    padded = np.concatenate([np.zeros(half), mix.samples, np.zeros(half)])
    with diff_engine.no_grad():
        one_pass = aet_net.forward(diff_engine.Tensor(padded), params).data[half : half + len(mix)]
    peak = np.abs(one_pass).max()
    assert peak > 1.0
    write_wav(Waveform(one_pass / peak, 16000), tmp_path / "one_pass.wav")

    monkeypatch.setattr(aet_net, "BLOCK_FRAMES", 50)  # 7 blocks of ~45 frames
    assert main([
        "separate",
        "--checkpoint", str(tmp_path / "ckpt.json"),
        "--input", str(tmp_path / "mix.wav"),
        "--output", str(tmp_path / "est.wav"),
    ]) == 0
    assert "rescaled to full scale" in capsys.readouterr().out
    blocked = read_wav(tmp_path / "est.wav").samples * PCM_SCALE
    expected = read_wav(tmp_path / "one_pass.wav").samples * PCM_SCALE
    assert blocked.shape == expected.shape == (5000,)
    assert np.abs(blocked - expected).max() <= 1.0


def test_separate_rejects_rate_mismatch(tmp_path, data_dirs, capsys):
    tdir, idir = data_dirs
    assert main(train_args(tmp_path, tdir, idir)) == 0
    rng = np.random.default_rng(2)
    mix_path = tmp_path / "mix8k.wav"
    write_wav(Waveform(speechlike(rng, 5000, 8000), 8000), mix_path)
    code = main([
        "separate",
        "--checkpoint", str(tmp_path / "ckpt.json"),
        "--input", str(mix_path),
        "--output", str(tmp_path / "est.wav"),
    ])
    assert code == 2
    assert "rate" in capsys.readouterr().err


def test_evaluate_row(tmp_path, capsys):
    rng = np.random.default_rng(3)
    fs = 10000
    # disjoint time supports keep the signals exactly orthogonal even
    # after PCM16 quantization
    y = speechlike(rng, 11000, fs)
    z = speechlike(rng, 11000, fs)
    y[1::2] = 0.0
    z[0::2] = 0.0
    for name, sig in (("target.wav", y), ("noise.wav", z)):
        write_wav(Waveform(sig, fs), tmp_path / name)
    # estimate == target, clamped to what PCM16 can carry
    est = read_wav(tmp_path / "target.wav")
    write_wav(est, tmp_path / "est.wav")

    code = main([
        "evaluate",
        "--estimate", str(tmp_path / "est.wav"),
        "--target", str(tmp_path / "target.wav"),
        "--interference", str(tmp_path / "noise.wav"),
        "--name", "case",
    ])
    assert code == 0
    row = capsys.readouterr().out.strip()
    name, sdr, sir, sar, stoi = row.split(",")
    assert name == "case"
    assert math.isinf(float(sdr)) and math.isinf(float(sir)) and math.isinf(float(sar))
    assert float(stoi) == pytest.approx(1.0, abs=1e-6)


def test_evaluate_estimate_without_target_component_prints_minus_inf(tmp_path, capsys):
    rng = np.random.default_rng(6)
    fs = 10000
    # disjoint time supports stay exactly orthogonal after PCM16 quantization
    y = speechlike(rng, 11000, fs)
    z = speechlike(rng, 11000, fs)
    y[1::2] = 0.0
    z[0::2] = 0.0
    write_wav(Waveform(y, fs), tmp_path / "t.wav")
    write_wav(Waveform(z, fs), tmp_path / "i.wav")
    code = main([
        "evaluate",
        "--estimate", str(tmp_path / "i.wav"),
        "--target", str(tmp_path / "t.wav"),
        "--interference", str(tmp_path / "i.wav"),
    ])
    assert code == 0
    _, sdr, sir, sar, _ = capsys.readouterr().out.strip().split(",")
    assert (sdr, sir, sar) == ("-inf", "-inf", "inf")


def test_evaluate_mixture_scores_zero_db(tmp_path, capsys):
    rng = np.random.default_rng(4)
    fs = 10000
    y = speechlike(rng, 11000, fs)
    z = speechlike(rng, 11000, fs)
    z = z - (z @ y) / (y @ y) * y
    z *= np.linalg.norm(y) / np.linalg.norm(z)
    write_wav(Waveform(0.5 * (y + z), fs), tmp_path / "mix.wav")
    write_wav(Waveform(0.5 * y, fs), tmp_path / "t.wav")
    write_wav(Waveform(0.5 * z, fs), tmp_path / "i.wav")
    code = main([
        "evaluate",
        "--estimate", str(tmp_path / "mix.wav"),
        "--target", str(tmp_path / "t.wav"),
        "--interference", str(tmp_path / "i.wav"),
    ])
    assert code == 0
    row = capsys.readouterr().out.strip()
    _, sdr, sir, _, _ = row.split(",")
    assert abs(float(sdr)) < 0.1  # PCM16 quantization keeps it near 0 dB
    assert abs(float(sir)) < 0.1


def test_evaluate_silent_estimate_exits_2(tmp_path, capsys):
    rng = np.random.default_rng(5)
    fs = 10000
    write_wav(Waveform(speechlike(rng, 11000, fs), fs), tmp_path / "t.wav")
    write_wav(Waveform(speechlike(rng, 11000, fs), fs), tmp_path / "i.wav")
    write_wav(Waveform(np.zeros(11000), fs), tmp_path / "est.wav")
    code = main([
        "evaluate",
        "--estimate", str(tmp_path / "est.wav"),
        "--target", str(tmp_path / "t.wav"),
        "--interference", str(tmp_path / "i.wav"),
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "estimate is silent" in captured.err


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_divergence_exits_3_with_last_good_checkpoint(tmp_path, data_dirs, capsys):
    tdir, idir = data_dirs
    args = train_args(
        tmp_path, tdir, idir,
        **{"--cost": "mse", "--optimizer": "sgd", "--learning-rate": "1e160", "--epochs": "5"},
    )
    assert main(args) == 3
    assert "diverged" in capsys.readouterr().err
    params, _, meta = load_checkpoint(tmp_path / "ckpt.json")
    assert meta.get("diverged") is True
    assert all(np.isfinite(t.data).all() for t in params.tensors().values())
    log = [json.loads(line) for line in (tmp_path / "log.jsonl").read_text().splitlines()]
    assert len([e for e in log if "step" in e]) == meta["steps_done"]


def test_gradcheck_commands(capsys, monkeypatch):
    assert main(["gradcheck", "--loss", "mse", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "OK" in out
    assert main(["gradcheck", "--loss", "network", "--seed", "1"]) == 0
    assert main(["gradcheck", "--loss", "stoi", "--seed", "0"]) == 0
    assert "stoi: worst" in capsys.readouterr().out
    # a NaN error fails the check and is reported as the worst, in either order
    for errors in ({"a": 1e-9, "b": float("nan")}, {"b": float("nan"), "a": 1e-9}):
        monkeypatch.setattr(cli, "gradcheck_cases", lambda loss, seed, errors=errors: errors)
        assert main(["gradcheck", "--loss", "network"]) == 1
        assert "network: worst nan (FAIL" in capsys.readouterr().out


def test_export_bases(tmp_path, data_dirs):
    tdir, idir = data_dirs
    assert main(train_args(tmp_path, tdir, idir)) == 0
    out = tmp_path / "bases.csv"
    args = [
        "export-bases",
        "--checkpoint", str(tmp_path / "ckpt.json"),
        "--output", str(out),
    ]
    assert main(args) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 8
    freqs = [float(line.split(",")[0]) for line in lines]
    assert freqs == sorted(freqs)
    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first


def test_print_config_round_trip(tmp_path, capsys):
    assert main(["print-config"]) == 0
    merged = json.loads(capsys.readouterr().out)
    assert merged["train"]["cost"] == "sdr"
    assert merged["network"]["components"] == 1024
    assert merged["stoi"]["segment_frames"] == 30
    assert "hop" not in merged["stoi"]  # derived from frame_len, not a key

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(merged))
    assert main(["print-config", "--config", str(cfg_path)]) == 0
    again = json.loads(capsys.readouterr().out)
    assert again == merged


def test_print_config_flag_overrides(capsys):
    assert main(["print-config", "--cost", "sir:0.75+sar:0.25", "--components", "32"]) == 0
    merged = json.loads(capsys.readouterr().out)
    assert merged["train"]["cost"] == "sir:0.75+sar:0.25"
    assert merged["network"]["components"] == 32


@pytest.mark.parametrize(
    "flag,text,section,key,value",
    [
        ("--cost", "sir:0.75+sar:0.25", "train", "cost", "sir:0.75+sar:0.25"),
        ("--learning-rate", "0.25", "train", "learning_rate", 0.25),
        ("--optimizer", "sgd", "train", "optimizer", "sgd"),
        ("--epochs", "7", "train", "epochs", 7),
        ("--seed", "11", "train", "seed", 11),
        ("--snr-db", "-5.5", "train", "snr_db", -5.5),
        ("--excerpt-len", "8192", "train", "excerpt_len", 8192),
        ("--trim", "256", "train", "trim", 256),
        ("--sample-rate", "8000", "train", "sample_rate", 8000),
        ("--components", "32", "network", "components", 32),
        ("--filter-len", "256", "network", "filter_len", 256),
        ("--stride", "8", "network", "stride", 8),
        ("--smoothing-width", "3", "network", "smoothing_width", 3),
        ("--hidden-units", "48", "network", "hidden_units", 48),
        ("--weight-sharing", "independent", "network", "weight_sharing", "independent"),
    ],
)
def test_print_config_flag_lands_in_its_key(capsys, flag, text, section, key, value):
    assert main(["print-config"]) == 0
    expected = json.loads(capsys.readouterr().out)
    assert expected[section][key] != value
    expected[section][key] = value
    assert main(["print-config", flag, text]) == 0
    assert json.loads(capsys.readouterr().out) == expected


@pytest.mark.parametrize("section,key", [("stoi", "analysis_rate"), ("train", "sample_rate")])
def test_float_rate_in_config_rejected(tmp_path, section, key):
    cfg_path = tmp_path / "rate.json"
    cfg_path.write_text(json.dumps({section: {key: 10000.0}}))
    with pytest.raises(ValueError, match=f"{key} must be a positive integer"):
        build_configs(merged_config(cfg_path))


def test_train_config_value_of_the_wrong_type_exits_2(tmp_path, data_dirs, capsys):
    tdir, idir = data_dirs
    cfg_path = tmp_path / "epochs.json"
    cfg_path.write_text(json.dumps({"train": {"epochs": "3"}}))
    args = train_args(tmp_path, tdir, idir, **{"--config": str(cfg_path)})
    i = args.index("--epochs")
    del args[i : i + 2]  # the flag would override the file
    assert main(args) == 2
    assert "epochs must be of type int, got '3'" in capsys.readouterr().err
    assert not (tmp_path / "ckpt.json").exists()


@pytest.mark.parametrize(
    "doc,message",
    [
        ({"train": {"epochs": "3"}}, "epochs must be of type int"),
        ({"network": {"stride": 16.5}}, "stride must be of type int"),
        ({"network": {"hidden_units": True}}, "hidden_units must be of type int | None"),
        ({"train": {"learning_rate": "0.1"}}, "learning_rate must be of type float"),
        ({"stoi": {"clip_db": None}}, "clip_db must be of type float"),
    ],
    ids=["train_epochs_str", "network_stride_float", "network_hidden_bool", "train_rate_str", "stoi_clip_null"],
)
def test_print_config_rejects_a_value_of_the_wrong_type(tmp_path, capsys, doc, message):
    cfg_path = tmp_path / "typed.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["print-config", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_config_fields_take_their_annotated_types():
    # an int is a float, None fills an optional field, a bool is no number
    cfg = build_configs(merged_config())
    assert cfg[0].learning_rate == 1e-3 and cfg[2].hidden_units is None
    built = build_configs({"train": {"learning_rate": 1, "snr_db": -5}, "stoi": {"lowest_center": 150}, "network": {"hidden_units": 8}})
    assert built[0].learning_rate == 1 and built[2].hidden_units == 8
    for section, key in (("train", "seed"), ("stoi", "num_bands"), ("network", "modulation_floor")):
        merged = merged_config()
        merged[section][key] = True
        with pytest.raises(ValueError, match=f"{key} must be of type"):
            build_configs(merged)


def test_one_sample_stoi_frames_exit_2(tmp_path, data_dirs, capsys):
    tdir, idir = data_dirs
    cfg_path = tmp_path / "frames.json"
    cfg_path.write_text(json.dumps({"stoi": {"frame_len": 1}}))
    assert main(train_args(tmp_path, tdir, idir, **{"--config": str(cfg_path)})) == 2
    assert "frame_len must be at least 2" in capsys.readouterr().err
    assert not (tmp_path / "ckpt.json").exists()


@pytest.mark.parametrize(
    "network,flags,message",
    [
        ({"modulation_floor": 0.0}, {}, "modulation_floor"),
        ({"modulation_floor": float("nan")}, {}, "modulation_floor"),
        ({}, {"--components": "0"}, "components"),
        ({}, {"--hidden-units": "0"}, "hidden_units"),
    ],
)
def test_out_of_range_network_config_exits_2(tmp_path, data_dirs, capsys, network, flags, message):
    tdir, idir = data_dirs
    cfg_path = tmp_path / "net.json"
    cfg_path.write_text(json.dumps({"network": network}))
    assert main(train_args(tmp_path, tdir, idir, **{"--config": str(cfg_path)}, **flags)) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "ckpt.json").exists()


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"train": {"coost": "sdr"}}))
    assert main(["print-config", "--config", str(cfg_path)]) == 2
    assert "unknown config key" in capsys.readouterr().err
    cfg_path.write_text(json.dumps({"stoi": {"hop": 128}}))
    assert main(["print-config", "--config", str(cfg_path)]) == 2
    assert "unknown config key stoi.hop" in capsys.readouterr().err
    cfg_path.write_text(json.dumps({"stoi": {"epsilon": 1e-12}}))
    assert main(["print-config", "--config", str(cfg_path)]) == 2
    assert "unknown config key stoi.epsilon" in capsys.readouterr().err
    cfg_path.write_text(json.dumps({"training": {}}))
    assert main(["print-config", "--config", str(cfg_path)]) == 2
