"""Command-line entry points wiring the library into reproducible experiments.

Subcommands: train, separate, evaluate, gradcheck, export-bases,
print-config. Exit codes: 0 ok, 2 usage/config error, 3 numerical
divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import aet_net, losses
from .aet_net import NetConfig, SeparatorParams, export_bases_csv, init_params, separate_full_length
from .diff_engine import (
    Tensor,
    evaluate_with_gradient,
    finite_difference_gradient,
    max_relative_error,
)
from .errors import NumericalDivergence, SepcostError
from .losses import StoiConfig
from .metrics import evaluate, format_report_row
from .signal_io import read_wav, resample, write_wav
from .trainer import TrainConfig, build_dataset, fit, load_checkpoint, save_checkpoint

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGED = 3

GRADCHECK_TOLERANCE = 1e-4
# 4000 samples at this rate resample to exactly 30 analysis frames at 10 kHz,
# so the gradient check runs with the resampling stage active in the graph.
STOI_CHECK_RATE = 10080

_SECTIONS = {"train": TrainConfig, "stoi": StoiConfig, "network": NetConfig}


def merged_config(config_path=None, args: argparse.Namespace | None = None) -> dict:
    """Defaults, overlaid with the config file, overlaid with explicit flags."""
    merged = {name: asdict(cls()) for name, cls in _SECTIONS.items()}
    if config_path:
        doc = json.loads(Path(config_path).read_text())
        if not isinstance(doc, dict):
            raise ValueError("config file must hold a JSON object")
        for section, values in doc.items():
            if section not in merged:
                raise ValueError(f"unknown config section {section!r}")
            if not isinstance(values, dict):
                raise ValueError(f"config section {section!r} must be an object")
            for key, value in values.items():
                if key not in merged[section]:
                    raise ValueError(f"unknown config key {section}.{key}")
                merged[section][key] = value
    if args is not None:
        # each config flag's argparse dest is its key, unique across sections
        for values in merged.values():
            for key in values:
                value = getattr(args, key, None)
                if value is not None:
                    values[key] = value
    return merged


def build_configs(merged: dict) -> tuple[TrainConfig, StoiConfig, NetConfig]:
    return (
        TrainConfig(**merged["train"]),
        StoiConfig(**merged["stoi"]),
        NetConfig(**merged["network"]),
    )


# ---------------------------------------------------------------------------
# gradient checking

def _network_check_case(seed: int):
    cfg = NetConfig(components=8, filter_len=64, stride=16, hidden_units=8, weight_sharing="shared")
    rng = np.random.default_rng([seed, 1])
    mix = 0.5 * rng.standard_normal(2048)
    target = 0.5 * rng.standard_normal(2048)
    params = init_params(seed, cfg)
    trim = cfg.filter_len

    def graph(t):
        est = aet_net.forward(Tensor(mix), SeparatorParams(cfg, **t))
        n_out = est.data.size
        return losses.sdr_loss(est[trim : n_out - trim], Tensor(target[trim : n_out - trim]))

    inputs = {name: t.data.copy() for name, t in params.tensors().items()}
    return graph, inputs, sorted(inputs)


def gradcheck_cases(loss: str, seed: int) -> dict[str, float]:
    """Max relative error between reverse-mode and central differences.

    Returns one entry per differentiated input; losses are checked
    w.r.t. the estimate, the network case w.r.t. every parameter tensor.
    The stoi case prepares its fixed target once (`losses.stoi_reference`),
    so each finite-difference evaluation runs only the estimate's half
    of the STOI graph, and it evaluates the oracle stacked
    (`finite_difference_gradient(..., stacked=True)`): one STOI pass
    scores a block of perturbed estimates against that reference, one
    score per row, bitwise the values of one call per row.
    """
    rng = np.random.default_rng([seed, 0])
    if loss == "network":
        graph, inputs, wrt = _network_check_case(seed)
    elif loss in losses.COST_KINDS:
        n = 4000 if loss == "stoi" else 2048
        names = ("x", "y", "z") if loss in ("sir", "sar") else ("x", "y")
        inputs = {name: rng.standard_normal(n) for name in names}
        cfg = StoiConfig()
        # only x is differentiated and perturbed, so y's half of STOI is fixed
        target = losses.stoi_reference(inputs["y"], cfg, STOI_CHECK_RATE) if loss == "stoi" else None

        def graph(t):
            y = t["y"] if target is None else target
            return losses.component_loss(loss, t["x"], y, t.get("z"), cfg, sample_rate=STOI_CHECK_RATE)

        wrt = ["x"]
    else:
        raise ValueError(f"unknown gradcheck target {loss!r}")

    _, analytic = evaluate_with_gradient(graph, inputs, wrt)
    errors = {}
    for name in wrt:
        numeric = finite_difference_gradient(graph, inputs, name, stacked=loss == "stoi")
        errors[name] = max_relative_error(analytic[name], numeric)
    return errors


# ---------------------------------------------------------------------------
# subcommands

def cmd_train(args) -> int:
    train_cfg, stoi_cfg, net_cfg = build_configs(merged_config(args.config, args))
    dataset = build_dataset(
        args.target_dir,
        args.interference_dir,
        snr_db=train_cfg.snr_db,
        seed=train_cfg.seed,
        sample_rate=train_cfg.sample_rate,
    )
    diverged = None
    try:
        result = fit(dataset, train_cfg, net_cfg, stoi_cfg, log_path=args.log)
    except NumericalDivergence as exc:
        diverged, result = exc, exc.result
    meta = {"steps_done": result.steps_done, "cost_scales": list(result.cost.scales)}
    if diverged is not None:
        meta["diverged"] = True
    save_checkpoint(result.params, result.opt_state, args.checkpoint, train_cfg, meta=meta)
    if diverged is not None:
        print(f"diverged after {result.steps_done} steps: {diverged}", file=sys.stderr)
        return EXIT_DIVERGED
    totals = [e["total"] for e in result.log if "total" in e]
    last = f", final loss {totals[-1]:.6g}" if totals else ""
    print(f"trained {result.steps_done} steps over {len(dataset.pairs)} pairs{last}")
    return EXIT_OK


def cmd_separate(args) -> int:
    params, _, meta = load_checkpoint(args.checkpoint)
    mix = read_wav(args.input)
    train_meta = meta.get("train")
    if train_meta and train_meta.get("sample_rate") and mix.sample_rate != train_meta["sample_rate"]:
        raise ValueError(
            f"input rate {mix.sample_rate} does not match checkpoint rate {train_meta['sample_rate']}"
        )
    estimate = separate_full_length(mix, params)
    del mix
    # scale-free losses leave the output level arbitrary: bring over-full-scale
    # estimates back under 1.0 so the PCM16 write cannot clip them; the
    # synthesis is this command's own, so it is rescaled in place
    samples = estimate.samples
    peak = float(max(-samples.min(), samples.max()))
    if peak > 1.0:
        np.divide(samples, peak, out=samples)
        print(f"peak {peak:.3g} rescaled to full scale")
    write_wav(estimate, args.output)
    print(f"wrote {args.output} ({len(estimate)} samples)")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    estimate = read_wav(args.estimate)
    target = read_wav(args.target)
    interference = read_wav(args.interference)
    rate = target.sample_rate
    estimate = resample(estimate, rate)
    interference = resample(interference, rate)
    if not (len(estimate) == len(target) == len(interference)):
        raise ValueError(
            f"lengths differ after resampling: {len(estimate)}, {len(target)}, {len(interference)}"
        )
    _, stoi_cfg, _ = build_configs(merged_config(args.config, None))
    report = evaluate(estimate, target, interference, stoi_cfg)
    print(format_report_row(args.name or args.estimate, report))
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    errors = gradcheck_cases(args.loss, args.seed)
    for name, err in errors.items():
        print(f"{args.loss} d/d{name}: max relative error {err:.3e}")
    worst = float(np.max(list(errors.values())))  # NaN if any error is NaN
    ok = worst <= GRADCHECK_TOLERANCE
    print(f"{args.loss}: worst {worst:.3e} ({'OK' if ok else 'FAIL'} at {GRADCHECK_TOLERANCE:.0e})")
    return EXIT_OK if ok else 1


def cmd_export_bases(args) -> int:
    params, _, meta = load_checkpoint(args.checkpoint)
    rate = args.sample_rate
    if rate is None:
        train_meta = meta.get("train") or {}
        rate = train_meta.get("sample_rate", TrainConfig().sample_rate)
    export_bases_csv(params, rate, args.output)
    print(f"wrote {args.output} ({params.cfg.components} filters)")
    return EXIT_OK


def cmd_print_config(args) -> int:
    merged = merged_config(args.config, args)
    build_configs(merged)  # a config that would not build is not printed
    print(json.dumps(merged, indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file (sections train/stoi/network)")
    p.add_argument("--cost", help="cost spec, e.g. sdr or sdr:0.75+stoi:0.25")
    p.add_argument("--learning-rate", type=float, dest="learning_rate")
    p.add_argument("--optimizer", choices=["adam", "sgd"])
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--snr-db", type=float, dest="snr_db")
    p.add_argument("--excerpt-len", type=int, dest="excerpt_len")
    p.add_argument("--trim", type=int)
    p.add_argument("--sample-rate", type=int, dest="sample_rate")
    p.add_argument("--components", type=int)
    p.add_argument("--filter-len", type=int, dest="filter_len")
    p.add_argument("--stride", type=int)
    p.add_argument("--smoothing-width", type=int, dest="smoothing_width")
    p.add_argument("--hidden-units", type=int, dest="hidden_units")
    p.add_argument("--weight-sharing", choices=["shared", "independent"], dest="weight_sharing")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sepcost", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a separator on paired WAV directories")
    _add_config_flags(p)
    p.add_argument("--target-dir", required=True)
    p.add_argument("--interference-dir", required=True)
    p.add_argument("--checkpoint", required=True, help="output checkpoint path")
    p.add_argument("--log", help="output JSONL training log path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("separate", help="run a checkpoint on a mixture WAV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("evaluate", help="print a CSV metrics row for an estimate")
    p.add_argument("--config", help="JSON config file (stoi section is used)")
    p.add_argument("--estimate", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--interference", required=True)
    p.add_argument("--name", help="value of the file column (defaults to estimate path)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gradcheck", help="compare reverse-mode gradients to finite differences")
    p.add_argument("--loss", required=True, choices=[*losses.COST_KINDS, "network"])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("export-bases", help="CSV of analysis filters sorted by dominant frequency")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--sample-rate", type=int, dest="sample_rate")
    p.set_defaults(func=cmd_export_bases)

    p = sub.add_parser("print-config", help="print the merged configuration")
    _add_config_flags(p)
    p.set_defaults(func=cmd_print_config)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericalDivergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (SepcostError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
