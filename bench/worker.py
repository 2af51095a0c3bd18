"""One benchmark workload in a fresh process: set up, run a closed loop, check.

Started by run.py with the BLAS thread count already fixed in the
environment. Prints progress lines and, as its last line, one JSON
object that run.py reads. With --trace 1 the timing wrappers of
tracing.py are installed before set-up and the per-layer metrics are
added to that object.

Inputs are synthesised here from --seed; sepcost receives only arrays
(and, for separate-eval, a checkpoint file written from seeded weights).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

_T_START = time.perf_counter()

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import sepcost  # noqa: E402
from sepcost import aet_net, cli, diff_engine, losses, metrics, signal_io, trainer  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402

_T_IMPORTED = time.perf_counter()

FS = 16000
COST = "sdr:0.75+stoi:0.25"
SETUP_REPS = 3
SMOKE_NET = aet_net.NetConfig(components=64, filter_len=128, stride=16, hidden_units=64,
                              weight_sharing="shared")
# separate-eval mixture lengths in seconds; each pass draws new sample
# counts a little below these, so every resample_plan call misses its cache
SEPARATE_SECONDS = (1.05, 2.0, 3.5, 5.0, 6.5, 8.0)
# the stoi case of cli.gradcheck_cases checks a signal of this many samples
STOI_CHECK_SAMPLES = 4000


class _Stop(Exception):
    """Raised from fit's step callback to end the time-bounded loop."""


# ---------------------------------------------------------------------------
# speech-like inputs: harmonic comb x syllabic envelope + band noise

def speechlike(rng, n: int, band=(100.0, 3800.0)) -> np.ndarray:
    t = np.arange(n) / FS
    f0 = rng.uniform(95.0, 230.0)
    harmonics = np.arange(max(1, math.ceil(band[0] / f0)), int(band[1] // f0) + 1)
    amps = rng.uniform(0.4, 1.0, harmonics.size) / np.sqrt(harmonics)
    phases = rng.uniform(0.0, 2.0 * np.pi, harmonics.size)
    voiced = np.zeros(n)
    for h, a, p in zip(harmonics, amps, phases):
        voiced += a * np.sin(2.0 * np.pi * h * f0 * t + p)
    voiced /= np.sqrt(np.mean(voiced**2))
    spec = np.fft.rfft(rng.standard_normal(n))
    freqs = np.fft.rfftfreq(n, 1.0 / FS)
    spec[(freqs < band[0]) | (freqs > band[1])] = 0.0
    noise = np.fft.irfft(spec, n)
    noise /= np.sqrt(np.mean(noise**2))
    rate = rng.uniform(2.2, 5.5)
    envelope = (0.3 + 0.35 * (1.0 + np.sin(2.0 * np.pi * rate * t + rng.uniform(0, 2 * np.pi)))) * (
        0.55 + 0.225 * (1.0 + np.sin(2.0 * np.pi * 0.37 * rate * t + rng.uniform(0, 2 * np.pi))))
    sig = (voiced + 0.15 * noise) * envelope
    return 0.05 * sig / np.sqrt(np.mean(sig**2))


def mixture(rng, n: int) -> signal_io.MixturePair:
    target = signal_io.Waveform(speechlike(rng, n), FS)
    interference = signal_io.Waveform(speechlike(rng, n), FS)
    return signal_io.mix_at_snr(target, interference, 0.0)


# ---------------------------------------------------------------------------
# run bookkeeping

class Run:
    """Timing, checks and tracer snapshots of one workload run."""

    def __init__(self, seed: int, seconds: float, work_dir: Path, tracer):
        self.seed = seed
        self.seconds = seconds
        self.work_dir = work_dir
        self.tracer = tracer
        self.setup_spans: list[tuple[float, float]] = []
        self.checks: dict[str, list[int]] = {}  # name -> [attempted, failed]
        self.calls = 0
        self.failed_calls = 0
        self.errors: list[str] = []
        self.snapshots: dict[str, dict] = {}

    def setup(self, build):
        """Run build SETUP_REPS times, keeping the spans and the last result."""
        result = None
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            result = build()
            self.setup_spans.append((t0, time.perf_counter()))
        return result

    def check(self, name: str, ok: bool) -> None:
        entry = self.checks.setdefault(name, [0, 0])
        entry[0] += 1
        entry[1] += 0 if ok else 1

    def call_failed(self, exc: BaseException) -> None:
        self.failed_calls += 1
        self.errors.append(f"{type(exc).__name__}: {exc}")
        traceback.print_exception(exc, file=sys.stderr)

    def mark(self, label: str) -> None:
        if self.tracer is not None:
            self.snapshots[label] = self.tracer.snapshot()

    def stop_due(self, started: float, durations: list[float], minimum: int) -> bool:
        """Closed loop stop rule: at least `minimum` calls, and do not start
        a call that the median so far says would end after --seconds."""
        if len(durations) < minimum:
            return False
        return time.perf_counter() - started + statistics.median(durations) > self.seconds


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def checkpoint_round_trip(run: Run, params, opt_state, cfg) -> dict:
    """save_checkpoint / load_checkpoint once; every tensor must come back bitwise."""
    path = run.work_dir / "round_trip.json"
    t0 = time.perf_counter()
    trainer.save_checkpoint(params, opt_state, path, cfg, meta={"steps_done": opt_state.step})
    t1 = time.perf_counter()
    loaded, loaded_opt, _ = trainer.load_checkpoint(path)
    t2 = time.perf_counter()
    size_mb = path.stat().st_size / 1e6
    path.unlink()
    before = {name: t.data for name, t in params.tensors().items()}
    before.update({f"m.{k}": v for k, v in opt_state.m.items()})
    before.update({f"v.{k}": v for k, v in opt_state.v.items()})
    after = {name: t.data for name, t in loaded.tensors().items()}
    after.update({f"m.{k}": v for k, v in loaded_opt.m.items()})
    after.update({f"v.{k}": v for k, v in loaded_opt.v.items()})
    same = before.keys() == after.keys() and all(bitwise_equal(before[k], after[k]) for k in before)
    run.check("checkpoint_round_trip_bitwise", same and loaded_opt.step == opt_state.step)
    return {"checkpoint_save_s": t1 - t0, "checkpoint_load_s": t2 - t1, "checkpoint_mb": size_mb}


# ---------------------------------------------------------------------------
# workloads

def train(run: Run, net_cfg, utterance_samples, excerpt_len: int, min_steps: int) -> dict:
    """trainer.fit in a closed loop of optimizer steps until --seconds."""
    cfg = trainer.TrainConfig(cost=COST, seed=run.seed, epochs=0, excerpt_len=excerpt_len)

    def build():
        rng = np.random.default_rng([run.seed, 1])
        dataset = trainer.Dataset([mixture(rng, n) for n in utterance_samples(rng)])
        trainer.fit(dataset, cfg, net_cfg)  # epochs=0: init and normalisation pass only
        return dataset

    dataset = run.setup(build)
    # utterances are longer than the excerpt, or (full-utterance steps) all of one length
    step_audio_s = (excerpt_len or len(dataset.pairs[0].mixture)) / FS

    stamps: list[float] = []
    entries: list[dict] = []
    state = {}

    def on_step(params, opt_state, entry):
        stamps.append(time.perf_counter())
        entries.append(entry)
        state["params"], state["opt"] = params, opt_state
        if len(stamps) == 1:  # the first step also paid fit's own set-up
            run.mark("loop_start")
        if run.stop_due(stamps[0], np.diff(stamps).tolist(), min_steps):
            raise _Stop

    long_cfg = trainer.TrainConfig(cost=COST, seed=run.seed, epochs=10**6, excerpt_len=excerpt_len)
    t0 = time.perf_counter()
    try:
        trainer.fit(dataset, long_cfg, net_cfg, step_callback=on_step)
    except _Stop:
        pass
    except Exception as exc:  # a failed step ends the loop and is counted
        run.call_failed(exc)
    run.mark("loop_end")
    run_s = time.perf_counter() - t0
    run.calls = len(entries) + run.failed_calls

    durations = np.diff(stamps).tolist()
    for e in entries:
        values = [e["total"], *e["components"].values()]
        run.check("step_loss_finite", all(math.isfinite(v) for v in values))
    extra = {"run_s": run_s, "steps": len(entries)}
    if "params" in state:
        params = state["params"]
        run.check("shared_synthesis_is_analysis", params.synthesis_filters is params.analysis)
        extra.update(checkpoint_round_trip(run, params, state["opt"], long_cfg))
    if len(entries) >= min_steps:
        extra["loss_after_steps"] = entries[min_steps - 1]["total"]
    if len(durations) >= 100:  # at least ten samples beyond the 90th percentile
        extra["step_s_p90"] = float(np.percentile(durations, 90))
    if durations:
        extra["step_s_p50"] = statistics.median(durations)
        extra["train_audio_s_per_s"] = step_audio_s * len(durations) / sum(durations)
    return {"calls": list(zip(stamps, stamps[1:])), "audio_s": step_audio_s * len(durations),
            "call_span": "trainer.train_step", "extra": extra}


def train_default(run: Run) -> dict:
    return train(run, aet_net.NetConfig(),
                 lambda rng: rng.integers(int(2.2 * FS), int(4.0 * FS), size=3), 32768, min_steps=4)


def train_smoke(run: Run) -> dict:
    return train(run, SMOKE_NET, lambda rng: [2 * FS] * 4, 0, min_steps=40)


def separate_eval(run: Run) -> dict:
    """Load a default-net checkpoint, then separate and evaluate mixtures of
    distinct lengths in whole passes until --seconds."""
    ckpt = run.work_dir / "default_net.json"
    trainer.save_checkpoint(aet_net.init_params(run.seed, aet_net.NetConfig()), trainer.OptState(), ckpt)
    ckpt_mb = ckpt.stat().st_size / 1e6

    def make_pass(index: int):
        rng = np.random.default_rng([run.seed, 2, index])
        return [mixture(rng, round(seconds * FS) - 200 * index - int(rng.integers(0, 200)))
                for seconds in SEPARATE_SECONDS]

    def build():
        params, _, _ = trainer.load_checkpoint(ckpt)
        return params, make_pass(0)

    params, first_pass = run.setup(build)
    ckpt.unlink()

    calls, separate_s, evaluate_s, pass_s = [], [], [], []
    audio_s = 0.0
    by_length = []
    run.mark("loop_start")
    started = time.perf_counter()
    index = 0
    pending = first_pass
    while True:
        t_pass = time.perf_counter()
        for pair in pending:
            run.calls += 1
            try:
                t0 = time.perf_counter()
                estimate = aet_net.separate_full_length(pair.mixture, params)
                t1 = time.perf_counter()
                report = metrics.evaluate(estimate, pair.target, pair.interference)
                t2 = time.perf_counter()
            except Exception as exc:
                run.call_failed(exc)
                continue
            calls.append((t0, t2))
            separate_s.append(t1 - t0)
            evaluate_s.append(t2 - t1)
            seconds = len(pair.mixture) / FS
            audio_s += seconds
            by_length.append((seconds, t1 - t0))
            check_separation(run, pair, estimate, report)
        pass_s.append(time.perf_counter() - t_pass)
        index += 1
        if run.stop_due(started, pass_s, 1):
            break
        pending = make_pass(index)
    run.mark("loop_end")
    extra = {
        "run_s": time.perf_counter() - started,
        "mixtures": len(calls),
        "separate_audio_s_per_s": audio_s / sum(separate_s) if separate_s else 0.0,
        "evaluate_audio_s_per_s": audio_s / sum(evaluate_s) if evaluate_s else 0.0,
        "checkpoint_mb": ckpt_mb,
        "separate_s_by_length": sorted(by_length),
    }
    return {"calls": calls, "audio_s": audio_s,
            "call_span": None, "extra": extra}


def check_separation(run: Run, pair, estimate, report) -> None:
    run.check("output_length_equals_input", len(estimate) == len(pair.mixture))
    run.check("output_finite", bool(np.all(np.isfinite(estimate.samples))))
    with diff_engine.no_grad():
        loss = losses.stoi_loss(estimate, pair.target).item()
    run.check("stoi_metric_plus_loss_is_one", report.stoi + loss == 1.0)
    x = estimate.samples
    s, e_interf, e_artif = metrics.bss_decompose(x, pair.target.samples, pair.interference.samples)
    # same bound as the decomposition tests of the package
    residual = np.abs(x - (s + e_interf + e_artif)).max()
    run.check("bss_parts_sum_to_estimate", residual <= 1e-14 * max(1.0, np.abs(x).max()))


def gradcheck_stoi(run: Run) -> dict:
    """cli.gradcheck_cases("stoi", ...) in a closed loop until --seconds."""
    stoi_cfg = losses.StoiConfig()

    def build():
        rng = np.random.default_rng([run.seed, 3])
        x, y = rng.standard_normal((2, STOI_CHECK_SAMPLES))
        with diff_engine.no_grad():  # fills the resample-plan and band caches
            losses.stoi_loss(x, y, stoi_cfg, sample_rate=cli.STOI_CHECK_RATE).item()

    run.setup(build)
    calls, durations = [], []
    run.mark("loop_start")
    started = time.perf_counter()
    while not run.stop_due(started, durations, 1):
        run.calls += 1
        try:
            t0 = time.perf_counter()
            errors = cli.gradcheck_cases("stoi", run.seed + len(durations))
            calls.append((t0, time.perf_counter()))
            durations.append(calls[-1][1] - t0)
        except Exception as exc:
            run.call_failed(exc)
            break
        run.check("gradcheck_within_tolerance", max(errors.values()) <= cli.GRADCHECK_TOLERANCE)
    run.mark("loop_end")
    extra = {"run_s": time.perf_counter() - started}
    if durations:
        extra["gradcheck_s"] = statistics.median(durations)
    return {"calls": calls, "audio_s": STOI_CHECK_SAMPLES / cli.STOI_CHECK_RATE * len(durations),
            "call_span": "cli.gradcheck_cases", "extra": extra}


WORKLOADS = {
    "train-default": train_default,
    "train-smoke": train_smoke,
    "separate-eval": separate_eval,
    "gradcheck-stoi": gradcheck_stoi,
}


# ---------------------------------------------------------------------------

def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    if not Path(sepcost.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported sepcost from {sepcost.__file__}, not from this checkout", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer().install()
    run = Run(args.seed, args.seconds, args.work_dir, tracer)
    host = HostSpeed().start()
    try:
        result = WORKLOADS[args.workload](run)
    finally:
        host.stop()
    durations = [end - start for start, end in result["calls"]]
    busy = sum(durations)
    setup_s = [end - start for start, end in run.setup_spans]
    import_s = _T_IMPORTED - _T_START
    raw = {
        "setup_s": import_s + statistics.median(setup_s),
        "call_s_p50": statistics.median(durations) if durations else None,
        "audio_s_per_s": result["audio_s"] / busy if busy else None,
    }
    # each span divided by the host slowdown sampled around it
    norm_setup = [host.normalise(*span) for span in run.setup_spans]
    norm_calls = [host.normalise(*span) for span in result["calls"]]
    norm_import = import_s / host.slowdown(*run.setup_spans[0])
    out = {
        "workload": args.workload,
        "environment": environment(args.seed),
        "attempted": run.calls + sum(a for a, _ in run.checks.values()),
        "failed": run.failed_calls + sum(f for _, f in run.checks.values()),
        "checks": run.checks,
        "errors": run.errors,
        "timed_calls": len(durations),
        "end_to_end": {
            "setup_s": norm_import + statistics.median(norm_setup),
            "call_s_p50": statistics.median(norm_calls) if norm_calls else None,
            "audio_s_per_s": result["audio_s"] / sum(norm_calls) if norm_calls else None,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "raw": raw,
        "host_slowdown": host.overall(),
        "host_samples": len(host.samples),
        "setup_reps_s": setup_s,
        "import_s": import_s,
        "report": result["extra"],
    }
    if tracer is not None:
        from tracing import layer_metrics

        tracer.uninstall()
        end = run.snapshots["loop_end"]
        # a training run that failed before its first step has no loop_start
        layers = layer_metrics(run.snapshots.get("loop_start", end), end, len(durations),
                               tracer.snapshot(), result["call_span"], busy)
        layers["trainer.checkpoint_mb"] = result["extra"].get("checkpoint_mb", 0.0)
        out["per_layer"] = layers
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
