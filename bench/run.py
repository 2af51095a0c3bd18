"""sepcost benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload train-smoke --seed 0 --seconds 15 --trace 0

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's src/. The workload runs in a fresh worker
process (bench/worker.py) with one BLAS thread. --trace 0 prints the
end-to-end metrics of BENCHMARK.json; --trace 1 runs the workload once
untraced and once with the timing wrappers of bench/tracing.py, and
prints the per-layer metrics plus the tracing overhead (traced minus
untraced median call time). Earlier output lines are the environment,
the workload's own figures, and (with --trace 1) a note comparing them
with the ROADMAP baseline. The last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-default", "train-smoke", "separate-eval", "gradcheck-stoi")
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
DEADLINE_S = 170.0
END_TO_END_UNITS = {"setup_s": "s", "call_s_p50": "s", "audio_s_per_s": "s/s", "peak_rss_mb": "MB"}

# ROADMAP.md baseline (measured at 49b2e57, 2 BLAS threads, one run each)
BASELINE = {
    "default_step_s": (1.25, 1.38),
    "smoke_step_s": 0.069,
    "stoi_forward_ms": 1.87,
    "separate_2s_s": (0.8, 1.0),
    "separate_8s_s": 3.3,
    "op_coverage_target": 0.95,
}


def run_worker(workload: str, seed: int, seconds: float, trace: int, work_dir: Path, deadline: float) -> dict:
    env = dict(os.environ, **{name: BLAS_THREADS for name in BLAS_ENV})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--work-dir", str(work_dir)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"error: {workload} worker did not finish within {DEADLINE_S:.0f} s")
    if proc.returncode != 0:
        raise SystemExit(f"error: {workload} worker exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def workload_figures(result: dict) -> dict:
    figures = dict(result["report"])
    figures.pop("separate_s_by_length", None)
    figures["error_rate"] = result["failed"] / max(result["attempted"], 1)
    figures["timed_calls"] = result["timed_calls"]
    figures["setup_reps_s"] = result["setup_reps_s"]
    figures["import_s"] = result["import_s"]
    figures["raw"] = result["raw"]
    figures["host_slowdown"] = result["host_slowdown"]
    figures["host_samples"] = result["host_samples"]
    return figures


def reconciliation(workload: str, plain: dict, traced: dict) -> list[str]:
    """Lines comparing this run with the ROADMAP baseline table."""
    layers = traced["per_layer"]
    lines = [f"tracing overhead: host-normalised median call {traced['end_to_end']['call_s_p50'] or 0.0:.4g} s "
             f"traced vs {plain['end_to_end']['call_s_p50'] or 0.0:.4g} s untraced"]
    # the baseline table holds wall times, so compare raw times with it
    p50 = plain["raw"]["call_s_p50"] or 0.0
    if workload == "train-default":
        lo, hi = BASELINE["default_step_s"]
        lines.append(f"default-net step: {p50:.3f} s untraced, train_step {layers['trainer.train_step_s']:.3f} s "
                     f"traced; ROADMAP baseline {lo}-{hi} s with 2 BLAS threads, here {BLAS_THREADS}")
        lines.append(f"diff_engine.op_coverage {layers['diff_engine.op_coverage']:.3f} of train_step; "
                     f"ROADMAP item 1 target {BASELINE['op_coverage_target']}")
    elif workload == "train-smoke":
        lines.append(f"smoke-net step: {p50 * 1e3:.1f} ms untraced, gather_linear "
                     f"{(layers['diff_engine.op.gather_linear.fwd_s'] + layers['diff_engine.op.gather_linear.bwd_s']) * 1e3:.1f} ms "
                     f"traced; ROADMAP baseline {BASELINE['smoke_step_s'] * 1e3:.0f} ms")
    elif workload == "separate-eval":
        by_length = plain["report"]["separate_s_by_length"]
        for target, key in ((2.0, "separate_2s_s"), (8.0, "separate_8s_s")):
            seconds, wall = min(by_length, key=lambda item: abs(item[0] - target))
            lines.append(f"separate_full_length at {seconds:.2f} s of audio: {wall:.3f} s untraced; "
                         f"ROADMAP baseline at {target:.0f} s: {BASELINE[key]} s with 2 BLAS threads")
    elif workload == "gradcheck-stoi":
        evals = layers["diff_engine.fd_evals"]
        per_eval_ms = layers["diff_engine.fd_eval_s"] / evals * 1e3 if evals else 0.0
        lines.append(f"STOI forward at gradcheck size: {per_eval_ms:.3f} ms per finite-difference "
                     f"evaluation traced; ROADMAP baseline {BASELINE['stoi_forward_ms']} ms")
    return ["reconciliation: " + line for line in lines]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (ROOT / "src" / "sepcost" / "__init__.py").is_file():
        print(f"error: no sepcost package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        plain = run_worker(args.workload, args.seed, args.seconds, 0, work_dir, deadline)
        traced = run_worker(args.workload, args.seed, args.seconds, 1, work_dir, deadline) if args.trace else None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()

    print("environment: " + json.dumps(plain["environment"]))
    print(f"{args.workload}: " + json.dumps(workload_figures(plain)))
    results = [plain]
    if traced is not None:
        results.append(traced)
        for line in reconciliation(args.workload, plain, traced):
            print(line)
        layers = dict(traced["per_layer"])
        base = plain["end_to_end"]["call_s_p50"] or 0.0
        overhead = (traced["end_to_end"]["call_s_p50"] or 0.0) - base
        layers["trace.overhead_s"] = overhead
        layers["trace.overhead_ratio"] = overhead / base if base else 0.0
        sys.path.insert(0, str(HERE))
        from tracing import unit_of

        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in layers.items()}
    else:
        metrics = {name: {"value": plain["end_to_end"][name] or 0.0, "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    for r in results:
        for error in r["errors"]:
            print(f"call failed: {error}")
        for name, (attempted, failed) in r["checks"].items():
            if failed:
                print(f"check failed: {name} ({failed} of {attempted})")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    complete = all(r["timed_calls"] > 0 for r in results)
    print(json.dumps({"correct": failed == 0 and complete, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
