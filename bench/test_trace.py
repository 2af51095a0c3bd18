"""Tests of the benchmark itself: tracing changes no value, and
BENCHMARK.json names exactly the metrics the benchmark prints.

    python3 -m pytest bench/test_trace.py
"""

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from sepcost import trainer  # noqa: E402
from tracing import Tracer, layer_metrics, unit_of  # noqa: E402
from worker import COST, SMOKE_NET, mixture  # noqa: E402


def short_smoke_run():
    """Four smoke-net steps; returns per-step losses and gradients, final params and scales."""
    rng = np.random.default_rng([7, 1])
    dataset = trainer.Dataset([mixture(rng, 16000) for _ in range(2)])
    cfg = trainer.TrainConfig(cost=COST, seed=7, epochs=2, excerpt_len=0)
    steps = []

    def on_step(params, opt_state, entry):
        grads = {name: t.grad.copy() for name, t in params.tensors().items()}
        steps.append((entry["total"], entry["components"], grads))

    result = trainer.fit(dataset, cfg, SMOKE_NET, step_callback=on_step)
    final = {name: t.data.copy() for name, t in result.params.tensors().items()}
    return steps, final, result.cost.scales


def assert_bitwise(a: np.ndarray, b: np.ndarray):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_tracing_leaves_losses_gradients_and_params_bitwise_unchanged():
    original_step = trainer.train_step
    plain_steps, plain_final, plain_scales = short_smoke_run()
    tracer = Tracer()
    with tracer:
        assert trainer.train_step is not original_step
        traced_steps, traced_final, traced_scales = short_smoke_run()
    assert trainer.train_step is original_step

    assert tracer.spans["trainer.train_step"][0] == 4
    assert tracer.spans["diff_engine.op.conv1d.bwd"][0] == 4
    assert traced_scales == plain_scales
    assert len(traced_steps) == len(plain_steps) == 4
    for (loss_a, parts_a, grads_a), (loss_b, parts_b, grads_b) in zip(plain_steps, traced_steps):
        assert loss_a == loss_b and parts_a == parts_b
        assert grads_a.keys() == grads_b.keys()
        for name in grads_a:
            assert_bitwise(grads_a[name], grads_b[name])
    assert plain_final.keys() == traced_final.keys()
    for name in plain_final:
        assert_bitwise(plain_final[name], traced_final[name])


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    empty = Tracer().snapshot()
    per_layer = set(layer_metrics(empty, empty, 1, empty, None, 0.0))
    per_layer |= {"trainer.checkpoint_mb", "trace.overhead_s", "trace.overhead_ratio"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {n: unit_of(n) for n in per_layer}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
