"""Census of the engine's ops: every one that creates a node has a product caller.

The product paths run on criterion 7's smoke net and fixture pair while a
recorder wraps `diff_engine._result`, the constructor of every node, and
notes the code name of each function that called it, on any thread. The
ops are derived from the module, not listed by hand: the public
functions whose code calls `_result`. So an op added with no product
caller fails here in the change that adds it. Operators (`t * 2`,
`-t`) are spellings of ops and are not counted.
"""

import inspect
import sys
import threading

import numpy as np
import pytest

from sepcost import cli, losses, metrics
from sepcost import diff_engine as E
from sepcost.aet_net import init_params, separate_full_length
from sepcost.losses import parse_cost_spec
from sepcost.signal_io import Waveform, mix_at_snr
from sepcost.trainer import OptState, TrainConfig, train_step

from reference import SMOKE_NET, fixture_speakers


def engine_ops() -> set:
    """The public diff_engine functions whose code calls `_result`."""
    return {
        name for name, f in vars(E).items()
        if inspect.isfunction(f) and not name.startswith("_") and "_result" in f.__code__.co_names
    }


def record(run) -> set:
    """The code names of the functions that called `E._result` while run() ran."""
    names, lock, make = set(), threading.Lock(), E._result

    def recorder(data, parents, backward):
        # pool threads create nodes too
        with lock:
            names.add(sys._getframe(1).f_code.co_name)
        return make(data, parents, backward)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(E, "_result", recorder)
        run()
    return names


def product_paths() -> None:
    """One training step per cost kind, separation, evaluation and every gradient check."""
    low, high = fixture_speakers(fs=16000, seconds=2.0)
    pair = mix_at_snr(Waveform(low, 16000), Waveform(high, 16000), 0.0)
    for kind in losses.COST_KINDS:
        cfg = TrainConfig(cost=kind, excerpt_len=0, trim=1024, sample_rate=16000)
        train_step(init_params(0, SMOKE_NET), pair, parse_cost_spec(kind), cfg, OptState())
    estimate = separate_full_length(pair.mixture, init_params(0, SMOKE_NET))
    metrics.evaluate(estimate, pair.target, pair.interference)
    for kind in (*losses.COST_KINDS, "network"):
        cli.gradcheck_cases(kind, 0)


@pytest.fixture(scope="module")
def reached() -> set:
    return record(product_paths)


def test_every_engine_op_has_a_product_caller(reached):
    assert sorted(engine_ops() - reached) == []
    # only ops create nodes, so the recorder names them and nothing else
    assert reached <= engine_ops()


def _codes(code):
    """code and every code object nested in it (closures, comprehensions)."""
    yield code
    for const in code.co_consts:
        if inspect.iscode(const):
            yield from _codes(const)


def readers(name: str) -> set:
    """The qualified names of the diff_engine functions and methods whose code, closures included, names `name`."""
    functions = [f for f in vars(E).values() if inspect.isfunction(f)]
    functions += [f for c in vars(E).values() if inspect.isclass(c) for f in vars(c).values() if inspect.isfunction(f)]
    return {
        f.__qualname__ for f in map(inspect.unwrap, functions) if f.__module__ == E.__name__
        and any(name in code.co_names for code in _codes(f.__code__))
    }


def test_only_the_tape_switches_read_the_grad_flag():
    # an op that reads `_grad_enabled` runs a second path when no tape
    # records; every op runs one forward either way and records one closure
    assert readers("_grad_enabled") == {"no_grad", "Tensor.__init__", "_result"}


def test_only_the_walk_reads_requires_grad():
    # every closure returns each parent's gradient and the walk drops those
    # of constant parents, so no op forks on which parents vary
    walk = {"Tensor.__init__", "Tensor.backward", "Tensor.__repr__", "_backward_step", "_accum", "_result"}
    assert readers("requires_grad") == walk


def orphan_op(x):
    """An op that no product path calls."""
    x = E.as_tensor(x)
    return E._result(x.data.copy(), (x,), lambda g: (g,))


def test_census_reports_an_op_without_a_product_caller(reached, monkeypatch):
    unreached = engine_ops() - reached
    monkeypatch.setattr(E, "orphan_op", orphan_op, raising=False)
    assert engine_ops() - reached == unreached | {"orphan_op"}
    # a caller clears it
    assert engine_ops() - (reached | record(lambda: E.orphan_op(np.ones(3)))) == unreached
