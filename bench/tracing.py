"""Timing wrappers the benchmark installs around sepcost's module attributes.

Nothing here changes the program: `Tracer.install()` replaces every
public function of the eight layer modules (and every alias of it that
another sepcost module imported by name) with a wrapper that times the
call, and `uninstall()` puts the originals back. Engine ops additionally
count their output bytes and tape nodes, wrap the backward closure of
each result so backward time is charged to the op that recorded it, and
count dense floating-point work from operand shapes.

Every span keeps inclusive and self time; self time excludes the time
of wrapped calls made inside it, so nested spans are not counted twice.
"""

from __future__ import annotations

import importlib
import inspect
import time

LAYERS = ("diff_engine", "aet_net", "losses", "metrics", "trainer", "signal_io", "dsp", "cli")

# Ops the per-layer report names one by one; every other engine op is
# still wrapped and counted in diff_engine.op_coverage.
REPORTED_OPS = (
    "conv1d", "conv1d_transpose", "matmul", "softplus", "abs", "mul", "add", "div",
    "getitem", "concatenate", "stack", "gather_linear", "stft_magnitude", "norm", "minimum",
)

# Public diff_engine functions that are not tape ops.
_ENGINE_NON_OPS = {"no_grad", "as_tensor", "parameter", "apply_op", "evaluate_with_gradient",
                   "finite_difference_gradient", "max_relative_error"}
# Called once per op or returning a context manager: wrapping them would
# only measure the wrapper.
_UNWRAPPED = {"no_grad", "as_tensor", "parameter", "apply_op"}

_DENSE_OPS = ("conv1d", "conv1d_transpose", "matmul")


def _shape(x):
    return getattr(x, "data", x).shape


def _dense_flop(op: str, args, out) -> float:
    """Multiply-add count x2 of one forward call, from operand shapes."""
    if op == "matmul":
        (m, k), (_, n) = _shape(args[0]), _shape(args[1])
        return 2.0 * m * k * n
    if op == "conv1d":  # (K, taps) filters over L frames
        k, taps = _shape(args[1])
        return 2.0 * k * taps * out.data.shape[1]
    k, n_frames = _shape(args[0])  # conv1d_transpose: (K, L) coefficients
    return 2.0 * k * _shape(args[1])[1] * n_frames


class Tracer:
    """Span and op counters for one traced process; see the module docstring."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.counts = {"nodes": 0, "out_bytes": {}, "flop": 0.0}
        self._children: list[float] = []
        self._patched: list[tuple[object, str, object]] = []
        self.resample_plan = None

    # -- wrappers ---------------------------------------------------------
    def _timed(self, name: str, fn, post=None):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        children = self._children
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            children.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = children.pop()
                if children:
                    children[-1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - inner
            if post is not None:
                post(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _op_post(self, op: str):
        from sepcost.diff_engine import Tensor

        out_bytes = self.counts["out_bytes"]
        out_bytes.setdefault(op, 0)
        dense = op in _DENSE_OPS

        def post(args, out):
            if not isinstance(out, Tensor):
                return
            out_bytes[op] += out.data.nbytes
            flop = _dense_flop(op, args, out) if dense else 0.0
            self.counts["flop"] += flop
            if out._backward is None:
                return
            self.counts["nodes"] += 1
            grad_operands = sum(bool(getattr(a, "requires_grad", False)) for a in args[:2])
            bw_post = None
            if flop:
                def bw_post(_args, _out, extra=flop * grad_operands):
                    self.counts["flop"] += extra
            out._backward = self._timed(f"diff_engine.op.{op}.bwd", out._backward, bw_post)

        return post

    def _fd_gradient(self, fn):
        """finite_difference_gradient with its graph evaluations timed."""
        def wrapper(graph, *args, **kwargs):
            return fn(self._timed("diff_engine.fd_eval", graph), *args, **kwargs)

        return wrapper

    # -- install / uninstall ---------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        import sepcost

        modules = {name: importlib.import_module(f"sepcost.{name}") for name in LAYERS}
        every_module = [sepcost, *modules.values()]
        replacements = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or attr in _UNWRAPPED or inspect.isclass(obj)
                        or not callable(obj) or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                if layer == "diff_engine" and attr not in _ENGINE_NON_OPS:
                    op = attr.rstrip("_")
                    wrapped = self._timed(f"diff_engine.op.{op}.fwd", obj, self._op_post(op))
                elif layer == "diff_engine" and attr == "finite_difference_gradient":
                    wrapped = self._timed(f"{layer}.{attr}", self._fd_gradient(obj))
                else:
                    wrapped = self._timed(f"{layer}.{attr}", obj)
                replacements[id(obj)] = wrapped
        self.resample_plan = modules["signal_io"].resample_plan
        # rebind every alias, including `from .x import f` copies in other modules
        for mod in every_module:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replacements:
                    self._set(mod, attr, replacements[id(obj)])
        tensor = modules["diff_engine"].Tensor
        self._set(tensor, "backward", self._timed("diff_engine.backward", tensor.backward))
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- readout ----------------------------------------------------------
    def snapshot(self) -> dict:
        info = self.resample_plan.cache_info() if self.resample_plan is not None else None
        return {
            "spans": {name: list(v) for name, v in self.spans.items()},
            "nodes": self.counts["nodes"],
            "out_bytes": dict(self.counts["out_bytes"]),
            "flop": self.counts["flop"],
            "plan_hits": info.hits if info else 0,
            "plan_misses": info.misses if info else 0,
        }


def _delta(end: dict, start: dict) -> dict:
    spans = {}
    for name, (calls, incl, own) in end["spans"].items():
        c0, i0, s0 = start["spans"].get(name, (0, 0.0, 0.0))
        spans[name] = (calls - c0, incl - i0, own - s0)
    out_bytes = {op: b - start["out_bytes"].get(op, 0) for op, b in end["out_bytes"].items()}
    return {
        "spans": spans,
        "nodes": end["nodes"] - start["nodes"],
        "out_bytes": out_bytes,
        "flop": end["flop"] - start["flop"],
        "plan_hits": end["plan_hits"] - start["plan_hits"],
        "plan_misses": end["plan_misses"] - start["plan_misses"],
    }


def layer_metrics(start: dict, end: dict, n_calls: int, one_off: dict, call_span: str | None,
                  busy_s: float) -> dict:
    """Per-layer metrics over the measured loop, per closed-loop call.

    start/end are snapshots taken around the loop and n_calls the number
    of calls timed in it. one_off is the process-wide snapshot, for
    set-up functions reported per call of that function. The denominator
    of op_coverage is the time of call_span, or busy_s (the benchmark's
    own timing of the calls) when the call is not a single function.
    """
    d = _delta(end, start)
    spans = d["spans"]
    per = 1.0 / max(n_calls, 1)

    def incl(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def per_call_of(name):
        c, t, _ = one_off["spans"].get(name, (0, 0.0, 0.0))
        return t / c if c else 0.0

    m = {}
    op_time = sum(own(name) for name in spans if name.startswith("diff_engine.op."))
    for op in REPORTED_OPS:
        fwd, bwd = f"diff_engine.op.{op}.fwd", f"diff_engine.op.{op}.bwd"
        m[f"diff_engine.op.{op}.calls"] = calls(fwd) * per
        m[f"diff_engine.op.{op}.fwd_s"] = own(fwd) * per
        m[f"diff_engine.op.{op}.bwd_s"] = own(bwd) * per
        m[f"diff_engine.op.{op}.out_mb"] = d["out_bytes"].get(op, 0) / 1e6 * per
    call_time = incl(call_span) if call_span else busy_s
    m["diff_engine.backward_s"] = incl("diff_engine.backward") * per
    m["diff_engine.nodes_per_step"] = d["nodes"] * per
    m["diff_engine.dense_gflop"] = d["flop"] / 1e9 * per
    m["diff_engine.op_coverage"] = op_time / call_time if call_time > 0 else 0.0
    m["diff_engine.fd_evals"] = calls("diff_engine.fd_eval") * per
    m["diff_engine.fd_eval_s"] = incl("diff_engine.fd_eval") * per
    for fn in ("analysis_forward", "separator_forward", "synthesis_forward", "separate_full_length"):
        m[f"aet_net.{fn}_s"] = incl(f"aet_net.{fn}") * per
    m["losses.composite_terms_s"] = incl("losses.composite_terms") * per
    m["losses.stoi_forward_s"] = incl("losses.stoi_forward") * per
    m["losses.stoi_forward_calls"] = calls("losses.stoi_forward") * per
    m["signal_io.resample_plan_s"] = incl("signal_io.resample_plan") * per
    m["signal_io.resample_plan_hits"] = d["plan_hits"] * per
    m["signal_io.resample_plan_misses"] = d["plan_misses"] * per
    m["metrics.bss_eval_metrics_s"] = incl("metrics.bss_eval_metrics") * per
    m["metrics.stoi_metric_s"] = incl("metrics.stoi_metric") * per
    m["dsp.calls"] = sum(calls(n) for n in spans if n.startswith("dsp.")) * per
    m["dsp.busy_s"] = sum(own(n) for n in spans if n.startswith("dsp.")) * per
    m["cli.gradcheck_cases_s"] = incl("cli.gradcheck_cases") * per
    m["trainer.normalize_s"] = per_call_of("trainer.initial_component_means")
    m["trainer.train_step_s"] = incl("trainer.train_step") * per
    m["trainer.train_step_self_s"] = own("trainer.train_step") * per
    m["trainer.save_checkpoint_s"] = per_call_of("trainer.save_checkpoint")
    m["trainer.load_checkpoint_s"] = per_call_of("trainer.load_checkpoint")
    return m


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith((".calls", "_calls", "_hits", "_misses", ".fd_evals", ".nodes_per_step")):
        return "count"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".dense_gflop"):
        return "GFLOP"
    if name.endswith(("op_coverage", "overhead_ratio")):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    raise ValueError(f"no unit for per-layer metric {name!r}")
