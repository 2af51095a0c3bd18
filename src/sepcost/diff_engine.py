"""Reverse-mode automatic differentiation over a closed set of array ops.

A Tensor wraps a float64 numpy array. Ops applied to tensors that
require gradients record their parents and a backward closure. A closure
is a pure function: given the gradient of the op's output it returns a
tuple with one gradient per parent, in the parents' order, or None for a
parent it skips. `backward()` walks the tape in reverse topological
order and is the only code that accumulates those gradients (`_accum`
unbroadcasts and sums them). Leaves keep their `.grad`; an interior
node's gradient is dropped once it has been passed on, as PyTorch does
without `retain_grad`. Subtrees built purely from constants are folded
(no closures), so constant branches of a loss cost nothing at backward
time.

The op set is exactly what the separation losses and network need:
strided 1-D convolution and its transpose, dense affine maps, softplus,
elementwise arithmetic / min / abs / square / sqrt, inner products, L2
norms, axis reductions, basic slicing, zero-padded sliding windows, a
magnitude STFT, and a linear gather used for in-graph resampling. There
is no dynamic control flow and no higher-order differentiation.

Every framing op shares one scatter, `_overlap_add`: it is the backward
of conv1d, stft_magnitude and sliding_windows and the forward of
conv1d_transpose. The STFT runs on numpy's FFT both ways, rfft forward
and irfft for the adjoint.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Mapping

import numpy as np

from .errors import NotScalar, ShapeError

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (forward values only)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad) and _grad_enabled
        self._parents = parents if self.requires_grad else ()
        self._backward = backward if self.requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise NotScalar(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into each leaf's .grad over the recorded tape.

        Interior nodes end the walk with .grad None. The tape is kept, so
        a second call adds one more gradient into each leaf.
        """
        if self.data.size != 1:
            raise NotScalar(f"backward() on tensor of shape {self.data.shape}")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        _accum(self, np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is None:
                continue  # a leaf keeps its accumulated .grad
            g, node.grad = node.grad, None
            for parent, pg in zip(node._parents, node._backward(g)):
                _accum(parent, pg)

    # operator sugar; scalars and arrays are wrapped as constants
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __getitem__(self, key):
        return getitem(self, key)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


# A graph is a scalar-valued function of named input tensors.
Graph = Callable[[Mapping[str, Tensor]], Tensor]


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data) -> Tensor:
    """Leaf tensor that owns its storage and receives gradients."""
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g over the axes numpy broadcasting introduced."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _accum(t: Tensor, g) -> None:
    """Add g, summed over broadcast axes, into t.grad; skips None and constants."""
    if g is None or not t.requires_grad:
        return
    g = _unbroadcast(np.asarray(g, dtype=np.float64), t.data.shape)
    t.grad = g.copy() if t.grad is None else t.grad + g


def _result(data, parents: tuple, backward) -> Tensor:
    """Wrap an op's output; record parents and closure only if a parent needs a gradient.

    backward(g) returns one gradient per parent (None to skip one) and
    mutates nothing; Tensor.backward accumulates what it returns.
    """
    return Tensor(data, _grad_enabled and any(p.requires_grad for p in parents), parents, backward)


def _unreduce(g, axis, keepdims: bool) -> np.ndarray:
    """Restore the axis a reduction without keepdims removed, for broadcasting back."""
    g = np.asarray(g)
    return g if axis is None or keepdims else np.expand_dims(g, axis)


# ---------------------------------------------------------------------------
# elementwise ops

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data
    return _result(out, (a, b), lambda g: (g, g))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data
    return _result(out, (a, b), lambda g: (g, -g))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data
    return _result(out, (a, b), lambda g: (g * b.data, g * a.data))


def div(a, b) -> Tensor:
    """Elementwise division. No implicit epsilon: callers guard denominators."""
    a, b = as_tensor(a), as_tensor(b)
    out = a.data / b.data
    return _result(out, (a, b), lambda g: (g / b.data, -g * a.data / (b.data * b.data)))


def minimum(a, b) -> Tensor:
    """Elementwise min; on exact ties the gradient goes to the first argument."""
    a, b = as_tensor(a), as_tensor(b)
    take_a = a.data <= b.data
    out = np.where(take_a, a.data, b.data)
    return _result(out, (a, b), lambda g: (g * take_a, g * ~take_a))


def abs_(x) -> Tensor:
    """Elementwise |x|; the subgradient at 0 is 0."""
    x = as_tensor(x)
    sign = np.sign(x.data)
    return _result(np.abs(x.data), (x,), lambda g: (g * sign,))


def square(x) -> Tensor:
    x = as_tensor(x)
    return _result(x.data * x.data, (x,), lambda g: (g * (2.0 * x.data),))


def sqrt(x) -> Tensor:
    """Elementwise square root; the subgradient at 0 is 0."""
    x = as_tensor(x)
    out = np.sqrt(x.data)

    def bw(g):
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.where(out > 0.0, 0.5 / out, 0.0)
        return (g * d,)

    return _result(out, (x,), bw)


def softplus(x) -> Tensor:
    """log(1 + exp(x)), overflow-safe."""
    x = as_tensor(x)
    out = np.logaddexp(0.0, x.data)
    # sigmoid(x) = exp(x - softplus(x)); the exponent is <= 0, so no overflow
    return _result(out, (x,), lambda g: (g * np.exp(x.data - out),))


# ---------------------------------------------------------------------------
# reductions and contractions

def dot(a, b) -> Tensor:
    """Inner product of two equal-length 1-D tensors."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 1 or b.data.ndim != 1 or a.data.size != b.data.size:
        raise ShapeError(f"dot needs equal-length vectors, got {a.data.shape} and {b.data.shape}")
    out = a.data @ b.data
    return _result(out, (a, b), lambda g: (g * b.data, g * a.data))


def sum_(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    out = x.data.sum(axis=axis, keepdims=keepdims)
    return _result(out, (x,), lambda g: (np.broadcast_to(_unreduce(g, axis, keepdims), x.data.shape),))


def mean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    out = x.data.mean(axis=axis, keepdims=keepdims)
    count = x.data.size if axis is None else x.data.shape[axis]
    return _result(out, (x,), lambda g: (np.broadcast_to(_unreduce(g, axis, keepdims) / count, x.data.shape),))


def norm(x, axis=None, keepdims: bool = False) -> Tensor:
    """L2 norm, optionally along one axis; the subgradient at 0 is 0."""
    x = as_tensor(x)
    out = np.sqrt((x.data**2).sum(axis=axis, keepdims=keepdims))

    def bw(g):
        n = _unreduce(out, axis, keepdims)
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.where(n > 0.0, x.data / n, 0.0)
        return (_unreduce(g, axis, keepdims) * d,)

    return _result(out, (x,), bw)


# ---------------------------------------------------------------------------
# shape ops

def getitem(x, key) -> Tensor:
    x = as_tensor(x)
    out = x.data[key]

    def bw(g):
        full = np.zeros_like(x.data)
        full[key] = g
        return (full,)

    return _result(out.copy(), (x,), bw)


def sliding_windows(x, width: int, pad: tuple[int, int] = (0, 0)) -> Tensor:
    """Sliding windows along the last axis: (..., T) -> (..., width, L).

    out[..., d, l] = xp[..., l + d], where xp is x with pad[0] zeros
    before and pad[1] zeros after it, and L = T + pad[0] + pad[1] - width + 1.
    The result is a read-only strided view into a fresh copy of xp, so it
    holds T + pad values, not width * L. Backward overlap-adds each window
    row into the padded extent and drops the padding.
    """
    x = as_tensor(x)
    left, right = pad
    n_in = x.data.shape[-1]
    padded_len = n_in + left + right
    if width < 1 or padded_len < width:
        raise ShapeError(f"{width}-wide windows do not fit {n_in} samples padded by {pad}")
    xp = np.zeros(x.data.shape[:-1] + (padded_len,))
    xp[..., left : left + n_in] = x.data
    out = np.swapaxes(np.lib.stride_tricks.sliding_window_view(xp, width, axis=-1), -1, -2)
    return _result(out, (x,), lambda g: (_overlap_add(g, 1, padded_len)[..., left : left + n_in],))


# ---------------------------------------------------------------------------
# linear maps

def matmul(a, b) -> Tensor:
    """2-D matrix product (the dense map; add a bias tensor for affine)."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul shapes {a.data.shape} and {b.data.shape} do not align")
    out = a.data @ b.data
    return _result(out, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def _overlap_add(fg: np.ndarray, stride: int, out_len: int) -> np.ndarray:
    """Scatter fg[..., t, m] into out[..., t + stride*m], out of length out_len.

    The adjoint of framing with hop `stride`, over any leading batch
    dims. Taps go in blocks of `stride` rows, one strided add per block
    (a short last block fills only its leading columns), so each output
    sums its taps in increasing t.
    """
    *batch, taps, n_frames = fg.shape
    n_blocks = -(-taps // stride)
    rows = max(-(-out_len // stride), n_frames - 1 + n_blocks)
    out = np.zeros((*batch, rows, stride))
    for a in range(n_blocks):
        block = fg[..., a * stride : (a + 1) * stride, :]
        out[..., a : a + n_frames, : block.shape[-2]] += np.swapaxes(block, -1, -2)
    return out.reshape(*batch, rows * stride)[..., :out_len]


def _frames(x: np.ndarray, taps: int, stride: int) -> np.ndarray:
    # contiguous copy: BLAS-friendly for the matmuls that follow
    return np.ascontiguousarray(np.lib.stride_tricks.sliding_window_view(x, taps)[::stride])


def conv1d(x, filters, stride: int) -> Tensor:
    """Multi-filter strided 1-D convolution (no padding).

    x: (T,), filters: (K, taps) -> (K, L) with L = (T - taps)//stride + 1.
    """
    x, filters = as_tensor(x), as_tensor(filters)
    xv, fv = x.data, filters.data
    if xv.ndim != 1 or fv.ndim != 2:
        raise ShapeError("conv1d expects a 1-D signal and (K, taps) filters")
    taps = fv.shape[1]
    if xv.size < taps:
        raise ShapeError(f"signal of {xv.size} samples shorter than {taps}-tap filters")
    if stride <= 0:
        raise ValueError("stride must be positive")
    frames = _frames(xv, taps, stride)
    out = fv @ frames.T

    def bw(g):
        return (
            _overlap_add(fv.T @ g, stride, xv.size) if x.requires_grad else None,
            g @ frames if filters.requires_grad else None,
        )

    return _result(out, (x, filters), bw)


def conv1d_transpose(coeffs, filters, stride: int) -> Tensor:
    """Transposed strided 1-D convolution (overlap-add synthesis).

    coeffs: (K, L), filters: (K, taps) -> (T,) with T = (L-1)*stride + taps.
    Adjoint of conv1d with the same filters and stride.
    """
    coeffs, filters = as_tensor(coeffs), as_tensor(filters)
    cv, fv = coeffs.data, filters.data
    if cv.ndim != 2 or fv.ndim != 2 or cv.shape[0] != fv.shape[0]:
        raise ShapeError(f"conv1d_transpose shapes {cv.shape} and {fv.shape} do not align")
    if stride <= 0:
        raise ValueError("stride must be positive")
    taps = fv.shape[1]
    out_len = (cv.shape[1] - 1) * stride + taps
    out = _overlap_add(fv.T @ cv, stride, out_len)

    def bw(g):
        g_frames = _frames(np.asarray(g), taps, stride)
        return (
            fv @ g_frames.T if coeffs.requires_grad else None,
            cv @ g_frames if filters.requires_grad else None,
        )

    return _result(out, (coeffs, filters), bw)


def gather_linear(x, idx: np.ndarray, weights: np.ndarray) -> Tensor:
    """out[j] = sum_k x[idx[j, k]] * weights[j, k] (fixed sparse linear map).

    Used for in-graph band-limited resampling; the adjoint is the
    matching scatter-add.
    """
    x = as_tensor(x)
    if x.data.ndim != 1:
        raise ShapeError("gather_linear expects a 1-D signal")
    out = np.einsum("jk,jk->j", x.data[idx], weights)

    def bw(g):
        scaled = weights * np.asarray(g)[:, None]
        return (np.bincount(idx.ravel(), weights=scaled.ravel(), minlength=x.data.size),)

    return _result(out, (x,), bw)


def stft_magnitude(x, frame_len: int, fft_len: int, hop: int, window: np.ndarray) -> Tensor:
    """|rfft| of windowed frames zero-padded to fft_len, shape (bins, frames).

    fft_len must be at least frame_len, so no frame is cropped. Backward
    is the exact adjoint on the inverse FFT (subgradient 0 at
    zero-magnitude bins), then one overlap-add of the frame gradients.
    """
    x = as_tensor(x)
    xv = x.data
    if xv.ndim != 1:
        raise ShapeError("stft_magnitude expects a 1-D signal")
    if fft_len < frame_len:
        raise ShapeError(f"fft_len {fft_len} would crop the {frame_len}-sample frames")
    if hop < 1:
        raise ShapeError(f"hop must be at least 1, got {hop}")
    if xv.size < frame_len:
        raise ShapeError(f"signal of {xv.size} samples shorter than one {frame_len}-sample frame")
    frames = _frames(xv, frame_len, hop)
    spec = np.fft.rfft(frames * window, n=fft_len, axis=1)
    mag = np.abs(spec).T  # (bins, frames)

    def bw(g):
        with np.errstate(divide="ignore", invalid="ignore"):
            c = np.where(mag > 0.0, g / mag, 0.0).T * spec
        # irfft counts every bin but DC and Nyquist twice
        c[:, 1 : (fft_len + 1) // 2] *= 0.5
        fg = np.fft.irfft(c, n=fft_len, axis=1)[:, :frame_len] * (fft_len * window)
        return (_overlap_add(fg.T, hop, xv.size),)

    return _result(mag, (x,), bw)


# ---------------------------------------------------------------------------
# graph evaluation

def evaluate_with_gradient(graph: Graph, inputs: Mapping[str, np.ndarray], wrt):
    """Run a scalar graph forward and backward.

    Returns (value, {name: gradient array}) for every name in wrt.
    """
    wrt = set(wrt)
    missing = wrt - set(inputs)
    if missing:
        raise KeyError(f"wrt names not bound as inputs: {sorted(missing)}")
    tensors = {
        name: Tensor(np.asarray(val, dtype=np.float64), requires_grad=name in wrt)
        for name, val in inputs.items()
    }
    out = graph(tensors)
    if not isinstance(out, Tensor):
        raise TypeError("graph must return a Tensor")
    if out.data.size != 1:
        raise NotScalar(f"graph output has shape {out.data.shape}")
    out.backward()
    grads = {}
    for name in sorted(wrt):
        t = tensors[name]
        grads[name] = t.grad if t.grad is not None else np.zeros_like(t.data)
    return out.item(), grads


def finite_difference_gradient(graph: Graph, inputs: Mapping[str, np.ndarray], wrt: str, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar graph w.r.t. one input.

    Per-coordinate step is step * max(1, |x_i|). This is the
    verification oracle: it never touches the reverse-mode path.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    base = {name: np.asarray(val, dtype=np.float64).copy() for name, val in inputs.items()}
    x = base[wrt]
    grad = np.zeros_like(x)
    flat_x = x.ravel()
    flat_g = grad.ravel()

    def value() -> float:
        with no_grad():
            out = graph({name: Tensor(val) for name, val in base.items()})
        return out.item()

    for i in range(flat_x.size):
        orig = flat_x[i]
        h = step * max(1.0, abs(orig))
        flat_x[i] = orig + h
        f_plus = value()
        flat_x[i] = orig - h
        f_minus = value()
        flat_x[i] = orig
        flat_g[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max |a - n| scaled by the larger gradient magnitude."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0), 1e-30)
    return float(np.abs(analytic - numeric).max(initial=0.0) / scale)
