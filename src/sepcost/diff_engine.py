"""Reverse-mode automatic differentiation over a closed set of array ops.

A Tensor wraps a float64 numpy array. Ops applied to tensors that
require gradients record their parents and a backward closure. Given the
gradient g of the op's output, a closure returns a tuple with one
gradient per parent, in the parents' order, or None for a parent it
skips. `backward()` walks the tape in reverse topological
order and is the only code that accumulates those gradients (`_accum`
unbroadcasts and sums them). Leaves keep their `.grad`; an interior
node's gradient is dropped once it has been passed on, as PyTorch does
without `retain_grad`. Subtrees built purely from constants are folded
(no closures), so constant branches of a loss cost nothing at backward
time.

The op set is exactly what the separation losses and network need:
strided 1-D convolution and its transpose, which can synthesise from
re-modulated coefficients (m_hat * x / m, formed inside the op), the
adaptive front end's modulation (a floor plus a zero-padded depthwise
temporal convolution of |x|), the fused dense layer
softplus(w @ x + b), softplus, elementwise arithmetic and square,
inner products, sums and means over axes, basic slicing, the
intelligibility cost's band envelopes (`band_envelopes`: sqrt(bands @
|STFT|^2) as one op) and its clipped correlation of envelope segments
(`segment_correlation`, also one op, which stores no segment array), and
the polyphase banded map of in-graph resampling (`gather_linear` over a
`PolyphasePlan`). There is no dynamic control flow and no higher-order
differentiation. `tests/test_op_census.py` holds the set to that: every
public function here that creates a node must be reached by a product
path (training, separation, evaluation or the gradient check).

Signals may carry leading dims: `gather_linear` and `band_envelopes`
act on the last axis of a (..., T) stack, `segment_correlation` on the
last two of a (..., J, F) stack of envelopes, the elementwise ops
broadcast, and the reductions take negative axes, so one graph scores a
stack of signals, one score per leading index. The first two run one
signal at a time in scratch reused from signal to signal, and the third
the same numpy calls on blocks of rows, so a stack's values and
gradients are bitwise those of its signals alone;
`finite_difference_gradient(..., stacked=True)` feeds such graphs
blocks of perturbed inputs.

The ownership rule: the walk hands each closure a g that only the walk
holds and drops it right after the call, so a closure may write an
output gradient of g's shape into g, and changes no other array
(`_owned`): affine_softplus forms g * sigmoid there and, when x has
g's shape, writes its x gradient over g * sigmoid once the w and b
gradients are formed from it; modulation writes its x gradient there.
A closure may hand back an array it allocated, g included, without the
walk copying it; views, broadcasts and an array handed to two parents
are copied, so no two `.grad` fields share memory and a later gradient
is added into an interior node's `.grad` in place. A leaf's sum is a
new array, so a `.grad` taken from an earlier `backward()` never
changes. What is cheap is recomputed rather than kept (Chen et al.,
"Training Deep Nets with Sublinear Memory Cost", 2016): conv1d frames
its input again in backward rather than keep the frame matrix, and
conv1d_transpose forms its re-modulated coefficients again rather than
keep them on the tape. The walk runs each closure in a frame of its own
(`_backward_step`), so a returned gradient that was added into an
existing `.grad` is freed before the next closure runs. The first dense
layer's x-gradient product, written over g * sigmoid, sets the default
net's peak.

Every framing op frames through one view, `_frame_view`, and scatters
through one adjoint, `_overlap_add`: the backward of conv1d,
band_envelopes and segment_correlation (whose forward frames too) and
the forward of conv1d_transpose.
gather_linear instead reads each group of its rows through one strided
view of a padded buffer, which BLAS reads in place, and its backward
adds each group's product back as one contiguous run. The STFT runs on
numpy's FFT both ways, rfft forward and irfft for the adjoint.

The thread rule: only `_beside` starts threads. It runs independent
tasks on the caller and beside it, on the CPUs a single-threaded BLAS
leaves free (`_workers`), and joins them before it returns. What splits
into such tasks:
- separation's blocks (`aet_net._separate_blocks`);
- the stacked finite-difference oracle's chunks of coordinate blocks;
- the column spans of a dense product of conv1d, conv1d_transpose or
  affine_softplus, forward or backward, of at least _SPLIT_FLOOR
  multiply-adds (`_product`);
- the row passes (`_row_pass`) of at least _CHUNK_FLOOR elements, in
  contiguous chunks of row blocks: modulation and conv1d_transpose's
  re-modulation, forward and backward, affine_softplus's bias add and
  softplus and its g * sigmoid backward chain, and the trainer's Adam
  update.
Work inside `_beside` records no tape and splits no further, so
separation and the oracle run their products and passes whole, while
training's split. Either way the results are bitwise the same for any
worker count.
"""

from __future__ import annotations

import contextlib
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import NotScalar, ShapeError

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (forward values only).

    The flag is process-wide, not per thread: ops that other threads run
    while the block is open record nothing either. So threads that build
    Tensors run only inside `_beside`, which switches it once, around
    its pool (the module's thread rule).
    """
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
            if node._backward is not None:  # a leaf keeps its accumulated .grad
                _backward_step(node)

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


def _backward_step(node: Tensor) -> None:
    """Run node's closure on its .grad and accumulate what it returns into its parents.

    The returned gradients live only in this frame, so one that `_accum`
    added into an existing .grad is freed before the walk runs the next
    closure.
    """
    g, node.grad = node.grad, None
    grads = node._backward(g)
    del g  # the closure may have written into g; what it returned is all that is left
    taken = []
    for parent, pg in zip(node._parents, grads):
        if pg is None or not parent.requires_grad:
            continue
        # one array handed to two parents (add's (g, g)) must not become two .grad
        if any(pg is q for q in taken):
            pg = np.array(pg)
        taken.append(pg)
        _accum(parent, pg)


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
    """Add g, summed over broadcast axes, into t.grad; skips None and constants.

    A first gradient that owns its writeable data is stored as it is;
    views, broadcasts and slices are copied. Later gradients are added
    into an interior node's .grad in place, since only the walk holds it;
    a leaf gets a new array, so one that a caller took from an earlier
    backward() is never changed.
    """
    if g is None or not t.requires_grad:
        return
    g = _unbroadcast(np.asarray(g, dtype=np.float64), t.data.shape)
    if t.grad is None:
        t.grad = g if g.flags.owndata and g.flags.writeable else g.copy()
    elif t._backward is None:
        t.grad = t.grad + g
    else:
        t.grad += g


def _owned(g: np.ndarray, like: np.ndarray) -> np.ndarray:
    """g itself when a closure may write a gradient of like's shape into it, else a new array.

    Under the ownership rule a C-contiguous float64 g of like's shape that
    owns its writeable data is the walk's alone; any other g, such as a
    view, is left alone. So a caller that runs a closure itself and reads
    g afterwards passes a copy or a read-only view.
    """
    f = g.flags
    if f.owndata and f.writeable and f.c_contiguous and g.dtype == np.float64 and g.shape == like.shape:
        return g
    return np.empty_like(like)


def _result(data, parents: tuple, backward) -> Tensor:
    """Wrap an op's output; record parents and closure only if a parent needs a gradient.

    backward(g) returns one gradient per parent (None to skip one) and
    changes no array but g (see `_owned`); Tensor.backward accumulates
    what it returns.
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
    return _result(out, (a, b), lambda g: (g if a.requires_grad else None, -g if b.requires_grad else None))


def _products_with(g, a: Tensor, b: Tensor) -> tuple:
    """(g * b, g * a), the gradients of a * b and of a dot product, None for a constant parent."""
    return g * b.data if a.requires_grad else None, g * a.data if b.requires_grad else None


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data
    return _result(out, (a, b), lambda g: _products_with(g, a, b))


def div(a, b) -> Tensor:
    """Elementwise division. No implicit epsilon: callers guard denominators."""
    a, b = as_tensor(a), as_tensor(b)
    out = a.data / b.data

    def bw(g):
        return (
            g / b.data if a.requires_grad else None,
            -g * a.data / (b.data * b.data) if b.requires_grad else None,
        )

    return _result(out, (a, b), bw)


def square(x) -> Tensor:
    x = as_tensor(x)
    return _result(x.data * x.data, (x,), lambda g: (g * (2.0 * x.data),))


# elements per row block of every row pass (`_row_pass`), so that a
# block's scratch arrays stay in cache
_ROW_BLOCK = 1 << 15


def _row_blocks(n_rows: int, n_cols: int) -> tuple[int, list[slice]]:
    """(rows, blocks): consecutive slices of n_rows rows, each at most rows long.

    rows holds about _ROW_BLOCK elements of n_cols columns, at least one
    row; only the last block may be shorter.
    """
    step = max(1, _ROW_BLOCK // max(n_cols, 1))
    return min(step, n_rows), [slice(r, min(r + step, n_rows)) for r in range(0, n_rows, step)]


# ---------------------------------------------------------------------------
# threads on the CPUs a single-threaded BLAS leaves idle

# environment variables through which a BLAS takes its thread count
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# elements below which a row pass runs as one chunk: on 2 vCPUs, the
# front end's passes (modulation and re-modulation, forward and backward,
# and a softplus) in two chunks took 1.06-1.12x the time of one chunk at
# 0.5M elements, 0.71-1.27x at 0.75M-1M and 0.63-0.65x at 2M, the
# default net's size, in two of three runs (1.5x in one where the host
# gave no second CPU)
_CHUNK_FLOOR = 1 << 20

# `marked` on the threads inside a `_beside` call, whose work runs whole
_whole_products = threading.local()


def _blas_threads() -> int | None:
    """The largest positive integer among _BLAS_THREAD_VARS, or None when none holds one."""
    counts = []
    for var in _BLAS_THREAD_VARS:
        try:
            counts.append(int(os.environ.get(var, "")))
        except ValueError:
            pass
    return max((n for n in counts if n > 0), default=None)


def _workers(tasks: int) -> int:
    """Threads to run `tasks` independent tasks on: the CPUs BLAS threads leave free.

    min(tasks, cpus // blas_threads), at least 1. cpus is this process's
    CPU affinity; blas_threads is _blas_threads(), or cpus when that is
    None, since a BLAS left to itself runs a thread per CPU and more
    threads on top of it would only compete with it.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(tasks, cpus // (_blas_threads() or cpus)))


def _beside(fn: Callable, tasks: Sequence) -> Iterator:
    """Yield fn(task) for each task in task order, computed on the caller and beside it.

    This is the module's thread rule: no other code starts a thread. With
    w = _workers(len(tasks)), the caller computes every w-th task and a
    pool of w - 1 threads the rest, all submitted at once; w = 1 builds
    no pool. (A pool of w threads beside an idle caller kept one more
    malloc arena of freed block memory: separate-eval peak RSS 146 -> 171
    MB on 2 vCPUs.) For the whole call the caller and the pool threads
    are marked (`_whole_products`), so the work they run splits no
    further, and tape recording is off (`no_grad`, switched once, around
    the pool), also for the consumer between yields. On a thread already
    inside `_beside` (a marked one) the tasks run in order on that
    thread, touching neither the flag nor the marks. A failing task
    cancels the tasks not yet started, and the pool is joined before the
    generator ends. Each pool result is released once it has been
    yielded. The module docstring lists the work that runs through it.
    """
    if getattr(_whole_products, "marked", False):
        yield from map(fn, tasks)
        return
    w = _workers(len(tasks))
    pool = ThreadPoolExecutor(w - 1, initializer=setattr, initargs=(_whole_products, "marked", True)) if w > 1 else None
    with no_grad():
        _whole_products.marked = True
        try:
            helped = {i: pool.submit(fn, task) for i, task in enumerate(tasks) if i % w}
            for i, task in enumerate(tasks):
                yield helped.pop(i).result() if i % w else fn(task)
        finally:
            if pool is not None:
                pool.shutdown(cancel_futures=True)
            _whole_products.marked = False


def _chunks(blocks: list, split: bool) -> list[list]:
    """blocks as _workers(len(blocks)) contiguous near-equal chunks when split, else as one chunk."""
    w = _workers(len(blocks)) if split else 1
    bounds = [len(blocks) * i // w for i in range(w + 1)]
    return [blocks[a:b] for a, b in zip(bounds, bounds[1:])]


def _row_pass(block: Callable, blocks: list, size: int, *scratch: tuple) -> None:
    """Call block(b, *arrays) for each b in blocks, in contiguous chunks beside the caller.

    A pass over at least _CHUNK_FLOOR elements (size) splits its blocks
    into `_chunks`, one `_beside` task each, so inside `_beside` they run
    in order on the calling thread; a smaller pass is one chunk. Each
    chunk runs its blocks in order on arrays of the scratch shapes of its
    own, which the caller allocates, as it allocates every output, so
    pool threads allocate no large array. The blocks write disjoint parts
    of the outputs with the same numpy calls on any split, so the results
    are bitwise the same for any worker count.
    """
    chunks = _chunks(blocks, size >= _CHUNK_FLOOR)
    arrays = [[np.empty(shape) for shape in scratch] for _ in chunks]

    def run_chunk(i: int) -> None:
        for b in chunks[i]:
            block(b, *arrays[i])

    # one chunk skips _beside, whose set-up tripled a 64 x 5 softplus's 9 us
    if len(chunks) == 1:
        run_chunk(0)
        return
    for _ in _beside(run_chunk, range(len(chunks))):
        pass


def _softplus_into(z: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """z <- log(1 + exp(z + bias)) in place for a C-contiguous z, as max(z, 0) + log1p(exp(-|z|)).

    Overflow-safe, and within an ulp of np.logaddexp(0, z), but built on
    numpy's vectorised exp and log1p where logaddexp runs a scalar loop.
    It is a row pass (`_row_pass`) over row blocks (`_row_blocks`) of z's
    last axis, with one block-sized temporary per chunk. A bias of one
    value per row of a 2-D z is added to each block first.
    """
    # a 0-d, 1-d or empty z is one row
    rows = z.reshape(-1, z.shape[-1]) if z.ndim > 1 and z.size else z.reshape(1, -1)
    n, blocks = _row_blocks(*rows.shape)

    def block(r: slice, buf: np.ndarray) -> None:
        seg, tail = rows[r], buf[: r.stop - r.start]
        if bias is not None:
            seg += bias[r]
        np.abs(seg, out=tail)
        np.negative(tail, out=tail)
        np.exp(tail, out=tail)
        np.log1p(tail, out=tail)
        np.maximum(seg, 0.0, out=seg)
        seg += tail

    _row_pass(block, blocks, rows.size, (n, rows.shape[1]))
    return z


def softplus(x) -> Tensor:
    """log(1 + exp(x)), overflow-safe."""
    x = as_tensor(x)
    out = _softplus_into(np.array(x.data, order="C"))
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
    return _result(out, (a, b), lambda g: _products_with(g, a, b))


def sum_(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    out = x.data.sum(axis=axis, keepdims=keepdims)
    return _result(out, (x,), lambda g: (np.broadcast_to(_unreduce(g, axis, keepdims), x.data.shape),))


def mean(x, axis=None, keepdims: bool = False) -> Tensor:
    """Mean over all elements, one axis or a tuple of axes."""
    x = as_tensor(x)
    out = x.data.mean(axis=axis, keepdims=keepdims)
    count = x.data.size if axis is None else int(np.prod([x.data.shape[a] for a in np.atleast_1d(axis)]))
    return _result(out, (x,), lambda g: (np.broadcast_to(_unreduce(g, axis, keepdims) / count, x.data.shape),))


# ---------------------------------------------------------------------------
# shape ops

def getitem(x, key) -> Tensor:
    """x[key] for basic slicing only: an int, a slice, None, Ellipsis or a tuple of these.

    Any other key (an integer array, a list or a boolean mask) raises
    IndexError, since it may repeat an element and backward's scatter
    keeps one write per element.
    """
    x = as_tensor(x)
    for k in key if isinstance(key, tuple) else (key,):
        if isinstance(k, (bool, np.bool_)) or not (k is None or k is Ellipsis or isinstance(k, (int, np.integer, slice))):
            raise IndexError(f"getitem takes basic slices only (int, slice, None, Ellipsis), got {type(k).__name__}")
    out = x.data[key]

    def bw(g):
        full = np.zeros_like(x.data)
        full[key] = g
        return (full,)

    return _result(out.copy(), (x,), bw)


# ---------------------------------------------------------------------------
# dense products

# multiply-adds below which a product runs whole: with two threads on a
# 2-vCPU host, a split of 16M took 1.05-1.27x the whole product, 34M
# 0.87-0.97x, 67M 0.71-0.80x and 134M or more about 0.6x
_SPLIT_FLOOR = 1 << 26
# Column spans start on multiples of _SPAN_ALIGN and are at least
# _MIN_SPAN wide. BLAS kernels work in blocks of a few columns and may
# sum a short trailing block in another order, depending on the width of
# the call (OpenBLAS's SkylakeX dgemm does so below 192 columns). Aligned
# starts and wide spans give every column the same kernel path as in the
# whole product, so a split product is bitwise equal to it.
_SPAN_ALIGN = 64
_MIN_SPAN = 256


def _product(a: np.ndarray, b: np.ndarray, over_b: bool = False) -> np.ndarray:
    """a @ b for 2-D float64 operands, bitwise, split over idle CPUs when large.

    A product of at least _SPLIT_FLOOR multiply-adds, on an unmarked
    thread (`_whole_products`) and a BLAS set to one thread, splits the
    output's columns into up to _workers(n // _MIN_SPAN) near-equal spans,
    each written into one preallocated output by np.matmul, one span per
    `_beside` task (the module's thread rule). Each output element sums
    over the same contraction in the same order as in a @ b, so the
    result does not depend on the split. A BLAS running several threads
    partitions every call itself, in ways that move columns between
    kernel paths (its results already differ with its thread count), so
    its products run whole. Only numpy arrays are touched, never a Tensor.

    over_b, for a square a and a b that the caller owns and a does not
    overlap, writes a product of at least _SPLIT_FLOOR multiply-adds
    over b and returns b, so it needs no output array. Each span, or the
    whole product as one span, goes one column block at a time: the
    block is copied into the task's scratch of fewer than 2 * _MIN_SPAN
    columns and multiplied back into its columns of b. The blocks of a
    span start _MIN_SPAN columns apart and only its last is wider, so
    they keep the spans' alignment rule and, on a single-threaded BLAS,
    the result is bitwise a @ b. A smaller product is a new a @ b, and b
    is left alone.
    """
    m, k = a.shape
    n = b.shape[1]
    if m * k * n < _SPLIT_FLOOR:
        return a @ b
    whole = getattr(_whole_products, "marked", False) or _blas_threads() != 1
    count = 1 if whole else _workers(n // _MIN_SPAN)
    if count < 2 and not over_b:
        return a @ b
    blocks = n // _SPAN_ALIGN
    bounds = [_SPAN_ALIGN * (blocks * i // count) for i in range(count)] + [n]
    # the caller allocates every array, as for a row pass
    out = b if over_b else np.empty((m, n))
    scratch = [np.empty((k, min(n, 2 * _MIN_SPAN - 1))) for _ in range(count)] if over_b else []

    def span(i: int) -> None:
        lo, hi = bounds[i], bounds[i + 1]
        if not over_b:
            np.matmul(a, b[:, lo:hi], out=out[:, lo:hi])
            return
        # blocks of _MIN_SPAN columns from lo, the last one taking the rest too
        starts = [lo + _MIN_SPAN * j for j in range(max(1, (hi - lo) // _MIN_SPAN))] + [hi]
        for c0, c1 in zip(starts, starts[1:]):
            block = scratch[i][:, : c1 - c0]
            np.copyto(block, b[:, c0:c1])
            np.matmul(a, block, out=b[:, c0:c1])

    if count == 1:
        span(0)
    else:
        for _ in _beside(span, range(count)):
            pass
    return out


# ---------------------------------------------------------------------------
# linear maps

def affine_softplus(w, x, b) -> Tensor:
    """One dense layer, softplus(w @ x + b): (H, K), (K, L), (H, 1) -> (H, L).

    The node keeps only its output: backward forms sigmoid(w @ x + b)
    from it as 1 - exp(-out), which stays accurate in both tails. The
    bias add and softplus, and backward's g * sigmoid, are row passes
    (`_row_pass`) around the products; g * sigmoid is formed in g when
    the walk hands it over (`_owned`), so backward makes no (H, L) array
    but the x gradient. When x has that shape too (H == K), a large x
    gradient is written over g * sigmoid once the w and b gradients are
    formed from it (`_product`'s over_b), and backward makes none.
    """
    w, x, b = as_tensor(w), as_tensor(x), as_tensor(b)
    wv, xv = w.data, x.data
    if wv.ndim != 2 or xv.ndim != 2 or wv.shape[1] != xv.shape[0] or b.data.shape != (wv.shape[0], 1):
        raise ShapeError(f"affine_softplus shapes {wv.shape}, {xv.shape} and {b.data.shape} do not align")
    out = _softplus_into(_product(wv, xv), b.data)
    rows, blocks = _row_blocks(*out.shape)

    def bw(g):
        s = _owned(g, out)

        def sigmoid_times_g(r: slice, e: np.ndarray) -> None:
            eb = np.negative(out[r], out=e[: r.stop - r.start])
            np.expm1(eb, out=eb)
            sb = np.multiply(eb, g[r], out=s[r])
            np.negative(sb, out=sb)  # g * sigmoid

        _row_pass(sigmoid_times_g, blocks, out.size, (rows, out.shape[1]))
        gw = _product(s, xv.T) if w.requires_grad else None
        gb = s.sum(axis=1, keepdims=True) if b.requires_grad else None
        # last, since it may overwrite s
        gx = _product(wv.T, s, over_b=xv.shape == s.shape) if x.requires_grad else None
        return gw, gx, gb

    return _result(out, (w, x, b), bw)


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


def _frame_view(x: np.ndarray, taps: int, stride: int) -> np.ndarray:
    """Read-only (..., frames, taps) view of x's last axis: row m is x[..., m*stride : m*stride + taps]."""
    step = x.strides[-1]
    n_frames = (x.shape[-1] - taps) // stride + 1
    return np.lib.stride_tricks.as_strided(
        x, (*x.shape[:-1], n_frames, taps), (*x.strides[:-1], stride * step, step), writeable=False
    )


def _frames(x: np.ndarray, taps: int, stride: int) -> np.ndarray:
    # contiguous copy: BLAS-friendly for the matmuls that follow
    return np.ascontiguousarray(_frame_view(x, taps, stride))


def conv1d(x, filters, stride: int) -> Tensor:
    """Multi-filter strided 1-D convolution (no padding).

    x: (T,), filters: (K, taps) -> (K, L) with L = (T - taps)//stride + 1.

    The node keeps x, not its (L, taps) frame matrix: backward frames x
    again for the filter gradient, one more 16.3 MB copy per default-net
    step in place of 16.3 MB held from forward to backward.
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
    out = _product(fv, _frames(xv, taps, stride).T)

    def bw(g):
        return (
            _overlap_add(_product(fv.T, g), stride, xv.size) if x.requires_grad else None,
            _product(g, _frames(xv, taps, stride)) if filters.requires_grad else None,
        )

    return _result(out, (x, filters), bw)


def conv1d_transpose(coeffs, filters, stride: int, carrier=None) -> Tensor:
    """Transposed strided 1-D convolution (overlap-add synthesis).

    coeffs: (K, L), filters: (K, taps) -> (T,) with T = (L-1)*stride + taps.
    Adjoint of conv1d with the same filters and stride.

    carrier=(x, m), two more (K, L) tensors, synthesises from the
    re-modulated coefficients coeffs * (x / m), a new modulation on the
    carrier x / m (no implicit epsilon: m must be nonzero). A row pass
    (`_row_pass`) forms them, the carrier one block of rows (`_row_blocks`)
    at a time in scratch, and they are dropped after the product, so the
    node keeps no (K, L) array of its own. Backward forms the coefficient
    gradient gc, then the coefficients again, for the filter gradient, in
    the array that becomes the x gradient, and then, with gp = gc * coeffs,
    the gradients gc * (x / m) for coeffs, written over gc, gp / m for x
    and (-gp) * x / (m * m) for m, in a second row pass. The parents are
    (coeffs, filters, x, m).
    """
    coeffs, filters = as_tensor(coeffs), as_tensor(filters)
    cv, fv = coeffs.data, filters.data
    if cv.ndim != 2 or fv.ndim != 2 or cv.shape[0] != fv.shape[0]:
        raise ShapeError(f"conv1d_transpose shapes {cv.shape} and {fv.shape} do not align")
    if stride <= 0:
        raise ValueError("stride must be positive")
    taps = fv.shape[1]
    out_len = (cv.shape[1] - 1) * stride + taps
    if carrier is None:
        out = _overlap_add(_product(fv.T, cv), stride, out_len)

        def bw(g):
            g_frames = _frames(np.asarray(g), taps, stride)
            return (
                _product(fv, g_frames.T) if coeffs.requires_grad else None,
                _product(cv, g_frames) if filters.requires_grad else None,
            )

        return _result(out, (coeffs, filters), bw)

    x, m = as_tensor(carrier[0]), as_tensor(carrier[1])
    xv, mv = x.data, m.data
    if xv.shape != cv.shape or mv.shape != cv.shape:
        raise ShapeError(f"conv1d_transpose carrier shapes {xv.shape} and {mv.shape} differ from {cv.shape}")
    rows, blocks = _row_blocks(*cv.shape)

    def remodulated(c: np.ndarray) -> np.ndarray:
        def block(r: slice, p: np.ndarray) -> None:
            np.multiply(cv[r], np.divide(xv[r], mv[r], out=p[: r.stop - r.start]), out=c[r])

        _row_pass(block, blocks, cv.size, (rows, cv.shape[1]))
        return c

    out = _overlap_add(_product(fv.T, remodulated(np.empty_like(cv))), stride, out_len)

    def bw(g):
        g_frames = _frames(np.asarray(g), taps, stride)
        gc = _product(fv, g_frames.T) if coeffs.requires_grad or x.requires_grad or m.requires_grad else None
        gx = np.empty_like(xv) if x.requires_grad or filters.requires_grad else None
        gf = _product(remodulated(gx), g_frames) if filters.requires_grad else None
        del g_frames
        if gc is None:
            return None, gf, None, None
        gh = gc if coeffs.requires_grad else None
        gx = gx if x.requires_grad else None
        gm = np.empty_like(mv) if m.requires_grad else None

        def backward(r: slice, scratch: np.ndarray) -> None:
            n, (buf, gp) = r.stop - r.start, scratch
            gb, xb, mb = gc[r], xv[r], mv[r]
            np.multiply(gb, cv[r], out=gp[:n])
            if gx is not None:
                np.divide(gp[:n], mb, out=gx[r])
            if gm is not None:
                np.negative(gp[:n], out=gp[:n])
                gp[:n] *= xb
                np.divide(gp[:n], np.multiply(mb, mb, out=buf[:n]), out=gm[r])
            if gh is not None:  # last, since gh is gc itself
                np.multiply(gb, np.divide(xb, mb, out=buf[:n]), out=gh[r])

        _row_pass(backward, blocks, cv.size, (2, rows, cv.shape[1]))
        return gh, gf, gx, gm

    return _result(out, (coeffs, filters, x, m), bw)


def modulation(x, kernel, pad: tuple[int, int], floor: float) -> Tensor:
    """floor + per-row correlation of zero-padded |x|: (K, T), (K, width) -> (K, L).

    out[k, l] = floor + sum_d kernel[k, d] * |xp[k, l + d]|, where xp is x
    with pad[0] zeros before and pad[1] zeros after each row, and
    L = T + pad[0] + pad[1] - width + 1: the modulation envelope of the
    adaptive front end. Forward and backward are row passes
    (`_row_pass`) over blocks of rows (`_row_blocks`), forming |x| and
    sign(x) of one block at a time in scratch, so the node keeps no array
    of its own but its output. Each tap is one axpy summed in increasing
    d, the x gradient is that sum times sign(x) (subgradient 0 at 0), and
    the kernel gradient is one row-wise dot per tap. Each tap reads only
    the columns of x it overlaps, so neither xp nor a (K, width, L) array
    is made. The x gradient is summed in scratch and written into g when
    the walk hands it over and x has its shape (`_owned`).
    """
    x, kernel = as_tensor(x), as_tensor(kernel)
    xv, kv = x.data, kernel.data
    if xv.ndim != 2 or kv.ndim != 2 or kv.shape[0] != xv.shape[0]:
        raise ShapeError(f"modulation shapes {xv.shape} and {kv.shape} do not align")
    left, right = pad
    n_rows, n_in = xv.shape
    width = kv.shape[1]
    if width < 1 or n_in + left + right < width:
        raise ShapeError(f"{width}-tap kernel does not fit {n_in} samples padded by {pad}")
    n_out = n_in + left + right - width + 1
    # tap d pairs output column l with column l + d - left of x; the padding
    # only adds zero terms, so each tap keeps the output columns inside x
    taps = []
    for d in range(width):
        lo = max(0, left - d)
        hi = max(lo, min(n_out, n_in + left - d))
        taps.append((d, slice(lo, hi), slice(lo + d - left, hi + d - left)))
    rows, blocks = _row_blocks(n_rows, max(n_in, n_out))
    size, scratch = n_rows * max(n_in, n_out), ((rows, n_in), (rows, n_out))
    out = np.zeros((n_rows, n_out))

    def forward(r: slice, mag: np.ndarray, term: np.ndarray) -> None:
        n = r.stop - r.start
        a, ob = np.abs(xv[r], out=mag[:n]), out[r]
        for d, o, i in taps:
            ob[:, o] += np.multiply(kv[r, d : d + 1], a[:, i], out=term[:n, o])
        ob += floor

    _row_pass(forward, blocks, size, *scratch)

    def bw(g):
        gx = _owned(g, xv) if x.requires_grad else None
        gk = np.empty_like(kv) if kernel.requires_grad else None

        def backward(r: slice, mag: np.ndarray, term: np.ndarray, acc: np.ndarray) -> None:
            n = r.stop - r.start
            gb = g[r]
            if gk is not None:
                a = np.abs(xv[r], out=mag[:n])
                for d, o, i in taps:
                    gk[r, d] = np.einsum("kl,kl->k", gb[:, o], a[:, i])
            if gx is not None:  # last, since gx may be g itself
                ab = acc[:n]
                ab[...] = 0.0
                for d, o, i in taps:
                    ab[:, i] += np.multiply(kv[r, d : d + 1], gb[:, o], out=term[:n, o])
                np.multiply(ab, np.sign(xv[r], out=mag[:n]), out=gx[r])

        _row_pass(backward, blocks, size, *scratch, scratch[0])
        return gx, gk

    return _result(out, (x, kernel), bw)


class PolyphasePlan(NamedTuple):
    """A banded linear map whose rows repeat in blocks, each block's rows in groups.

    Rows go in blocks of R = n_groups * G rows, groups.shape = (n_groups,
    width, G): row k * G + i of block b is groups[k, :, i] dotted with
    the `width` samples from x[b * stride + k * group_stride + offset],
    taps outside x reading zero. The edge rows are the exceptions: edge
    row e is the dot product of edge_weights[e] with the samples from
    x[edge_start[e]], and edge_start[e] is at least offset. A plan whose
    rows are all edge rows may carry a 1 x 1 x 1 zero `groups` and
    strides 1.

    width is at most stride: a group's windows are then one matrix whose
    rows lie `stride` samples apart without overlapping, which BLAS reads
    in place. `signal_io.resample_plan` picks m and G per rate pair by
    the rule of `signal_io._phase_grid`, and `groups` takes R * width * 8
    bytes per rate pair (88,000 at 10080 -> 10000 Hz, 31,200 at
    16 -> 10 kHz).
    """

    n_in: int
    out_len: int
    groups: np.ndarray  # (n_groups, width, G), shared by every input length
    stride: int  # input samples per block of R rows
    group_stride: int  # input samples from one group's window to the next
    offset: int  # first sample of block 0's first window, at most 0
    edge_rows: np.ndarray  # int64 (E,)
    edge_start: np.ndarray  # int64 (E,), may be negative or run past x
    edge_weights: np.ndarray  # (E, taps)


def gather_linear(x, plan: PolyphasePlan) -> Tensor:
    """The banded linear map of a PolyphasePlan on the last axis: (..., plan.n_in) -> (..., plan.out_len).

    Used for in-graph band-limited resampling (`signal_io.resample_plan`).
    One signal runs at a time: it is copied into a zero-padded buffer
    shared by every signal. The windows of every group of every block are
    one read-only (n_groups, blocks, width) strided view of that buffer,
    and one BLAS matmul with `groups` writes every row through a
    transposed view of the signal's output. BLAS reads the view in place,
    so no frame is copied. The edge rows are then overwritten by their
    own banded sums. Backward is the adjoint of the same grouped map: one
    product of each group's (blocks, G) share of g with its weights, then
    one contiguous add per group into the padded gradient, with the edge
    rows' share of g zeroed there and scatter-added by a bincount over
    those rows alone. Each signal's values and gradient are bitwise those
    of it alone.
    """
    x = as_tensor(x)
    xv = x.data
    n_groups, width, group_rows = plan.groups.shape
    rows = n_groups * group_rows
    taps = plan.edge_weights.shape[-1]
    if xv.ndim < 1 or xv.shape[-1] != plan.n_in:
        raise ShapeError(f"gather_linear plan for {plan.n_in} samples does not fit shape {xv.shape}")
    edges = plan.edge_rows.shape
    if plan.edge_start.shape != edges or plan.edge_weights.shape[:-1] != edges:
        raise ShapeError(
            f"gather_linear plan edge shapes {edges}, {plan.edge_start.shape} and {plan.edge_weights.shape} do not align"
        )
    if width > plan.stride:
        raise ShapeError(f"gather_linear plan windows of {width} samples overlap at stride {plan.stride}")
    n, lo = plan.n_in, -plan.offset
    n_blocks = max(1, -(-plan.out_len // rows))
    span = (n_blocks - 1) * plan.stride + (n_groups - 1) * plan.group_stride + width  # samples the windows read
    first = plan.edge_start + lo  # xp index of each edge row's first tap
    if first.min(initial=0) < 0:
        raise ShapeError(f"gather_linear plan has an edge row starting before its offset {plan.offset}")
    signals = xv.reshape(-1, n)
    n_xp = max(span, lo + n, first.max(initial=0) + taps)  # backward keeps the size, not the buffer
    xp = np.zeros(n_xp)
    # views of xp, which each signal in turn fills; each edge row reads one row of `taps`
    step = xp.strides[0]
    windows = np.lib.stride_tricks.as_strided(
        xp, (n_groups, n_blocks, width), (plan.group_stride * step, plan.stride * step, step), writeable=False
    )
    taps_view = _frame_view(xp, taps, 1)
    # whole blocks of rows; the rows past out_len are cut off below
    out = np.empty((signals.shape[0], n_blocks * rows))
    for s, o in zip(signals, out):
        xp[lo : lo + n] = s
        np.matmul(windows, plan.groups, out=o.reshape(n_blocks, n_groups, group_rows).transpose(1, 0, 2))
        o[plan.edge_rows] = np.einsum("jk,jk->j", taps_view[first], plan.edge_weights)
    out = out[:, : plan.out_len]

    def bw(g):
        gx = np.empty(xv.shape)  # owned, so the walk keeps it uncopied
        blocks = np.zeros((n_blocks, rows))
        flat = blocks.reshape(-1)
        by_group = blocks.reshape(n_blocks, n_groups, group_rows).transpose(1, 0, 2)
        # a group's product fills the first `width` columns of each stride-long
        # row, the rest staying zero, so it adds back as one contiguous run
        lines = np.zeros((n_blocks, plan.stride))
        term = lines[:, :width]
        full = np.empty(max(n_xp, (n_groups - 1) * plan.group_stride + lines.size))
        k = (first[:, None] + np.arange(taps)).ravel()
        for gs, gxs in zip(g.reshape(signals.shape[0], plan.out_len), gx.reshape(signals.shape)):
            flat[: plan.out_len] = gs
            flat[plan.edge_rows] = 0.0
            full[:] = 0.0
            for i, (gk, weights) in enumerate(zip(by_group, plan.groups)):
                np.matmul(gk, weights.T, out=term)
                full[i * plan.group_stride :][: lines.size] += lines.reshape(-1)
            scaled = plan.edge_weights * gs[plan.edge_rows][:, None]
            full[:n_xp] += np.bincount(k, weights=scaled.ravel(), minlength=n_xp)
            gxs[:] = full[lo : lo + n]
        return (gx,)

    return _result(out.reshape(*xv.shape[:-1], plan.out_len), (x,), bw)


def band_envelopes(x, frame_len: int, fft_len: int, hop: int, window: np.ndarray, bands: np.ndarray) -> Tensor:
    """Band envelopes sqrt(bands @ |STFT|^2) on the last axis: (..., T) -> (..., J, M).

    Frames of frame_len samples every hop samples are windowed, zero-padded
    to fft_len (at least frame_len, so no frame is cropped) and
    transformed by rfft; bands (J, fft_len // 2 + 1) pools the squared
    bin magnitudes of each frame, and the square root gives the envelope.
    One signal runs at a time, its frames and magnitudes in scratch
    reused from signal to signal, in the arithmetic order of the chain
    magnitude STFT -> square -> bands @ -> sqrt, so values and gradients
    are bitwise the chain's, and each signal's are bitwise those of it
    alone. A node that records a backward keeps each signal's spectrum,
    as the chain did. Without a tape, the padded frames and the spectrum
    go in blocks of `_row_blocks` frames (256 KB each at fft_len 512, in
    place of 77 MB each on 240 s at 10 kHz); the magnitudes and the band
    product stay whole, since a product over a block of columns need not
    be bitwise the whole one. Backward is the chain's adjoint on the
    inverse FFT (subgradient 0 at zero envelopes and zero-magnitude
    bins), then one overlap-add of the frame gradients per signal.
    """
    x = as_tensor(x)
    xv = x.data
    if xv.ndim < 1:
        raise ShapeError("band_envelopes expects signals along a last axis")
    if fft_len < frame_len:
        raise ShapeError(f"fft_len {fft_len} would crop the {frame_len}-sample frames")
    if hop < 1:
        raise ShapeError(f"hop must be at least 1, got {hop}")
    n = xv.shape[-1]
    if n < frame_len:
        raise ShapeError(f"signal of {n} samples shorter than one {frame_len}-sample frame")
    n_bins = fft_len // 2 + 1
    if bands.ndim != 2 or bands.shape[1] != n_bins:
        raise ShapeError(f"band matrix of shape {bands.shape} does not pool {n_bins} bins")
    signals = xv.reshape(-1, n)
    frames = _frame_view(signals, frame_len, hop)
    n_frames = frames.shape[1]
    keep = _grad_enabled and x.requires_grad
    specs = []  # each signal's spectrum, for backward
    # without a tape, the frames go through the FFT in blocks
    rows, blocks = (n_frames, [slice(0, n_frames)]) if keep else _row_blocks(n_frames, fft_len)
    padded = np.zeros((rows, fft_len))
    # |spec| transposed to (bins, frames) is the chain's layout, which its product reads
    mag = np.empty((n_frames, n_bins)).T
    out = np.empty((signals.shape[0], bands.shape[0], n_frames))
    # each block's frames, its padded rows, their leading frame_len columns and its magnitudes
    parts = [(b, padded[: b.stop - b.start], padded[: b.stop - b.start, :frame_len], mag[:, b]) for b in blocks]
    for f, o in zip(frames, out):
        for b, block, windowed, m in parts:
            # windowed frames written straight into their zero padding
            np.multiply(f[b], window, out=windowed)
            spec = np.fft.rfft(block, axis=1)
            if keep:
                specs.append(spec)
            np.abs(spec.T, out=m)
        np.matmul(bands, np.multiply(mag, mag, out=mag), out=o)
    np.sqrt(out, out=out)

    def bw(g):
        gx = np.empty(xv.shape)  # owned, so the walk keeps it uncopied
        rows = gx.reshape(signals.shape)
        g = g.reshape(out.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.where(out > 0.0, 0.5 / out, 0.0)
            for i, spec in enumerate(specs):
                mag = np.abs(spec).T
                g_mag = (bands.T @ (g[i] * d[i])) * (2.0 * mag)
                c = np.where(mag > 0.0, g_mag / mag, 0.0).T * spec
                # irfft counts every bin but DC and Nyquist twice
                c[:, 1 : (fft_len + 1) // 2] *= 0.5
                fg = np.fft.irfft(c, n=fft_len, axis=1)[:, :frame_len] * (fft_len * window)
                rows[i] = _overlap_add(fg.T, hop, n)
        return (gx,)

    return _result(out.reshape(*xv.shape[:-1], *out.shape[1:]), (x,), bw)


def segment_correlation(xe, ye, width: int, clip_factor: float, eps: float) -> Tensor:
    """STOI's correlation of every pair of envelope segments: (..., J, F) and (J, F) -> (..., J, M').

    xe holds an estimate's band envelopes and ye the target's, F frames
    per band. Segment p of a band is its `width` frames from frame p, so
    M' = F - width + 1. For a pair of segments sx and sy, sx is scaled to
    sy's norm and clipped from above, clipped = min(|sy| / (|sx| + eps) *
    sx, clip_factor * sy) with ties to the scaled segment, both are
    centred (xc and yc), and d = <xc, yc> / (|xc| |yc| + eps) (Taal et
    al., IEEE TASLP 19(7), 2011).

    The pairs run in blocks of about _ROW_BLOCK segment values
    (`_row_blocks`): whole rows of x's leading dims, or bands of one row
    when a row holds more. A block views its segments through
    `_frame_view` and computes in scratch reused from block to block: the
    elementwise arithmetic of the same graph built from generic ops (norm,
    div, mul, minimum, mean, sub and sum_ on a (..., J, width, M') array
    of segments, `tests/reference.py::stoi_chain`; norm and minimum, which
    no product path needs, live in `tests/reference.py` too), and that
    graph's reductions over the segment axis on arrays of its layout. So d
    is bitwise the chain's, and each row's is bitwise that of it alone.
    The node keeps its two parents and (..., J, M') statistics: |sx|, the
    clipped segments' mean, |xc|, <xc, yc> and the denominator, and the
    target's mean, |sy| and |yc|.
    Backward forms each block's segments again from them and overlap-adds
    (`_overlap_add`) the segment gradients onto the envelopes. The
    target's gradient is summed over x's leading dims, and skipped when
    ye needs none. A norm takes the subgradient 0 at zero.
    """
    xe, ye = as_tensor(xe), as_tensor(ye)
    x_shape, yv = xe.data.shape, np.ascontiguousarray(ye.data)
    if yv.ndim != 2 or x_shape[-2:] != yv.shape:
        raise ShapeError(f"envelopes of shape {x_shape} do not pair with target envelopes of shape {yv.shape}")
    n_bands, n_frames = yv.shape
    if width < 1 or n_frames < width:
        raise ShapeError(f"{width}-frame segments do not fit {n_frames} frames")
    n_seg = n_frames - width + 1
    xv = np.ascontiguousarray(xe.data).reshape(-1, n_bands, n_frames)
    # [..., j, n, p] is frame p + n of band j
    sx_all, sy_all = (np.swapaxes(_frame_view(e, width, 1), -1, -2) for e in (xv, yv))
    # whole rows of x when one fits a block (then all bands go in one), else bands of one row
    s_rows, s_blocks = _row_blocks(xv.shape[0], n_bands * width * n_seg)
    j_rows, j_blocks = _row_blocks(n_bands, width * n_seg)
    blocks = [(s, j) for s in s_blocks for j in j_blocks]

    def scratch(count: int) -> list:
        """count block-sized arrays of x's segment shape, a clip mask and one of the target's shape."""
        shape = (s_rows, j_rows, width, n_seg)
        return [np.empty(shape) for _ in range(count)] + [np.empty(shape, dtype=bool), np.empty(shape[1:])]

    def views(arrays: list, s: slice, j: slice) -> list:
        """The block's leading part of each scratch array, C-contiguous since only one of s and j splits."""
        return [a[: s.stop - s.start, : j.stop - j.start] if a.ndim == 4 else a[: j.stop - j.start] for a in arrays]

    # the target's segment means and norms (J, 1, M') and norms once centred (J, M')
    y_mean, y_norm, yc_norm = np.empty((n_bands, 1, n_seg)), np.empty((n_bands, 1, n_seg)), np.empty((n_bands, n_seg))
    t_buf = np.empty((j_rows, width, n_seg))
    for j in j_blocks:
        sy, t = sy_all[j], t_buf[: j.stop - j.start]
        y_mean[j] = sy.mean(axis=-2, keepdims=True)
        np.sqrt(np.multiply(sy, sy, out=t).sum(axis=-2, keepdims=True), out=y_norm[j])
        np.subtract(sy, y_mean[j], out=t)
        np.sqrt(np.multiply(t, t, out=t).sum(axis=-2), out=yc_norm[j])
    del t_buf

    def clip(s: slice, j: slice, a, c, over) -> None:
        """The block's clipped segments into a, with over marking where clip_factor * sy, in c, won."""
        np.multiply(y_norm[j] / (x_norm[s, j] + eps), sx_all[s, j], out=a)
        np.multiply(clip_factor, sy_all[j], out=c)
        np.logical_not(np.less_equal(a, c, out=over), out=over)
        np.copyto(a, c, where=over)

    # the estimate's segment norms and clipped means (..., J, 1, M'), and |xc| and <xc, yc> (..., J, M')
    x_norm, x_mean = np.empty((*xv.shape[:-1], 1, n_seg)), np.empty((*xv.shape[:-1], 1, n_seg))
    xc_norm, num = np.empty((*xv.shape[:-1], n_seg)), np.empty((*xv.shape[:-1], n_seg))
    arrays = scratch(2)
    for s, j in blocks:
        a, t, over, c = views(arrays, s, j)
        sx = sx_all[s, j]
        np.sqrt(np.multiply(sx, sx, out=t).sum(axis=-2, keepdims=True), out=x_norm[s, j])
        clip(s, j, a, c, over)
        x_mean[s, j] = mean_ = a.mean(axis=-2, keepdims=True)
        np.subtract(a, mean_, out=a)
        np.subtract(sy_all[j], y_mean[j], out=c)
        num[s, j] = np.multiply(a, c, out=t).sum(axis=-2)
        np.sqrt(np.multiply(a, a, out=t).sum(axis=-2), out=xc_norm[s, j])
    den = xc_norm * yc_norm + eps
    d = num / den

    def bw(g):
        gx = np.empty(x_shape) if xe.requires_grad else None  # owned, so the walk keeps it uncopied
        gy = np.zeros(yv.shape) if ye.requires_grad else None
        g = np.reshape(g, d.shape)
        g_num = (g / den)[..., None, :]
        g_den = -g * num / (den * den)
        arrays = scratch(3)
        with np.errstate(divide="ignore", invalid="ignore"):
            # |xc|'s term: the coefficient of xc in xc's gradient
            kx = np.where(xc_norm > 0.0, g_den * yc_norm / xc_norm, 0.0)[..., None, :]
            for s, j in blocks:
                a, t, gs, over, c = views(arrays, s, j)
                sx, sy = sx_all[s, j], sy_all[j]
                clip(s, j, a, c, over)
                np.subtract(a, x_mean[s, j], out=a)  # xc
                np.subtract(sy, y_mean[j], out=c)  # yc
                # xc's gradient, then the clipped segments'
                np.multiply(c, g_num[s, j], out=gs)
                gs += np.multiply(a, kx[s, j], out=t)
                gs -= gs.mean(axis=-2, keepdims=True)
                if gy is not None:
                    # yc's gradient summed over the block's rows, then sy's through yc and the clip
                    g_sy = np.multiply(a, g_num[s, j], out=t).sum(axis=0)
                    g_norm = (g_den[s, j] * xc_norm[s, j]).sum(axis=0)
                    g_sy += np.where(yc_norm[j] > 0.0, g_norm / yc_norm[j], 0.0)[:, None, :] * c
                    g_sy -= g_sy.mean(axis=-2, keepdims=True)
                    g_sy += clip_factor * np.multiply(gs, over, out=t).sum(axis=0)
                np.copyto(gs, 0.0, where=over)  # the scaled segments' gradient
                g_alpha = np.multiply(gs, sx, out=t).sum(axis=-2, keepdims=True)
                x_eps = x_norm[s, j] + eps
                if gy is not None:
                    g_norm = (g_alpha / x_eps).sum(axis=0)
                    g_sy += np.where(y_norm[j] > 0.0, g_norm / y_norm[j], 0.0) * sy
                    gy[j] += _overlap_add(g_sy, 1, n_frames)
                if gx is not None:
                    g_norm = -g_alpha * y_norm[j] / (x_eps * x_eps)
                    gs *= y_norm[j] / x_eps
                    gs += np.multiply(sx, np.where(x_norm[s, j] > 0.0, g_norm / x_norm[s, j], 0.0), out=t)
                    gx.reshape(xv.shape)[s, j] = _overlap_add(gs, 1, n_frames)
        return gx, gy

    return _result(d.reshape(*x_shape[:-1], n_seg), (xe, ye), bw)


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


def finite_difference_gradient(
    graph: Graph, inputs: Mapping[str, np.ndarray], wrt: str, step: float = 1e-5, *, stacked: bool = False
) -> np.ndarray:
    """Central-difference gradient of a scalar graph w.r.t. one input.

    Per-coordinate step is step * max(1, |x_i|). This is the
    verification oracle: it never touches the reverse-mode path.

    Coordinates go in blocks of `_row_blocks(x.size, x.size)`: about
    _ROW_BLOCK / x.size coordinates, at least one. A stack holds the rows
    [x + h_i e_i ..., x - h_i e_i ...] of one block; each block perturbs
    its entries in place and restores them. With stacked=True the graph
    takes wrt with one more leading axis and scores a block in one call,
    one value per row; otherwise each row is one call with wrt shaped as
    x. A graph that scores each row bitwise as it scores that input alone
    gives the same result either way.

    Stacked, the blocks split into w = _workers(len(blocks)) contiguous
    chunks (`_chunks`), one task each, every chunk run in order with a
    stack of its own; one call per row is one task. The tasks run through
    `_beside` (the module's thread rule). Each gradient entry comes from
    the same rows through the same ops, so the result is bitwise the same
    for any w.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    base = {name: np.asarray(val, dtype=np.float64).copy() for name, val in inputs.items()}
    x = base[wrt]
    grad = np.zeros_like(x)
    flat_x = x.ravel()
    flat_g = grad.ravel()
    per_call, blocks = _row_blocks(flat_x.size, flat_x.size)

    def evaluate(rows: np.ndarray) -> Tensor:
        return graph({name: Tensor(rows if name == wrt else val) for name, val in base.items()})

    def differences(chunk: list[slice]) -> None:
        stack = np.empty((2 * per_call, *x.shape))
        stack[...] = x
        flat_stack = stack.reshape(2 * per_call, -1)
        for block in chunk:
            k = block.stop - block.start
            rows, coords, xs = np.arange(k), np.arange(block.start, block.stop), flat_x[block]
            h = step * np.maximum(1.0, np.abs(xs))
            flat_stack[rows, coords] = xs + h
            flat_stack[k + rows, coords] = xs - h
            if stacked:
                f = evaluate(stack[: 2 * k]).data
                if f.shape != (2 * k,):
                    raise ShapeError(f"a stacked graph must return one value per row, got shape {f.shape} for {2 * k} rows")
            else:
                f = np.array([evaluate(row).item() for row in stack[: 2 * k]])
            flat_stack[rows, coords] = flat_stack[k + rows, coords] = xs
            flat_g[block] = (f[:k] - f[k:]) / (2.0 * h)

    # each chunk writes its own coordinates' entries of grad
    for _ in _beside(differences, _chunks(blocks, stacked)):
        pass
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max |a - n| scaled by the larger gradient magnitude."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0), 1e-30)
    return float(np.abs(analytic - numeric).max(initial=0.0) / scale)
