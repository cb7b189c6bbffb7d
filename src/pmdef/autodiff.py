"""numpy-backed dense tensors with reverse-mode autodiff on an explicit tape.

Everything runs in float64. Ops record onto the innermost active ``Tape``
only when an input requires gradients, so inference pays no bookkeeping.
The primitive set is deliberately small: just enough for little dense and
convolutional networks, distribution-matching losses and input-gradient
attacks. One primitive serves one attack: ``squared_distance`` is C&W's
distance term, the bits of sub, mul and sum_all in one record, and also
returns the per-row sums that C&W's success check reads. Every forward
output is checked for NaN/Inf; overflow raises instead of propagating
silently. Nonsmooth ops (relu, clip, maximum_scalar,
rowmax, maxpool2d) leave on the tape a way to compute their kink margin,
which is evaluated only when ``Tape.min_kink_margin()`` asks for it.

Vjps compute a cotangent only for the inputs that require gradients and
return None for the others (add and sub pass ``g`` itself to their first
input, which costs nothing either), so frozen parameters (a fixed classifier
under a trained autoencoder or an attack) and constants cost nothing in the
reverse pass.

Unrecorded forwards compute only their outputs; backward-only work lives in
the vjp. Masks and normalised weights that only a vjp reads (relu, clip,
maximum_scalar, logsumexp) are built inside it, and maxpool2d, whose
recorded forward must keep its argmax, takes plain window maxima when
``_recording_tape`` says no tape will record it.

conv2d's im2col blocks and a recorded maxpool2d's windows are copied with
the kernel-offset axes outermost (conv2d slices its blocks from one window
view per call; maxpool2d reads its argmax off ``_window_copy`` in three
whole-array operations). conv2d's last bits depend on that layout, since
BLAS may round a GEMM differently for another operand layout: OpenBLAS 0.3
(Haswell kernels) gives an offset-major and a row-major column matrix the
same bits at 8 to 32 output channels, but not below 8.

conv2d takes an optional bias, added in place into each GEMM output block,
so a conv layer is one tape record with the bits of conv2d followed by add.
``models.Model.forward_t`` runs a relu that directly precedes a maxpool
after the pool (max commutes exactly with relu). For such a block the tape
holds maxpool2d over the pre-relu values and relu over the pooled ones, so
``Tape.min_kink_margin`` reads the pool's margin on pre-relu values: a
window that is entirely <= 0, whose relu outputs would all tie at 0, no
longer reports a margin of 0.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ContractError,
    DimensionError,
    EvaluationError,
    NonFiniteError,
    ParameterError,
    ValidationError,
)

Array = np.ndarray

KL_CLAMP = 1e-12          # lower clamp applied inside the KL log
STD_FLOOR = 1e-6          # per-image standardization std floor
_REL_FLOOR = 1e-8         # denominator floor for relative errors
_COLS_BLOCK_BYTES = 1 << 18  # conv2d builds its im2col matrix in batch blocks of at most this size


class Tensor:
    """A dense float64 array with a gradient slot."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, values, requires_grad: bool = False):
        self.data = np.asarray(values, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))


class _TapeRecord:
    __slots__ = ("op", "inputs", "output", "vjp")

    def __init__(self, op: str, inputs: tuple[Tensor, ...], output: Tensor, vjp):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.vjp = vjp


_STATE = threading.local()


def _tape_stack() -> list:
    stack = getattr(_STATE, "stack", None)
    if stack is None:
        stack = []
        _STATE.stack = stack
    return stack


def _active_tape() -> "Tape | None":
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Ordered record of primitive ops, in forward (hence topological) order.

    Single-owner: build the graph under ``with Tape() as tape`` and run
    ``backward(tape, loss)`` once. Tapes nest; ops record onto the innermost
    one. ``kinks`` holds, per recorded nonsmooth op, a zero-argument callable
    giving the distance of its inputs to the nearest nondifferentiable
    point. The callables read the arrays the records already hold and run
    only in ``min_kink_margin()``, so recording and ``backward`` compute no
    margin; finite-difference harnesses call it to reject samples too close
    to a kink. Every op output is finite-checked whether or not a tape is
    active.
    """

    def __init__(self):
        self.records: list[_TapeRecord] = []
        self.kinks: list[Callable[[], float]] = []
        self._watched: dict[int, Tensor] = {}

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tape_stack().pop()
        if popped is not self:  # pragma: no cover - misuse guard
            raise ContractError("tape stack corrupted: exited a tape that is not innermost")
        return False

    def watch(self, tensor: Tensor) -> None:
        """Register a leaf so backward() reports its gradient even if unused."""
        tensor.requires_grad = True
        self._watched[id(tensor)] = tensor

    def min_kink_margin(self) -> float:
        """Smallest kink margin over the recorded ops, computed now; inf when none."""
        return min((kink() for kink in self.kinks), default=math.inf)


def _check_finite(op: str, data: Array) -> None:
    if not np.isfinite(data).all():
        raise NonFiniteError(f"{op} produced non-finite values")


def _recording_tape(inputs: tuple[Tensor, ...]) -> "Tape | None":
    """The tape an op over ``inputs`` records onto: the innermost active one
    when an input requires gradients, else None (the op is not recorded)."""
    return _active_tape() if any(t.requires_grad for t in inputs) else None


def _emit(op: str, inputs: tuple[Tensor, ...], out_data: Array, vjp, kink: Callable[[], float] | None = None) -> Tensor:
    out = Tensor(out_data)
    _check_finite(op, out.data)
    out.requires_grad = any(t.requires_grad for t in inputs)
    tape = _recording_tape(inputs)
    if tape is not None:
        if kink is not None:
            tape.kinks.append(kink)
        tape.records.append(_TapeRecord(op, inputs, out, vjp))
    return out


# ---------------------------------------------------------------------------
# elementwise and structural primitives


def _check_broadcast(a: Tensor, b: Tensor) -> None:
    """b must have a's shape or be broadcast bias-style over a's leading axes."""
    if a.shape != b.shape and not (b.ndim < a.ndim and a.shape[a.ndim - b.ndim:] == b.shape):
        raise DimensionError(f"shapes do not align for elementwise op: {a.shape} vs {b.shape}")


def _sum_leading(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum g down to ``shape`` over the leading axes that broadcasting added.

    One vector product over the flattened rows, ``ones(m) @ g2``: a fixed
    summation order, and about ten times faster than ``g.sum(axis=...)``
    over the leading axes of a conv bias gradient.
    """
    if g.shape == shape:
        return g
    g2 = g.reshape(-1, int(np.prod(shape)))
    return (np.ones(g2.shape[0]) @ g2).reshape(shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b)

    def vjp(g):
        return g, (_sum_leading(g, b.shape) if b.requires_grad else None)

    return _emit("add", (a, b), a.data + b.data, vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b)

    def vjp(g):
        return g, (-_sum_leading(g, b.shape) if b.requires_grad else None)

    return _emit("sub", (a, b), a.data - b.data, vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"mul requires identical shapes: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data

    def vjp(g):
        return (g * bd if a.requires_grad else None), (g * ad if b.requires_grad else None)

    return _emit("mul", (a, b), ad * bd, vjp)


def neg(t: Tensor) -> Tensor:
    return _emit("neg", (t,), -t.data, lambda g: (-g,))


def add_scalar(t: Tensor, c: float) -> Tensor:
    return _emit("add_scalar", (t,), t.data + c, lambda g: (g,))


def mul_scalar(t: Tensor, c: float) -> Tensor:
    return _emit("mul_scalar", (t,), t.data * c, lambda g: (g * c,))


def reshape(t: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in np.atleast_1d(shape)) if not isinstance(shape, tuple) else shape
    if int(np.prod(shape)) != t.size:
        raise DimensionError(f"cannot reshape {t.shape} (size {t.size}) to {shape}")
    old = t.shape

    def vjp(g):
        return (g.reshape(old),)

    return _emit("reshape", (t,), t.data.reshape(shape), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    ad, bd = a.data, b.data

    def vjp(g):
        return (g @ bd.T if a.requires_grad else None), (ad.T @ g if b.requires_grad else None)

    return _emit("matmul", (a, b), ad @ bd, vjp)


def relu(t: Tensor) -> Tensor:
    d = t.data

    def vjp(g):
        return (g * (d > 0.0),)

    def kink():
        return float(np.abs(d).min()) if d.size else math.inf

    return _emit("relu", (t,), np.maximum(d, 0.0), vjp, kink=kink)


def tanh(t: Tensor) -> Tensor:
    y = np.tanh(t.data)

    def vjp(g):
        return (g * (1.0 - y * y),)

    return _emit("tanh", (t,), y, vjp)


def log(t: Tensor) -> Tensor:
    d = t.data
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.log(d)

    def vjp(g):
        return (g / d,)

    return _emit("log", (t,), y, vjp)


def clip(t: Tensor, lo: float, hi: float) -> Tensor:
    if not lo < hi:
        raise ParameterError(f"clip bounds must satisfy lo < hi, got [{lo}, {hi}]")
    d = t.data

    def vjp(g):
        return (g * ((d >= lo) & (d <= hi)),)

    def kink():
        return float(min(np.abs(d - lo).min(), np.abs(d - hi).min())) if d.size else math.inf

    return _emit("clip", (t,), np.clip(d, lo, hi), vjp, kink=kink)


def maximum_scalar(t: Tensor, c: float) -> Tensor:
    d = t.data

    def vjp(g):
        return (g * (d >= c),)

    def kink():
        return float(np.abs(d - c).min()) if d.size else math.inf

    return _emit("maximum_scalar", (t,), np.maximum(d, c), vjp, kink=kink)


def sum_all(t: Tensor) -> Tensor:
    shape = t.shape

    def vjp(g):
        return (np.broadcast_to(g, shape).copy(),)

    return _emit("sum", (t,), np.asarray(t.data.sum()), vjp)


def mean_all(t: Tensor) -> Tensor:
    shape = t.shape
    n = max(t.size, 1)

    def vjp(g):
        return (np.broadcast_to(g / n, shape).copy(),)

    return _emit("mean", (t,), np.asarray(t.data.mean()), vjp)


def squared_distance(a: Tensor, b: Tensor) -> tuple[Tensor, Array]:
    """Sum of (a - b)**2 as a scalar, and its per-row sums over the leading axis.

    One tape record with the bits of ``sum_all(mul(d, d))``, ``d = sub(a, b)``,
    and of their cotangents: the vjp gives ``g*d + g*d`` to ``a`` and its
    negation to ``b``. The row sums are ``(d*d).reshape(n, -1).sum(axis=1)``,
    returned as a plain array. Only the scalar is finite-checked: a finite
    sum of non-negative terms has every term, and so every ``d``, finite.
    """
    if a.shape != b.shape or a.ndim < 1:
        raise DimensionError(f"squared_distance requires identical batch shapes: {a.shape} vs {b.shape}")
    d = a.data - b.data
    dd = d * d

    def vjp(g):
        gd = g * d
        s = gd + gd
        return (s if a.requires_grad else None), (-s if b.requires_grad else None)

    out = _emit("squared_distance", (a, b), np.asarray(dd.sum()), vjp)
    return out, dd.reshape(d.shape[0], math.prod(d.shape[1:])).sum(axis=1)


def take_per_row(t: Tensor, idx) -> Tensor:
    """Pick t[i, idx[i]] for every row i."""
    if t.ndim != 2:
        raise DimensionError(f"take_per_row expects a 2-d tensor, got {t.shape}")
    idx = np.asarray(idx, dtype=np.int64)
    if idx.shape != (t.shape[0],):
        raise DimensionError(f"index vector of length {t.shape[0]} required, got {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= t.shape[1]):
        raise ValidationError(f"row indices out of range [0, {t.shape[1]})")
    rows = np.arange(t.shape[0])
    shape = t.shape

    def vjp(g):
        out = np.zeros(shape)
        out[rows, idx] = g
        return (out,)

    return _emit("take_per_row", (t,), t.data[rows, idx], vjp)


def rowmax(t: Tensor) -> Tensor:
    """Per-row maximum over the last axis of a 2-d tensor; ties take the first column."""
    if t.ndim != 2:
        raise DimensionError(f"rowmax expects a 2-d tensor, got {t.shape}")
    d = t.data
    arg = d.argmax(axis=1)
    rows = np.arange(d.shape[0])
    shape = t.shape

    def vjp(g):
        out = np.zeros(shape)
        out[rows, arg] = g
        return (out,)

    def kink():
        if d.shape[1] < 2:
            return math.inf
        part = np.partition(d, d.shape[1] - 2, axis=1)
        return float((part[:, -1] - part[:, -2]).min())

    return _emit("rowmax", (t,), d[rows, arg], vjp, kink=kink)


def softmax(t: Tensor, axis: int = -1) -> Tensor:
    d = t.data
    shifted = d - d.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return _emit("softmax", (t,), y, vjp)


def logsumexp(t: Tensor) -> Tensor:
    """log(sum(exp(x))) over the last axis, computed stably."""
    d = t.data
    m = d.max(axis=-1, keepdims=True)
    e = np.exp(d - m)
    s = e.sum(axis=-1, keepdims=True)
    y = (m + np.log(s)).squeeze(-1)

    def vjp(g):
        return (np.expand_dims(g, -1) * (e / s),)

    return _emit("logsumexp", (t,), y, vjp)


def dropout(t: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return t
    keep = rng.random(t.shape) >= rate
    scale = 1.0 / (1.0 - rate)

    def vjp(g):
        return (g * keep * scale,)

    return _emit("dropout", (t,), t.data * keep * scale, vjp)


# ---------------------------------------------------------------------------
# spatial primitives (layout: batch-first NHWC, row-major)


def _conv_geometry(h: int, w: int, kh: int, kw: int, stride: int, padding: str):
    if padding == "valid":
        if kh > h or kw > w:
            raise DimensionError(f"kernel {kh}x{kw} larger than input {h}x{w} (valid padding)")
        oh = (h - kh) // stride + 1
        ow = (w - kw) // stride + 1
        return oh, ow, 0, 0, 0, 0
    if padding == "same":
        oh = -(-h // stride)
        ow = -(-w // stride)
        ph = max((oh - 1) * stride + kh - h, 0)
        pw = max((ow - 1) * stride + kw - w, 0)
        return oh, ow, ph // 2, ph - ph // 2, pw // 2, pw - pw // 2
    raise ParameterError(f"padding must be 'valid' or 'same', got {padding!r}")


def _windows(a: Array, kh: int, kw: int, stride: int, oh: int, ow: int) -> Array:
    """Read-only [n, oh, ow, c, kh, kw] view of the strided kh x kw windows of an NHWC array."""
    return sliding_window_view(a, (kh, kw), axis=(1, 2))[:, : (oh - 1) * stride + 1 : stride, : (ow - 1) * stride + 1 : stride]


def _window_copy(a: Array, kh: int, kw: int, stride: int, oh: int, ow: int, axes: tuple[int, ...]) -> Array:
    """C-contiguous ``_windows(a, ...).transpose(axes)``, in one copy.

    numpy copies in the order of the new array, so with the kernel-offset
    axes (4, 5) outermost in ``axes`` its inner loop runs over whole output
    rows rather than over one kernel row.
    """
    return np.ascontiguousarray(_windows(a, kh, kw, stride, oh, ow).transpose(axes))


def conv2d(x: Tensor, filters: Tensor, stride: int = 1, padding: str = "valid", bias: Tensor | None = None) -> Tensor:
    """Strided cross-correlation of an NHWC batch with [kh, kw, c_in, c_out] filters.

    One im2col GEMM per block of batch rows, the column matrix of a block
    holding at most _COLS_BLOCK_BYTES. A block is one offset-major copy,
    C-contiguous [kh*kw*c_in, rows*oh*ow], sliced from one window view of
    the padded input: the forward GEMM reads it as its F-ordered transpose,
    the filter-gradient GEMM as it is. The vjp rebuilds the blocks instead
    of keeping them on the tape.

    A ``bias`` of shape [c_out] is added in place into each output block
    right after its GEMM, one add per element as ``add`` makes it, so
    ``conv2d(x, k, s, p, bias=b)`` has the bits of ``add(conv2d(x, k, s, p), b)``
    and its cotangents, in one tape record. The bias is tiled once to one
    output image, [oh*ow*c_out], and added to each image of a block, so
    numpy's inner loop runs over a whole image rather than over one pixel's
    c_out channels; the tile costs one image of memory, not one block.
    """
    if x.ndim != 4 or filters.ndim != 4:
        raise DimensionError(f"conv2d expects NHWC input and 4-d filters, got {x.shape} and {filters.shape}")
    if x.shape[3] != filters.shape[2]:
        raise DimensionError(f"channel mismatch: input {x.shape} vs filters {filters.shape}")
    if bias is not None and bias.shape != filters.shape[3:]:
        raise DimensionError(f"conv2d bias must have shape {filters.shape[3:]}, got {bias.shape}")
    if not isinstance(stride, int) or stride < 1:
        raise ParameterError(f"stride must be a positive int, got {stride}")
    n, h, w, _ = x.shape
    kh, kw, cin, cout = filters.shape
    oh, ow, pt, pb, pl, pr = _conv_geometry(h, w, kh, kw, stride, padding)
    padded = bool(pt or pb or pl or pr)
    if padded:
        xp = np.zeros((n, h + pt + pb, w + pl + pr, cin))
        xp[:, pt : pt + h, pl : pl + w] = x.data
    else:
        xp = x.data
    k = kh * kw * cin
    w2 = filters.data.reshape(k, cout)
    step = max(1, _COLS_BLOCK_BYTES // (oh * ow * k * 8))
    win = _windows(xp, kh, kw, stride, oh, ow).transpose(4, 5, 3, 0, 1, 2)

    def cols(b: int) -> Array:
        """[rows*oh*ow, kh*kw*c_in] column matrix of the block of batch rows starting at b (F-ordered)."""
        return np.ascontiguousarray(win[:, :, :, b : b + step]).reshape(k, -1).T

    out = np.empty((n, oh, ow, cout))
    flat_out = out.reshape(-1, cout)
    image_bias = np.tile(bias.data, oh * ow) if bias is not None else None
    for b in range(0, n, step):
        stop = min(b + step, n)
        block = flat_out[b * oh * ow : stop * oh * ow]
        np.matmul(cols(b), w2, out=block)
        if image_bias is not None:
            images = block.reshape(stop - b, oh * ow * cout)
            np.add(images, image_bias, out=images)

    def vjp(g):
        g2 = g.reshape(-1, cout)
        gw = np.zeros((k, cout)) if filters.requires_grad else None
        gxp = np.zeros(xp.shape) if x.requires_grad else None
        for b in range(0, n, step):
            gb = g2[b * oh * ow : min(b + step, n) * oh * ow]
            if gw is not None:
                gw += cols(b).T @ gb
            if gxp is None:
                continue
            gcols = (gb @ w2.T).reshape(-1, oh, ow, kh, kw, cin)
            batch = slice(b, b + step)
            for i in range(kh):
                for j in range(kw):
                    gxp[batch, i : i + (oh - 1) * stride + 1 : stride, j : j + (ow - 1) * stride + 1 : stride] += gcols[:, :, :, i, j]
        if gxp is not None and padded:
            gxp = gxp[:, pt : pt + h, pl : pl + w, :]
        gw = gw.reshape(filters.shape) if gw is not None else None
        if bias is None:
            return gxp, gw
        return gxp, gw, (_sum_leading(g, bias.shape) if bias.requires_grad else None)

    return _emit("conv2d", (x, filters) if bias is None else (x, filters, bias), out, vjp)


def maxpool2d(x: Tensor, window: int, stride: int) -> Tensor:
    """Per-window maximum; backward routes to the first (row-major) argmax.

    Only a recorded forward keeps the argmax that its vjp routes by. It
    copies the windows offset-major, [k = window*window, n, oh, ow, c],
    takes the maximum, and weights each offset that reaches it by its rank
    k..1, so the largest weight marks the first row-major maximum, which
    wins a tie. Its kink margin recopies the windows rather than keeping
    them on the tape. An unrecorded forward folds the windows' rows,
    then their columns, with in-place ``np.maximum``: no window copy, no
    argmax, and the same maxima. Its window-1 row folds write an
    [n, oh, w, c] temporary with numpy's inner loop over a whole input row,
    w*c elements, rather than over one pixel's c channels; its window-1
    column folds then run on that temporary. (Where a window's maximum is
    a tie of 0.0 and -0.0, which zero either forward returns is left open.)
    """
    if x.ndim != 4:
        raise DimensionError(f"maxpool2d expects NHWC input, got {x.shape}")
    if not isinstance(window, int) or window < 1 or not isinstance(stride, int) or stride < 1:
        raise ParameterError(f"window and stride must be positive ints, got {window}, {stride}")
    n, h, w, c = x.shape
    if window > h or window > w:
        raise DimensionError(f"pool window {window} exceeds input {h}x{w}")
    oh = (h - window) // stride + 1
    ow = (w - window) // stride + 1
    k = window * window
    d = x.data
    if _recording_tape((x,)) is None:
        rows = slice(None, (oh - 1) * stride + 1, stride)
        cols = slice(None, (ow - 1) * stride + 1, stride)
        row_max = d[:, rows].copy()
        for i in range(1, window):
            np.maximum(row_max, d[:, i:][:, rows], out=row_max)
        out = row_max[:, :, cols].copy()
        for j in range(1, window):
            np.maximum(out, row_max[:, :, j:][:, :, cols], out=out)
        return _emit("maxpool2d", (x,), out, None)

    def windows():
        """[window*window, n, oh, ow, c] copy of every window, offsets row-major."""
        return _window_copy(d, window, window, stride, oh, ow, (4, 5, 0, 1, 2, 3)).reshape(k, n, oh, ow, c)

    wt = windows()
    out = wt.max(axis=0)
    rank = np.arange(k, 0, -1, dtype=np.min_scalar_type(k)).reshape(k, 1, 1, 1, 1)
    arg = k - (np.equal(wt, out) * rank).max(axis=0)

    def vjp(g):
        i, j = np.divmod(arg, window)
        rows = np.arange(oh)[:, None, None] * stride + i
        cols = np.arange(ow)[:, None] * stride + j
        src = ((np.arange(n)[:, None, None, None] * h + rows) * w + cols) * c + np.arange(c)
        return (np.bincount(src.ravel(), weights=g.ravel(), minlength=d.size).reshape(d.shape),)

    def kink():
        if k < 2:
            return math.inf
        part = np.partition(windows(), k - 2, axis=0)
        return float((part[-1] - part[-2]).min())

    return _emit("maxpool2d", (x,), out, vjp, kink=kink)


def standardize_per_image(x: Tensor) -> Tensor:
    """(x - mean) / max(std, 1e-6) per instance over all non-batch axes."""
    if x.ndim < 2:
        raise DimensionError(f"standardize_per_image expects a batch, got {x.shape}")
    axes = tuple(range(1, x.ndim))
    d = x.data
    n = int(np.prod(d.shape[1:]))
    mu = d.mean(axis=axes, keepdims=True)
    std = d.std(axis=axes, keepdims=True)
    s = np.maximum(std, STD_FLOOR)
    floored = std < STD_FLOOR
    y = (d - mu) / s

    def vjp(g):
        gbar = g.mean(axis=axes, keepdims=True)
        proj = (g * y).sum(axis=axes, keepdims=True) / n
        return ((g - gbar - np.where(floored, 0.0, y * proj)) / s,)

    return _emit("standardize_per_image", (x,), y, vjp)


# ---------------------------------------------------------------------------
# divergences


def kl_rows(p: Array, q: Array) -> Array:
    """Row-wise KL divergence sum(p * ln(p/q)) with 0*ln(0/q) = 0.

    Both arguments must be non-empty, of one shape, with non-negative rows
    that sum to 1 within 1e-6; anything else raises. Both are clamped below
    at KL_CLAMP inside the log only, so the convention holds and the result
    stays finite. Returns one value per row.
    """
    p = np.atleast_2d(np.asarray(p, dtype=np.float64))
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    if p.shape != q.shape:
        raise DimensionError(f"distribution shapes differ: {p.shape} vs {q.shape}")
    if p.size == 0:
        raise ValidationError("empty distributions")
    if p.min() < 0.0 or q.min() < 0.0:
        raise ValidationError("distribution entries must be non-negative")
    rs_p = p.sum(axis=1)
    rs_q = q.sum(axis=1)
    if np.abs(rs_p - 1.0).max() > 1e-6 or np.abs(rs_q - 1.0).max() > 1e-6:
        raise ValidationError("distribution rows must sum to 1 within 1e-6")
    lp = np.log(np.maximum(p, KL_CLAMP))
    lq = np.log(np.maximum(q, KL_CLAMP))
    return (p * (lp - lq)).sum(axis=1)


def kl_divergence(p: Tensor, q: Tensor) -> Tensor:
    """KL(p || q) as a scalar; batched inputs return the mean over rows.

    Gradients flow into both arguments (needed when both depend on trained
    parameters, as in the hidden-layer probe loss).
    """
    rows = kl_rows(p.data, q.data)
    nrows = rows.shape[0]
    p2 = np.atleast_2d(p.data)
    q2 = np.atleast_2d(q.data)
    p_shape, q_shape = p.shape, q.shape

    def vjp(g):
        gp = gq = None
        if p.requires_grad:
            lp = np.log(np.maximum(p2, KL_CLAMP))
            lq = np.log(np.maximum(q2, KL_CLAMP))
            gp = ((lp - lq + (p2 > KL_CLAMP)) * (g / nrows)).reshape(p_shape)
        if q.requires_grad:
            gq = (np.where(q2 > KL_CLAMP, -p2 / np.maximum(q2, KL_CLAMP), 0.0) * (g / nrows)).reshape(q_shape)
        return gp, gq

    return _emit("kl_divergence", (p, q), np.asarray(rows.mean()), vjp)


# ---------------------------------------------------------------------------
# reverse pass and the finite-difference oracle


def backward(tape: Tape, output: Tensor) -> dict[Tensor, Array]:
    """Reverse-mode accumulation from a scalar output over the tape.

    Returns a mapping for every gradient-requiring leaf (plus watched
    tensors); leaves the output never depended on get zero gradients. Also
    stores each gradient in the tensor's ``grad`` slot. Vjps compute no
    cotangent for inputs that do not require gradients and this loop skips
    those inputs, so frozen parameters and constants cost nothing and their
    ``grad`` stays untouched.
    """
    if output.size != 1:
        raise ContractError(f"backward requires a scalar output, got shape {output.shape}")
    grads: dict[int, Array] = {id(output): np.ones_like(output.data)}
    produced = {id(rec.output) for rec in tape.records}
    for rec in reversed(tape.records):
        g = grads.pop(id(rec.output), None)
        if g is None:
            continue
        for t, gi in zip(rec.inputs, rec.vjp(g)):
            if gi is None or not t.requires_grad:
                continue
            cur = grads.get(id(t))
            grads[id(t)] = gi if cur is None else cur + gi
    leaves: dict[int, Tensor] = dict(tape._watched)
    for rec in tape.records:
        for t in rec.inputs:
            if t.requires_grad and id(t) not in produced:
                leaves.setdefault(id(t), t)
    result: dict[Tensor, Array] = {}
    for tid, t in leaves.items():
        g = grads.get(tid)
        if g is None:
            g = np.zeros_like(t.data)
        t.grad = g
        result[t] = g
    return result


def _scalar_value(out: Tensor, where: str) -> float:
    if out.size != 1:
        raise ContractError(f"grad_check function must return a scalar, got shape {out.shape}")
    v = out.item()
    if not math.isfinite(v):
        raise EvaluationError(f"function value is not finite {where}")
    return v


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5) -> float:
    """Max relative error between backward() and central finite differences.

    The relative error denominator is max(|analytic|, |numeric|, 1e-8) per
    coordinate. The function must be finite (and should be differentiable)
    in an h-neighborhood of x.
    """
    if not (isinstance(h, (int, float)) and math.isfinite(h) and h > 0):
        raise ParameterError(f"finite-difference step must be positive, got {h}")
    base = np.array(x.data, dtype=np.float64, copy=True)
    leaf = Tensor(base, requires_grad=True)
    with Tape() as tape:
        tape.watch(leaf)
        out = f(leaf)
        _scalar_value(out, "at the expansion point")
    analytic = backward(tape, out)[leaf].ravel()
    worst = 0.0
    flat = base.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = _scalar_value(f(Tensor(base)), "during finite differencing")
        flat[i] = orig - h
        fm = _scalar_value(f(Tensor(base)), "during finite differencing")
        flat[i] = orig
        num = (fp - fm) / (2.0 * h)
        err = abs(num - analytic[i]) / max(abs(num), abs(analytic[i]), _REL_FLOOR)
        worst = max(worst, err)
    return worst
