"""Dense float64 tensors and the numerical kernels everything else consumes.

Tensors are immutable after construction; every kernel verifies its output is
finite and raises instead of letting NaN/Inf propagate.

``Tensor(x)`` copies ``x``.  A kernel's output array becomes a tensor without
a copy and is marked read-only; it may be a view of an input's (read-only)
data, as ``transpose`` and ``narrow`` return.

The three conv kernels size their scratch buffer by the side with fewer
channels, ``min(cin, cout) * kh * kw`` rows of image size.  At stride 1 with
``cout < cin`` the taps are unrolled on the output side: one product of the
tap-major kernel with the padded input, then ``kh * kw`` shifted slice-adds
(``conv2d``), or one product of the shifted seeds with the padded input
(``conv2d_grad_kernel``); the input adjoint is the forward contraction with
the kernel flipped and its channels swapped, at padding ``k - 1 - p`` (square
kernels with ``p <= k - 1``).  Every other case, including the input adjoint
of a non-square kernel or with ``p > k - 1``, keeps the route whose scratch
has ``cin * kh * kw`` rows (im2col).  The operand shapes alone pick the route.
"""

from __future__ import annotations

import functools
import math

import numpy as np


def _quiet(fn):
    """Run a kernel with numpy errors ignored; finiteness is checked explicitly."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with np.errstate(all="ignore"):
            return fn(*args, **kwargs)
    return wrapper


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested kernel."""


class NumericsError(ArithmeticError):
    """A kernel produced a non-finite value."""


class Tensor:
    """Immutable dense n-dimensional array of float64 values."""

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.array(data, dtype=np.float64, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def tolist(self):
        return self.data.tolist()

    def __repr__(self):
        return f"Tensor(shape={self.shape})"

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")


def _wrap(arr: np.ndarray) -> Tensor:
    """Make a kernel's fresh output (or a view of tensor data) a read-only
    tensor, without a copy or a full-size temporary."""
    # a sum is non-finite whenever an entry is; only then is the exact scan
    # needed, since a finite array can overflow its sum
    if not math.isfinite(arr.sum()) and not np.isfinite(arr).all():
        raise NumericsError("kernel produced a non-finite value")
    arr.setflags(write=False)
    out = Tensor.__new__(Tensor)
    object.__setattr__(out, "data", arr)
    return out


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape))


def ones(shape) -> Tensor:
    return Tensor(np.ones(shape))


# ---------------------------------------------------------------------------
# linear algebra


@_quiet
def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")
    return _wrap(a.data @ b.data)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose needs a 2-d operand, got {a.shape}")
    return _wrap(a.data.T)


# ---------------------------------------------------------------------------
# convolution (cross-correlation, zero padding)


def _conv_out_size(n: int, k: int, stride: int, padding: int) -> int:
    span = n + 2 * padding - k
    if span < 0 or span % stride != 0:
        raise ShapeError(
            f"conv2d output size is not a positive integer "
            f"(input {n}, kernel {k}, stride {stride}, padding {padding})"
        )
    return span // stride + 1


def _check_conv_args(inp: Tensor, kernel: Tensor, stride: int, padding: int):
    if inp.data.ndim != 3:
        raise ShapeError(f"conv2d input must be C x H x W, got {inp.shape}")
    if kernel.data.ndim != 4:
        raise ShapeError(f"conv2d kernel must be Cout x Cin x kH x kW, got {kernel.shape}")
    if inp.shape[0] != kernel.shape[1]:
        raise ShapeError(f"conv2d channel mismatch: input {inp.shape} vs kernel {kernel.shape}")
    if stride < 1 or padding < 0:
        raise ShapeError(f"conv2d needs stride >= 1 and padding >= 0, got {stride}, {padding}")


def _im2col(padded: np.ndarray, kh: int, kw: int, stride: int, oh: int, ow: int) -> np.ndarray:
    c = padded.shape[0]
    cols = np.empty((c, kh, kw, oh, ow))
    for u in range(kh):
        for v in range(kw):
            cols[:, u, v] = padded[:, u : u + (oh - 1) * stride + 1 : stride,
                                   v : v + (ow - 1) * stride + 1 : stride]
    return cols.reshape(c * kh * kw, oh * ow)


def _conv(x: np.ndarray, k: np.ndarray, stride: int, padding: int, oh: int, ow: int) -> np.ndarray:
    """Cross-correlate ``x`` (cin, H, W) with ``k`` (cout, cin, kh, kw) into a
    fresh (cout, oh, ow) array; the caller has checked the geometry."""
    cout, cin, kh, kw = k.shape
    padded = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    if stride == 1 and cout < cin:
        _, hp, wp = padded.shape
        taps = k.transpose(2, 3, 0, 1).reshape(kh * kw * cout, cin) @ padded.reshape(cin, hp * wp)
        taps = taps.reshape(kh, kw, cout, hp, wp)
        out = np.zeros((cout, oh, ow))
        for u in range(kh):
            for v in range(kw):
                out += taps[u, v, :, u : u + oh, v : v + ow]
        return out
    cols = _im2col(padded, kh, kw, stride, oh, ow)
    return (k.reshape(cout, cin * kh * kw) @ cols).reshape(cout, oh, ow)


@_quiet
def conv2d(inp: Tensor, kernel: Tensor, stride: int, padding: int) -> Tensor:
    _check_conv_args(inp, kernel, stride, padding)
    _, _, kh, kw = kernel.shape
    _, h, w = inp.shape
    oh = _conv_out_size(h, kh, stride, padding)
    ow = _conv_out_size(w, kw, stride, padding)
    return _wrap(_conv(inp.data, kernel.data, stride, padding, oh, ow))


@_quiet
def conv2d_grad_input(seed: Tensor, kernel: Tensor, stride: int, padding: int) -> Tensor:
    """Adjoint of conv2d in its input argument: maps output-shaped seeds back."""
    if seed.data.ndim != 3 or kernel.data.ndim != 4:
        raise ShapeError(f"bad shapes for conv grad: {seed.shape}, {kernel.shape}")
    cout, cin, kh, kw = kernel.shape
    if seed.shape[0] != cout:
        raise ShapeError(f"seed channels {seed.shape} do not match kernel {kernel.shape}")
    _, oh, ow = seed.shape
    h = (oh - 1) * stride + kh - 2 * padding
    w = (ow - 1) * stride + kw - 2 * padding
    if h < 1 or w < 1:
        raise ShapeError("conv grad recovers a non-positive input size")
    if stride == 1 and cout < cin and kh == kw and padding <= kh - 1:
        flipped = kernel.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        return _wrap(_conv(seed.data, flipped, 1, kh - 1 - padding, h, w))
    tmp = kernel.data.reshape(cout, cin * kh * kw).T @ seed.data.reshape(cout, oh * ow)
    tmp = tmp.reshape(cin, kh, kw, oh, ow)
    padded = np.zeros((cin, h + 2 * padding, w + 2 * padding))
    for u in range(kh):
        for v in range(kw):
            padded[:, u : u + (oh - 1) * stride + 1 : stride,
                   v : v + (ow - 1) * stride + 1 : stride] += tmp[:, u, v]
    if padding:
        padded = padded[:, padding:-padding, padding:-padding]
    return _wrap(padded)


@_quiet
def conv2d_grad_kernel(seed: Tensor, inp: Tensor, kernel_hw: tuple[int, int],
                       stride: int, padding: int) -> Tensor:
    """Adjoint of conv2d in its kernel argument."""
    if seed.data.ndim != 3 or inp.data.ndim != 3:
        raise ShapeError(f"bad shapes for conv grad: {seed.shape}, {inp.shape}")
    kh, kw = kernel_hw
    cout, oh, ow = seed.shape
    cin, h, w = inp.shape
    if oh != _conv_out_size(h, kh, stride, padding) or ow != _conv_out_size(w, kw, stride, padding):
        raise ShapeError("seed shape inconsistent with input/kernel geometry")
    padded = np.pad(inp.data, ((0, 0), (padding, padding), (padding, padding)))
    if stride == 1 and cout < cin:
        _, hp, wp = padded.shape
        shifted = np.zeros((kh, kw, cout, hp, wp))
        for u in range(kh):
            for v in range(kw):
                shifted[u, v, :, u : u + oh, v : v + ow] = seed.data
        out = shifted.reshape(kh * kw * cout, hp * wp) @ padded.reshape(cin, hp * wp).T
        # C order, like the kernel it is the gradient of
        return _wrap(np.ascontiguousarray(out.reshape(kh, kw, cout, cin).transpose(2, 3, 0, 1)))
    cols = _im2col(padded, kh, kw, stride, oh, ow)
    out = seed.data.reshape(cout, oh * ow) @ cols.T
    return _wrap(out.reshape(cout, cin, kh, kw))


# ---------------------------------------------------------------------------
# elementwise kernels


def _check_same_shape(a: Tensor, b: Tensor, op: str):
    if a.shape != b.shape:
        raise ShapeError(f"{op} needs equal shapes, got {a.shape} and {b.shape}")


@_quiet
def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    return _wrap(a.data + b.data)


@_quiet
def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")
    return _wrap(a.data - b.data)


@_quiet
def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")
    return _wrap(a.data * b.data)


@_quiet
def scale(a: Tensor, s: float) -> Tensor:
    return _wrap(a.data * float(s))


@_quiet
def offset(a: Tensor, s: float) -> Tensor:
    return _wrap(a.data + float(s))


def relu(a: Tensor) -> Tensor:
    return _wrap(np.maximum(a.data, 0.0))


@_quiet
def sigmoid(a: Tensor) -> Tensor:
    # split by sign for stability at large |x|
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return _wrap(out)


@_quiet
def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0):
        raise NumericsError("log of a non-positive value")
    return _wrap(np.log(a.data))


@_quiet
def recip(a: Tensor) -> Tensor:
    if np.any(a.data == 0):
        raise NumericsError("reciprocal of zero")
    return _wrap(1.0 / a.data)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    return _wrap(np.clip(a.data, lo, hi))


# ---------------------------------------------------------------------------
# reductions and structural kernels


@_quiet
def reduce_sum(a: Tensor) -> Tensor:
    return _wrap(np.asarray(a.data.sum()))


@_quiet
def reduce_mean(a: Tensor) -> Tensor:
    if a.size == 0:
        raise ShapeError("mean of an empty tensor")
    return _wrap(np.asarray(a.data.mean()))


def concat(parts: list[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ShapeError("concat of zero tensors")
    return _wrap(np.concatenate([p.data for p in parts], axis=axis))


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    if (not -a.data.ndim <= axis < a.data.ndim or start < 0 or length < 0
            or start + length > a.shape[axis]):
        raise ShapeError(f"narrow [{start}:{start + length}) on axis {axis} of shape {a.shape}")
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    return _wrap(a.data[tuple(idx)])


def pad_zeros(a: Tensor, axis: int, before: int, after: int) -> Tensor:
    if not -a.data.ndim <= axis < a.data.ndim or before < 0 or after < 0:
        raise ShapeError(f"pad_zeros ({before}, {after}) on axis {axis} of shape {a.shape}")
    shape = list(a.shape)
    shape[axis] += before + after
    out = np.zeros(shape)
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(before, before + a.shape[axis])
    out[tuple(idx)] = a.data
    return _wrap(out)


def spread(s: Tensor, shape) -> Tensor:
    """Broadcast a scalar to a constant tensor of the given shape."""
    if s.size != 1:
        raise ShapeError(f"spread needs a scalar, got shape {s.shape}")
    return _wrap(np.full(shape, s.data.reshape(())))


def tile_cols(b: Tensor, n: int) -> Tensor:
    """Repeat a vector (m,) as the columns of an (m, n) matrix."""
    if b.data.ndim != 1:
        raise ShapeError(f"tile_cols needs a 1-d tensor, got {b.shape}")
    return _wrap(np.repeat(b.data[:, None], n, axis=1))


def sum_cols(a: Tensor) -> Tensor:
    """Adjoint of tile_cols: sum an (m, n) matrix over its columns."""
    if a.data.ndim != 2:
        raise ShapeError(f"sum_cols needs a 2-d tensor, got {a.shape}")
    return _wrap(a.data.sum(axis=1))


def tile_hw(b: Tensor, h: int, w: int) -> Tensor:
    """Expand a per-channel vector (C,) to a constant image stack (C, H, W)."""
    if b.data.ndim != 1:
        raise ShapeError(f"tile_hw needs a 1-d tensor, got {b.shape}")
    return _wrap(np.broadcast_to(b.data[:, None, None], (b.shape[0], h, w)).copy())


def sum_hw(a: Tensor) -> Tensor:
    """Adjoint of tile_hw: sum an image stack (C, H, W) over its spatial axes."""
    if a.data.ndim != 3:
        raise ShapeError(f"sum_hw needs a 3-d tensor, got {a.shape}")
    return _wrap(a.data.sum(axis=(1, 2)))
