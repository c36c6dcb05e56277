"""Dense float64 tensor kernel with reverse-mode autodiff.

Every differentiable operation records its inputs and a backward closure on
the output node; calling ``backward()`` on a scalar result replays the tape
in reverse topological order and frees each interior node's closure, edges
and gradient as soon as its closure has run. The op set is exactly what the
counting model and its losses need: elementwise arithmetic, sigmoid/relu/log,
2-D matmul, reductions, indexing, row normalization, 1x1 and 3x3
convolutions, 2x2 max pooling, and prototype distance maps. Every op is a
module function (``T.add``, ``T.mul``, ...): a Tensor has no arithmetic
operators, only ``t[idx]`` for ``getitem`` and ``float(t)`` for a one-element
value.

The 3x3 convolution runs one sample at a time: nine shifted, cropped slices
of the input fill one zero-bordered, sample-sized (C*9, H*W) im2col buffer,
so its forward and backward GEMMs run on NCHW data with no transposed copy,
and neither a padded copy nor a batch-sized im2col matrix exists. Max pooling
compares the four strided window corners, and its backward routes each
window's gradient by a compare mask to the first maximum in row-major window
order. The distance map's forward sums explicit differences one prototype at
a time and its backward is two GEMMs, so neither direction holds a K-fold
(B,K,d,H,W) buffer. A central finite-difference oracle (`finite_diff_grad`)
verifies every analytic gradient.

The module also holds the package's file formats: PDTF tensors, and the one
``key = value`` writer and reader and the one CSV writer and reader behind
every manifest, config and table.

Shapes are strict: elementwise ops require equal shapes, the only implicit
broadcasting is scalar-vs-tensor, the spatial ops take B x C x H x W only,
and ``tsum`` and ``tmean`` reduce the whole tensor. All compute is float64.
"""

from __future__ import annotations

import csv
import os
import struct
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "ShapeError",
    "Tensor",
    "Parameter",
    "no_grad",
    "add", "sub", "mul", "relu", "log", "sigmoid", "matmul",
    "reshape", "transpose", "getitem",
    "tsum", "tmean",
    "l2_normalize_rows", "conv1x1", "conv3x3", "maxpool2x2", "distance_map",
    "finite_diff_grad", "gradcheck_rel_error",
    "save_tensor", "load_tensor", "read_text", "parse_key_values", "require",
    "format_value", "parse_value", "write_key_values",
    "write_csv", "read_csv",
]

_grad_enabled = True


class no_grad:
    """Context manager that suspends tape recording; forward passes inside
    it allocate no backward closures."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an operation."""


def _as_array(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    return arr


class Tensor:
    """A float64 n-d array plus the autodiff bookkeeping for one tape node.

    ``data`` is the value, ``grad`` accumulates d(loss)/d(this) after
    ``backward()``. Leaf tensors default to ``requires_grad=False``; ops
    propagate the flag and only record backward closures when some input
    requires a gradient.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[], None] | None = None

    # -- basic protocol -------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __float__(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"float() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self) -> None:
        self.grad = None

    # -- autodiff -------------------------------------------------------------

    def backward(self) -> None:
        """Run reverse-mode accumulation from this scalar node. The tape is
        consumed as it runs: right after an interior node's closure has run,
        the node drops its closure, its edges and its ``.grad``, so each
        activation and gradient is freed once no remaining closure needs it.
        Leaves keep their ``.grad``."""
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar output, got shape {self.shape}")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is not None:
                node._backward()
                node._backward, node._parents, node.grad = None, (), None

    def __getitem__(self, idx):
        return getitem(self, idx)


class Parameter(Tensor):
    """A learnable tensor. ``freeze()`` makes it constant: no gradient is
    recorded and no optimizer step ever touches it."""

    __slots__ = ("trainable", "name")

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True)
        self.trainable = True
        self.name = name

    def freeze(self) -> None:
        self.trainable = False
        self.requires_grad = False
        self.grad = None

    def __repr__(self) -> str:
        return f"Parameter(name={self.name!r}, shape={self.shape}, trainable={self.trainable})"


# -- op plumbing --------------------------------------------------------------


def _coerce(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    if isinstance(x, (int, float, np.floating, np.integer)):
        return Tensor(float(x))
    if isinstance(x, np.ndarray):
        return Tensor(x)
    raise TypeError(f"cannot treat {type(x).__name__} as a tensor operand")


def _make(data: np.ndarray, parents: Iterable[Tensor], backward: Callable[[], None]) -> Tensor:
    parents = tuple(parents)
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is not None:
        t.grad += g
    else:
        # zeros + g in one pass: a new array, since g may be another node's
        # grad (and a 0-d g + 0.0 would be a scalar); -0.0 still becomes 0.0
        t.grad = np.add(g, 0.0, out=np.empty_like(t.data))


def _accum_own(t: Tensor, g: np.ndarray) -> None:
    # g is the calling closure's own buffer, so it becomes the gradient with
    # no copy; adding 0.0 in place turns -0.0 into 0.0, as _accum does
    if t.grad is None:
        g += 0.0
        t.grad = g
    else:
        t.grad += g


def _check_elementwise(a: Tensor, b: Tensor, opname: str) -> None:
    if a.shape == b.shape or a.ndim == 0 or b.ndim == 0:
        return
    raise ShapeError(f"{opname}: shapes {a.shape} and {b.shape} differ "
                     "(only scalar-tensor broadcasting is supported)")


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # collapse a broadcasted gradient back onto a scalar operand
    if g.shape == shape:
        return g
    return np.sum(g).reshape(shape)


# -- elementwise arithmetic ---------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    _check_elementwise(a, b, "add")
    out_data = a.data + b.data

    def backward():
        _accum(a, _reduce_to(out.grad, a.shape))
        _accum(b, _reduce_to(out.grad, b.shape))

    out = _make(out_data, (a, b), backward)
    return out


def sub(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    _check_elementwise(a, b, "sub")
    out_data = a.data - b.data

    def backward():
        _accum(a, _reduce_to(out.grad, a.shape))
        _accum(b, _reduce_to(-out.grad, b.shape))

    out = _make(out_data, (a, b), backward)
    return out


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    _check_elementwise(a, b, "mul")
    out_data = a.data * b.data

    def backward():
        _accum(a, _reduce_to(out.grad * b.data, a.shape))
        _accum(b, _reduce_to(out.grad * a.data, b.shape))

    out = _make(out_data, (a, b), backward)
    return out


def relu(a) -> Tensor:
    a = _coerce(a)
    mask = a.data > 0
    out_data = np.where(mask, a.data, 0.0)

    def backward():
        _accum_own(a, out.grad * mask)

    out = _make(out_data, (a,), backward)
    return out


def log(a) -> Tensor:
    a = _coerce(a)
    if np.any(a.data <= 0):
        raise ValueError("log: input must be strictly positive")
    out_data = np.log(a.data)

    def backward():
        _accum(a, out.grad / a.data)

    out = _make(out_data, (a,), backward)
    return out


def sigmoid(a) -> Tensor:
    """Elementwise 1/(1+exp(-x)), computed branch-wise so neither tail
    overflows: with ex = exp(-|x|), 1/(1+ex) for x >= 0 and ex/(1+ex) below."""
    a = _coerce(a)
    x = a.data
    ex = np.exp(-np.abs(x))
    out_data = np.where(x >= 0, 1.0, ex) / (1.0 + ex)

    def backward():
        _accum(a, out.grad * out_data * (1.0 - out_data))

    out = _make(out_data, (a,), backward)
    return out


# -- shape ops ----------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = _coerce(a)
    out_data = a.data.reshape(shape)

    def backward():
        _accum(a, out.grad.reshape(a.shape))

    out = _make(out_data, (a,), backward)
    return out


def transpose(a, axes) -> Tensor:
    a = _coerce(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out_data = a.data.transpose(axes)

    def backward():
        _accum(a, out.grad.transpose(inv))

    out = _make(out_data, (a,), backward)
    return out


def getitem(a, idx) -> Tensor:
    """``a[idx]`` for an index of ints, slices and int arrays; with an array
    in it the backward accumulates repeated positions."""
    a = _coerce(a)
    norm = idx if isinstance(idx, tuple) else (idx,)
    advanced = any(isinstance(i, np.ndarray) and i.ndim > 0 for i in norm)
    out_data = a.data[norm]

    def backward():
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        if advanced:
            np.add.at(a.grad, norm, out.grad)
        else:
            a.grad[norm] += out.grad

    out = _make(out_data, (a,), backward)
    return out


# -- reductions ---------------------------------------------------------------


def tsum(a) -> Tensor:
    a = _coerce(a)
    out_data = np.asarray(a.data.sum())

    def backward():
        _accum(a, np.broadcast_to(out.grad, a.shape).copy())

    out = _make(out_data, (a,), backward)
    return out


def tmean(a) -> Tensor:
    a = _coerce(a)
    out_data = np.asarray(a.data.mean())

    def backward():
        _accum(a, np.broadcast_to(out.grad, a.shape).copy() / a.data.size)

    out = _make(out_data, (a,), backward)
    return out


# -- linear algebra -----------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul: expects 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    out_data = a.data @ b.data

    def backward():
        _accum(a, out.grad @ b.data.T)
        _accum(b, a.data.T @ out.grad)

    out = _make(out_data, (a, b), backward)
    return out


def l2_normalize_rows(a) -> Tensor:
    """Scale each row of a 2-D tensor to unit L2 norm. Errors on a zero row."""
    a = _coerce(a)
    if a.ndim != 2:
        raise ShapeError(f"l2_normalize_rows: expects a 2-D tensor, got shape {a.shape}")
    norms = np.sqrt((a.data ** 2).sum(axis=1))
    if np.any(norms == 0.0):
        bad = int(np.nonzero(norms == 0.0)[0][0])
        raise ValueError(f"l2_normalize_rows: row {bad} has zero norm")
    out_data = a.data / norms[:, None]

    def backward():
        g = out.grad
        dot = (g * out_data).sum(axis=1, keepdims=True)
        _accum(a, (g - dot * out_data) / norms[:, None])

    out = _make(out_data, (a,), backward)
    return out


# -- convolution / pooling / distances ---------------------------------------
#
# Spatial ops take B x C x H x W input only; any other rank is a ShapeError.


def _batched(x: Tensor, opname: str) -> np.ndarray:
    if x.ndim != 4:
        raise ShapeError(f"{opname}: expects BxCxHxW input, got shape {x.shape}")
    return x.data


def conv1x1(x, weight, bias=None) -> Tensor:
    """Pointwise convolution: out[b,o,h,w] = sum_c weight[o,c] x[b,c,h,w] (+ bias[o])."""
    x, weight = _coerce(x), _coerce(weight)
    bias = _coerce(bias) if bias is not None else None
    xd = _batched(x, "conv1x1")
    if weight.ndim != 2:
        raise ShapeError(f"conv1x1: weight must be C_out x C_in, got shape {weight.shape}")
    b_, c, h, w = xd.shape
    c_out, c_in = weight.shape
    if c_in != c:
        raise ShapeError(f"conv1x1: input has {c} channels but weight expects {c_in}")
    if bias is not None and bias.shape != (c_out,):
        raise ShapeError(f"conv1x1: bias shape {bias.shape} != ({c_out},)")

    xc = np.ascontiguousarray(xd.transpose(1, 0, 2, 3)).reshape(c, b_ * h * w)
    oc = weight.data @ xc
    if bias is not None:
        oc = oc + bias.data[:, None]
    out_data = oc.reshape(c_out, b_, h, w).transpose(1, 0, 2, 3)

    def backward():
        gc = np.ascontiguousarray(out.grad.transpose(1, 0, 2, 3)).reshape(c_out, b_ * h * w)
        if x.requires_grad:
            _accum(x, (weight.data.T @ gc).reshape(c, b_, h, w).transpose(1, 0, 2, 3))
        if weight.requires_grad:
            _accum(weight, gc @ xc.T)
        if bias is not None and bias.requires_grad:
            _accum(bias, gc.sum(axis=1))

    parents = (x, weight) if bias is None else (x, weight, bias)
    out = _make(out_data, parents, backward)
    return out


# along one spatial axis, tap k of a 3x3 kernel reads input offset k - 1:
# (destination, source) slices of the part of that shift inside the input
_TAP_CROPS = ((slice(1, None), slice(None, -1)), (slice(None), slice(None)),
              (slice(None, -1), slice(1, None)))


def _im2col(col: np.ndarray, x_n: np.ndarray) -> np.ndarray:
    # row c*9 + 3i + j of the result is channel c of one sample (C, H, W)
    # shifted by tap (i, j) with zero padding 1, the order of
    # weight.reshape(C_out, C*9); col is the caller's (C, 9, H, W) buffer,
    # zeroed once, whose border strips no tap writes
    c, _, h, w = col.shape
    for i, (dy, sy) in enumerate(_TAP_CROPS):
        for j, (dx, sx) in enumerate(_TAP_CROPS):
            col[:, 3 * i + j, dy, dx] = x_n[:, sy, sx]
    return col.reshape(c * 9, h * w)


def conv3x3(x, weight, bias=None) -> Tensor:
    """3x3 convolution, stride 1, zero padding 1 (spatial dims preserved).

    One sample at a time, the nine shifted, cropped slices of the input fill
    a single zero-bordered (C*9, H*W) im2col buffer and one GEMM writes that
    sample's C_out x H*W output, so no padded copy and no batch-sized im2col
    matrix exist, and the tape keeps nothing beyond the input. The backward
    rebuilds each sample's im2col slice, accumulates
    grad_W = sum_b g[b] col[b]^T in sample order, puts W^T g[b] in a second
    sample-sized buffer and adds its nine cropped slices into that sample's
    zeroed input gradient in tap order; nothing is transposed.
    """
    x, weight = _coerce(x), _coerce(weight)
    bias = _coerce(bias) if bias is not None else None
    xd = _batched(x, "conv3x3")
    if weight.ndim != 4 or weight.shape[2:] != (3, 3):
        raise ShapeError(f"conv3x3: weight must be C_out x C_in x 3 x 3, got shape {weight.shape}")
    b_, c, h, w = xd.shape
    c_out, c_in = weight.shape[:2]
    if c_in != c:
        raise ShapeError(f"conv3x3: input has {c} channels but weight expects {c_in}")
    if bias is not None and bias.shape != (c_out,):
        raise ShapeError(f"conv3x3: bias shape {bias.shape} != ({c_out},)")

    w2 = weight.data.reshape(c_out, c * 9)
    col = np.zeros((c, 9, h, w))
    oc = np.empty((b_, c_out, h * w))
    for n in range(b_):
        np.matmul(w2, _im2col(col, xd[n]), out=oc[n])
    if bias is not None:
        oc += bias.data[:, None]
    out_data = oc.reshape(b_, c_out, h, w)

    def backward():
        g = out.grad.reshape(b_, c_out, h * w)
        col = np.zeros((c, 9, h, w))
        gw = np.zeros((c_out, c * 9)) if weight.requires_grad else None
        gx = np.zeros_like(xd) if x.requires_grad else None
        gcol = np.empty((c, 9, h, w)) if x.requires_grad else None
        for n in range(b_):
            if gw is not None:
                gw += g[n] @ _im2col(col, xd[n]).T
            if gx is not None:
                np.matmul(w2.T, g[n], out=gcol.reshape(c * 9, h * w))
                for i, (dy, sy) in enumerate(_TAP_CROPS):
                    for j, (dx, sx) in enumerate(_TAP_CROPS):
                        gx[n, :, sy, sx] += gcol[:, 3 * i + j, dy, dx]
        if gw is not None:
            _accum(weight, gw.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            _accum(bias, g.sum(axis=(0, 2)))
        if gx is not None:
            _accum_own(x, gx)

    parents = (x, weight) if bias is None else (x, weight, bias)
    out = _make(out_data, parents, backward)
    return out


def maxpool2x2(x) -> Tensor:
    """2x2 max pooling with stride 2. Each window's value and gradient belong
    to its first maximum in row-major window order (top-left, top-right,
    bottom-left, bottom-right).

    The forward is ``np.maximum`` over the four strided corner views, with
    any zero result taken from the first corner holding a zero (the maximum
    of -0.0 and 0.0 may be either). The backward routes the gradient by a
    compare mask in the same corner order: a corner gets it where it equals
    the maximum and no earlier corner did, and the last corner gets the rest.
    """
    x = _coerce(x)
    xd = _batched(x, "maxpool2x2")
    b_, c, h, w = xd.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2x2: spatial dims must be even, got {h}x{w}")
    corners = [xd[:, :, i::2, j::2] for i in (0, 1) for j in (0, 1)]
    pooled = np.maximum(np.maximum(corners[0], corners[1]),
                        np.maximum(corners[2], corners[3]))
    zero = pooled == 0.0
    if zero.any():
        first = corners[3]
        for corner in corners[2::-1]:
            first = np.where(corner == 0.0, corner, first)
        pooled[zero] = first[zero]

    def backward():
        g = out.grad
        gx = np.empty_like(xd)
        gx_corners = [gx[:, :, i::2, j::2] for i in (0, 1) for j in (0, 1)]
        taken = np.zeros(pooled.shape, dtype=bool)
        for corner, g_corner in zip(corners[:3], gx_corners):
            hit = corner == pooled
            hit &= ~taken
            np.multiply(g, hit, out=g_corner)
            taken |= hit
        np.multiply(g, ~taken, out=gx_corners[3])
        _accum_own(x, gx)

    out = _make(pooled, (x,), backward)
    return out


def distance_map(features, prototypes) -> Tensor:
    """Squared L2 distance between every spatial feature vector and every
    prototype: out[b,i,h,w] = sum_c (features[b,c,h,w] - prototypes[i,c])^2,
    for B x d x H x W features and K x d prototypes.

    The forward sums the explicit differences one prototype at a time, so a
    prototype equal to a feature vector gives exactly 0 and no K-fold
    (B,K,d,H,W) buffer is built. The backward needs no difference buffer
    either: with g = d(loss)/d(out) it is two GEMMs over (B,K,HW) x (B,HW,d),
    grad_f = 2 (f * sum_k g_k - P^T g) and
    grad_P = -2 (sum_b g f^T - (sum g_k) P).
    """
    features, prototypes = _coerce(features), _coerce(prototypes)
    fd = _batched(features, "distance_map")
    if prototypes.ndim != 2:
        raise ShapeError(f"distance_map: prototypes must be K x d, got shape {prototypes.shape}")
    b_, d, h, w = fd.shape
    k, d_p = prototypes.shape
    if d_p != d:
        raise ShapeError(f"distance_map: features have {d} channels but prototypes have {d_p}")

    pd = prototypes.data
    out_data = np.empty((b_, k, h, w))
    for i in range(k):
        diff = fd - pd[i][None, :, None, None]
        out_data[:, i] = np.einsum("bdhw,bdhw->bhw", diff, diff)

    def backward():
        g = out.grad.reshape(b_, k, h * w)
        f2 = fd.reshape(b_, d, h * w)
        if features.requires_grad:
            gf = f2 * g.sum(axis=1)[:, None, :]
            gf -= pd.T @ g
            _accum(features, (2.0 * gf).reshape(b_, d, h, w))
        if prototypes.requires_grad:
            gp = (g @ f2.transpose(0, 2, 1)).sum(axis=0)
            gp -= g.sum(axis=(0, 2))[:, None] * pd
            _accum(prototypes, -2.0 * gp)

    out = _make(out_data, (features, prototypes), backward)
    return out


# -- finite differences -------------------------------------------------------


def finite_diff_grad(scalar_fn, at, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of ``scalar_fn`` at ``at``.

    ``scalar_fn`` receives a float64 ndarray and must return a finite scalar.
    """
    x = np.array(at.data if isinstance(at, Tensor) else at, dtype=np.float64)
    if h <= 0:
        raise ValueError("finite_diff_grad: step h must be positive")
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(scalar_fn(x))
        flat[i] = orig - h
        fm = float(scalar_fn(x))
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"finite_diff_grad: non-finite evaluation at element {i}")
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def gradcheck_rel_error(scalar_fn, at, analytic, h: float = 1e-6) -> float:
    """Max-norm relative error between an analytic gradient and the
    finite-difference oracle, with the denominator floored at 1 so that
    near-zero gradients are compared absolutely."""
    numeric = finite_diff_grad(scalar_fn, at, h)
    analytic = np.asarray(analytic, dtype=np.float64)
    denom = max(np.abs(numeric).max(initial=0.0), np.abs(analytic).max(initial=0.0), 1.0)
    return float(np.abs(analytic - numeric).max(initial=0.0) / denom)


# -- PDTF tensor file format --------------------------------------------------
#
# Layout: magic "PDTF", u8 dtype code (0 = float32, 1 = float64), u8 ndim,
# ndim x u32 little-endian dims, then the row-major payload in little-endian
# IEEE-754. The package writes float64 only; float32 files still load.

PDTF_MAGIC = b"PDTF"
_PDTF_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_PDTF_MAX_NDIM = 32


def save_tensor(path, array) -> None:
    """Write an array to ``path`` as a float64 (dtype code 1) PDTF tensor."""
    arr = np.ascontiguousarray(array, dtype=_PDTF_DTYPES[1])
    if arr.ndim > _PDTF_MAX_NDIM:
        raise ValueError(f"save_tensor: ndim {arr.ndim} exceeds format limit")
    header = PDTF_MAGIC + struct.pack("<BB", 1, arr.ndim)
    header += b"".join(struct.pack("<I", d) for d in arr.shape)
    with open(path, "wb") as f:
        f.write(header)
        f.write(arr.tobytes())


def load_tensor(path) -> np.ndarray:
    """Read a PDTF file. Returns an array of the stored dtype; rejects bad
    magic, unknown dtype codes, non-positive dims, and truncated payloads."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 6 or blob[:4] != PDTF_MAGIC:
        raise ValueError(f"{path}: not a PDTF tensor file (bad magic)")
    code, ndim = struct.unpack("<BB", blob[4:6])
    if code not in _PDTF_DTYPES:
        raise ValueError(f"{path}: unknown PDTF dtype code {code}")
    if ndim > _PDTF_MAX_NDIM:
        raise ValueError(f"{path}: PDTF ndim {ndim} exceeds format limit")
    offset = 6 + 4 * ndim
    if len(blob) < offset:
        raise ValueError(f"{path}: truncated PDTF header")
    dims = struct.unpack(f"<{ndim}I", blob[6:offset]) if ndim else ()
    if any(d == 0 for d in dims):
        raise ValueError(f"{path}: PDTF dims must be positive, got {dims}")
    dt = _PDTF_DTYPES[code]
    expected = int(np.prod(dims, dtype=np.int64)) * dt.itemsize if dims else dt.itemsize
    payload = blob[offset:]
    if len(payload) != expected:
        raise ValueError(f"{path}: PDTF payload is {len(payload)} bytes, expected {expected}")
    arr = np.frombuffer(payload, dtype=dt).reshape(dims).copy()
    return arr


# -- text files: key = value manifests and CSV tables --------------------------
#
# Checkpoint, extractor and dataset manifests, run configs and the eval and
# PGM sidecars are all ``key = value`` lines; every table the package writes
# is a CSV with a header row and ``\r\n`` line ends.


def read_text(path) -> str:
    """The text of ``path``; bytes that do not decode raise ValueError
    naming the path."""
    with open(path) as f:
        try:
            return f.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not a text file ({exc.reason} at byte "
                             f"{exc.start})") from None


def parse_key_values(lines, source: str) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment and blank lines are
    skipped. A line with no '=' or an empty key raises ValueError naming
    ``source`` and the line number."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        if not key.strip():
            raise ValueError(f"{source}:{lineno}: empty key")
        values[key.strip()] = value.strip()
    return values


def require(kv: dict, key: str, source: str, parse=str):
    """``parse(kv[key])``; a missing key or a value ``parse`` rejects raises
    ValueError naming ``source`` and the key."""
    if key not in kv:
        raise ValueError(f"{source}: missing field {key!r}")
    try:
        return parse(kv[key])
    except ValueError as exc:
        raise ValueError(f"{source}: field {key!r} = {kv[key]!r}: {exc}") from None


def format_value(value) -> str:
    """A manifest or config value as text: tuples comma-joined, floats by
    ``repr`` so they read back exactly."""
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def parse_value(raw: str, like):
    """Read ``raw`` back as a value of ``like``'s type: int, float, str, or a
    tuple typed by its first element (of ``like``'s length unless its
    elements are strings)."""
    kind = type(like)
    if kind is tuple:
        parts = [p.strip() for p in raw.strip("()").split(",") if p.strip()]
        elem = type(like[0]) if like else str
        if elem is not str and len(parts) != len(like):
            raise ValueError(f"expected {len(like)} values, got {len(parts)}")
        return tuple(elem(p) for p in parts)
    if kind in (int, float, str):
        return kind(raw)
    raise ValueError(f"unsupported field type {kind.__name__}")


def write_key_values(path, fields, tail=()) -> None:
    """Write ``fields`` (``(key, value)`` pairs or a dict) as ``key = value``
    lines, each value through ``format_value``, and then the ``tail`` lines
    verbatim. The text goes to a temporary file beside ``path`` that is then
    renamed over it, so ``path`` never holds a partial file."""
    items = fields.items() if isinstance(fields, dict) else fields
    lines = [*(f"{key} = {format_value(value)}" for key, value in items), *tail]
    tmp = f"{path}.tmp"
    with open(tmp, "w") as f:
        f.write("".join(f"{line}\n" for line in lines))
    os.replace(tmp, path)


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then every row of already formatted cells."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path, header) -> list[list[str]]:
    """The rows after ``header`` in the CSV table at ``path``. Bytes that do
    not decode, a malformed table, an empty file, another header or a row
    with another number of cells raise ValueError naming the path."""
    try:
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValueError(f"{path}: unreadable CSV table: {exc}") from None
    if rows[:1] != [list(header)]:
        raise ValueError(f"{path}: expected header {','.join(header)}, got "
                         f"{','.join(rows[0]) if rows else 'an empty file'}")
    for n, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {n}: {len(row)} cells, expected {len(header)}")
    return rows[1:]
