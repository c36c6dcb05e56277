"""Dense float64 tensor kernel with reverse-mode autodiff.

The tape holds gradient nodes, not values. An op whose input needs a
gradient gives its output Tensor a node: the output's gradient, edges to the
nodes of the inputs a gradient reaches, and a backward closure. A leaf
tensor is its own node. A closure holds the nodes it accumulates into and
only the arrays its backward reads, never a Tensor, so an activation no
backward reads is freed as soon as the caller drops its Tensor: a
``conv3x3`` output once the pool after it has read it, a pool output once
its relu has. Calling ``backward()`` on a scalar result replays the nodes in
reverse topological order and frees each interior node's closure, edges and
gradient as soon as its closure has run. Every interior ``.grad`` is a
private buffer, so a backward may reuse the ``out.grad`` it owns and hand it
on as its input's gradient. A node's first gradient is allocated in the
layout ``np.empty_like`` gives its output, from the shape and axis order the
node recorded, so reductions over it sum in the same order. The op set is
exactly what the counting model and its losses need: elementwise arithmetic,
sigmoid/relu/log, 2-D matmul, reductions, indexing, row normalization, 1x1
and 3x3 convolutions, 2x2 max pooling, and prototype distance maps. Every op
is a module function (``T.add``, ``T.mul``, ...): a Tensor has no arithmetic
operators, only ``t[idx]`` for ``getitem`` and ``float(t)`` for a
one-element value.

The 3x3 convolution, the 2x2 max pool and the sigmoid make every pass over a
(B, C, H, W) activation one sample at a time, while its slice sits in cache;
the 1x1 convolution's forward runs one GEMM per sample, read where it lies. In
the 3x3 one, nine shifted, cropped slices of the input fill one zero-bordered,
sample-sized (C*9, H*W) im2col buffer, so its forward and backward GEMMs run on
NCHW data with no transposed copy, and neither a padded copy nor a batch-sized
im2col matrix exists; the bias is added, and its gradient summed, per sample.
Max pooling compares the four strided window corners; when its input needs a
gradient, the forward also keeps a bool mask, one byte per input element, of
each window's first maximum in row-major window order, and the backward routes
the gradient by that mask alone. The distance map's forward is one reduce over
a (d,K,B,H,W) buffer of at most 1 MiB, else (or for one (K,B,H,W) element,
which numpy sums pairwise) a channel loop, both in channel order; its backward
is two GEMMs, the feature one run a sample at a time into the feature gradient.
A central finite-difference oracle, `finite_diff_grad`, checks every gradient.

The module also holds the package's file formats: PDTF tensors, the one
``key = value`` writer and reader and the one CSV writer and reader behind
every manifest, config and table, and ``clear_outputs``, the one place that
removes what an earlier run left in an output directory.

Shapes are strict: elementwise ops require equal shapes, and the only
implicit broadcasting is a constant scalar (a 0-d operand that needs no
gradient) beside a tensor. The spatial ops take B x C x H x W only, and
``tsum`` and ``tmean`` reduce the whole tensor. All compute is float64.
"""

from __future__ import annotations

import csv
import glob
import math
import os
import struct
from dataclasses import field, fields
from functools import partial
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
    "format_value", "parse_value", "bounded", "check_bounds", "write_key_values",
    "write_csv", "read_csv",
]

_grad_enabled = True


class no_grad:
    """Context manager that suspends tape recording; forward passes inside
    it make no tape nodes."""

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


class Tensor:
    """A float64 n-d array. A leaf tensor, one no op recorded, is its own
    tape node: ``grad`` accumulates d(loss)/d(this) after ``backward()``.

    Leaves default to ``requires_grad=False``; an op propagates the flag and
    records a node only when some input requires a gradient. Its output then
    reads and sets ``grad``, ``_parents`` and ``_backward`` on that node.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward: Callable[[], None] | None = None

    @property
    def _node(self):
        # a leaf is its own tape node
        return self

    def _empty(self) -> np.ndarray:
        return np.empty_like(self.data)

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
        """Run reverse-mode accumulation from this scalar's node over the
        node tape. The tape is consumed as it runs: right after an interior
        node's closure has run, the node drops its closure, its edges and its
        ``.grad``, so each array a closure held and each gradient is freed
        once no remaining closure needs it. The tape never held a value, so
        an activation no closure reads was freed before the backward began.
        Edges lead only to inputs that get a gradient, and an interior
        ``.grad`` is read by its own closure alone, which may therefore
        overwrite it and pass it on as its input's gradient. Leaves keep
        their ``.grad``."""
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar output, got shape {self.shape}")
        root = self._node
        topo: list = []
        visited: set[int] = set()
        stack: list = [(root, False)]
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
        root.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is not None:
                node._backward()
                node._backward, node._parents, node.grad = None, (), None

    def __getitem__(self, idx):
        return getitem(self, idx)


class _Node:
    """The tape node of an op's output: ``grad`` accumulates d(loss)/d(output),
    ``_parents`` are the nodes of the inputs a gradient reaches, and
    ``_backward`` sends ``grad`` on to them. It keeps no value, only the
    output's shape and axis order, from which ``_empty`` allocates a gradient
    in the layout ``np.empty_like`` gives the output: C order, else the axes
    by decreasing absolute stride, ties in axis order."""

    __slots__ = ("grad", "_parents", "_backward", "_shape", "_axes")

    def __init__(self, data: np.ndarray, parents: tuple):
        self.grad = None
        self._parents = parents
        self._backward = None
        if data.flags.c_contiguous:
            self._shape, self._axes = data.shape, None
        else:
            order = sorted(range(data.ndim), key=lambda i: -abs(data.strides[i]))
            self._shape = tuple(data.shape[i] for i in order)
            self._axes = tuple(np.argsort(order))

    def _empty(self) -> np.ndarray:
        g = np.empty(self._shape)
        return g if self._axes is None else g.transpose(self._axes)


class _Output(Tensor):
    """An op's output that has a tape node. ``grad``, ``_parents`` and
    ``_backward`` are the node's; the tape holds the node and not this
    Tensor, so ``data`` lives only as long as the caller, or a closure that
    reads it, keeps it."""

    __slots__ = ("_node",)

    def __init__(self, data: np.ndarray, node: _Node):
        self.data = data
        self.requires_grad = True
        self._node = node

    grad = property(lambda self: self._node.grad,
                    lambda self, value: setattr(self._node, "grad", value))
    _parents = property(lambda self: self._node._parents)
    _backward = property(lambda self: self._node._backward,
                         lambda self, value: setattr(self._node, "_backward", value))


class Parameter(Tensor):
    """A learnable tensor. ``freeze()`` clears its ``requires_grad`` for good:
    no gradient reaches it after that, so an optimizer step handed it raises
    for want of one."""

    __slots__ = ("name",)

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True)
        self.name = name

    def freeze(self) -> None:
        self.requires_grad = False
        self.grad = None

    def __repr__(self) -> str:
        return (f"Parameter(name={self.name!r}, shape={self.shape}, "
                f"requires_grad={self.requires_grad})")


# -- op plumbing --------------------------------------------------------------


def _coerce(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    if isinstance(x, (int, float, np.floating, np.integer)):
        return Tensor(float(x))
    if isinstance(x, np.ndarray):
        return Tensor(x)
    raise TypeError(f"cannot treat {type(x).__name__} as a tensor operand")


def _make(data: np.ndarray, inputs: Iterable[Tensor],
          backward: Callable[..., None]) -> Tensor:
    """The output Tensor of an op on ``inputs``. When it records a node, the
    node's closure is ``backward(node, *nodes)``, where ``nodes`` holds each
    input's node, or None for an input that gets no gradient; edges lead only
    to the inputs a gradient reaches."""
    if _grad_enabled:
        nodes = [t._node if t.requires_grad else None for t in inputs]
        parents = tuple([n for n in nodes if n is not None])
        if parents:
            node = _Node(data, parents)
            node._backward = partial(backward, node, *nodes)
            return _Output(data, node)
    return Tensor(data)


def _accum(node: Tensor | _Node | None, g: np.ndarray) -> None:
    if node is None:
        return
    if node.grad is not None:
        node.grad += g
    else:
        # zeros + g in one pass: a new array, since g may be another node's
        # grad (and a 0-d g + 0.0 would be a scalar); -0.0 still becomes 0.0
        node.grad = np.add(g, 0.0, out=node._empty())


def _accum_own(node: Tensor | _Node, g: np.ndarray) -> None:
    """Accumulate ``g`` into ``node.grad`` where ``g`` is the calling
    closure's own buffer: one it allocated, or the ``out.grad`` of its node,
    which ``Tensor.backward`` drops right after the closure. It becomes the
    gradient with no copy; adding 0.0 in place turns -0.0 into 0.0, as
    ``_accum`` does."""
    if node.grad is None:
        g += 0.0
        node.grad = g
    else:
        node.grad += g


def _check_elementwise(a: Tensor, b: Tensor, opname: str) -> None:
    # a broadcast scalar gets no gradient, so each operand's gradient has
    # the output's shape
    if (a.shape == b.shape or (a.ndim == 0 and not a.requires_grad)
            or (b.ndim == 0 and not b.requires_grad)):
        return
    raise ShapeError(f"{opname}: shapes {a.shape} and {b.shape} differ "
                     "(only a constant scalar broadcasts)")


# Each op's backward takes its output's node and then each input's node, or
# None for an input that gets no gradient, and reads only the arrays it
# closes over.

# -- elementwise arithmetic ---------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    _check_elementwise(a, b, "add")

    def backward(out, a, b):
        _accum(a, out.grad)
        _accum(b, out.grad)

    return _make(a.data + b.data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    _check_elementwise(a, b, "sub")

    def backward(out, a, b):
        _accum(a, out.grad)
        _accum(b, -out.grad)

    return _make(a.data - b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    _check_elementwise(a, b, "mul")
    # each gradient reads the other operand's values
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None

    def backward(out, a, b):
        if a is not None:
            _accum(a, out.grad * bd)
        if b is not None:
            _accum(b, out.grad * ad)

    return _make(a.data * b.data, (a, b), backward)


def relu(a) -> Tensor:
    a = _coerce(a)
    mask = a.data > 0

    def backward(out, a):
        _accum_own(a, out.grad * mask)

    return _make(np.where(mask, a.data, 0.0), (a,), backward)


def log(a) -> Tensor:
    a = _coerce(a)
    ad = a.data
    if np.any(ad <= 0):
        raise ValueError("log: input must be strictly positive")

    def backward(out, a):
        _accum(a, out.grad / ad)

    return _make(np.log(ad), (a,), backward)


def sigmoid(a) -> Tensor:
    """Elementwise 1/(1+exp(-x)), computed branch-wise so neither tail
    overflows: with ex = exp(-|x|), 1/(1+ex) for x >= 0 and ex/(1+ex) below.
    Both passes run one sample (a slice along the first axis; a 1-d input is
    one) at a time through sample-sized buffers, into an ``np.empty_like``
    output, and the backward computes (g * s) * (1 - s) inside out.grad."""
    a = _coerce(a)
    x = a.data
    out_data = np.empty_like(x)
    xs, outs = (x, out_data) if x.ndim > 1 else (x.reshape(1, -1), out_data.reshape(1, -1))
    ex = np.empty(xs.shape[1:])
    for x_n, s_n in zip(xs, outs):
        np.abs(x_n, out=ex)
        np.negative(ex, out=ex)
        np.exp(ex, out=ex)
        # maximum(1.0, ex) is 1.0 and maximum(0.0, ex) is ex, since
        # 0 <= ex <= 1; a NaN still propagates
        np.maximum(x_n >= 0, ex, out=s_n)
        ex += 1.0
        s_n /= ex

    def backward(out, a):
        one_minus = np.empty(outs.shape[1:])
        for g_n, s_n in zip(out.grad.reshape(outs.shape), outs):
            g_n *= s_n
            g_n *= np.subtract(1.0, s_n, out=one_minus)
        _accum_own(a, out.grad)

    return _make(out_data, (a,), backward)


# -- shape ops ----------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = _coerce(a)
    in_shape = a.shape

    def backward(out, a):
        _accum(a, out.grad.reshape(in_shape))

    return _make(a.data.reshape(shape), (a,), backward)


def transpose(a, axes) -> Tensor:
    a = _coerce(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def backward(out, a):
        _accum(a, out.grad.transpose(inv))

    return _make(a.data.transpose(axes), (a,), backward)


def getitem(a, idx) -> Tensor:
    """``a[idx]`` for an index of ints, slices and int arrays; with an array
    in it the backward accumulates repeated positions."""
    a = _coerce(a)
    norm = idx if isinstance(idx, tuple) else (idx,)
    advanced = any(isinstance(i, np.ndarray) and i.ndim > 0 for i in norm)

    def backward(out, a):
        if a.grad is None:
            a.grad = a._empty()
            a.grad.fill(0.0)
        if advanced:
            np.add.at(a.grad, norm, out.grad)
        else:
            a.grad[norm] += out.grad

    return _make(np.asarray(a.data[norm]), (a,), backward)


# -- reductions ---------------------------------------------------------------


def tsum(a) -> Tensor:
    a = _coerce(a)
    in_shape = a.shape

    def backward(out, a):
        _accum(a, np.broadcast_to(out.grad, in_shape).copy())

    return _make(np.asarray(a.data.sum()), (a,), backward)


def tmean(a) -> Tensor:
    a = _coerce(a)
    in_shape, size = a.shape, a.data.size

    def backward(out, a):
        _accum(a, np.broadcast_to(out.grad, in_shape).copy() / size)

    return _make(np.asarray(a.data.mean()), (a,), backward)


# -- linear algebra -----------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul: expects 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    # each gradient reads the other operand's values
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None

    def backward(out, a, b):
        if a is not None:
            _accum(a, out.grad @ bd.T)
        if b is not None:
            _accum(b, ad.T @ out.grad)

    return _make(a.data @ b.data, (a, b), backward)


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

    def backward(out, a):
        g = out.grad
        dot = (g * out_data).sum(axis=1, keepdims=True)
        _accum(a, (g - dot * out_data) / norms[:, None])

    return _make(out_data, (a,), backward)


# -- convolution / pooling / distances ---------------------------------------
#
# Spatial ops take B x C x H x W input only; any other rank is a ShapeError.


def _batched(x: Tensor, opname: str) -> np.ndarray:
    if x.ndim != 4:
        raise ShapeError(f"{opname}: expects BxCxHxW input, got shape {x.shape}")
    return x.data


def conv1x1(x, weight, bias=None, rows=None) -> Tensor:
    """Pointwise convolution: out[b,o,h,w] = sum_c weight[o,c] x[rows[b],c,h,w] (+ bias[o]).

    ``rows`` (1-d, None: all) picks samples of an input that needs no gradient. The
    tape keeps ``x``'s own array, and only the backward stacks the rows, into the
    (C, B*H*W) operand of the weight gradient's one GEMM."""
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
    if rows is not None and (x.requires_grad or np.ndim(rows) != 1):
        raise ShapeError("conv1x1: rows must be 1-d and pick from an input that needs no gradient")
    rows = range(b_) if rows is None else rows
    b_ = len(rows)

    oc = np.empty((c_out, b_, h * w))
    for j, i in enumerate(rows):
        np.matmul(weight.data, xd[i].reshape(c, h * w), out=oc[:, j])
    if bias is not None:
        oc += bias.data[:, None, None]
    # the weight gradient reads the input's rows, the input gradient the weight
    x_read = xd if weight.requires_grad else None
    w_read = weight.data if x.requires_grad else None

    def backward(out, x, weight, bias=None):
        gc = np.ascontiguousarray(out.grad.transpose(1, 0, 2, 3)).reshape(c_out, b_ * h * w)
        if x is not None:
            _accum(x, (w_read.T @ gc).reshape(c, b_, h, w).transpose(1, 0, 2, 3))
        if weight is not None:
            _accum(weight, gc @ np.stack([x_read[i] for i in rows], axis=1).reshape(c, -1).T)
        if bias is not None:
            _accum(bias, gc.sum(axis=1))

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return _make(oc.reshape(c_out, b_, h, w).transpose(1, 0, 2, 3), inputs, backward)


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


def conv3x3(x, weight, bias) -> Tensor:
    """3x3 convolution, stride 1, zero padding 1 (spatial dims preserved).

    Every pass runs one sample at a time, while that sample's slices sit in
    cache. The nine shifted, cropped slices of the input fill a single
    zero-bordered (C*9, H*W) im2col buffer, one GEMM writes that sample's
    C_out x H*W output and the bias is added to it, so no padded copy and no
    batch-sized im2col matrix exist. The tape keeps the input for the weight
    gradient and the weight for the input gradient, and never the output.
    The backward rebuilds each sample's im2col slice, accumulates
    grad_W = sum_b g[b] col[b]^T and the bias gradient, each in sample order,
    puts W^T g[b] in a second sample-sized buffer and adds its nine cropped
    slices, in tap order, into that sample's slice of the input gradient,
    zeroed just before; nothing is transposed.
    """
    x, weight, bias = _coerce(x), _coerce(weight), _coerce(bias)
    xd = _batched(x, "conv3x3")
    if weight.ndim != 4 or weight.shape[2:] != (3, 3):
        raise ShapeError(f"conv3x3: weight must be C_out x C_in x 3 x 3, got shape {weight.shape}")
    b_, c, h, w = xd.shape
    c_out, c_in = weight.shape[:2]
    if c_in != c:
        raise ShapeError(f"conv3x3: input has {c} channels but weight expects {c_in}")
    if bias.shape != (c_out,):
        raise ShapeError(f"conv3x3: bias shape {bias.shape} != ({c_out},)")

    w2 = weight.data.reshape(c_out, c * 9)
    col = np.zeros((c, 9, h, w))
    oc = np.empty((b_, c_out, h * w))
    for n in range(b_):
        np.matmul(w2, _im2col(col, xd[n]), out=oc[n])
        oc[n] += bias.data[:, None]
    # the weight gradient reads the input, the input gradient the weight
    x_read = xd if weight.requires_grad else None
    w_read = w2 if x.requires_grad else None

    def backward(out, x, weight, bias):
        g = out.grad.reshape(b_, c_out, h * w)
        col = np.zeros((c, 9, h, w))
        gw = np.zeros((c_out, c * 9)) if weight is not None else None
        gb = np.zeros(c_out) if bias is not None else None
        gx = x._empty() if x is not None else None
        gcol = np.empty((c, 9, h, w)) if x is not None else None
        for n in range(b_):
            if gw is not None:
                gw += g[n] @ _im2col(col, x_read[n]).T
            if gb is not None:
                gb += g[n].sum(axis=1)
            if gx is not None:
                np.matmul(w_read.T, g[n], out=gcol.reshape(c * 9, h * w))
                gx_n = gx[n]
                gx_n.fill(0.0)
                for i, (dy, sy) in enumerate(_TAP_CROPS):
                    for j, (dx, sx) in enumerate(_TAP_CROPS):
                        gx_n[:, sy, sx] += gcol[:, 3 * i + j, dy, dx]
        if gw is not None:
            _accum(weight, gw.reshape(c_out, c, 3, 3))
        if gb is not None:
            _accum(bias, gb)
        if gx is not None:
            _accum_own(x, gx)

    return _make(oc.reshape(b_, c_out, h, w), (x, weight, bias), backward)


def maxpool2x2(x) -> Tensor:
    """2x2 max pooling with stride 2. Each window's gradient belongs to its
    first maximum in row-major window order (top-left, top-right,
    bottom-left, bottom-right); a window with no corner equal to its maximum,
    one holding a NaN, routes it to the last corner. A zero maximum of a
    window that holds both -0.0 and 0.0 may come out with either sign; the
    extractor's relu right after the pool makes it 0.0.

    Both passes run one sample at a time, while that sample's slice sits in
    cache. The forward is ``np.maximum`` of the even and odd rows (contiguous
    runs) into a sample-sized buffer, then of that buffer's even and odd
    columns into the preallocated output. When the input needs a gradient,
    it also fills a (B, C, H/2, 2, W) bool mask of each window's first
    maximum, element for element in the input's row-major order: one
    contiguous compare of the sample against its pooled values repeated
    along each row, then the corners in turn, each keeping the hits no
    earlier corner took, and the last corner the rest. The tape keeps that
    mask, one byte per input element, and neither the input nor the output.
    The backward writes each sample's gradient to all four strided corners
    of its input gradient and multiplies that by the sample's mask in place,
    so it allocates nothing beside the input gradient.
    """
    x = _coerce(x)
    xd = _batched(x, "maxpool2x2")
    b_, c, h, w = xd.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2x2: spatial dims must be even, got {h}x{w}")
    h2, w2 = h // 2, w // 2
    pooled = np.empty((b_, c, h2, w2))
    rows = np.empty((c, h2, w))
    first = None  # each window's first maximum, kept only for a backward
    if _grad_enabled and x.requires_grad:
        first = np.empty((b_, c, h2, 2, w), dtype=bool)
    for n in range(b_):
        np.maximum(xd[n, :, 0::2], xd[n, :, 1::2], out=rows)
        np.maximum(rows[..., 0::2], rows[..., 1::2], out=pooled[n])
        if first is not None:
            # rows is free again: each pooled value twice along its row
            rows[..., 0::2] = pooled[n]
            rows[..., 1::2] = pooled[n]
            mask = first[n]
            np.equal(xd[n].reshape(c, h2, 2, w), rows[:, :, None], out=mask)
            e00, e01 = mask[:, :, 0, 0::2], mask[:, :, 0, 1::2]
            e10, e11 = mask[:, :, 1, 0::2], mask[:, :, 1, 1::2]
            np.greater(e01, e00, out=e01)     # a hit no earlier corner took
            np.logical_or(e00, e01, out=e11)  # e11 holds the corners taken
            np.greater(e10, e11, out=e10)
            # e10 and the taken corners are disjoint, so they are equal where
            # neither holds: the last corner gets every window left
            np.equal(e11, e10, out=e11)

    def backward(out, x):
        g = out.grad
        gx = x._empty()
        for n in range(b_):
            gx_n = gx[n]
            for i in (0, 1):
                for j in (0, 1):
                    gx_n[:, i::2, j::2] = g[n]
            gx_n *= first[n].reshape(c, h, w)
        _accum_own(x, gx)

    return _make(pooled, (x,), backward)


# 1 MiB of float64, one image's (d,K,B,H,W) difference at d=64, K=8, 16x16: the one
# pass took 0.16 ms there against the loop's 0.37; 0.52 vs 0.54 at B=2; 2.26 vs 1.91 at B=8
_ONE_PASS_MAX = 2 ** 17


def distance_map(features, prototypes) -> Tensor:
    """Squared L2 distance between every spatial feature vector and every
    prototype: out[b,i,h,w] = sum_c (features[b,c,h,w] - prototypes[i,c])^2,
    for B x d x H x W features and K x d prototypes.

    The forward adds the squared explicit differences in channel order, so a
    prototype equal to a feature vector gives exactly 0: up to
    ``_ONE_PASS_MAX`` elements by one reduce over the outer axis of a
    C-contiguous (d,K,B,H,W) buffer, else, and when K*B*H*W = 1 (numpy sums a
    lone slab pairwise), by a channel loop into one (K,B,H,W) buffer; both
    give the same bits. The output is C-contiguous for the backward: with
    g = d(loss)/d(out), two GEMMs over (B,K,HW) x (B,HW,d),
    grad_f = 2 (f * sum_k g_k - P^T g), grad_P = -2 (sum_b g f^T - (sum g_k) P);
    P^T g is subtracted one (d, HW) sample at a time, so no (B, d, HW)
    product exists beside grad_f.
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
    if k * b_ * h * w >= 2 and d * k * b_ * h * w <= _ONE_PASS_MAX:
        buf = np.empty((d, k, b_, h, w))
        np.subtract(fd.transpose(1, 0, 2, 3)[:, None], pd.T[:, :, None, None, None], out=buf)
        acc = np.add.reduce(np.square(buf, out=buf), axis=0)
    else:
        acc = np.zeros((k, b_, h, w))
        sq = np.empty_like(acc)
        for c in range(d):
            np.subtract(fd[:, c], pd[:, c, None, None, None], out=sq)
            sq *= sq
            acc += sq
    out_data = np.ascontiguousarray(acc.transpose(1, 0, 2, 3))

    def backward(out, features, prototypes):
        g = out.grad.reshape(b_, k, h * w)
        f2 = fd.reshape(b_, d, h * w)
        if features is not None:
            gf = f2 * g.sum(axis=1)[:, None, :]
            pg = np.empty((d, h * w))
            for n in range(b_):
                gf[n] -= np.matmul(pd.T, g[n], out=pg)
            gf *= 2.0
            _accum_own(features, gf.reshape(b_, d, h, w))
        if prototypes is not None:
            gp = (g @ f2.transpose(0, 2, 1)).sum(axis=0)
            gp -= g.sum(axis=(0, 2))[:, None] * pd
            _accum(prototypes, -2.0 * gp)

    return _make(out_data, (features, prototypes), backward)


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
# Layout: magic "PDTF", u8 dtype code (1 = float64, the only one), u8 ndim,
# ndim x u32 little-endian dims, then the row-major payload in little-endian
# IEEE-754.

PDTF_MAGIC = b"PDTF"
_PDTF_CODE = 1
_PDTF_DTYPE = np.dtype("<f8")
_PDTF_MAX_NDIM = 32


def save_tensor(path, array) -> None:
    """Write an array to ``path`` as a float64 PDTF tensor."""
    arr = np.ascontiguousarray(array, dtype=_PDTF_DTYPE)
    if arr.ndim > _PDTF_MAX_NDIM:
        raise ValueError(f"save_tensor: ndim {arr.ndim} exceeds format limit")
    header = PDTF_MAGIC + struct.pack("<BB", _PDTF_CODE, arr.ndim)
    header += b"".join(struct.pack("<I", d) for d in arr.shape)
    with open(path, "wb") as f:
        f.write(header)
        f.write(arr.tobytes())


def load_tensor(path) -> np.ndarray:
    """Read a PDTF file as a float64 array; rejects bad magic, any dtype
    code but float64's, non-positive dims, truncated payloads, NaN and inf."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 6 or blob[:4] != PDTF_MAGIC:
        raise ValueError(f"{path}: not a PDTF tensor file (bad magic)")
    code, ndim = struct.unpack("<BB", blob[4:6])
    if code != _PDTF_CODE:
        raise ValueError(f"{path}: PDTF dtype code {code} is not float64's {_PDTF_CODE}")
    if ndim > _PDTF_MAX_NDIM:
        raise ValueError(f"{path}: PDTF ndim {ndim} exceeds format limit")
    offset = 6 + 4 * ndim
    if len(blob) < offset:
        raise ValueError(f"{path}: truncated PDTF header")
    dims = struct.unpack(f"<{ndim}I", blob[6:offset]) if ndim else ()
    if any(d == 0 for d in dims):
        raise ValueError(f"{path}: PDTF dims must be positive, got {dims}")
    expected = math.prod(dims) * _PDTF_DTYPE.itemsize
    payload = blob[offset:]
    if len(payload) != expected:
        raise ValueError(f"{path}: PDTF payload is {len(payload)} bytes, expected {expected}")
    arr = np.frombuffer(payload, dtype=_PDTF_DTYPE).reshape(dims).copy()
    if not np.isfinite(arr).all():
        raise ValueError(f"{path}: PDTF tensor holds NaN or inf")
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
    """A manifest, config or CSV value as text: tuples comma-joined, floats
    (numpy's too) by ``repr`` of the Python float so they read back exactly."""
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return repr(float(value)) if isinstance(value, float) else str(value)


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


def bounded(default, bound: str):
    """A dataclass field whose value, or each end of a tuple value, must lie
    in the interval ``bound``, written like ``"[0, 1)"``; see check_bounds."""
    return field(default=default, metadata={"bound": bound})


def check_bounds(config, section: str) -> None:
    """Raise ValueError naming ``section.field`` for the first bounded field
    of the dataclass ``config`` outside its bound, or ``*_range`` pair whose
    low end exceeds its high end. Every comparison fails on NaN."""
    for f in fields(config):
        value = getattr(config, f.name)
        if "bound" not in f.metadata:
            continue
        bound = f.metadata["bound"]
        lo, hi = (float(end) for end in bound[1:-1].split(","))
        for v in value if isinstance(value, tuple) else (value,):
            if not ((lo <= v if bound[0] == "[" else lo < v)
                    and (v <= hi if bound[-1] == "]" else v < hi)):
                raise ValueError(f"{section}.{f.name} must lie in {bound}, got {value}")
        if f.name.endswith("_range") and not value[0] <= value[1]:
            raise ValueError(f"{section}.{f.name}: low end {value[0]} exceeds high end {value[1]}")


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


def clear_outputs(out_dir, *patterns) -> None:
    """Make ``out_dir`` and remove each file in it that a glob pattern
    matches, a dangling symlink too; a directory raises IsADirectoryError."""
    os.makedirs(out_dir, exist_ok=True)
    for pattern in patterns:
        for path in glob.glob(os.path.join(glob.escape(out_dir), pattern)):
            os.remove(path)


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then every row, each cell through ``format_value``."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows([format_value(v) for v in row] for row in rows)


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
