"""Reverse-mode automatic differentiation over numpy arrays.

Implements exactly the tensor operations the CNN variants in this package
need: grouped/depth-wise convolution, affine maps, pooling, channel layer
normalization, batch normalization, a family of elementwise activations,
and softmax cross-entropy.

Every operation returns a ``Tensor`` that remembers its parent tensors and a
closure computing parent gradients. ``Tensor.backward()`` walks the graph in
reverse topological order and accumulates gradients additively, so a value
consumed twice receives the sum of both contributions.

A graph is consumed by one backward pass: ``backward()`` drops each node's
closure and parent links once it has run, so reference counting frees the
graph without waiting for the cyclic garbage collector.

Graphs are single-threaded per model instance; independent instances share
no mutable state and may be driven from different threads. ``no_grad``
applies to the calling thread only.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np
from scipy.special import erf, expit

__all__ = [
    "Tensor",
    "NumericsError",
    "ShapeError",
    "no_grad",
    "add",
    "weighted_sum",
    "conv2d",
    "linear",
    "maxpool2d",
    "global_avg_pool",
    "layer_norm_c",
    "batch_norm",
    "relu",
    "leaky_relu",
    "prelu",
    "softplus",
    "gelu",
    "silu",
    "elu",
    "activation",
    "softmax_cross_entropy",
    "ACTIVATION_KINDS",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

ACTIVATION_KINDS = ("relu", "lrelu", "prelu", "softplus", "gelu", "silu", "elu")


class NumericsError(RuntimeError):
    """A forward pass produced NaN or Inf. `layer` is the path of the layer
    where the values surfaced, which the model adds on the way out."""

    def __init__(self, msg: str, layer: str = ""):
        super().__init__(f"layer {layer}: {msg}" if layer else msg)
        self.msg, self.layer = msg, layer

    def inside(self, name: str) -> "NumericsError":
        """This error as raised inside the layer or block `name`."""
        return NumericsError(self.msg, f"{name}.{self.layer}" if self.layer else name)


class ShapeError(ValueError):
    """Operands have incompatible shapes or parameters."""


class _GradMode(threading.local):
    enabled = True


_GRAD_MODE = _GradMode()


class no_grad:
    """Context manager that disables graph construction (eval passes) in the
    calling thread; other threads keep building graphs."""

    def __enter__(self):
        self._prev = _GRAD_MODE.enabled
        _GRAD_MODE.enabled = False
        return self

    def __exit__(self, *exc):
        _GRAD_MODE.enabled = self._prev
        return False


def _finite_or_raise(data: np.ndarray, op: str) -> None:
    # NaN and +/-Inf both poison the values' dot product with themselves,
    # which BLAS takes in one read of the memory-order flat array. Finite
    # values can still overflow it, so a non-finite dot is confirmed
    # elementwise before raising.
    flat = data.ravel(order="K")
    with np.errstate(over="ignore"):
        total = np.dot(flat, flat)
    if not np.isfinite(total) and not np.isfinite(data).all():
        raise NumericsError(f"non-finite values produced by node '{op}'")


def _accum(t: "Tensor", g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.array(g, dtype=t.data.dtype, copy=True)
    else:
        t.grad += g


class Tensor:
    """Dense n-d array with an optional gradient buffer and graph record."""

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, op: str = "leaf"):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.op = op
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self):
        return self.data.ndim

    def backward(self) -> None:
        """Populate grads of every reachable tensor, starting from a scalar.

        Consumes the graph: each node's closure and parent links are dropped
        once its closure has run, so intermediates (and the buffers their
        closures hold) are freed during the walk. A graph can be
        backpropagated once; build it again for a second pass.
        """
        if self.data.size != 1:
            raise ShapeError("backward() expects a scalar loss")
        # Iterative post-order DFS; creation order already respects topology,
        # but DFS keeps the traversal local to this loss.
        topo: list[Tensor] = []
        visited = {id(self)}
        stack: list[tuple[Tensor, int]] = [(self, 0)]
        while stack:
            node, idx = stack.pop()
            while idx < len(node._parents):
                parent = node._parents[idx]
                idx += 1
                if parent.requires_grad and id(parent) not in visited:
                    visited.add(id(parent))
                    stack.append((node, idx))
                    stack.append((parent, 0))
                    break
            else:
                topo.append(node)
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is not None and node.grad is not None:
                node._backward()
            node._backward = None
            node._parents = ()

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype}, op={self.op!r})"


def _result(out_data: np.ndarray, parents: tuple[Tensor, ...], op: str) -> tuple[Tensor, bool]:
    """Wrap op output; returns (tensor, needs_backward_closure)."""
    _finite_or_raise(out_data, op)
    out = Tensor(out_data, op=op)
    if _GRAD_MODE.enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        return out, True
    return out, False


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: shape mismatch {a.shape} vs {b.shape}")
    out, track = _result(a.data + b.data, (a, b), "add")
    if track:
        def _bwd():
            if a.requires_grad:
                _accum(a, out.grad)
            if b.requires_grad:
                _accum(b, out.grad)
        out._backward = _bwd
    return out


def weighted_sum(t: Tensor, coeffs: np.ndarray) -> Tensor:
    """Scalar projection sum(t * coeffs); used to scalarize outputs in checks."""
    c = np.asarray(coeffs, dtype=t.data.dtype)
    if c.shape != t.shape:
        raise ShapeError("weighted_sum: coefficient shape mismatch")
    out, track = _result(np.sum(t.data * c), (t,), "weighted_sum")
    if track:
        def _bwd():
            _accum(t, c * out.grad)
        out._backward = _bwd
    return out


# ---------------------------------------------------------------------------
# convolution / affine
# ---------------------------------------------------------------------------

def _axis(size: int, k: int, before: int, after: int, s: int):
    """One spatial axis of a correlation with `before`/`after` zero padding
    (a negative amount crops). Returns the output length, the live taps
    [lo, hi), which are the only kernel offsets that can reach a real
    element, and the input range [start, stop) those taps read; indices
    outside [0, size) are padding. When every window lies wholly in the
    padding, no tap is live (hi == lo) and the range reads no real element."""
    out = (size + before + after - k) // s + 1
    lo = max(0, before - (out - 1) * s)
    hi = max(lo, min(k, size + before))
    start = lo - before
    return out, lo, hi, start, start + (out - 1) * s + hi - lo


def _slab(xt: np.ndarray, h0: int, h1: int, w0: int, w1: int, fill: float = 0) -> np.ndarray:
    """Contiguous xt[:, h0:h1, w0:w1] of a (C, H, W, N) array, reading `fill`
    where the range leaves the array; transposing views are copied once."""
    c, h, w, n = xt.shape
    a0, a1, b0, b1 = max(h0, 0), min(h1, h), max(w0, 0), min(w1, w)
    core = xt[:, a0:a1, b0:b1]
    if (a0, a1, b0, b1) == (h0, h1, w0, w1):
        return np.ascontiguousarray(core)
    shape = (c, h1 - h0, w1 - w0, n)
    xs = np.full(shape, fill, xt.dtype) if fill else np.zeros(shape, xt.dtype)
    xs[:, a0 - h0:a1 - h0, b0 - w0:b1 - w0] = core
    return xs


# A column matrix larger than _BLOCK_ABOVE bytes is built a few output rows
# at a time, in one reused buffer of about _BLOCK_BYTES (at least one output
# row), and each block is multiplied straight into the output. A block's
# column count must be a multiple of _BLOCK_ALIGN so that the BLAS computes
# every output column as the single GEMM would, bit for bit (OpenBLAS's
# Haswell kernels need 16). Chosen by measurement: blocking smaller matrices
# made glibc's dynamic mmap threshold fault the buffers in again on every
# call.
_BLOCK_BYTES = 2 << 20
_BLOCK_ABOVE = 16 << 20
_BLOCK_ALIGN = 64


def _windows(xt: np.ndarray, kh: int, kw: int, stride: int, pad_h: tuple,
             pad_w: tuple, fill: float = 0):
    """Read-only (C, kh', kw', Hout, Wout, N) view of the correlation windows
    of a (C, H, W, N) input over the live taps of a kh x kw kernel, and the
    geometry `(hout, wout, th, tw, ih, iw)`: live tap ranges `th`/`tw` and
    input ranges `ih`/`iw` as (start, stop) pairs.

    `pad_h` and `pad_w` are (before, after) padding per axis, read as `fill`;
    negative amounts crop. A 1x1 window over the whole input is the input
    itself, so its view is C-contiguous and reshaping it copies nothing.
    """
    cin, h, w, n = xt.shape
    hout, th0, th1, ih0, ih1 = _axis(h, kh, *pad_h, stride)
    wout, tw0, tw1, iw0, iw1 = _axis(w, kw, *pad_w, stride)
    xs = _slab(xt, ih0, ih1, iw0, iw1, fill)
    sc, sh, sw, sn = xs.strides
    # The ndarray constructor, not `as_strided`: the same view at a fraction
    # of the per-call cost.
    win = np.ndarray((cin, th1 - th0, tw1 - tw0, hout, wout, n), xs.dtype, xs,
                     0, (sc, sh, sw, sh * stride, sw * stride, sn))
    win.flags.writeable = False
    return win, (hout, wout, (th0, th1), (tw0, tw1), (ih0, ih1), (iw0, iw1))


def _correlate(xt: np.ndarray, wd: np.ndarray, stride: int, pad_h: tuple,
               pad_w: tuple, groups: int):
    """Grouped cross-correlation of a (C, H, W, N) input with an OIHW kernel
    on the live taps of `_windows`.

    The batch is the innermost axis throughout, so each group is one GEMM
    per block of output rows. Returns the (Cout, Hout, Wout, N) output and
    the `_windows` geometry.
    """
    cout, cin_g, kh, kw = wd.shape
    win, geom = _windows(xt, kh, kw, stride, pad_h, pad_w)
    cin, kh, kw, hout, wout, n = win.shape
    (th0, th1), (tw0, tw1) = geom[2:4]
    wm = wd[:, :, th0:th1, tw0:tw1].reshape(groups, cout // groups, cin_g * kh * kw)
    out = np.empty((groups, cout // groups, hout * wout * n), np.result_type(wm, win))
    row_cols = wout * n
    row_bytes = cin * kh * kw * row_cols * win.itemsize
    rows = hout
    if (not win.flags.c_contiguous and row_cols % _BLOCK_ALIGN == 0
            and hout * row_bytes > _BLOCK_ABOVE):
        rows = max(1, _BLOCK_BYTES // row_bytes)
    buf = None
    for r0 in range(0, hout, rows):
        blk = win[:, :, :, r0:r0 + rows]
        if not blk.flags.c_contiguous:
            if buf is None:
                buf = np.empty(blk.size, win.dtype)
            part = buf[:blk.size].reshape(blk.shape)
            part[...] = blk
            blk = part
        span = blk.shape[3] * row_cols
        cols = blk.reshape(groups, cin_g * kh * kw, span)
        np.matmul(wm, cols, out=out[:, :, r0 * row_cols:r0 * row_cols + span])
    return out.reshape(cout, hout, wout, n), geom


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, *,
           stride: int = 1, padding: int = 0, groups: int = 1) -> Tensor:
    """2-d cross-correlation with zero padding and grouped channels.

    ``groups == Cin == Cout`` gives depth-wise convolution. Only the kernel
    taps that can reach a real pixel are computed (a same-padded 9x9 kernel
    on a 2x2 map runs as 3x3); cropped taps get an exactly-zero weight
    gradient. Forward is im2col over those taps of the input read as
    (C, H, W, N), so the batch is innermost and every group is one GEMM over
    batch and space; a large column matrix is built in blocks of output
    rows. A depth-wise conv on a small map (`_spatial_operator_applies`)
    builds no columns: forward, input gradient and weight gradient are one
    batched GEMM each against its spatial operator. The output and the
    input gradient are (N, C, H, W) views of (C, H, W, N) memory, so a
    following conv reads them without a transposing copy. The closure keeps
    the input, not the column matrix or the operator: the weight gradient
    rebuilds the whole matrix from it and is one GEMM per group, and the
    matrix is dropped before the input gradient runs. So the input must not
    be written in place between forward and backward. At stride 1 the input
    gradient is the forward correlation of the output gradient with the
    flipped, channel-swapped kernel, and at larger strides a scatter of the
    window gradients.
    """
    xd, wd = x.data, weight.data
    if xd.ndim != 4 or wd.ndim != 4:
        raise ShapeError("conv2d expects NCHW input and OIHW weight")
    n, cin, h, w = xd.shape
    cout, cin_g, kh, kw = wd.shape
    if kh != kw:
        raise ShapeError("conv2d supports square kernels only")
    k = kh
    if k < 1 or stride < 1 or padding < 0:
        raise ShapeError("conv2d: k >= 1, stride >= 1, padding >= 0 required")
    if cin % groups != 0 or cout % groups != 0:
        raise ShapeError(f"conv2d: groups={groups} must divide Cin={cin} and Cout={cout}")
    if cin_g != cin // groups:
        raise ShapeError(f"conv2d: weight expects Cin/groups={cin // groups}, got {cin_g}")
    if bias is not None and bias.data.shape != (cout,):
        raise ShapeError("conv2d: bias must have shape (Cout,)")
    if h + 2 * padding < k or w + 2 * padding < k:
        raise ShapeError("conv2d: kernel larger than padded input")

    p = padding
    xt = xd.transpose(1, 2, 3, 0)
    spatial = _spatial_operator_applies(groups, cin, cout, h, w, k, stride, p)
    if spatial:
        out_t = _spatial_correlate(xt, wd, stride, p)
    else:
        out_t, geom = _correlate(xt, wd, stride, (p, p), (p, p), groups)
    if bias is not None:
        out_t += bias.data[:, None, None, None]
    out_data = out_t.transpose(3, 0, 1, 2)

    parents = (x, weight) if bias is None else (x, weight, bias)
    out, track = _result(out_data, parents, "conv2d")
    if track:
        def _bwd():
            gt = np.ascontiguousarray(out.grad.transpose(1, 2, 3, 0))
            if weight.requires_grad:
                if spatial:
                    gw = _spatial_weight_grad(gt, xt, wd, stride, p)
                else:
                    gw = _conv_weight_grad(gt, xt, wd, stride, p, groups)
                _accum(weight, gw)
            if bias is not None and bias.requires_grad:
                _accum(bias, out.grad.sum(axis=(0, 2, 3)))
            if x.requires_grad:
                if spatial:
                    gx = _spatial_input_grad(gt, wd, stride, p, h, w)
                else:
                    gx = _conv_input_grad(gt, wd, stride, p, groups, geom, h, w)
                _accum(x, gx)
        out._backward = _bwd
    return out


def _spatial_operator_applies(groups: int, cin: int, cout: int, h: int, w: int,
                              k: int, stride: int, p: int) -> bool:
    """Whether conv2d runs as one GEMM against its spatial operator: a
    depth-wise conv whose input map has at most twice as many pixels as live
    kernel taps. On larger maps the operator is mostly zeros, and the
    windowed correlation is faster (a k3 depth-wise conv at 8x8 was 2-4x
    slower on the operator)."""
    if not groups == cin == cout:
        return False
    th0, th1 = _axis(h, k, p, p, stride)[1:3]
    tw0, tw1 = _axis(w, k, p, p, stride)[1:3]
    return h * w <= 2 * (th1 - th0) * (tw1 - tw0)


@functools.lru_cache(maxsize=256)
def _tap_table(h: int, w: int, k: int, stride: int, p: int):
    """Tap-index table of a depth-wise conv on an h x w map, and its
    `(hout, wout, (th0, th1), (tw0, tw1))` geometry. `idx[o, i]` is the
    live tap (row-major over the `_axis` live ranges) that carries input
    pixel i to output position o, or the live-tap count where no tap does.
    For the weight gradient, `order` lists the table's entries grouped by
    tap, `reached` the taps that have any and `starts` where each reached
    tap's group begins. Cached per geometry, so the arrays are read-only;
    int32 keeps the cache small."""
    hout, th0, th1 = _axis(h, k, p, p, stride)[:3]
    wout, tw0, tw1 = _axis(w, k, p, p, stride)[:3]
    kh, kw = th1 - th0, tw1 - tw0
    i = np.arange(h) - stride * np.arange(hout)[:, None] + p - th0
    j = np.arange(w) - stride * np.arange(wout)[:, None] + p - tw0
    ok = ((i >= 0) & (i < kh))[:, None, :, None] & ((j >= 0) & (j < kw))[None, :, None, :]
    idx = np.where(ok, i[:, None, :, None] * kw + j[None, :, None, :], kh * kw)
    idx = idx.reshape(hout * wout, h * w).astype(np.int32)
    counts = np.bincount(idx.ravel(), minlength=kh * kw + 1)[:-1]
    order = np.argsort(idx.ravel(), kind="stable")[:counts.sum()].astype(np.int32)
    reached = np.flatnonzero(counts).astype(np.int32)
    starts = (np.cumsum(counts) - counts)[reached].astype(np.int32)
    for a in (idx, order, starts, reached):
        a.flags.writeable = False
    return idx, order, starts, reached, (hout, wout, (th0, th1), (tw0, tw1))


def _spatial_operator(wd: np.ndarray, table) -> np.ndarray:
    """The (C, Hout*Wout, h*w) per-channel operator of a depth-wise conv
    with (C, 1, k, k) kernel `wd`, gathered from the kernel's live taps (and
    a zero for the pairs no tap joins) through the `_tap_table` `table`."""
    idx, geom = table[0], table[4]
    (th0, th1), (tw0, tw1) = geom[2:]
    c = wd.shape[0]
    taps = np.zeros((c, (th1 - th0) * (tw1 - tw0) + 1), wd.dtype)
    taps[:, :-1] = wd[:, 0, th0:th1, tw0:tw1].reshape(c, -1)
    return np.take(taps, idx, axis=1)


def _spatial_correlate(xt: np.ndarray, wd: np.ndarray, stride: int,
                       p: int) -> np.ndarray:
    """Depth-wise correlation of a (C, H, W, N) input as one batched GEMM of
    the spatial operator with the input read as (C, H*W, N). Returns the
    (C, Hout, Wout, N) output."""
    c, h, w, n = xt.shape
    table = _tap_table(h, w, wd.shape[2], stride, p)
    hout, wout = table[4][:2]
    out = np.matmul(_spatial_operator(wd, table), _spatial_input(xt))
    return out.reshape(c, hout, wout, n)


def _spatial_input(xt: np.ndarray) -> np.ndarray:
    """A (C, H, W, N) input as a C-contiguous (C, H*W, N) GEMM operand, free
    for CHWN memory. An NCHW input could otherwise reshape to a view that
    BLAS reads transposed, with another summation order."""
    c, h, w, n = xt.shape
    return np.ascontiguousarray(xt).reshape(c, h * w, n)


def _spatial_input_grad(gt: np.ndarray, wd: np.ndarray, stride: int, p: int,
                        h: int, w: int) -> np.ndarray:
    """Input gradient of `_spatial_correlate`, at any stride: the operator's
    transpose times the (C, Hout, Wout, N) output gradient, returned as an
    (N, C, h, w) view of (C, h, w, N) memory."""
    c, n = gt.shape[0], gt.shape[3]
    op = _spatial_operator(wd, _tap_table(h, w, wd.shape[2], stride, p))
    gx = np.matmul(op.transpose(0, 2, 1), gt.reshape(c, -1, n))
    return gx.reshape(c, h, w, n).transpose(3, 0, 1, 2)


def _spatial_weight_grad(gt: np.ndarray, xt: np.ndarray, wd: np.ndarray,
                         stride: int, p: int) -> np.ndarray:
    """Kernel gradient of `_spatial_correlate`: the operator's gradient
    g . x^T, summed per live tap through the tap table. Taps that no output
    reaches get an exact zero (`reduceat` would return an empty group's
    first element)."""
    c, h, w, n = xt.shape
    _, order, starts, reached, (_, _, (th0, th1), (tw0, tw1)) = _tap_table(
        h, w, wd.shape[2], stride, p)
    gop = np.matmul(gt.reshape(c, -1, n), _spatial_input(xt).transpose(0, 2, 1))
    per_tap = np.zeros(((th1 - th0) * (tw1 - tw0), c), gop.dtype)
    per_tap[reached] = np.add.reduceat(gop.reshape(c, -1).T[order], starts, axis=0)
    full = np.zeros_like(wd)
    full[:, 0, th0:th1, tw0:tw1] = per_tap.T.reshape(c, th1 - th0, tw1 - tw0)
    return full


def _conv_weight_grad(gt: np.ndarray, xt: np.ndarray, wd: np.ndarray,
                      stride: int, p: int, groups: int) -> np.ndarray:
    """Gradient of a conv2d with respect to its OIHW kernel, given the
    (Cout, Hout, Wout, N) output gradient `gt` and the (C, H, W, N) input
    `xt`. The whole column matrix is rebuilt from the input in one copy and
    reduced in one GEMM per group; splitting that reduction into blocks of
    output rows would change its summation order."""
    cout, cin_g, kh, kw = wd.shape
    win, geom = _windows(xt, kh, kw, stride, (p, p), (p, p))
    hout, wout, (th0, th1), (tw0, tw1) = geom[:4]
    # The column count is spelled out: with no live tap, -1 is ambiguous.
    cols = win.reshape(groups, cin_g * (th1 - th0) * (tw1 - tw0),
                       hout * wout * xt.shape[3])
    gw = np.matmul(gt.reshape(groups, cout // groups, -1), cols.transpose(0, 2, 1))
    gw = gw.reshape(cout, cin_g, th1 - th0, tw1 - tw0)
    if gw.shape == wd.shape:
        return gw
    full = np.zeros_like(wd)
    full[:, :, th0:th1, tw0:tw1] = gw
    return full


def _conv_input_grad(gt: np.ndarray, wd: np.ndarray, stride: int, p: int,
                     groups: int, geom: tuple, h: int, w: int) -> np.ndarray:
    """Gradient of a conv2d with respect to its (N, C, h, w) input, as a view
    of (C, h, w, N) memory, given the (Cout, Hout, Wout, N) output gradient
    `gt` and the forward's `_correlate` geometry."""
    cout, n = gt.shape[0], gt.shape[3]
    cin_g, k = wd.shape[1], wd.shape[2]
    cin, og = cin_g * groups, cout // groups
    if stride == 1:
        # Correlate gt with the kernel flipped in space and with in/out
        # channels swapped per group; padding k-1-p < 0 crops gt instead.
        # The flip is copied because matmul leaves BLAS for negative strides;
        # the swap is left to `_correlate`'s reshape, which copies only when
        # BLAS cannot read the swapped view as a transposed matrix.
        wf = np.ascontiguousarray(wd[:, :, ::-1, ::-1])
        wf = wf.reshape(groups, og, cin_g, k, k).transpose(0, 2, 1, 3, 4)
        wf = wf.reshape(cin, og, k, k)
        q = k - 1 - p
        gx = _correlate(gt, wf, 1, (q, q), (q, q), groups)[0]
        return gx.transpose(3, 0, 1, 2)
    hout, wout, (th0, th1), (tw0, tw1) = geom[:4]
    kh, kw = th1 - th0, tw1 - tw0
    wm = wd[:, :, th0:th1, tw0:tw1].reshape(groups, og, cin_g * kh * kw)
    gcols = np.matmul(wm.transpose(0, 2, 1), gt.reshape(groups, og, -1))
    return _scatter_windows(gcols.reshape(cin, kh, kw, hout, wout, n), stride, geom, h, w)


def _scatter_windows(gcols: np.ndarray, stride: int, geom: tuple, h: int,
                     w: int) -> np.ndarray:
    """Input gradient, as an (N, C, h, w) view of (C, h, w, N) memory, of a
    windowed op with (C, kh', kw', Hout, Wout, N) window gradients `gcols`
    and `_windows` geometry `geom`. Taps are visited in descending order, so
    each pixel sums its windows in ascending window order."""
    cin, kh, kw, hout, wout, n = gcols.shape
    (ih0, ih1), (iw0, iw1) = geom[4:]
    # Slab and input share one buffer, so the input's share is a view of it.
    h0, w0 = min(ih0, 0), min(iw0, 0)
    buf = np.zeros((cin, max(ih1, h) - h0, max(iw1, w) - w0, n), dtype=gcols.dtype)
    gs = buf[:, ih0 - h0:ih1 - h0, iw0 - w0:iw1 - w0]
    for i in range(kh - 1, -1, -1):
        for j in range(kw - 1, -1, -1):
            gs[:, i:i + stride * hout:stride,
               j:j + stride * wout:stride] += gcols[:, i, j]
    return buf[:, -h0:h - h0, -w0:w - w0].transpose(3, 0, 1, 2)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    xd, wd = x.data, weight.data
    if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[1]:
        raise ShapeError(f"linear: incompatible shapes {xd.shape} and {wd.shape}")
    if bias is not None and bias.data.shape != (wd.shape[0],):
        raise ShapeError("linear: bias must have shape (Cout,)")
    out_data = xd @ wd.T
    if bias is not None:
        out_data = out_data + bias.data[None, :]
    parents = (x, weight) if bias is None else (x, weight, bias)
    out, track = _result(out_data, parents, "linear")
    if track:
        def _bwd():
            g = out.grad
            if x.requires_grad:
                _accum(x, g @ wd)
            if weight.requires_grad:
                _accum(weight, g.T @ xd)
            if bias is not None and bias.requires_grad:
                _accum(bias, g.sum(axis=0))
        out._backward = _bwd
    return out


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------

def maxpool2d(x: Tensor, k: int, stride: int, padding: int = 0) -> Tensor:
    """Max pooling; the subgradient routes to the first (lowest linear index)
    maximal element of each window. Forward is a running maximum over the
    live taps of conv2d's `_windows` view padded with -inf, backward conv2d's
    `_scatter_windows`. Padding must be below k, or a window could hold only
    padding. The output is an (N, C, H, W) view of (C, H, W, N) memory."""
    xd = x.data
    if xd.ndim != 4:
        raise ShapeError("maxpool2d expects NCHW input")
    if k < 1 or stride < 1 or not 0 <= padding < k:
        raise ShapeError(f"maxpool2d: k={k} >= 1, stride={stride} >= 1 and "
                         f"0 <= padding={padding} < k required")
    n, c, h, w = xd.shape
    p = padding
    if h + 2 * p < k or w + 2 * p < k:
        raise ShapeError("maxpool2d: kernel larger than padded input")
    win, geom = _windows(xd.transpose(1, 2, 3, 0), k, k, stride, (p, p), (p, p), -np.inf)
    taps = [(i, j) for i in range(win.shape[1]) for j in range(win.shape[2])]
    out_t = win[:, 0, 0].copy()
    for i, j in taps[1:]:
        np.maximum(out_t, win[:, i, j], out=out_t)
    out, track = _result(out_t.transpose(3, 0, 1, 2), (x,), "maxpool2d")
    if track:
        def _bwd():
            # Tap (i, j) passes the output gradient of the windows it is the
            # first maximum of; the others add a signed zero, which changes no
            # sum. Tap-major memory lets the scatter read each tap as one block.
            gcols = np.empty(win.shape[1:3] + out_t.shape, xd.dtype)
            gcols = gcols.transpose(2, 0, 1, 3, 4, 5)
            unclaimed = np.ones(out_t.shape, dtype=bool)
            for i, j in taps:
                first = win[:, i, j] == out_t
                first &= unclaimed
                unclaimed ^= first
                np.multiply(out.grad.transpose(1, 2, 3, 0), first, out=gcols[:, i, j])
            _accum(x, _scatter_windows(gcols, stride, geom, h, w))
        out._backward = _bwd
    return out


def global_avg_pool(x: Tensor) -> Tensor:
    xd = x.data
    if xd.ndim != 4:
        raise ShapeError("global_avg_pool expects NCHW input")
    n, c, h, w = xd.shape
    out, track = _result(xd.mean(axis=(2, 3)), (x,), "global_avg_pool")
    if track:
        def _bwd():
            # Filled in the input's memory order; a broadcast view would
            # be copied into C order by `_accum`.
            gx = np.empty_like(xd)
            gx[...] = (out.grad * (1.0 / (h * w)))[:, :, None, None]
            _accum(x, gx)
        out._backward = _bwd
    return out


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def _standardize(x: Tensor, xd: np.ndarray, gamma: Tensor, beta: Tensor,
                 axes: tuple, eps: float, op: str):
    """gamma * (xd - mu) / sqrt(var + eps) + beta per channel, statistics
    over `axes` of the NCHW array `xd` backing `x`: (1,) for channel layer
    norm, (0, 2, 3) for training-mode batch norm. var is the mean of d*d for
    d = xd - mu, bitwise `np.var(xd, axis=axes, keepdims=True)` without its
    second mean pass. Returns the output (shaped like `x`), mu and var."""
    mu = xd.mean(axis=axes, keepdims=True)
    d = xd - mu
    sq = d * d
    var = sq.mean(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    # xhat and the output reuse d's and sq's buffers: two full-size arrays.
    xhat = np.multiply(d, inv, out=d)
    gam = gamma.data[None, :, None, None]
    out_data = np.multiply(gam, xhat, out=sq)
    out_data += beta.data[None, :, None, None]
    out, track = _result(out_data.reshape(x.data.shape), (x, gamma, beta), op)
    if track:
        def _bwd():
            g = out.grad.reshape(xhat.shape)
            if gamma.requires_grad:
                _accum(gamma, (g * xhat).sum(axis=(0, 2, 3)))
            if beta.requires_grad:
                _accum(beta, g.sum(axis=(0, 2, 3)))
            if x.requires_grad:
                ghat = g * gam
                gx = inv * (ghat - ghat.mean(axis=axes, keepdims=True)
                            - xhat * (ghat * xhat).mean(axis=axes, keepdims=True))
                _accum(x, gx.reshape(x.data.shape))
        out._backward = _bwd
    return out, mu, var


def layer_norm_c(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the channel dimension independently at each position.

    Accepts NCHW feature maps or NC feature vectors (treated as H=W=1).
    """
    xd = x.data
    if xd.ndim == 2:
        xd = xd.reshape(xd.shape[0], xd.shape[1], 1, 1)
    if xd.ndim != 4:
        raise ShapeError("layer_norm_c expects NCHW or NC input")
    c = xd.shape[1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ShapeError("layer_norm_c: gamma/beta must have shape (C,)")
    return _standardize(x, xd, gamma, beta, (1,), eps, "layer_norm_c")[0]


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               running_mean: np.ndarray, running_var: np.ndarray,
               momentum: float = 0.1, eps: float = 1e-5,
               training: bool = True) -> Tensor:
    """Batch normalization over (N, H, W) per channel.

    Training mode normalizes with batch statistics and updates the running
    buffers in place via an exponential moving average (biased variance).
    Eval mode uses the stored buffers; before any training step those are the
    initial (0, 1) statistics, which is documented behaviour, not an error.
    """
    xd = x.data
    if xd.ndim != 4:
        raise ShapeError("batch_norm expects NCHW input")
    c = xd.shape[1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ShapeError("batch_norm: gamma/beta must have shape (C,)")
    if training:
        out, mu, var = _standardize(x, xd, gamma, beta, (0, 2, 3), eps, "batch_norm")
        running_mean[...] = (1.0 - momentum) * running_mean + momentum * mu.reshape(c)
        running_var[...] = (1.0 - momentum) * running_var + momentum * var.reshape(c)
        return out

    # Eval mode is one per-channel affine x * a + b: two full-size passes.
    inv = 1.0 / np.sqrt(running_var + eps)
    a = gamma.data * inv
    b = beta.data - running_mean * a
    out_data = xd * a[None, :, None, None]
    out_data += b[None, :, None, None]
    out, track = _result(out_data, (x, gamma, beta), "batch_norm")
    if track:
        mean = running_mean[None, :, None, None].copy()
        inv = inv[None, :, None, None]

        def _bwd():
            g = out.grad
            if gamma.requires_grad:
                centered = xd - mean
                _accum(gamma, (g * centered * inv).sum(axis=(0, 2, 3)))
            if beta.requires_grad:
                _accum(beta, g.sum(axis=(0, 2, 3)))
            if x.requires_grad:
                _accum(x, g * gamma.data[None, :, None, None] * inv)
        out._backward = _bwd
    return out


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def _unary(x: Tensor, out_data: np.ndarray, dfdx, op: str) -> Tensor:
    """Elementwise op; `dfdx()` forms the derivative array, and only the
    backward pass of a tracked op calls it."""
    out, track = _result(out_data, (x,), op)
    if track:
        def _bwd():
            _accum(x, out.grad * dfdx())
        out._backward = _bwd
    return out


def relu(x: Tensor) -> Tensor:
    xd = x.data
    return _unary(x, np.maximum(xd, 0), lambda: (xd > 0).astype(xd.dtype), "relu")


def leaky_relu(x: Tensor, alpha: float = 0.01) -> Tensor:
    xd = x.data
    return _unary(x, np.where(xd > 0, xd, alpha * xd),
                  lambda: np.where(xd > 0, 1.0, alpha).astype(xd.dtype), "lrelu")


def prelu(x: Tensor, alpha: Tensor) -> Tensor:
    """PReLU with a learned negative slope per channel (axis 1)."""
    xd = x.data
    if xd.ndim not in (2, 4):
        raise ShapeError("prelu expects NC or NCHW input")
    c = xd.shape[1]
    if alpha.data.shape != (c,):
        raise ShapeError("prelu: alpha must have shape (C,)")
    a = alpha.data[None, :, None, None] if xd.ndim == 4 else alpha.data[None, :]
    neg = xd <= 0
    out, track = _result(np.where(neg, a * xd, xd), (x, alpha), "prelu")
    if track:
        def _bwd():
            g = out.grad
            if x.requires_grad:
                _accum(x, g * np.where(neg, a, 1.0).astype(xd.dtype))
            if alpha.requires_grad:
                ga = g * np.where(neg, xd, 0.0)
                axes = (0, 2, 3) if xd.ndim == 4 else (0,)
                _accum(alpha, ga.sum(axis=axes))
        out._backward = _bwd
    return out


def softplus(x: Tensor) -> Tensor:
    xd = x.data
    return _unary(x, np.logaddexp(0.0, xd).astype(xd.dtype),
                  lambda: expit(xd), "softplus")


# Numerical Recipes' `erfcc`: erfc(z) = t * exp(-z*z + P(t)) with
# t = 1 / (1 + z/2), fractional error below 1.2e-7 for z >= 0. P's
# coefficients, highest degree first; the constant term also carries the
# 1/2 of Phi(-|x|) = erfc(|x| / sqrt(2)) / 2, as log(1/2).
_ERFCC = tuple(np.float32(c) for c in (
    0.17087277, -0.82215223, 1.48851587, -1.13520398, 0.27886807,
    -0.18628806, 0.09678418, 0.37409196, 1.00002368,
    -1.26551223 + math.log(0.5)))
# Elements per block of the float32 GELU kernel: its temporaries stay in
# cache.
_ACT_BLOCK = 32768


def _gauss_cdf_f32_block(x: np.ndarray, out: np.ndarray) -> None:
    """Phi(x) of a 1-d float32 block, written to `out`. q = Phi(-|x|) comes
    from the erfcc form at z = |x|/sqrt(2), and Phi is q or 1 - q, so
    negative inputs never cancel."""
    t = np.abs(x)
    t *= np.float32(0.5 / _SQRT2)
    t += 1
    np.reciprocal(t, out=t)
    q = t * _ERFCC[0]
    for c in _ERFCC[1:-1]:
        q += c
        q *= t
    q += _ERFCC[-1]
    # z*z as x*x/2: x is exact, so the exponent is rounded once.
    half_sq = np.multiply(x, x, out=out)
    half_sq *= np.float32(0.5)
    q -= half_sq
    np.exp(q, out=q)
    q *= t
    # Phi = |[x > 0] - q|: q itself, or 1 - q rounded once.
    m = np.greater(x, 0, out=t)
    np.subtract(m, q, out=q)
    np.abs(q, out=out)


def _gelu_f32(x: np.ndarray, keep_phi: bool):
    """x * Phi(x) of a float32 array and, when `keep_phi`, Phi(x) itself
    (else None), both laid out like `x`. Phi is computed by
    `_gauss_cdf_f32_block` over blocks of `_ACT_BLOCK` elements in x's
    memory order, and each block is multiplied by x while in cache."""
    ops = [x, np.empty_like(x)] + ([np.empty_like(x)] if keep_phi else [])
    scratch = None if keep_phi else np.empty(min(x.size, _ACT_BLOCK), x.dtype)
    blocks = np.nditer(ops, ["external_loop", "buffered", "zerosize_ok"],
                       [["readonly"]] + [["writeonly"]] * (len(ops) - 1),
                       order="K", buffersize=_ACT_BLOCK)
    with blocks:
        for xb, ob, *kept in blocks:
            phi = kept[0] if keep_phi else scratch[:xb.size]
            _gauss_cdf_f32_block(xb, phi)
            np.multiply(xb, phi, out=ob)
    return ops[1], (ops[2] if keep_phi else None)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)). Float32 takes np.exp, whose overflow below
    x ~ -88 gives the exact limit 0; other dtypes keep scipy's expit."""
    if x.dtype != np.float32:
        return expit(x)
    s = np.negative(x)
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1
    return np.reciprocal(s, out=s)


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian-CDF form: x * Phi(x). Float32 runs `_gelu_f32`, which
    keeps Phi only for a backward pass; other dtypes keep scipy's erf."""
    xd = x.data
    if xd.dtype == np.float32:
        out_data, phi_cdf = _gelu_f32(xd, _GRAD_MODE.enabled and x.requires_grad)
    else:
        phi_cdf = 0.5 * (1.0 + erf(xd / _SQRT2))
        out_data = xd * phi_cdf
    return _unary(x, out_data,
                  lambda: phi_cdf + xd * (_INV_SQRT_2PI * np.exp(-0.5 * xd * xd)),
                  "gelu")


def silu(x: Tensor) -> Tensor:
    xd = x.data
    s = _sigmoid(xd)
    return _unary(x, xd * s, lambda: s * (1.0 + xd * (1.0 - s)), "silu")


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    xd = x.data
    # exp only on the clamped branch so large positives cannot overflow.
    en = np.exp(np.minimum(xd, 0.0))
    return _unary(x, np.where(xd > 0, xd, alpha * (en - 1.0)),
                  lambda: np.where(xd > 0, 1.0, alpha * en).astype(xd.dtype), "elu")


_FIXED_ACTIVATIONS = {"relu": relu, "lrelu": leaky_relu, "softplus": softplus,
                      "gelu": gelu, "silu": silu, "elu": elu}


def activation(kind: str, x: Tensor, alpha: Tensor | None = None) -> Tensor:
    """Apply the activation named `kind` (one of ACTIVATION_KINDS). `alpha` is
    the per-channel slope Tensor that prelu requires; the other kinds ignore
    it and use fixed constants (lrelu slope 0.01, elu alpha 1.0)."""
    if kind == "prelu":
        if not isinstance(alpha, Tensor):
            raise ShapeError("prelu requires a per-channel alpha Tensor")
        return prelu(x, alpha)
    if kind not in _FIXED_ACTIVATIONS:
        raise ShapeError(f"unknown activation kind {kind!r}")
    return _FIXED_ACTIVATIONS[kind](x)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean softmax cross-entropy; stabilized by row-max subtraction."""
    z = logits.data
    lab = np.asarray(labels)
    if z.ndim != 2:
        raise ShapeError("softmax_cross_entropy expects (N, K) logits")
    n, kk = z.shape
    if lab.shape != (n,) or not np.issubdtype(lab.dtype, np.integer):
        raise ShapeError("labels must be an int vector of length N")
    if n == 0:
        raise ShapeError("empty batch")
    if lab.min() < 0 or lab.max() >= kk:
        raise ShapeError("label out of range")
    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    denom = ez.sum(axis=1, keepdims=True)
    logp = (z - zmax) - np.log(denom)
    loss = -logp[np.arange(n), lab].mean()
    out, track = _result(np.asarray(loss, dtype=z.dtype), (logits,), "softmax_cross_entropy")
    if track:
        def _bwd():
            p = ez / denom
            p[np.arange(n), lab] -= 1.0
            _accum(logits, p * (out.grad / n))
        out._backward = _bwd
    return out
