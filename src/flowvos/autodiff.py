"""Dense tensors with tape-based reverse-mode automatic differentiation.

The model code only needs a small closed set of operations (convolution
and kernel slices, elementwise arithmetic, a few reductions, softmax,
pooling and bilinear upsampling, matmul), so each operation carries two
hand-written rules: a VJP (for backward / vector-Jacobian products) and a
JVP (forward tangent propagation over a recorded tape, used for
matrix-free Jacobian products).

A replay (``Linearization.vjp``, ``Linearization.jvp``, ``Tape.backward``)
touches only the tape's live nodes: those that depend on the sources it is
given (the parameters of a linearization, the tensors that ``backward``
differentiates) and lead to its one output, the residual or the loss.  Each
VJP rule receives the mask of its inputs that need a gradient, so ``conv2d``
skips its input correlation on a frozen input, such as features or a raw
image, and its weight gradient on a constant kernel.

Every feature map is a batch, so a leading batch axis runs many samples
through one node: ``conv2d``, ``avg_pool2`` and ``upsample2`` take
N x C x H x W inputs only, and ``matmul`` and ``transpose2d`` stacks of
matrices only, a single one as a stack of one.  A leading group axis on a
``conv2d`` kernel runs G convolutions through one node, over one batch that
every group reads or over a batch per group.  Every convolution is
same-size: ``conv2d`` pads by p = k // 2 for a k x k kernel and lays the
batch out once as a channel-major flat grid, C x N*(H+p)*(W+p), where
neighbouring samples share their zero padding and each kernel tap is a
contiguous column slice.  A 1x1 convolution is then one matmul, and a k x k
one is a single matmul over the k*k stacked taps or one matmul per tap,
whichever the channel counts make cheaper.

There is no general broadcasting: binary operations require identical shapes
and dtypes, and the only mixed form is tensor-with-python-scalar.  Shapes
and dtypes are validated eagerly with errors naming the offending dimension
or both dtypes.

A tensor keeps the dtype of a floating input, and every array an operation
or a replay allocates takes its input's dtype, so a float32 graph stays
float32 and a float64 one float64.  ``DTYPE``, float32, is the program's
working precision: the readers return it and the model is built in it.
Float64 inputs give float64 arithmetic throughout, which checks of
exactness rely on.  Rejecting mixed dtypes keeps a stray float64 array from
silently promoting a float32 pass.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "DTYPE",
    "Tensor",
    "Tape",
    "add",
    "sub",
    "mul",
    "scale",
    "relu",
    "sigmoid",
    "softplus",
    "softmax",
    "tmean",
    "sumsq",
    "matmul",
    "transpose2d",
    "reshape",
    "concat",
    "kernel_slice",
    "conv2d",
    "avg_pool2",
    "upsample2",
    "Linearization",
]


DTYPE = np.float32

_KEYS = itertools.count()


class Tensor:
    """A dense array with optional gradient accumulation.

    A floating input keeps its dtype, and is not copied if it is already an
    array; any other input (integers, booleans) becomes ``DTYPE``.  A backward
    pass accumulates into ``grad``, an array shaped like ``data``.

    ``key``, unique in the process, is the tensor's name on a tape: a
    recorded node names its output and inputs by key and holds no tensor,
    and its rules hold only the arrays they read, taken when the node was
    recorded.  No operation writes into an array it was given, so a tape
    stays valid when ``data`` is later replaced by a new array, as the line
    search, ``Adam.step`` and ``Model.load`` do, and an intermediate that no
    rule reads is freed as soon as the forward drops it.
    """

    __slots__ = ("data", "grad", "key")

    def __init__(self, data):
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(DTYPE)
        self.grad: Optional[np.ndarray] = None
        self.key = next(_KEYS)

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))


class _Node:
    """One recorded operation: the keys of its output and inputs, and its
    VJP/JVP rules, which hold the arrays they read and never a ``Tensor``.

    ``vjp(g, need)`` returns one gradient per input, where ``need`` holds one
    bool per input; a rule may skip the work for, and return None in place
    of, an input whose entry is False.  ``jvp(tangents)`` gets None for every
    input that carries no tangent.
    """

    __slots__ = ("out", "inputs", "vjp", "jvp")

    def __init__(self, out: int, inputs: tuple, vjp: Callable, jvp: Callable):
        self.out = out
        self.inputs = inputs
        self.vjp = vjp
        self.jvp = jvp


_TAPE_STACK: list["Tape"] = []


def _pull(plan: list, grads: dict) -> dict:
    """Reverse sweep over a replay plan: pull the cotangents in ``grads``
    (keyed by tensor key) back through it, adding to ``grads`` the gradient
    of every input the plan marks as needing one."""
    for node, need in reversed(plan):
        g = grads.pop(node.out)          # every plan node leads to the output
        for key, n, ig in zip(node.inputs, need, node.vjp(g, need)):
            if n:
                grads[key] = grads[key] + ig if key in grads else ig
    return grads


class Tape:
    """Ordered record of executed operations, usable as a context manager.

    Recording order is a topological order of the computation, so one reverse
    sweep visits every node exactly once after all of its consumers.  A
    replay (``backward`` here, ``Linearization.jvp`` and ``vjp``) walks only
    the live nodes of a ``plan``: those that depend on the sources and lead
    to the output.  A tape belongs to one logical thread; parallelism is
    only sound across independent tapes.
    """

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self, "tape scopes must nest"
        return False

    def plan(self, sources: Sequence[Tensor], output: Tensor) -> list:
        """The replay plan from ``sources`` to ``output``: the nodes that
        depend on a source and lead to the output, in recording order, each
        with the mask of its inputs that depend on a source (the inputs that
        carry a tangent forward and need a gradient back)."""
        live = {s.key for s in sources}
        forward = []
        for node in self.nodes:
            need = tuple(k in live for k in node.inputs)
            if any(need):
                live.add(node.out)
                forward.append((node, need))
        wanted = {output.key}
        plan = []
        for node, need in reversed(forward):
            if node.out in wanted:
                wanted.update(k for k, n in zip(node.inputs, need) if n)
                plan.append((node, need))
        plan.reverse()
        return plan

    def backward(self, loss: Tensor, sources: Sequence[Tensor]) -> None:
        """Accumulate d(loss)/d(s) into the array ``s.grad`` for each source s
        that the loss depends on; a source it does not reach keeps its ``grad``.
        The sources must be leaves of the tape, tensors that no recorded node made."""
        if loss.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
        if not self.nodes:
            raise ValueError("backward on an empty tape")
        grads = _pull(self.plan(sources, loss), {loss.key: np.ones_like(loss.data)})
        for s in sources:
            g = grads.pop(s.key, None)
            if g is not None:
                if s.grad is None:
                    s.grad = np.zeros_like(s.data)
                s.grad += g


def _record(out: Tensor, inputs: Sequence[Tensor], vjp: Callable, jvp: Callable) -> Tensor:
    if _TAPE_STACK:
        _TAPE_STACK[-1].nodes.append(_Node(out.key, tuple(t.key for t in inputs), vjp, jvp))
    return out


def _check_same_dtype(tensors: Sequence[Tensor], opname: str) -> None:
    first = tensors[0].data.dtype
    for t in tensors[1:]:
        if t.data.dtype != first:
            raise ValueError(f"{opname}: dtype mismatch {first} vs {t.data.dtype}")


def _check_operands(a: Tensor, b: Tensor, opname: str) -> None:
    if a.data.shape != b.data.shape:
        raise ValueError(f"{opname}: shape mismatch {a.data.shape} vs {b.data.shape}")
    _check_same_dtype((a, b), opname)


def _z(t, shape, dtype):
    return np.zeros(shape, dtype=dtype) if t is None else t


# ---------------------------------------------------------------------------
# elementwise and scalar ops


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_operands(a, b, "add")
    out = Tensor(a.data + b.data)
    shape, dtype = out.data.shape, out.data.dtype
    return _record(out, (a, b),
                   vjp=lambda g, need: (g, g),
                   jvp=lambda t: _z(t[0], shape, dtype) + _z(t[1], shape, dtype))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_operands(a, b, "sub")
    out = Tensor(a.data - b.data)
    shape, dtype = out.data.shape, out.data.dtype
    return _record(out, (a, b),
                   vjp=lambda g, need: (g, -g if need[1] else None),
                   jvp=lambda t: _z(t[0], shape, dtype) - _z(t[1], shape, dtype))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Hadamard product of same-shape tensors."""
    _check_operands(a, b, "mul")
    x, y = a.data, b.data
    return _record(Tensor(x * y), (a, b),
                   vjp=lambda g, need: (g * y if need[0] else None,
                                        g * x if need[1] else None),
                   jvp=lambda t: (_z(t[0], x.shape, x.dtype) * y
                                  + x * _z(t[1], y.shape, y.dtype)))


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    out = Tensor(a.data * s)
    return _record(out, (a,),
                   vjp=lambda g, need: (g * s,),
                   jvp=lambda t: t[0] * s)


def relu(a: Tensor) -> Tensor:
    """max(x, 0), one ``np.maximum``: ``-0.0`` comes out as ``+0.0``, and a
    NaN propagates instead of becoming 0 (the readers of outside data,
    ``Model.load`` and ``read_flo``, reject non-finite values).  A tape
    keeps the boolean mask y > 0, formed only while one records, and not the
    output: a quarter of a float32 output's bytes."""
    out = Tensor(np.maximum(a.data, 0.0))
    if not _TAPE_STACK:
        return out
    mask = out.data > 0.0
    return _record(out, (a,),
                   vjp=lambda g, need: (g * mask,),
                   jvp=lambda t: t[0] * mask)


def _logistic(x: np.ndarray) -> tuple:
    """sigmoid(x), stable in both tails, and the exp(-|x|) it is built from."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e)), e


def sigmoid(a: Tensor) -> Tensor:
    s, _ = _logistic(a.data)
    out = Tensor(s)
    d = s * (1.0 - s)
    return _record(out, (a,),
                   vjp=lambda g, need: (g * d,),
                   jvp=lambda t: t[0] * d)


def softplus(a: Tensor) -> Tensor:
    """log(1 + exp(x)) computed without overflow."""
    s, e = _logistic(a.data)
    out = Tensor(np.maximum(a.data, 0.0) + np.log1p(e))
    return _record(out, (a,),
                   vjp=lambda g, need: (g * s,),
                   jvp=lambda t: t[0] * s)


def softmax(a: Tensor, axis: int) -> Tensor:
    """Softmax along ``axis`` with max subtraction for stability."""
    if not -a.data.ndim <= axis < a.data.ndim:
        raise ValueError(f"softmax: axis {axis} out of range for shape {a.data.shape}")
    x = a.data
    e = np.exp(x - np.max(x, axis=axis, keepdims=True))
    s = e / np.sum(e, axis=axis, keepdims=True)
    out = Tensor(s)

    def vjp(g, need):
        return (s * (g - np.sum(g * s, axis=axis, keepdims=True)),)

    def jvp(t):
        d = t[0]
        return s * (d - np.sum(d * s, axis=axis, keepdims=True))

    return _record(out, (a,), vjp=vjp, jvp=jvp)


# ---------------------------------------------------------------------------
# reductions


def tmean(a: Tensor) -> Tensor:
    shape, dtype, n = a.data.shape, a.data.dtype, a.data.size
    out = Tensor(np.mean(a.data))
    return _record(out, (a,),
                   vjp=lambda g, need: (np.full(shape, float(g) / n, dtype=dtype),),
                   jvp=lambda t: np.mean(t[0]))


def sumsq(a: Tensor) -> Tensor:
    """Squared L2 norm, sum(x**2)."""
    x = a.data
    out = Tensor(np.sum(x * x))
    return _record(out, (a,),
                   vjp=lambda g, need: (2.0 * float(g) * x,),
                   jvp=lambda t: 2.0 * np.sum(x * t[0]))


# ---------------------------------------------------------------------------
# shape ops


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != a.data.size:
        raise ValueError(f"reshape: cannot view {a.data.shape} as {shape}")
    src_shape = a.data.shape
    out = Tensor(a.data.reshape(shape))
    return _record(out, (a,),
                   vjp=lambda g, need: (g.reshape(src_shape),),
                   jvp=lambda t: t[0].reshape(shape))


def transpose2d(a: Tensor) -> Tensor:
    """Transpose each matrix of a stack."""
    if a.data.ndim != 3:
        raise ValueError(f"transpose2d expects a stack of matrices, got shape {a.data.shape}")
    out = Tensor(np.swapaxes(a.data, -1, -2).copy())
    return _record(out, (a,),
                   vjp=lambda g, need: (np.swapaxes(g, -1, -2),),
                   jvp=lambda t: np.swapaxes(t[0], -1, -2))


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ValueError("concat of zero tensors")
    nd = tensors[0].data.ndim
    if not -nd <= axis < nd:
        raise ValueError(f"concat: axis {axis} out of range for rank {nd}")
    axis = axis % nd
    _check_same_dtype(tensors, "concat")
    for t in tensors[1:]:
        if t.data.ndim != nd:
            raise ValueError("concat: rank mismatch")
        for d in range(nd):
            if d != axis and t.data.shape[d] != tensors[0].data.shape[d]:
                raise ValueError(
                    f"concat: dimension {d} mismatch {t.data.shape} vs {tensors[0].data.shape}")
    shapes = [t.data.shape for t in tensors]
    dtype = tensors[0].data.dtype
    splits = np.cumsum([s[axis] for s in shapes])[:-1]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))

    def vjp(g, need):
        return tuple(np.split(g, splits, axis=axis))

    def jvp(t):
        return np.concatenate([_z(ti, s, dtype) for ti, s in zip(t, shapes)], axis=axis)

    return _record(out, tuple(tensors), vjp=vjp, jvp=jvp)


def kernel_slice(w: Tensor, start: int, stop: int) -> Tensor:
    """Input channels ``start:stop`` of a C_out x C_in x k x k kernel, so that
    one stored kernel can convolve a concatenated input part by part."""
    if w.data.ndim != 4:
        raise ValueError(
            f"kernel_slice: kernel must be C_out x C_in x k x k, got {w.data.shape}")
    if not 0 <= start < stop <= w.data.shape[1]:
        raise ValueError(
            f"kernel_slice: channels {start}:{stop} out of range for {w.data.shape[1]}")
    shape, dtype = w.data.shape, w.data.dtype
    out = Tensor(w.data[:, start:stop])

    def vjp(g, need):
        dw = np.zeros(shape, dtype=dtype)
        dw[:, start:stop] = g
        return (dw,)

    return _record(out, (w,), vjp=vjp, jvp=lambda t: t[0][:, start:stop])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix products of two equally long stacks of matrices."""
    if a.data.ndim != 3 or b.data.ndim != 3:
        raise ValueError(
            f"matmul expects two stacks of matrices, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[0] != b.data.shape[0]:
        raise ValueError(
            f"matmul: stack sizes differ, {a.data.shape[0]} vs {b.data.shape[0]}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(
            f"matmul: inner dimensions differ, {a.data.shape[-1]} vs {b.data.shape[-2]}")
    _check_same_dtype((a, b), "matmul")
    x, y = a.data, b.data
    return _record(Tensor(x @ y), (a, b),
                   vjp=lambda g, need: (
                       g @ np.swapaxes(y, -1, -2) if need[0] else None,
                       np.swapaxes(x, -1, -2) @ g if need[1] else None),
                   jvp=lambda t: (_z(t[0], x.shape, x.dtype) @ y
                                  + x @ _z(t[1], y.shape, y.dtype)))


# ---------------------------------------------------------------------------
# convolution, pooling, upsampling


def _gather(g: np.ndarray, offsets: list, span: int, c_dst: int) -> Optional[np.ndarray]:
    """The k*k taps of a flat grid, [G x] C x width, stacked into one
    [G x] (k*k*C) x span matrix, or None where a matmul per tap is cheaper.

    Tap (i, j) of the kernel reads the grid ``i * pw + j`` columns ahead,
    where pw is the cell width, so each tap is one contiguous slice; row
    ``t * C + c`` of the stack is channel c of tap t.
    Stacking copies k*k*C_src values per column; in exchange the forward
    product and the weight gradient are one matmul each instead of k*k, with
    no sums of C_dst-row partial products.  The copy is a temporary: no
    tape keeps it, so the weight gradient pays one more gather of the grid
    instead of holding k*k copies of the input.  Measured on the model's shapes
    (C_src 16 to 96, C_dst 16 to 32, 8x8 to 64x48), forward plus weight
    gradient favour stacking up to C_src = 1.5 * C_dst and separate matmuls
    beyond.
    """
    if len(offsets) == 1:
        return g[..., :span]
    if 2 * g.shape[-2] > 3 * c_dst:
        return None
    return np.concatenate([g[..., o:o + span] for o in offsets], axis=-2)


def _tap_sum(mats: np.ndarray, g: Optional[np.ndarray], cols: Optional[np.ndarray],
             offsets: list, span: int) -> np.ndarray:
    """sum_t mats[t] @ g[:, o_t:o_t + span] for k*k tap matrices C_dst x C_src,
    from the gathered taps ``cols`` when there are any, else tap by tap.  A
    group axis in front of the taps or of the grid runs through ``np.matmul``,
    which makes each group's product the one its own call would make."""
    kk, c_dst, c_src = mats.shape[-3:]
    if cols is not None:
        return np.matmul(mats.swapaxes(-3, -2).reshape(mats.shape[:-3] + (c_dst, kk * c_src)),
                         cols)
    y = np.matmul(mats[..., 0, :, :], g[..., :span])
    for t, o in enumerate(offsets[1:], start=1):
        y += np.matmul(mats[..., t, :, :], g[..., o:o + span])
    return y


def conv2d(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """Same-size cross-correlation of an N x C_in x H x W batch with a
    C_out x C_in x k x k kernel at stride 1: the input is zero-padded by
    k // 2 on every side, so the output keeps its H x W.

    A kernel with a leading group axis, G x C_out x C_in x k x k, runs G such
    convolutions in one node, each group's output the one a conv2d call with
    its kernel would give: of one N x C_in x H x W batch that every group
    reads, or of a G x N x C_in x H x W stack, a batch per group.  The output
    is G x N x C_out x H x W, and a bias is G x C_out.

    The padded input is laid out once as a channel-major flat grid shared by
    the whole batch (and by every group that reads it), where every kernel
    tap is a contiguous slice: a 1x1 convolution is one matmul, and a k x k
    one is a single matmul over the stacked taps or one matmul per tap,
    whichever the channel counts make cheaper.  The recorded node keeps the
    grid, so that no replay lays out the input again, and the kernel array;
    stacked taps are a temporary of the forward product, and a replay that
    needs them (the weight gradient, the JVP's weight-tangent term) gathers
    them from the grid again, so a tape holds about 1/k^2 of what keeping
    them would cost.
    """
    if w.data.ndim not in (4, 5):
        raise ValueError(
            f"conv2d: kernel must be [G x] C_out x C_in x k x k, got {w.data.shape}")
    groups = w.data.shape[:-4]           # () or (G,)
    if x.data.ndim not in ((4, 5) if groups else (4,)):
        raise ValueError(
            f"conv2d: input must be {'NxCxHxW or GxNxCxHxW' if groups else 'NxCxHxW'}"
            f" for a kernel of shape {w.data.shape}, got shape {x.data.shape}")
    stacked = x.data.ndim == 5           # a batch per group
    if stacked and x.data.shape[0] != groups[0]:
        raise ValueError(
            f"conv2d: input has {x.data.shape[0]} groups but kernel has {groups[0]}")
    cout, cin_k, kh, kw = w.data.shape[-4:]
    cin, h, wd = x.data.shape[-3:]
    if kh != kw:
        raise ValueError(f"conv2d: kernel must be square, got {kh}x{kw}")
    if kh % 2 != 1:
        raise ValueError(f"conv2d: kernel size {kh} must be odd")
    if cin_k != cin:
        raise ValueError(f"conv2d: input has {cin} channels but kernel expects {cin_k}")
    if b is not None and b.data.shape != groups + (cout,):
        raise ValueError(f"conv2d: bias shape {b.data.shape} != {groups + (cout,)}")
    _check_same_dtype((x, w) if b is None else (x, w, b), "conv2d")
    k, p = kh, kh // 2
    n = x.data.shape[-4]
    # the flat grid: sample i fills the top-left h x wd corner of the i-th
    # (h + p) x (wd + p) cell, the cells start ``lead`` columns in and end as
    # many before the grid does, and everything else is zero.  The zero rows
    # and columns that close each cell pad its sample below and to the right
    # and, read across the row or cell boundary, the next one above and to
    # the left.
    ph, pw = h + p, wd + p
    span = n * ph * pw
    lead = p * (pw + 1)                  # output (0, 0) reads from row -p, column -p
    offsets = [i * pw + j for i in range(k) for j in range(k)]     # the last is 2 * lead

    def to_grid(a):                      # a [G x] N x C x H x W array on the grid
        a = a.swapaxes(-4, -3)
        if p == 0:
            return a.reshape(a.shape[:-3] + (span,))
        g = np.zeros(a.shape[:-3] + (span + 2 * lead,), dtype=a.dtype)
        g[..., lead:lead + span].reshape(a.shape[:-3] + (n, ph, pw))[..., :h, :wd] = a
        return g

    def from_grid(y, bias=None):         # the input-shaped corners of a [G x] C x span grid
        res = np.ascontiguousarray(
            y.reshape(y.shape[:-1] + (n, ph, pw))[..., :h, :wd].swapaxes(-4, -3))
        if bias is not None:
            res += bias[..., None, :, None, None]
        return res

    grid = to_grid(x.data)

    ga = (0,) if groups else ()          # the group axis stays in front
    g0 = len(ga)
    taps_order = ga + (g0 + 2, g0 + 3, g0, g0 + 1)

    def taps_of(wt):                     # [G x] C_out x C_in x k x k -> [G x] k*k x C_out x C_in
        return wt.transpose(taps_order).reshape(groups + (k * k, cout, cin))

    kern, dtype, has_bias = w.data, x.data.dtype, b is not None
    mats = taps_of(kern)
    out = Tensor(from_grid(_tap_sum(mats, grid, _gather(grid, offsets, span, cout),
                                    offsets, span),
                           b.data if has_bias else None))

    def vjp(g, need):
        # the input gradient is the same correlation, run on the output
        # gradient with the flipped, transposed kernel.  It comes first, so
        # that its gathered taps are freed before the weight gradient
        # gathers the input's again: in the other order glibc trimmed and
        # refaulted the heap, about 10k minor page faults a training pass
        ggrid = to_grid(g)
        gg = ggrid[..., lead:lead + span]
        dx = dw = None
        if need[0]:
            mats_adj = kern[..., ::-1, ::-1].transpose(ga + (g0 + 2, g0 + 3, g0 + 1, g0)).reshape(
                groups + (k * k, cin, cout))
            if groups and not stacked:
                # every group read the same input: one correlation over the
                # groups' output channels sums their input gradients
                mats_adj = mats_adj.transpose(1, 2, 0, 3).reshape(k * k, cin, -1)
                ggrid = ggrid.reshape(-1, ggrid.shape[-1])
            dx = from_grid(_tap_sum(mats_adj, ggrid, _gather(ggrid, offsets, span, cin),
                                    offsets, span))
        if need[1]:
            cols = _gather(grid, offsets, span, cout)
            if cols is not None:
                dw = np.matmul(gg, cols.swapaxes(-1, -2)).reshape(
                    groups + (cout, k, k, cin)).transpose(ga + (g0, g0 + 3, g0 + 1, g0 + 2))
            else:
                dw = np.stack([np.matmul(gg, grid[..., t:t + span].swapaxes(-1, -2))
                               for t in offsets], axis=-3).reshape(
                    groups + (k, k, cout, cin)).transpose(taps_order)
        if has_bias:
            return dx, dw, g.sum(axis=(-4, -2, -1))
        return dx, dw

    def jvp(t):
        dx, dw = t[0], t[1]
        acc = np.zeros(groups + (cout, span), dtype=dtype)
        if dx is not None:
            dgrid = to_grid(dx)
            acc += _tap_sum(mats, dgrid, _gather(dgrid, offsets, span, cout), offsets, span)
        if dw is not None:
            acc += _tap_sum(taps_of(dw), grid, _gather(grid, offsets, span, cout),
                            offsets, span)
        return from_grid(acc, t[2] if has_bias else None)

    return _record(out, (x, w, b) if has_bias else (x, w), vjp=vjp, jvp=jvp)


def avg_pool2(x: Tensor) -> Tensor:
    """2x2 average pooling with stride 2 of an N x C x H x W batch; spatial
    dims must be even."""
    if x.data.ndim != 4:
        raise ValueError(f"avg_pool2: input must be NxCxHxW, got shape {x.data.shape}")
    h, w = x.data.shape[2:]
    if h % 2 or w % 2:
        raise ValueError(f"avg_pool2: spatial size {h}x{w} not divisible by 2")

    def fwd(d):
        return 0.25 * (d[..., 0::2, 0::2] + d[..., 1::2, 0::2]
                       + d[..., 0::2, 1::2] + d[..., 1::2, 1::2])

    def vjp(g, need):
        return (0.25 * np.repeat(np.repeat(g, 2, axis=2), 2, axis=3),)

    return _record(Tensor(fwd(x.data)), (x,), vjp=vjp, jvp=lambda t: fwd(t[0]))


def _at(axis: int, start, stop, step=None) -> tuple:
    """Index of the slice start:stop:step along ``axis``."""
    return (slice(None),) * axis + (slice(start, stop, step),)


def _up_axis(x: np.ndarray, axis: int) -> np.ndarray:
    near, far = 0.75 * x, 0.25 * x
    n = x.shape[axis]
    y = np.empty(x.shape[:axis] + (2 * n,) + x.shape[axis + 1:], dtype=x.dtype)
    # output 2i is 0.25 x[i-1] + 0.75 x[i], with x[-1] clamped to x[0]
    np.add(far[_at(axis, None, -1)], near[_at(axis, 1, None)], out=y[_at(axis, 2, None, 2)])
    np.add(far[_at(axis, 0, 1)], near[_at(axis, 0, 1)], out=y[_at(axis, 0, 1)])
    # output 2i+1 is 0.75 x[i] + 0.25 x[i+1], with x[n] clamped to x[n-1]
    np.add(near[_at(axis, None, -1)], far[_at(axis, 1, None)], out=y[_at(axis, 1, -1, 2)])
    np.add(near[_at(axis, -1, None)], far[_at(axis, -1, None)], out=y[_at(axis, -1, None)])
    return y


def _up_last(x: np.ndarray) -> np.ndarray:
    """``_up_axis`` on the last axis, byte for byte, as long 1-D adds: over
    the flattened rows each even output slot 2i takes far[i-1] + near[i] and
    each odd one near[i] + far[i+1], and one strided add per row edge then
    puts the clamped taps in the first even and the last odd slot."""
    near, far = 0.75 * x, 0.25 * x
    n = x.shape[-1]
    y = np.empty(x.shape[:-1] + (2 * n,), dtype=x.dtype)
    flat, nf, ff = y.reshape(-1), near.ravel(), far.ravel()
    np.add(ff[:-1], nf[1:], out=flat[2::2])
    np.add(nf[:-1], ff[1:], out=flat[1:-1:2])
    np.add(far[..., 0], near[..., 0], out=y[..., 0])
    np.add(near[..., -1], far[..., -1], out=y[..., -1])
    return y


def _up_axis_adj(g: np.ndarray, axis: int) -> np.ndarray:
    # the transposed stencil: x[i] takes 0.75 of outputs 2i and 2i+1 and 0.25
    # of outputs 2i-1 and 2i+2; at the edges the clamped taps land on x[0]
    # and x[n-1]
    even, odd = g[_at(axis, 0, None, 2)], g[_at(axis, 1, None, 2)]
    x = 0.75 * (even + odd)
    x[_at(axis, None, -1)] += 0.25 * even[_at(axis, 1, None)]
    x[_at(axis, 1, None)] += 0.25 * odd[_at(axis, None, -1)]
    x[_at(axis, 0, 1)] += 0.25 * even[_at(axis, 0, 1)]
    x[_at(axis, -1, None)] += 0.25 * odd[_at(axis, -1, None)]
    return x


def upsample2(x: Tensor) -> Tensor:
    """2x bilinear upsampling of an N x C x H x W batch (align_corners=False,
    edges clamped): the two-tap stencil 0.25/0.75 along rows, then along
    columns."""
    if x.data.ndim != 4:
        raise ValueError(f"upsample2: input must be NxCxHxW, got shape {x.data.shape}")

    def fwd(d):
        return _up_last(_up_axis(d, 2))

    def vjp(g, need):
        return (_up_axis_adj(_up_axis_adj(g, 3), 2),)

    return _record(Tensor(fwd(x.data)), (x,), vjp=vjp, jvp=lambda t: fwd(t[0]))


# ---------------------------------------------------------------------------
# linearization for matrix-free Jacobian products


class Linearization:
    """Jacobian products of a residual map at a fixed linearization point.

    Records ``residual_fn()``, the residual tensor that it returns, once on a
    private tape as ``output`` and plans its replay once; ``jvp`` and ``vjp``
    then walk only the nodes between the parameters and the residual to form
    J v and J^T u without materializing J.  Nodes recorded after the residual
    (such as a loss formed from it) or off every path from the parameters are
    never replayed.
    """

    def __init__(self, residual_fn: Callable, params: Sequence[Tensor]):
        self.params = list(params)
        with Tape() as tape:
            self.output: Tensor = residual_fn()
        self.tape = tape
        self.plan = tape.plan(self.params, self.output)

    def value(self) -> np.ndarray:
        return self.output.data

    def jvp(self, tangents: Sequence[np.ndarray]) -> np.ndarray:
        """J v: push parameter tangents, cast to their parameter's dtype,
        through to the residual."""
        if len(tangents) != len(self.params):
            raise ValueError(f"expected {len(self.params)} tangents, got {len(tangents)}")
        tans: dict[int, np.ndarray] = {}
        for w, t in zip(self.params, tangents):
            t = np.asarray(t, dtype=w.data.dtype)
            if t.shape != w.data.shape:
                raise ValueError(f"tangent shape {t.shape} != leaf shape {w.data.shape}")
            tans[w.key] = t
        for node, need in self.plan:
            tans[node.out] = node.jvp(
                [tans[k] if n else None for k, n in zip(node.inputs, need)])
        return tans.get(self.output.key, np.zeros_like(self.output.data))

    def vjp(self, cotangent: np.ndarray) -> list[np.ndarray]:
        """J^T u: pull a residual cotangent, cast to the residual's dtype,
        back to the parameters; pure, grad is untouched."""
        out = self.output
        cot = np.asarray(cotangent, dtype=out.data.dtype)
        if cot.shape != out.data.shape:
            raise ValueError(f"cotangent shape {cot.shape} != output shape {out.data.shape}")
        grads = _pull(self.plan, {out.key: cot.copy()})
        return [grads.get(w.key, np.zeros_like(w.data)) for w in self.params]
