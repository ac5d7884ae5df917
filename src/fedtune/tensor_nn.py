"""Dense numpy kernel with reverse-mode differentiation.

Deliberately small: exactly the operations a compact transformer encoder
with bottleneck adapters needs. The kernel has no precision of its own: it
follows the dtype of its inputs, so a float32 model computes in float32
(as ``model.build_model`` builds it, the precision the wire charges) and a
double-precision graph, as the gradient checks build, stays in double
precision through ``backward``. Reductions run in a fixed order, so
repeated runs on the same inputs are bit-identical. A forward pass records
backward closures only above the deepest value that requires a gradient;
everything below is plain numpy.

An op may return a view: ``reshape`` and ``transpose`` share memory with
their input, forward and backward, and a gradient handed on may be a view
of the upstream gradient. So an op writes in place only into arrays it
allocated in the same call or, recording no graph, into an owned input it
consumes: never into a parameter, its upstream gradient or an array it has
handed on, any of which may alias another node's data. Recording no
graph, ``bmm`` multiplies the transposed keys of attention as the strided
view they are: a product whose left operand has several rows runs through
the matrix-matrix kernel, which gives the bits of the keys' contiguous copy
(checked on OpenBLAS's SkylakeX, Haswell, Zen and Prescott kernels). A
strided right operand is copied to contiguous memory first against a
one-row left operand, such as the pooled top layer's [B, h, 1, d] query,
because numpy runs that product through a matrix-vector kernel, which sums
a strided view in another order than contiguous keys; and in a recording
``bmm``, because the query gradient formed against the view's transpose
differs from the copy's in the last bits on SkylakeX. A left operand or an
upstream gradient whose last axis is not unit-stride is always copied.

Recording no graph, an op takes leading *stack* axes in front of its usual
operand: several same-shape batches in one pass, as ``model.PrefixStore``
builds them. ``linear_forward`` treats the last three axes as one [B, S, k]
batch and runs one GEMM per stacked batch over that batch's rows, exactly
the BLAS call of the batch on its own; every other op works row by row or
over the last axes, so each stacked batch keeps the bits of its own pass.
A recording ``linear_forward`` refuses a stacked input.

An op that records no graph returns the array it allocated as *owned*
(``Tensor.owned``): no other tensor or closure shares it. Recording no
graph, ``add``, ``relu``, ``layer_norm`` and ``softmax_lastdim`` write
their result into an owned input of the result's shape and dtype, and that
input is consumed: its ``data`` is deleted, so reading it again raises
``AttributeError``. A view
(``reshape``, ``transpose``) and a closure that saves an input's array
(``linear_forward``, ``bmm``) clear that input's ownership, so a shared
array is never written. A parameter, and an array a caller wraps in a
``Tensor`` (such as a read-only ``model.PrefixStore`` chunk), is never
owned. So a frozen layer body holds about one activation per sublayer.
Each in-place op runs the same elementwise instructions on the same
operands as its allocating form, so the bits are those of the same ops
recording a graph; a recording op never writes into an input.

A ``Tensor`` is a value; only a value that takes part in a graph has a
``Node``. A ``Parameter`` is a leaf ``Tensor`` with a name and a
``trainable`` flag, built with a node exactly when it is trainable; it is
never owned, so no graph-free op consumes it. A leaf's node (a trainable
parameter, or an input created with ``requires_grad``) holds the
``requires_grad`` flag and the gradient that backward leaves there. An
op's node holds its parents' nodes and its backward closure, and no node
links back to a tensor. A closure captures parent nodes, the arrays it
reads (a softmax its output, a layer norm its normalised rows, a linear
map its flattened input and its weight) and the shapes and dtypes it
needs, never a parent ``Tensor``. So a value no backward reads, such as
the attention scores before the softmax or a residual sum before its
layer norm, is freed as soon as the forward drops its last reference to
it, as under the usual saved-tensor rule; a value a closure reads lives
until that closure has run.

A closure saves an array only when backward cannot rebuild it, bit for bit
and by elementwise work alone, from arrays the graph already holds. A
ReLU's closure keeps its output, which the linear map after it keeps
anyway, and reads its mask off it (``out > 0``). A recording layer norm's
node carries a ``recompute`` of its output: the forward's own two ops,
``xhat * gain`` then ``+= shift``, on the normalised rows its closure
keeps. A linear map that reads such an output keeps that recompute
instead, and rebuilds its input only to form the weight gradient. So a
training graph keeps each activation once. Bit identity rests on one
invariant, which a linear map's saved weight relies on too: a
parameter's array does not change between a forward pass and its
backward (``sgd_step`` writes only after ``backward`` has run).

A recorded graph is consumed once, as in the usual autograd rule: as
``Tensor.backward`` walks it, each node with parents gives up its gradient,
its closure (and with it the arrays the closure saved), its recompute and
its parent links once its closure has run. Peak memory during backward is
thus close to one step's working set. Only leaves (parameters, and inputs
created with ``requires_grad``) keep their gradients; a second
``backward()`` through a consumed graph raises ``TrainingError``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    DataError,
    ShapeError,
    TrainingError,
)

Array = np.ndarray


class SeededRng:
    """Deterministic PCG64 stream with stable string-keyed substreams.

    A fixed, named bit generator (not the platform default) so that a seed
    reproduces the same stream on every machine. ``spawn`` derives an
    independent child stream from a label, which lets one session seed
    drive many decoupled consumers without ordering hazards.
    """

    ALGORITHM = "pcg64"

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def spawn(self, tag: str) -> "SeededRng":
        digest = hashlib.sha256(f"{self.seed}:{tag}".encode()).digest()
        return SeededRng(int.from_bytes(digest[:8], "little"))

    def normal(self, mean: float, std: float, shape) -> Array:
        return self._gen.normal(mean, std, shape)

    def uniform(self, low: float, high: float, shape=None):
        return self._gen.uniform(low, high, shape)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def permutation(self, n_or_seq):
        return self._gen.permutation(n_or_seq)

    def dirichlet(self, alpha: Sequence[float], size: int | None = None) -> Array:
        """One draw of shape [len(alpha)], or ``size`` rows that read the
        stream exactly as ``size`` single draws in a row do."""
        return self._gen.dirichlet(np.asarray(alpha, dtype=np.float64), size)

    def choice_index(self, probabilities: Array, size: int | tuple[int, ...]) -> Array:
        """Sample indices of shape ``size`` from a categorical distribution.

        One uniform draw per index, in C order: a block of shape (k, n)
        reads the stream exactly as k calls with size n do. Each draw u
        maps to ``np.searchsorted(cdf, u, side="right")``, found through a
        table of power-of-two buckets and a fix-up that advances past
        every cdf value <= u (``cdf_index``).
        """
        cdf = np.cumsum(probabilities)
        cdf /= cdf[-1]
        return cdf_index(cdf, self._gen.random(size))


def cdf_index(cdf: Array, uniforms: Array) -> Array:
    """``np.searchsorted(cdf, uniforms, side="right")``, through a bucket table.

    ``cdf`` is nondecreasing and every uniform lies in [0, 1). The table
    has K buckets, K the least power of two above the number of
    categories, and bucket k starts at the count of cdf values <= k / K.
    A draw u starts at its bucket, k = floor(u * K); K is a power of two,
    so u * K and k / K are exact and k / K <= u holds, and the start never
    passes the answer. The fix-up then advances each draw past every cdf
    value <= u, which an ``inf`` after the last value stops. So every
    draw gets the count of cdf values <= u, searchsorted's answer,
    zero-probability categories (repeated cdf values) included.
    """
    buckets = 1 << cdf.size.bit_length()
    table = np.searchsorted(cdf, np.arange(buckets) / buckets, side="right")
    bounds = np.append(cdf, np.inf)
    index = table.take((uniforms * buckets).astype(np.intp))
    while True:
        step = bounds.take(index) <= uniforms
        if not step.any():
            return index
        index += step


class Node:
    """What the backward graph keeps of one value: never the value itself.

    A leaf's node (a parameter, or an input created with ``requires_grad``)
    has no parents and holds the gradient that ``backward`` leaves there. An
    op's node holds its parents' nodes and its backward closure, which
    captures only the arrays and shapes it reads; ``parents`` becomes
    ``None`` once ``Tensor.backward`` has consumed the node. ``recompute``,
    set only by a recording ``layer_norm``, rebuilds the value bit for bit
    from arrays the node's closure already holds, so a consumer's closure
    may keep it instead of the value (see the module docstring).
    """

    __slots__ = ("requires_grad", "grad", "parents", "bwd", "recompute")

    def __init__(self, parents: tuple["Node", ...] = (),
                 bwd: Callable[[Array], None] | None = None):
        self.requires_grad = True
        self.grad: Array | None = None
        self.parents: tuple[Node, ...] | None = parents
        self.bwd = bwd
        self.recompute: Callable[[], Array] | None = None


class Tensor:
    """A value (row-major), with a ``Node`` only if it takes part in a graph.

    A floating array keeps its dtype, and every op's output and gradient
    follow it: the model is float32 (``model.build_model``). Anything else
    (integers, bools, Python numbers and lists) is stored in double
    precision. No node links back to its tensor, so the array is freed when
    the last tensor or closure holding it goes.

    ``owned`` marks an array a graph-free op allocated, which the next
    graph-free op may consume (see the module docstring).
    """

    __slots__ = ("data", "node", "owned")

    def __init__(self, data, requires_grad: bool = False):
        if type(data) is not np.ndarray:
            data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
        self.node: Node | None = Node() if requires_grad else None
        self.owned = False

    @property
    def requires_grad(self) -> bool:
        return self.node is not None and self.node.requires_grad

    @requires_grad.setter
    def requires_grad(self, flag: bool) -> None:
        if self.node is not None:
            self.node.requires_grad = bool(flag)
        elif flag:
            self.node = Node()

    @property
    def grad(self) -> Array | None:
        return None if self.node is None else self.node.grad

    @grad.setter
    def grad(self, value: Array | None) -> None:
        if self.node is None:
            if value is None:
                return
            self.node = Node()
            self.node.requires_grad = False
        self.node.grad = value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(()))

    def backward(self) -> None:
        """Backpropagate from a scalar through the recorded graph.

        The traversal order is fully determined by graph construction
        order, so gradient accumulation is reproducible bit for bit.

        Leaves are not walked: they have no closure to run, and leaving
        them out keeps the order of every other node. The graph is
        consumed: once a node's closure has run, the node drops its
        gradient, its closure, its recompute and its parent links, so only
        leaves (parameters, and inputs created with ``requires_grad``) hold
        gradients afterwards. Calling ``backward()`` again through a
        consumed node raises ``TrainingError``; rebuild the graph with a
        fresh forward pass instead.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar, got shape {self.data.shape}")
        topo: list[Node] = []
        visited: set[int] = set()
        stack = [(self.node, False)] if self.node is not None else []
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node.parents is None:
                raise TrainingError(
                    "backward() through a graph an earlier backward() already consumed")
            visited.add(id(node))
            stack.append((node, True))
            for parent in node.parents:
                # a leaf's parents are (); a consumed node's are None and raise above
                if parent.parents != () and id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if not node.parents:
                continue
            if node.grad is not None:
                node.bwd(node.grad)
            node.grad = node.bwd = node.parents = node.recompute = None


class Parameter(Tensor):
    """A leaf ``Tensor`` with a name and a trainability flag, never owned.

    It is built with a node exactly when it is trainable
    (``requires_grad``). A non-trainable parameter never receives a
    gradient and is never touched by an optimizer step; its bytes stay
    fixed for the whole session.
    """

    __slots__ = ("trainable", "name")

    def __init__(self, data, trainable: bool, name: str):
        super().__init__(data, requires_grad=trainable)
        self.trainable = trainable
        self.name = name


make_parameter = Parameter  # kept by name: bench/kernels.py calls it


def _grad_node(t: Tensor) -> Node | None:
    """The node an op's closure accumulates into: ``None`` unless ``t`` needs its gradient."""
    node = t.node
    return node if node is not None and node.requires_grad else None


def _owned(data: Array) -> Tensor:
    """A graph-free op's output: an array the op allocated, which the next op may consume."""
    out = Tensor(data)
    out.owned = True
    return out


def _consume(t: Tensor, other: Array | None = None) -> Array | None:
    """``t``'s array, for a graph-free op to write its result into, if ``t`` owns it.

    A unary op's result has its input's shape and dtype. For an op on ``t``
    and ``other``, ``other`` must have ``t``'s dtype and broadcast into
    ``t`` over leading axes. ``t`` is consumed: its ``data`` is deleted, so
    reading it again raises ``AttributeError``.
    """
    if not t.owned:
        return None
    data = t.data
    if other is not None and (other.dtype != data.dtype or other.ndim > data.ndim
                              or other.shape != data.shape[data.ndim - other.ndim:]):
        return None
    del t.data
    t.owned = False
    return data


def _recorded(data: Array, parents: Iterable[Node | None], bwd: Callable[[Array], None]) -> Tensor:
    """An op's output: its array, with a node linking the parents that need a gradient."""
    out = Tensor(data)
    # from a list: tuple() of a generator shrinks an over-sized tuple, and
    # freed shrunk tuples pile up in the interpreter's small-tuple free lists
    out.node = Node(tuple([p for p in parents if p is not None]), bwd)
    return out


def _accumulate(target: Node, grad: Array) -> None:
    if not target.requires_grad:
        return
    if target.grad is None:
        target.grad = grad
    else:
        target.grad = target.grad + grad


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Reduce a broadcast gradient back to ``shape`` (fixed sum order)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    """``a + b``; recording no graph, into ``a``'s or else ``b``'s owned array if it fits."""
    a_data, b_data = a.data, b.data
    na, nb = _grad_node(a), _grad_node(b)
    if na is None and nb is None:
        out = _consume(a, b_data)
        if out is None:
            out = _consume(b, a_data)
        return _owned(np.add(a_data, b_data, out=out))
    out_data = a_data + b_data
    a_shape, b_shape = a_data.shape, b_data.shape

    def bwd(dout: Array) -> None:
        if na is not None:
            _accumulate(na, _unbroadcast(dout, a_shape))
        if nb is not None:
            _accumulate(nb, _unbroadcast(dout, b_shape))
    return _recorded(out_data, (na, nb), bwd)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    """``x`` in ``shape``: a view where numpy can give one (see the module docstring)."""
    out_data = x.data.reshape(shape)
    x.owned = False
    nx = _grad_node(x)
    if nx is None:
        return Tensor(out_data)
    x_shape = x.data.shape

    def bwd(dout: Array) -> None:
        _accumulate(nx, dout.reshape(x_shape))
    return _recorded(out_data, (nx,), bwd)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    """``x`` with its axes permuted, as a view, forward and backward."""
    out_data = x.data.transpose(axes)
    x.owned = False
    nx = _grad_node(x)
    if nx is None:
        return Tensor(out_data)
    inverse = sorted(range(len(axes)), key=axes.__getitem__)

    def bwd(dout: Array) -> None:
        _accumulate(nx, dout.transpose(inverse))
    return _recorded(out_data, (nx,), bwd)


def relu(x: Tensor) -> Tensor:
    """``x`` with its negative entries zeroed; recording no graph, into ``x``'s owned array.

    The closure keeps the output, which the linear map after it keeps too,
    not the mask: backward reads the mask as ``out > 0``. ``x * (x > 0)``
    is positive exactly where ``x`` is, NaN and infinities included, so
    that is the forward's mask bit for bit.
    """
    x_data = x.data
    mask = x_data > 0.0
    nx = _grad_node(x)
    if nx is None:
        return _owned(np.multiply(x_data, mask, out=_consume(x)))
    out_data = x_data * mask

    def bwd(dout: Array) -> None:
        _accumulate(nx, dout * (out_data > 0.0))
    return _recorded(out_data, (nx,), bwd)


def linear_forward(x: Tensor, w: Parameter, b: Parameter) -> Tensor:
    """Affine map ``x @ W + b`` over the last axis of ``x``.

    The last three axes of ``x`` are one [B, S, k] batch (or ``x`` is one
    [B, k] batch), multiplied as one GEMM over its rows. Recording no graph,
    ``x`` may stack such batches on leading axes: one GEMM per stacked
    batch, each the call that batch makes on its own, so a stacked pass
    gives every batch its own bits (see the module docstring). Recording a
    graph, a stacked input is a ``ShapeError``.

    The closure keeps the flattened input only if the weight needs its
    gradient (then ``x`` is no longer owned: that may be its array), and the
    weight only if the input does. An input whose node can recompute it (a
    recording ``layer_norm``'s output) is not kept: the closure keeps the
    recompute and rebuilds the input, bit for bit, only to form the weight
    gradient. The result is one fresh array (``base`` is ``None``), so a
    caller that keeps it, as ``model.PrefixStore`` does, pins nothing larger.
    """
    if x.data.shape[-1] != w.data.shape[0]:
        raise ShapeError(
            f"linear: input shape {x.data.shape} incompatible with weight shape {w.data.shape}"
        )
    if b.data.shape != (w.data.shape[1],):
        raise ShapeError(
            f"linear: bias shape {b.data.shape} incompatible with weight shape {w.data.shape}"
        )
    x_shape = x.data.shape
    nx, nw, nb = _grad_node(x), _grad_node(w), _grad_node(b)
    stack = x_shape[:-3]
    if stack and not (nx is None and nw is None and nb is None):
        raise ShapeError(f"linear: a recording pass takes one batch, got a stack {x_shape}")
    # [stack, rows of one batch, k]: numpy's matmul runs one GEMM per stacked batch
    x3 = np.ascontiguousarray(x.data.reshape(
        math.prod(stack), math.prod(x_shape[len(stack):-1]), w.data.shape[0]))
    out_data = np.empty((*x_shape[:-1], w.data.shape[1]), np.result_type(x3, w.data))
    out3 = np.matmul(x3, w.data, out=out_data.reshape(*x3.shape[:2], w.data.shape[1]))
    out3 += b.data
    if nx is None and nw is None and nb is None:
        return _owned(out_data)
    x2, out2 = x3[0], out3[0]
    out2_shape, x2_shape = out2.shape, x2.shape
    rebuild_x = nx.recompute if nx is not None and nw is not None else None
    saved_x2 = x2 if nw is not None and rebuild_x is None else None
    if saved_x2 is not None:
        x.owned = False  # x2 may be x's own array
    saved_w = w.data if nx is not None else None

    def bwd(dout: Array) -> None:
        d2 = np.ascontiguousarray(dout.reshape(out2_shape))
        if nw is not None:
            rows = saved_x2 if rebuild_x is None else rebuild_x().reshape(x2_shape)
            _accumulate(nw, rows.T @ d2)
        if nb is not None:
            _accumulate(nb, d2.sum(axis=0))
        if nx is not None:
            _accumulate(nx, np.ascontiguousarray((d2 @ saved_w.T).reshape(x_shape)))
    return _recorded(out_data, (nx, nw, nb), bwd)


def layer_norm(x: Tensor, gain: Parameter, shift: Parameter, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to mean 0 / variance 1, then apply gain/shift.

    Population variance; ``eps`` guards constant rows. Row means are
    ``np.add.reduce`` over the row divided by its length: the same sum
    ``.mean`` takes and the same correctly rounded quotient, without its
    per-call overhead. With no graph to record (the frozen prefix,
    evaluation) the rows are centred in ``x``'s array if ``x`` is owned,
    and the normalised rows take the gain and shift in place.
    The closure keeps the normalised rows and their inverse deviations,
    not the input. Recording, the node's ``recompute`` rebuilds the output
    from the normalised rows, gain and shift by the forward's own two ops,
    so a linear map that reads the output need not keep it.
    """
    nx, ng, nb = _grad_node(x), _grad_node(gain), _grad_node(shift)
    graph_free = nx is None and ng is None and nb is None
    x_data = x.data
    n = x_data.shape[-1]
    xhat = np.subtract(x_data, np.add.reduce(x_data, axis=-1, keepdims=True) / n,
                       out=_consume(x) if graph_free else None)
    inv = np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / n
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    if graph_free:
        xhat *= gain.data
        xhat += shift.data
        return _owned(xhat)
    g_data, b_data = gain.data, shift.data

    def recompute() -> Array:
        out = xhat * g_data
        out += b_data
        return out

    def bwd(dout: Array) -> None:
        if ng is not None:
            _accumulate(ng, (dout * xhat).reshape(-1, n).sum(axis=0))
        if nb is not None:
            _accumulate(nb, dout.reshape(-1, n).sum(axis=0))
        if nx is not None:
            dxhat = dout * g_data
            mean_dxhat = np.add.reduce(dxhat, axis=-1, keepdims=True) / n
            mean_dxhat_xhat = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / n
            along_xhat = xhat * mean_dxhat_xhat
            dxhat -= mean_dxhat
            dxhat -= along_xhat
            dxhat *= inv
            _accumulate(nx, dxhat)
    out = _recorded(recompute(), (nx, ng, nb), bwd)
    out.node.recompute = recompute
    return out


def _row_max(a: Array) -> Array:
    """Max over the last axis (kept as length 1), in one ``np.maximum.reduce`` pass.

    The rows become the outer axis of one transposed copy, so the reduce
    runs as elementwise maxima over whole contiguous slices. A max is
    exact, so the bits are those of ``a.max(axis=-1)``.
    """
    rows_outer = np.ascontiguousarray(a.transpose(-1, *range(a.ndim - 1)))
    return np.maximum.reduce(rows_outer, axis=0)[..., None]


def softmax_lastdim(x: Tensor, factor: float = 1.0) -> Tensor:
    """Softmax over the last axis of ``factor * x``.

    ``factor`` is attention's score scale 1/sqrt(d). It scales the input
    before the max is taken, and the input gradient after, with the same
    roundings as a separate scaling op, so the bits are those of
    softmax(scale(x)) forward and backward. The closure keeps the output,
    not the scores. Recording no graph, it runs in ``x``'s owned array.
    """
    x_data = x.data
    nx = _grad_node(x)
    y = np.multiply(x_data, factor, out=_consume(x) if nx is None else None)
    y -= _row_max(y)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    if nx is None:
        return _owned(y)

    def bwd(dout: Array) -> None:
        dx = dout - (dout * y).sum(axis=-1, keepdims=True)
        dx *= y
        dx *= factor
        _accumulate(nx, dx)
    return _recorded(y, (nx,), bwd)


def _unit_stride_rows(a: Array) -> Array:
    """``a`` itself if its last axis is unit-stride, else a contiguous copy (see ``bmm``)."""
    return a if a.strides[-1] == a.itemsize else np.ascontiguousarray(a)


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product over the last two axes, over any leading axes.

    Recording no graph, a right operand whose last axis is not unit-stride,
    such as attention's transposed keys, is multiplied as that view when the
    left operand has several rows: the matrix-matrix kernel gives the bits
    of its contiguous copy without the copy. Against a one-row left operand,
    or recording a graph, it is copied to contiguous memory first, so that
    the product and the gradients have the copy's bits (see the module
    docstring). A left operand and an upstream gradient whose last axis is
    not unit-stride are always copied. The closure keeps the operands as
    multiplied, so a copied operand's source is not kept, and the operands
    are no longer owned.
    """
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"bmm: shapes {a.data.shape} and {b.data.shape} do not align")
    na, nb = _grad_node(a), _grad_node(b)
    graph_free = na is None and nb is None
    a_data = _unit_stride_rows(a.data)
    b_data = b.data if graph_free and a_data.shape[-2] > 1 else _unit_stride_rows(b.data)
    out_data = a_data @ b_data
    if graph_free:
        return _owned(out_data)
    a.owned = b.owned = False

    def bwd(dout: Array) -> None:
        dout = _unit_stride_rows(dout)
        if na is not None:
            _accumulate(na, dout @ b_data.swapaxes(-1, -2))
        if nb is not None:
            _accumulate(nb, a_data.swapaxes(-1, -2) @ dout)
    return _recorded(out_data, (na, nb), bwd)


def embedding(table: Parameter, ids: Array) -> Tensor:
    """Row lookup into an embedding table, differentiable w.r.t. the table."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        bad = int(np.argwhere((ids < 0) | (ids >= table.data.shape[0]))[0][0])
        raise DataError(
            f"token id out of range for table of size {table.data.shape[0]} (first bad row {bad})"
        )
    out_data = table.data[ids]
    nt = _grad_node(table)
    if nt is None:
        return _owned(out_data)
    table_shape, dtype = table.data.shape, table.data.dtype

    def bwd(dout: Array) -> None:
        dt = np.zeros(table_shape, dtype)
        np.add.at(dt, ids.reshape(-1), dout.reshape(-1, table_shape[1]))
        _accumulate(nt, dt)
    return _recorded(out_data, (nt,), bwd)


def first_token(x: Tensor) -> Tensor:
    """Pool a [..., B, S, n] sequence batch down to its first position, [..., B, n]."""
    out_data = x.data[..., 0, :].copy()
    nx = _grad_node(x)
    if nx is None:
        return _owned(out_data)
    x_shape, dtype = x.data.shape, x.data.dtype

    def bwd(dout: Array) -> None:
        dx = np.zeros(x_shape, dtype)
        dx[..., 0, :] = dout
        _accumulate(nx, dx)
    return _recorded(out_data, (nx,), bwd)


@dataclass
class AttentionParams:
    """Projection parameters of one self-attention sublayer."""

    wq: Parameter
    bq: Parameter
    wk: Parameter
    bk: Parameter
    wv: Parameter
    bv: Parameter
    wo: Parameter
    bo: Parameter

    def all(self) -> list[Parameter]:
        return [self.wq, self.bq, self.wk, self.bk, self.wv, self.bv, self.wo, self.bo]


def _axes_swapped(ndim: int, axis: int) -> tuple[int, ...]:
    """The axes of an ``ndim``-axis array with ``axis`` (counted from the end) and the next swapped."""
    axes = list(range(ndim))
    axes[axis], axes[axis + 1] = axes[axis + 1], axes[axis]
    return tuple(axes)


def multi_head_attention(x: Tensor, params: AttentionParams, heads: int,
                         query: Tensor | None = None) -> Tensor:
    """Scaled dot-product attention over [B, S, n], no mask.

    Keys and values come from every position of ``x``; queries come from
    ``query`` ([B, Sq, n], default ``x``: self-attention), and the output
    has its shape. Recording no graph, both may stack batches on the same
    leading axes, [..., B, S, n], each batch attending only within itself
    and keeping the bits of its own pass (see the module docstring). The
    transposed keys are multiplied as a view (see ``bmm``).
    """
    query = x if query is None else query
    if x.data.ndim < 3:
        raise ShapeError(f"attention: input shape {x.data.shape} is not [B, S, n]")
    *batch, _, hidden = x.data.shape
    qlen = query.data.shape[-2]
    if query.data.shape != (*batch, qlen, hidden):
        raise ShapeError(f"attention: query shape {query.data.shape} does not match "
                         f"input shape {x.data.shape}")
    if hidden % heads != 0:
        raise ConfigurationError(f"hidden size {hidden} not divisible by {heads} heads")
    head_dim = hidden // heads
    heads_first = _axes_swapped(len(batch) + 3, -3)  # [..., S, h, d] <-> [..., h, S, d]

    def split_heads(t: Tensor) -> Tensor:
        return transpose(reshape(t, (*t.shape[:-1], heads, head_dim)), heads_first)

    # each intermediate is dropped once the next op has read it, and V is
    # projected only after the softmax: a graph-free pass holds the scores
    # (in place, the probabilities) and one [B, S, n] projection at a time
    q = split_heads(linear_forward(query, params.wq, params.bq))
    k = split_heads(linear_forward(x, params.wk, params.bk))
    scores = bmm(q, transpose(k, _axes_swapped(len(batch) + 3, -2)))
    del q, k
    probs = softmax_lastdim(scores, 1.0 / math.sqrt(head_dim))
    del scores
    context = bmm(probs, split_heads(linear_forward(x, params.wv, params.bv)))
    del probs
    merged = reshape(transpose(context, heads_first), (*batch, qlen, hidden))
    del context
    return linear_forward(merged, params.wo, params.bo)


def cross_entropy_loss(logits: Tensor, labels: Array) -> Tensor:
    """Mean negative log-softmax of the true class, max-stabilized."""
    labels = np.asarray(labels, dtype=np.int64)
    batch, num_classes = logits.data.shape
    if labels.shape != (batch,):
        raise ShapeError(f"labels shape {labels.shape} does not match logits {logits.data.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        bad = int(np.argwhere((labels < 0) | (labels >= num_classes))[0][0])
        raise DataError(f"label {int(labels[bad])} out of range for {num_classes} classes (sample {bad})")
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    sum_exp = exp.sum(axis=-1, keepdims=True)
    log_probs = shifted - np.log(sum_exp)
    picked = log_probs[np.arange(batch), labels]
    out_data = np.array(-picked.mean())
    nl = _grad_node(logits)
    if nl is None:
        return _owned(out_data)

    def bwd(dout: Array) -> None:
        dlogits = exp / sum_exp
        dlogits[np.arange(batch), labels] -= 1.0
        _accumulate(nl, dlogits * (float(dout) / batch))
    return _recorded(out_data, (nl,), bwd)


# ---------------------------------------------------------------------------
# optimization and verification
# ---------------------------------------------------------------------------

def sgd_step(params: Iterable[Parameter], lr: float) -> None:
    """In-place ``p -= lr * grad`` on trainable parameters, then clear grads."""
    if lr < 0:
        raise ConfigurationError(f"learning rate must be non-negative, got {lr}")
    for p in params:
        if not p.trainable:
            continue
        if p.grad is None:
            raise TrainingError(f"trainable parameter '{p.name}' has no gradient")
        p.data -= lr * p.grad
        p.grad = None


def clear_grads(params: Iterable[Parameter]) -> None:
    for p in params:
        p.grad = None


def grad_check(
    f: Callable[[], Tensor],
    params: Sequence[Parameter],
    step: float = 1e-5,
    max_coords_per_param: int | None = None,
    rng: SeededRng | None = None,
) -> float:
    """Max relative error of analytic gradients vs. central differences.

    ``f`` must be a deterministic closure rebuilding the loss from the
    current parameter values. Large parameters can be spot-checked on a
    seeded coordinate sample. Returns 0.0 for a model with no trainable
    parameters.
    """
    trainable = [p for p in params if p.trainable]
    if not trainable:
        return 0.0
    loss = f()
    loss.backward()
    analytic = {}
    for p in trainable:
        if p.grad is None:
            raise TrainingError(f"no gradient for '{p.name}' after backward")
        analytic[p.name] = p.grad.copy()
    clear_grads(params)

    # scale-aware floor: coordinates with gradients far below the overall
    # gradient magnitude are compared absolutely, not relatively
    scale = max((float(np.abs(g).max()) for g in analytic.values() if g.size), default=0.0)
    floor = max(1e-3 * scale, 1e-12)
    max_rel = 0.0
    for p in trainable:
        flat = p.data.reshape(-1)
        n = flat.size
        if max_coords_per_param is not None and n > max_coords_per_param:
            if rng is None:
                rng = SeededRng(0)
            coords = sorted(set(int(i) for i in rng.integers(0, n, size=max_coords_per_param)))
        else:
            coords = range(n)
        ga = analytic[p.name].reshape(-1)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + step
            loss_plus = f().item()
            flat[i] = orig - step
            loss_minus = f().item()
            flat[i] = orig
            numeric = (loss_plus - loss_minus) / (2.0 * step)
            rel = abs(ga[i] - numeric) / max(abs(ga[i]) + abs(numeric), floor)
            if rel > max_rel:
                max_rel = rel
    return max_rel
