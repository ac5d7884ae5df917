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
of the upstream gradient. So a differentiable op writes in place only into
arrays it allocated in the same call: never into its inputs, its upstream
gradient or an array it has handed on, any of which may alias another
node's data. ``bmm`` copies an operand to contiguous memory only when its
last axis is not unit-stride (in attention, the transposed keys): numpy
runs a one-row product, such as the pooled top layer's [B, h, 1, d] query,
through a matrix-vector kernel, and against a transposed view that kernel
sums in another order than against contiguous keys. Every other operand
layout the model produces gives the same bits as its contiguous copy.

A recorded graph is consumed once, as in the usual autograd rule: as
``Tensor.backward`` walks it, each node with parents gives up its gradient,
its closure (and with it the activations the closure saved) and its parent
links once its closure has run. Peak memory during backward is thus close
to one step's working set. Only leaves (parameters, and inputs created with
``requires_grad``) keep their gradients; a second ``backward()`` through a
consumed graph raises ``TrainingError``.
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
        reads the stream exactly as k calls with size n do.
        """
        cdf = np.cumsum(probabilities)
        cdf /= cdf[-1]
        draws = self._gen.random(size)
        return np.searchsorted(cdf, draws, side="right")


class Tensor:
    """Value node in the backward graph (row-major).

    A floating array keeps its dtype, and every op's output and gradient
    follow it: the model is float32 (``model.build_model``). Anything else
    (integers, bools, Python numbers and lists) is stored in double
    precision.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bwd")

    def __init__(self, data, requires_grad: bool = False, parents: tuple = ()):
        if type(data) is not np.ndarray:
            data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        # None once backward() has consumed this node (leaves keep ``()``)
        self._parents: tuple[Tensor, ...] | None = parents
        self._bwd: Callable[[Array], None] | None = None

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
        gradient, its closure and its parent links, so only leaves
        (parameters, and inputs created with ``requires_grad``) hold
        gradients afterwards. Calling ``backward()`` again through a
        consumed node raises ``TrainingError``; rebuild the graph with a
        fresh forward pass instead.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar, got shape {self.data.shape}")
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
            if node._parents is None:
                raise TrainingError(
                    "backward() through a graph an earlier backward() already consumed")
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                # a leaf's parents are (); a consumed node's are None and raise above
                if parent._parents != () and id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if not node._parents:
                continue
            if node.grad is not None:
                node._bwd(node.grad)
            node.grad = node._bwd = node._parents = None


@dataclass
class Parameter:
    """Named tensor with a trainability flag.

    A non-trainable parameter never receives a gradient and is never
    touched by an optimizer step; its bytes stay fixed for the whole
    session.
    """

    tensor: Tensor
    trainable: bool
    name: str

    def __post_init__(self):
        self.tensor.requires_grad = self.trainable

    @property
    def data(self) -> Array:
        return self.tensor.data

    @property
    def grad(self) -> Array | None:
        return self.tensor.grad

    def size(self) -> int:
        return int(self.tensor.data.size)


def make_parameter(data, trainable: bool, name: str) -> Parameter:
    return Parameter(Tensor(data), trainable, name)


def _tensor_of(value) -> Tensor:
    return value.tensor if isinstance(value, Parameter) else value


def _accumulate(target: Tensor, grad: Array) -> None:
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
    a, b = _tensor_of(a), _tensor_of(b)
    out_data = a.data + b.data
    needs = a.requires_grad or b.requires_grad
    out = Tensor(out_data, needs, (a, b) if needs else ())
    if needs:
        def bwd(dout: Array) -> None:
            if a.requires_grad:
                _accumulate(a, _unbroadcast(dout, a.data.shape))
            if b.requires_grad:
                _accumulate(b, _unbroadcast(dout, b.data.shape))
        out._bwd = bwd
    return out


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    """``x`` in ``shape``: a view where numpy can give one (see the module docstring)."""
    x = _tensor_of(x)
    out = Tensor(x.data.reshape(shape), x.requires_grad, (x,) if x.requires_grad else ())
    if x.requires_grad:
        def bwd(dout: Array) -> None:
            _accumulate(x, dout.reshape(x.data.shape))
        out._bwd = bwd
    return out


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    """``x`` with its axes permuted, as a view, forward and backward."""
    x = _tensor_of(x)
    out = Tensor(x.data.transpose(axes), x.requires_grad, (x,) if x.requires_grad else ())
    if x.requires_grad:
        inverse = tuple(np.argsort(axes))

        def bwd(dout: Array) -> None:
            _accumulate(x, dout.transpose(inverse))
        out._bwd = bwd
    return out


def relu(x: Tensor) -> Tensor:
    x = _tensor_of(x)
    mask = x.data > 0.0
    out = Tensor(x.data * mask, x.requires_grad, (x,) if x.requires_grad else ())
    if x.requires_grad:
        def bwd(dout: Array) -> None:
            _accumulate(x, dout * mask)
        out._bwd = bwd
    return out


def linear_forward(x: Tensor, weight: Parameter, bias: Parameter) -> Tensor:
    """Affine map ``x @ W + b`` over the last axis of ``x``."""
    x = _tensor_of(x)
    w, b = weight.tensor, bias.tensor
    if x.data.shape[-1] != w.data.shape[0]:
        raise ShapeError(
            f"linear: input shape {x.data.shape} incompatible with weight shape {w.data.shape}"
        )
    if b.data.shape != (w.data.shape[1],):
        raise ShapeError(
            f"linear: bias shape {b.data.shape} incompatible with weight shape {w.data.shape}"
        )
    lead = x.data.shape[:-1]
    x2 = np.ascontiguousarray(x.data.reshape(-1, w.data.shape[0]))
    out2 = x2 @ w.data
    out2 += b.data
    needs = x.requires_grad or w.requires_grad or b.requires_grad
    out = Tensor(out2.reshape(*lead, w.data.shape[1]), needs,
                 (x, w, b) if needs else ())
    if needs:
        def bwd(dout: Array) -> None:
            d2 = np.ascontiguousarray(dout.reshape(out2.shape))
            if w.requires_grad:
                _accumulate(w, x2.T @ d2)
            if b.requires_grad:
                _accumulate(b, d2.sum(axis=0))
            if x.requires_grad:
                _accumulate(x, np.ascontiguousarray((d2 @ w.data.T).reshape(x.data.shape)))
        out._bwd = bwd
    return out


def layer_norm(x: Tensor, gain: Parameter, shift: Parameter, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to mean 0 / variance 1, then apply gain/shift.

    Population variance; ``eps`` guards constant rows. Row means are
    ``np.add.reduce`` over the row divided by its length: the same sum
    ``.mean`` takes and the same correctly rounded quotient, without its
    per-call overhead. With no graph to record (the frozen prefix,
    evaluation) the normalised rows take the gain and shift in place.
    """
    x = _tensor_of(x)
    g, b = gain.tensor, shift.tensor
    n = x.data.shape[-1]
    xhat = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / n
    inv = np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / n
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    needs = x.requires_grad or g.requires_grad or b.requires_grad
    if not needs:
        xhat *= g.data
        xhat += b.data
        return Tensor(xhat)
    out_data = xhat * g.data
    out_data += b.data
    out = Tensor(out_data, True, (x, g, b))

    def bwd(dout: Array) -> None:
        if g.requires_grad:
            _accumulate(g, (dout * xhat).reshape(-1, n).sum(axis=0))
        if b.requires_grad:
            _accumulate(b, dout.reshape(-1, n).sum(axis=0))
        if x.requires_grad:
            dxhat = dout * g.data
            mean_dxhat = np.add.reduce(dxhat, axis=-1, keepdims=True) / n
            mean_dxhat_xhat = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / n
            along_xhat = xhat * mean_dxhat_xhat
            dxhat -= mean_dxhat
            dxhat -= along_xhat
            dxhat *= inv
            _accumulate(x, dxhat)
    out._bwd = bwd
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
    softmax(scale(x)) forward and backward.
    """
    x = _tensor_of(x)
    y = x.data * factor
    y -= _row_max(y)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    out = Tensor(y, x.requires_grad, (x,) if x.requires_grad else ())
    if x.requires_grad:
        def bwd(dout: Array) -> None:
            dx = dout - (dout * y).sum(axis=-1, keepdims=True)
            dx *= y
            dx *= factor
            _accumulate(x, dx)
        out._bwd = bwd
    return out


def _unit_stride_rows(a: Array) -> Array:
    """``a`` itself if its last axis is unit-stride, else a contiguous copy (see ``bmm``)."""
    return a if a.strides[-1] == a.itemsize else np.ascontiguousarray(a)


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product over the last two axes.

    An operand whose last axis is not unit-stride is copied to contiguous
    memory first, forward and backward: with a one-row left operand,
    numpy's matrix-vector kernel sums in another order against such a view
    than against contiguous memory (see the module docstring).
    """
    a, b = _tensor_of(a), _tensor_of(b)
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"bmm: shapes {a.data.shape} and {b.data.shape} do not align")
    a_data, b_data = _unit_stride_rows(a.data), _unit_stride_rows(b.data)
    out_data = a_data @ b_data
    needs = a.requires_grad or b.requires_grad
    out = Tensor(out_data, needs, (a, b) if needs else ())
    if needs:
        def bwd(dout: Array) -> None:
            dout = _unit_stride_rows(dout)
            if a.requires_grad:
                _accumulate(a, dout @ b_data.swapaxes(-1, -2))
            if b.requires_grad:
                _accumulate(b, a_data.swapaxes(-1, -2) @ dout)
        out._bwd = bwd
    return out


def embedding(table: Parameter, ids: Array) -> Tensor:
    """Row lookup into an embedding table, differentiable w.r.t. the table."""
    t = table.tensor
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= t.data.shape[0]):
        bad = int(np.argwhere((ids < 0) | (ids >= t.data.shape[0]))[0][0])
        raise DataError(
            f"token id out of range for table of size {t.data.shape[0]} (first bad row {bad})"
        )
    out = Tensor(t.data[ids], t.requires_grad, (t,) if t.requires_grad else ())
    if t.requires_grad:
        def bwd(dout: Array) -> None:
            dt = np.zeros_like(t.data)
            np.add.at(dt, ids.reshape(-1), dout.reshape(-1, t.data.shape[1]))
            _accumulate(t, dt)
        out._bwd = bwd
    return out


def first_token(x: Tensor) -> Tensor:
    """Pool a [B, S, n] sequence batch down to its first position."""
    x = _tensor_of(x)
    out = Tensor(x.data[:, 0, :].copy(), x.requires_grad, (x,) if x.requires_grad else ())
    if x.requires_grad:
        def bwd(dout: Array) -> None:
            dx = np.zeros_like(x.data)
            dx[:, 0, :] = dout
            _accumulate(x, dx)
        out._bwd = bwd
    return out


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


def multi_head_attention(x: Tensor, params: AttentionParams, heads: int,
                         query: Tensor | None = None) -> Tensor:
    """Scaled dot-product attention over [B, S, n], no mask.

    Keys and values come from every position of ``x``; queries come from
    ``query`` ([B, Sq, n], default ``x``: self-attention), and the output
    has its shape.
    """
    x = _tensor_of(x)
    query = x if query is None else _tensor_of(query)
    batch, _, hidden = x.data.shape
    qlen = query.data.shape[1]
    if query.data.shape != (batch, qlen, hidden):
        raise ShapeError(f"attention: query shape {query.data.shape} does not match "
                         f"input shape {x.data.shape}")
    if hidden % heads != 0:
        raise ConfigurationError(f"hidden size {hidden} not divisible by {heads} heads")
    head_dim = hidden // heads

    def split_heads(t: Tensor) -> Tensor:
        return transpose(reshape(t, (batch, t.shape[1], heads, head_dim)), (0, 2, 1, 3))

    q = split_heads(linear_forward(query, params.wq, params.bq))
    k = split_heads(linear_forward(x, params.wk, params.bk))
    v = split_heads(linear_forward(x, params.wv, params.bv))
    probs = softmax_lastdim(bmm(q, transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(head_dim))
    context = bmm(probs, v)
    merged = reshape(transpose(context, (0, 2, 1, 3)), (batch, qlen, hidden))
    return linear_forward(merged, params.wo, params.bo)


def cross_entropy_loss(logits: Tensor, labels: Array) -> Tensor:
    """Mean negative log-softmax of the true class, max-stabilized."""
    logits = _tensor_of(logits)
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
    out = Tensor(np.array(-picked.mean()), logits.requires_grad,
                 (logits,) if logits.requires_grad else ())
    if logits.requires_grad:
        def bwd(dout: Array) -> None:
            dlogits = exp / sum_exp
            dlogits[np.arange(batch), labels] -= 1.0
            _accumulate(logits, dlogits * (float(dout) / batch))
        out._bwd = bwd
    return out


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
        if p.tensor.grad is None:
            raise TrainingError(f"trainable parameter '{p.name}' has no gradient")
        p.tensor.data -= lr * p.tensor.grad
        p.tensor.grad = None


def clear_grads(params: Iterable[Parameter]) -> None:
    for p in params:
        p.tensor.grad = None


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
        if p.tensor.grad is None:
            raise TrainingError(f"no gradient for '{p.name}' after backward")
        analytic[p.name] = p.tensor.grad.copy()
    clear_grads(params)

    # scale-aware floor: coordinates with gradients far below the overall
    # gradient magnitude are compared absolutely, not relatively
    scale = max((float(np.abs(g).max()) for g in analytic.values() if g.size), default=0.0)
    floor = max(1e-3 * scale, 1e-12)
    max_rel = 0.0
    for p in trainable:
        flat = p.tensor.data.reshape(-1)
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
