"""Outside-in layer tracing for benchmark sessions.

The tracer replaces public functions of the ``fedtune`` modules by wrappers
that record one span per call: name, start, end and the index of the
enclosing span. The callers resolve these functions through module globals
(``fed.local_train``, ``model_mod.evaluate``, ``tn.linear_forward`` ...) or
class attributes (``Tensor.backward``), so patching the attribute is enough
to see every call. Spans stay in memory and are written out once the session
has ended; nothing here touches the program's own trace.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# (metric name, module, attribute path). The metric name is
# "<layer>.<function>"; the layer is the fedtune module the function lives in.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("session.build_world", "fedtune.session", "build_world"),
    ("trace.emit", "fedtune.trace", "TraceWriter.emit"),
    ("fed.local_train", "fedtune.fed", "local_train"),
    ("fed.fedavg", "fedtune.fed", "fedavg"),
    ("cache.fetch_or_recompute", "fedtune.cache", "fetch_or_recompute"),
    ("model.evaluate", "fedtune.model", "evaluate"),
    ("model.forward", "fedtune.model", "forward"),
    ("model.forward_from_boundary", "fedtune.model", "forward_from_boundary"),
    ("model.compute_boundary_activation", "fedtune.model", "compute_boundary_activation"),
    ("adapter.materialize", "fedtune.adapter", "materialize"),
    ("adapter.extract_payload", "fedtune.adapter", "extract_payload"),
    ("adapter.deepen", "fedtune.adapter", "deepen"),
    ("adapter.widen", "fedtune.adapter", "widen"),
    ("configurator.dispatch", "fedtune.configurator", "dispatch"),
    ("tensor_nn.backward", "fedtune.tensor_nn", "Tensor.backward"),
    ("tensor_nn.sgd_step", "fedtune.tensor_nn", "sgd_step"),
    ("tensor_nn.linear_forward", "fedtune.tensor_nn", "linear_forward"),
    ("tensor_nn.layer_norm", "fedtune.tensor_nn", "layer_norm"),
    ("tensor_nn.softmax_lastdim", "fedtune.tensor_nn", "softmax_lastdim"),
    ("tensor_nn.bmm", "fedtune.tensor_nn", "bmm"),
    ("tensor_nn.multi_head_attention", "fedtune.tensor_nn", "multi_head_attention"),
    ("tensor_nn.embedding", "fedtune.tensor_nn", "embedding"),
    ("tensor_nn.cross_entropy_loss", "fedtune.tensor_nn", "cross_entropy_loss"),
)


def resolve(module: str, path: str) -> tuple[object, str]:
    """Return the object that owns the attribute at ``path`` and its name."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if not callable(getattr(owner, attr, None)):
        raise AttributeError(f"{module}.{path} is not a callable attribute")
    return owner, attr


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0   # inclusive of child spans (no traced function recurses)
    self_s: float = 0.0    # duration minus the time covered by direct child spans


def layer_stats(names: list[str], starts, ends, parents) -> dict[str, LayerStats]:
    """Aggregate spans into per-name call counts, inclusive and self time.

    ``parents[i]`` is the index of span ``i``'s enclosing span, or -1.
    Spans of one thread nest, so the part of a span's interval that its
    children cover is the sum of the direct children's durations.
    """
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    parents = np.asarray(parents, dtype=np.int64)
    dur = ends - starts
    child = np.zeros_like(dur)
    has_parent = parents >= 0
    np.add.at(child, parents[has_parent], dur[has_parent])
    stats: dict[str, LayerStats] = {}
    for i, name in enumerate(names):
        entry = stats.setdefault(name, LayerStats())
        entry.calls += 1
        entry.total_s += float(dur[i])
        entry.self_s += float(dur[i] - child[i])
    return stats


@dataclass
class Tracer:
    """Record spans around the functions in ``TARGETS`` while installed.

    ``observers`` maps a metric name to a callback ``(args, result)`` that
    reads a count from a call, such as a cache hit, at the layer boundary.
    """

    observers: dict[str, Callable] = field(default_factory=dict)
    name_ids: dict[str, int] = field(default_factory=dict)
    span_name: list[int] = field(default_factory=list)
    span_start: list[float] = field(default_factory=list)
    span_end: list[float] = field(default_factory=list)
    span_parent: list[int] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        name_id = self.name_ids.setdefault(name, len(self.name_ids))
        observe = self.observers.get(name)
        clock = time.perf_counter
        span_name, span_start, span_end = self.span_name, self.span_start, self.span_end
        span_parent, stack = self.span_parent, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(index)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[index] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, module, path in TARGETS:
            owner, attr = resolve(module, path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def stats(self) -> dict[str, LayerStats]:
        names_by_id = {i: n for n, i in self.name_ids.items()}
        names = [names_by_id[i] for i in self.span_name]
        out = layer_stats(names, self.span_start, self.span_end, self.span_parent)
        for name, _, _ in TARGETS:
            out.setdefault(name, LayerStats())
        return out

    def save(self, path: str) -> None:
        """Write all spans as columns of one ``.npz`` file."""
        names = np.array(sorted(self.name_ids, key=self.name_ids.get))
        with open(path, "wb") as fh:
            np.savez_compressed(
                fh, names=names,
                name=np.asarray(self.span_name, dtype=np.int32),
                start=np.asarray(self.span_start, dtype=np.float64),
                end=np.asarray(self.span_end, dtype=np.float64),
                parent=np.asarray(self.span_parent, dtype=np.int64))
