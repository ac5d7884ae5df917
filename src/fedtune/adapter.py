"""Adapter configuration, insertion, upgrades, and payload handling.

An adapted layer holds one bottleneck adapter, x + U relu(D x + b) + c,
whose width is the width of its configuration. Widening grows that one
bottleneck: it concatenates fresh columns onto D and b and fresh rows onto
U, so the widened adapter is the trained one plus fresh units beside it,
and every trained byte is kept.

A trial track is its ``TuningScheme`` plus one model, built once:
``materialize`` builds one on the frozen backbone, and ``deepen`` and
``widen`` derive the upgraded tracks' models from the winner's. Every model
shares the backbone's frozen parameters and owns copies of its trainable
ones (``_shallow_clone``), so training one track never moves another's
bytes. A payload is the wire format only, a plain ``dict`` of trainable
buffers keyed by parameter name: ``extract_payload`` copies a model's out,
and ``load_payload`` copies them into a model with the same parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigurationError, ProtocolError
from .model import MetaAdapter, ModelState, make_meta_adapter
from .tensor_nn import Parameter, SeededRng, make_parameter

MIN_WIDTH = 8


@dataclass(frozen=True)
class AdapterConfig:
    """How many top layers carry an adapter, and the width of each one's bottleneck."""

    depth: int
    width: int

    def __post_init__(self):
        if self.depth < 0:
            raise ConfigurationError(f"depth must be >= 0, got {self.depth}")
        if self.width < MIN_WIDTH:
            raise ConfigurationError(f"width must be >= {MIN_WIDTH}, got {self.width}")


# ---------------------------------------------------------------------------
# structural transforms (pure: frozen parameters shared, trainable ones copied)
# ---------------------------------------------------------------------------

def _clone_trainable(p: Parameter) -> Parameter:
    return make_parameter(p.data.copy(), True, p.name)


def _own(p: Parameter) -> Parameter:
    """A trainable parameter's fresh copy; a frozen one is shared as it is."""
    return _clone_trainable(p) if p.trainable else p


def _map_params(obj, fn, **others):
    """A copy of the dataclass ``obj`` with ``fn`` applied to each Parameter field."""
    params = {f.name: fn(getattr(obj, f.name)) for f in fields(obj)
              if isinstance(getattr(obj, f.name), Parameter)}
    return replace(obj, **params, **others)


def _shallow_clone(model: ModelState) -> ModelState:
    """A new model that shares every frozen parameter and copies every trainable one.

    So no two models derived from one another (``materialize``, ``deepen``,
    ``widen``) share a trainable array: training one leaves the others'
    bytes as they were.
    """
    blocks = [_map_params(b, _own, attn=_map_params(b.attn, _own),
                          adapter=None if b.adapter is None else _map_params(b.adapter, _own))
              for b in model.blocks]
    return _map_params(model, _own, blocks=blocks)


def deepen(model: ModelState, depth_step: int, rng: SeededRng,
           config: AdapterConfig) -> ModelState:
    """Extend the adapted range downward by ``depth_step`` layers; existing adapters keep their bytes.

    Each new layer gets one fresh bottleneck of ``config.width``, drawn from
    ``rng`` layer by layer upward. ``config`` is the configuration being
    deepened, so the new adapters have its width; on an adapter-free
    backbone this builds that configuration's adapters (``materialize``).
    """
    spec = model.spec
    depth = len(model.adapted_layers())
    if depth + depth_step > spec.num_layers:
        raise ConfigurationError(
            f"cannot deepen past the model: depth {depth} + step {depth_step} "
            f"> {spec.num_layers}")
    out = _shallow_clone(model)
    top_new = spec.num_layers - depth
    for layer in range(top_new - depth_step + 1, top_new + 1):
        out.blocks[layer - 1].adapter = make_meta_adapter(spec.hidden, config.width, layer, rng)
    return out


def _beside(trained: MetaAdapter, fresh: MetaAdapter) -> MetaAdapter:
    """One bottleneck of ``trained``'s units then ``fresh``'s, with ``trained``'s own output bias."""
    def cat(p: Parameter, q: Parameter, axis: int) -> Parameter:
        return make_parameter(np.concatenate([p.data, q.data], axis=axis), True, p.name)

    return MetaAdapter(w_down=cat(trained.w_down, fresh.w_down, 1),
                       b_down=cat(trained.b_down, fresh.b_down, 0),
                       w_up=cat(trained.w_up, fresh.w_up, 0),
                       b_up=trained.b_up)


def widen(model: ModelState, width_step: int, rng: SeededRng) -> ModelState:
    """Grow every adapted layer's bottleneck by ``width_step`` fresh units beside the trained ones.

    D [n, w], b [w] and U [w, n] become D' [n, w + s], b' [w + s] and
    U' [w + s, n], whose first w columns, entries and rows are the trained
    bytes; c is kept. The s new columns of D' and rows of U' are drawn from
    ``rng`` as a fresh [n, s] and [s, n] bottleneck is (``make_meta_adapter``),
    layer by layer upward, and the new entries of b' are zero.
    """
    adapted = model.adapted_layers()
    if not adapted:
        raise ConfigurationError("cannot widen a model with no adapters (depth 0)")
    out = _shallow_clone(model)
    for layer in adapted:
        block = out.blocks[layer - 1]
        block.adapter = _beside(block.adapter,
                                make_meta_adapter(model.spec.hidden, width_step, layer, rng))
    return out


# ---------------------------------------------------------------------------
# tuning schemes (adapter / full fine-tuning / layer freezing)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TuningScheme:
    """What is trainable on the client: adapters, everything, or top blocks."""

    kind: str  # "adapter" | "full" | "freeze"
    adapter: AdapterConfig | None = None
    frozen_layers: int = 0

    def __post_init__(self):
        if self.kind not in ("adapter", "full", "freeze"):
            raise ConfigurationError(f"unknown tuning scheme kind '{self.kind}'")
        if self.kind == "adapter" and self.adapter is None:
            raise ConfigurationError("adapter scheme requires an AdapterConfig")
        if self.kind == "freeze" and self.frozen_layers < 0:
            raise ConfigurationError("frozen_layers must be >= 0")

    def tuning_depth(self, num_layers: int) -> int:
        """Topmost layer count whose backward pass touches trainable weights."""
        if self.kind == "adapter":
            return self.adapter.depth
        if self.kind == "full":
            return num_layers
        return num_layers - self.frozen_layers

    def resume_layer(self, num_layers: int, depth: int) -> int | None:
        """Where the host resumes the forward pass at cache depth ``depth``; None without a prefix.

        The device boundary is b = num_layers - depth, the deepest frozen
        layer. Under adapters the backbone of layer b+1 is frozen too (its
        adapter sits after its second layer norm), so the host resumes
        there, at the lowest adapter's input; at b = num_layers (depth 0)
        there is no layer above. Under layer freezing layer b+1 is
        trainable, so it resumes at b. Full fine-tuning freezes nothing.
        ``model._check_boundary`` refuses a point the model's trainable
        flags contradict.
        """
        if self.kind == "full":
            return None
        boundary = num_layers - depth
        if self.kind == "adapter" and boundary < num_layers:
            return boundary + 1
        return boundary


def extract_payload(model: ModelState) -> dict[str, np.ndarray]:
    """A copy of the model's trainable buffers, keyed by parameter name."""
    return {p.name: p.data.copy() for p in model.trainable_parameters()}


def materialize(backbone: ModelState, scheme: TuningScheme,
                rng: SeededRng | None = None) -> ModelState:
    """A fresh client-side model of ``scheme`` on the adapter-free backbone.

    Frozen parameters are shared with the backbone (they are never
    written); trainable ones are copies of the backbone's. An adapter
    scheme's bottlenecks are drawn from ``rng``. A trial track is built here
    once, or derived by ``deepen`` and ``widen``, and keeps its model until
    the next dispatch; payloads are loaded into it (``load_payload``).
    """
    spec = backbone.spec
    if backbone.adapted_layers():
        raise ProtocolError("backbone must be adapter-free")
    if scheme.kind == "adapter":
        if rng is None:
            raise ConfigurationError("fresh adapter materialization needs an rng")
        return deepen(backbone, scheme.adapter.depth, rng, scheme.adapter)
    out = _shallow_clone(backbone)
    first = 0
    if scheme.kind == "full":
        out.tok_embed = _clone_trainable(out.tok_embed)
        out.pos_embed = _clone_trainable(out.pos_embed)
    else:
        if scheme.frozen_layers >= spec.num_layers:
            raise ConfigurationError(
                f"freeze depth {scheme.frozen_layers} leaves no trainable block")
        first = scheme.frozen_layers
    out.blocks[first:] = [_map_params(b, _clone_trainable,
                                      attn=_map_params(b.attn, _clone_trainable))
                          for b in out.blocks[first:]]
    return out


def load_payload(model: ModelState, payload: dict[str, np.ndarray]) -> None:
    """Copy the payload's buffers into the model's trainable parameters.

    The buffers' names must be exactly the trainable parameters' names, and
    each buffer must have its parameter's shape and dtype; otherwise this
    raises ProtocolError. The copy goes into the parameter's own array, so
    a load allocates nothing, and arrays taken from the model before it
    hold the payload's values afterwards. ``fed.run_round`` loads a
    track's start values before every client after the first, then the
    aggregated mean, into the track's one model. The payload's buffers
    are never kept.
    """
    trainable = {p.name: p for p in model.trainable_parameters()}
    if set(trainable) != set(payload):
        missing = sorted(set(trainable) ^ set(payload))[:4]
        raise ProtocolError(f"payload buffers do not match the model (first diffs: {missing})")
    for name, param in trainable.items():
        buf = payload[name]
        if buf.shape != param.data.shape:
            raise ProtocolError(
                f"buffer '{name}' shape {buf.shape} != expected {param.data.shape}")
        if buf.dtype != param.data.dtype:
            raise ProtocolError(
                f"buffer '{name}' dtype {buf.dtype} != expected {param.data.dtype}")
        np.copyto(param.data, buf)
