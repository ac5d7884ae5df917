"""Adapter configuration, insertion, upgrades, and payload handling.

Width is realized as a vertical stack of fixed-step bottleneck units so
that widening appends a unit while keeping every trained weight byte
identical. A monolithic configuration (step == width, one unit per layer)
reproduces the classic single-adapter parameter arithmetic; it supports
deepening but not widening, since widening it would have to discard
trained weights.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, ProtocolError
from .model import ModelState, make_meta_adapter
from .tensor_nn import Parameter, SeededRng, make_parameter

MIN_WIDTH = 8


@dataclass(frozen=True)
class AdapterConfig:
    """(depth, width) pair plus the stacking step that realizes the width."""

    depth: int
    width: int
    step: int

    def __post_init__(self):
        if self.depth < 0:
            raise ConfigurationError(f"depth must be >= 0, got {self.depth}")
        if self.width < MIN_WIDTH:
            raise ConfigurationError(f"width must be >= {MIN_WIDTH}, got {self.width}")
        if self.step < 1 or self.width % self.step != 0:
            raise ConfigurationError(
                f"width {self.width} must be a positive multiple of step {self.step}")

    @property
    def monolithic(self) -> bool:
        return self.step == self.width

    @property
    def stack_size(self) -> int:
        return self.width // self.step



# ---------------------------------------------------------------------------
# structural transforms (pure: frozen buffers shared, new stacks created)
# ---------------------------------------------------------------------------

def _shallow_clone(model: ModelState) -> ModelState:
    blocks = [replace(b, adapters=list(b.adapters)) for b in model.blocks]
    return ModelState(model.spec, model.tok_embed, model.pos_embed, blocks,
                      model.cls_w, model.cls_b)


def insert_adapters(model: ModelState, config: AdapterConfig, rng: SeededRng) -> ModelState:
    """Insert fresh stacks into the top ``config.depth`` layers."""
    spec = model.spec
    if config.depth > spec.num_layers:
        raise ConfigurationError(
            f"adapter depth {config.depth} exceeds model depth {spec.num_layers}")
    if model.adapter_depth() != 0:
        raise ConfigurationError("model already carries adapters; use deepen/widen")
    out = _shallow_clone(model)
    for layer in range(spec.num_layers - config.depth + 1, spec.num_layers + 1):
        stack = [make_meta_adapter(spec.hidden, config.step, layer, idx, rng)
                 for idx in range(config.stack_size)]
        out.blocks[layer - 1].adapters = stack
    return out


def deepen(model: ModelState, depth_step: int, rng: SeededRng,
           unit: AdapterConfig | None = None) -> ModelState:
    """Extend the adapted range downward; existing stacks keep their bytes.

    The new stacks have the unit width and stack size of the existing
    ones. A depth-0 model has none to copy, so it takes them from ``unit``,
    the configuration being deepened.
    """
    spec = model.spec
    adapted = model.adapted_layers()
    depth = len(adapted)
    if depth + depth_step > spec.num_layers:
        raise ConfigurationError(
            f"cannot deepen past the model: depth {depth} + step {depth_step} "
            f"> {spec.num_layers}")
    if depth > 0:
        stack = model.blocks[adapted[0] - 1].adapters
        stack_size, step = len(stack), stack[0].width
    elif unit is not None:
        stack_size, step = unit.stack_size, unit.step
    else:
        raise ConfigurationError("deepening a model without adapters needs the unit config")
    out = _shallow_clone(model)
    top_new = spec.num_layers - depth
    for layer in range(top_new - depth_step + 1, top_new + 1):
        out.blocks[layer - 1].adapters = [
            make_meta_adapter(spec.hidden, step, layer, idx, rng)
            for idx in range(stack_size)
        ]
    return out


def widen(model: ModelState, width_step: int, rng: SeededRng) -> ModelState:
    """Append one unit of width ``width_step`` to every adapted layer."""
    adapted = model.adapted_layers()
    if not adapted:
        raise ConfigurationError("cannot widen a model with no adapters (depth 0)")
    for layer in adapted:
        stack = model.blocks[layer - 1].adapters
        if stack[0].width != width_step:
            raise ConfigurationError(
                f"widen step {width_step} does not match stack unit width "
                f"{stack[0].width}; monolithic stacks cannot inherit across widen")
    out = _shallow_clone(model)
    for layer in adapted:
        stack = out.blocks[layer - 1].adapters
        stack.append(make_meta_adapter(model.spec.hidden, width_step, layer, len(stack), rng))
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

    def boundary_layer(self, num_layers: int) -> int | None:
        """Deepest frozen layer whose output may be cached, or None."""
        if self.kind == "full":
            return None
        return num_layers - self.tuning_depth(num_layers)


@dataclass
class AdapterPayload:
    """Everything a client ships: scheme plus trainable buffers by name."""

    scheme: TuningScheme
    buffers: dict[str, np.ndarray]

    def total_scalars(self) -> int:
        return int(sum(b.size for b in self.buffers.values()))

def extract_payload(model: ModelState, scheme: TuningScheme) -> AdapterPayload:
    buffers = {p.name: p.tensor.data.copy() for p in model.trainable_parameters()}
    return AdapterPayload(scheme, buffers)


def _clone_trainable(p: Parameter) -> Parameter:
    return make_parameter(p.tensor.data.copy(), True, p.name)


def materialize(backbone: ModelState, scheme: TuningScheme,
                payload: AdapterPayload | None = None,
                rng: SeededRng | None = None) -> ModelState:
    """Build a client-side model for a scheme, loading buffers from a payload.

    Frozen parameters are shared with the backbone (they are never written);
    trainable parameters are fresh copies. With no payload, trainable parts
    are freshly initialized from ``rng``.
    """
    spec = backbone.spec
    if backbone.adapter_depth() != 0:
        raise ProtocolError("backbone must be adapter-free")
    out = _shallow_clone(backbone)
    out.cls_w = _clone_trainable(backbone.cls_w)
    out.cls_b = _clone_trainable(backbone.cls_b)

    if scheme.kind == "adapter":
        if payload is None:
            if rng is None:
                raise ConfigurationError("fresh adapter materialization needs an rng")
            out = insert_adapters(out, scheme.adapter, rng)
        else:
            _build_stacks_from_payload(out, scheme.adapter, payload)
    elif scheme.kind == "full":
        out.tok_embed = _clone_trainable(backbone.tok_embed)
        out.pos_embed = _clone_trainable(backbone.pos_embed)
        for block in out.blocks:
            _set_block_trainable(block)
    elif scheme.kind == "freeze":
        if scheme.frozen_layers >= spec.num_layers:
            raise ConfigurationError(
                f"freeze depth {scheme.frozen_layers} leaves no trainable block")
        for block in out.blocks[scheme.frozen_layers:]:
            _set_block_trainable(block)

    if payload is not None:
        load_payload(out, payload)
    return out


def _set_block_trainable(block) -> None:
    block.attn = type(block.attn)(**{
        f: _clone_trainable(getattr(block.attn, f))
        for f in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")
    })
    for name in ("ln1_gain", "ln1_shift", "ffn_w1", "ffn_b1",
                 "ffn_w2", "ffn_b2", "ln2_gain", "ln2_shift"):
        setattr(block, name, _clone_trainable(getattr(block, name)))


def _build_stacks_from_payload(model: ModelState, config: AdapterConfig,
                               payload: AdapterPayload) -> None:
    """Adapter stacks with the payload's units and widths, as placeholders.

    Nothing is drawn: ``load_payload`` checks every buffer against the
    placeholder's name, shape and dtype, then loads it.
    """
    spec = model.spec
    if config.depth > spec.num_layers:
        raise ProtocolError(
            f"payload depth {config.depth} exceeds model depth {spec.num_layers}")
    for layer in range(spec.num_layers - config.depth + 1, spec.num_layers + 1):
        stack = []
        idx = 0
        while f"block{layer:02d}.adapter{idx:02d}.w_down" in payload.buffers:
            width = payload.buffers[f"block{layer:02d}.adapter{idx:02d}.w_down"].shape[1]
            stack.append(make_meta_adapter(spec.hidden, width, layer, idx, rng=None))
            idx += 1
        if not stack:
            raise ProtocolError(f"payload missing adapter stack for layer {layer}")
        model.blocks[layer - 1].adapters = stack


def load_payload(model: ModelState, payload: AdapterPayload) -> None:
    """Copy the payload's buffers into the model's trainable parameters.

    The buffers' names must be exactly the trainable parameters' names, and
    each buffer must have its parameter's shape and dtype; otherwise this
    raises ProtocolError. The copy goes into the parameter's own array when
    that is writeable, so a load allocates nothing, and arrays taken from
    the model before it hold the payload's values afterwards. A read-only
    placeholder (``_build_stacks_from_payload``) gets a fresh copy instead.
    ``fed.run_track_round`` loads every client's start payload, then the
    aggregated one, into the track's one model. The payload's buffers are
    never kept.
    """
    trainable = {p.name: p for p in model.trainable_parameters()}
    if set(trainable) != set(payload.buffers):
        missing = sorted(set(trainable) ^ set(payload.buffers))[:4]
        raise ProtocolError(f"payload buffers do not match scheme (first diffs: {missing})")
    for name, param in trainable.items():
        buf = payload.buffers[name]
        if buf.shape != param.tensor.data.shape:
            raise ProtocolError(
                f"buffer '{name}' shape {buf.shape} != expected {param.tensor.data.shape}")
        if buf.dtype != param.tensor.data.dtype:
            raise ProtocolError(
                f"buffer '{name}' dtype {buf.dtype} != expected {param.tensor.data.dtype}")
        if param.tensor.data.flags.writeable:
            np.copyto(param.tensor.data, buf)
        else:
            param.tensor.data = buf.copy()
