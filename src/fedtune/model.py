"""Transformer encoder backbone, classifier head, and boundary-entry forward.

The backbone is a randomly initialized frozen encoder standing in for a
downloaded pre-trained model: embeddings and projection weights act as a
fixed feature extractor (reservoir style), while the classifier head and
any inserted adapter stacks are the only trainable parts. Layers are
1-indexed from the input side. Every buffer is float32, the precision the
wire charges (``costmodel.WIRE_BYTES_PER_SCALAR``); ``tensor_nn`` follows
it, so activations, gradients and payloads are float32 too.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import Hashable, Iterable, Iterator

import numpy as np

from . import tensor_nn as tn
from .errors import (
    ConfigurationError,
    ContractViolation,
    DataError,
    EvaluationError,
)
from .tensor_nn import AttentionParams, Parameter, SeededRng, Tensor

LN_EPS = 1e-5
EMBED_INIT_STD = 1.0
ADAPTER_INIT_STD = 0.02  # also used for the classifier head
DTYPE = np.float32  # of every model buffer
# Samples in one graph-free pass: ``evaluate`` runs, and ``PrefixStore`` builds
# and keeps, the test set in chunks of this size, and ``PrefixStore.prefetch``
# stacks training batches into passes of at most this many samples. A pass
# costs about 40 numpy calls per layer whatever its size: at the mid shape (6
# layers, hidden 64, seqlen 32), two 8-sample batches in one pass took about
# 0.85 of the time of two passes, and four took no less per sample than two.
# The session's largest transient is one such pass: 32-sample test chunks set
# the ``autofed`` peak (2.683 MB of tracemalloc at seed 2); in 16-sample
# chunks ``evaluate`` peaks at 2.024 MB, under a prefetch pass's 2.183 MB. On
# OpenBLAS's SkylakeX and Prescott kernels, 16-sample chunks give the logits
# of 32-sample chunks bit for bit (see ``evaluate``); on its Haswell and Zen
# kernels they do not.
PASS_SAMPLES = 16


@dataclass(frozen=True)
class ModelSpec:
    """Static shape of the encoder."""

    num_layers: int
    hidden: int
    heads: int
    ffn_dim: int
    vocab: int
    seqlen: int
    num_labels: int

    def __post_init__(self):
        if self.num_layers < 1:
            raise ConfigurationError(f"num_layers must be >= 1, got {self.num_layers}")
        if self.hidden < 1 or self.hidden % self.heads != 0:
            raise ConfigurationError(
                f"hidden ({self.hidden}) must be positive and divisible by heads ({self.heads})"
            )
        if self.seqlen < 1:
            raise ConfigurationError(f"seqlen must be >= 1, got {self.seqlen}")
        if self.vocab < 2 or self.ffn_dim < 1 or self.num_labels < 2:
            raise ConfigurationError("vocab and num_labels must be >= 2, ffn_dim >= 1")


@dataclass
class MetaAdapter:
    """One bottleneck unit: down-projection, ReLU, up-projection, residual."""

    w_down: Parameter
    b_down: Parameter
    w_up: Parameter
    b_up: Parameter

    def all(self) -> list[Parameter]:
        return [self.w_down, self.b_down, self.w_up, self.b_up]

    @property
    def width(self) -> int:
        return self.w_down.data.shape[1]


@dataclass
class BlockParams:
    """One transformer layer plus its (possibly empty) adapter stack."""

    attn: AttentionParams
    ln1_gain: Parameter
    ln1_shift: Parameter
    ffn_w1: Parameter
    ffn_b1: Parameter
    ffn_w2: Parameter
    ffn_b2: Parameter
    ln2_gain: Parameter
    ln2_shift: Parameter
    adapters: list[MetaAdapter] = field(default_factory=list)

    def backbone_params(self) -> list[Parameter]:
        return self.attn.all() + [
            self.ln1_gain, self.ln1_shift,
            self.ffn_w1, self.ffn_b1, self.ffn_w2, self.ffn_b2,
            self.ln2_gain, self.ln2_shift,
        ]


@dataclass
class ModelState:
    """Value-type container for all model parameters.

    Which parameters are trainable is worked out once, on first use: a
    model's structure and trainable flags are fixed once it is built
    (``adapter.py`` builds every variant as a fresh clone), and loading a
    payload (``adapter.load_payload``) changes only parameter values.
    """

    spec: ModelSpec
    tok_embed: Parameter
    pos_embed: Parameter
    blocks: list[BlockParams]
    cls_w: Parameter
    cls_b: Parameter

    def parameters(self) -> Iterator[Parameter]:
        yield self.tok_embed
        yield self.pos_embed
        for block in self.blocks:
            yield from block.backbone_params()
            for meta in block.adapters:
                yield from meta.all()
        yield self.cls_w
        yield self.cls_b

    def trainable_parameters(self) -> list[Parameter]:
        return list(self._trainable)

    @cached_property
    def _trainable(self) -> tuple[Parameter, ...]:
        return tuple(p for p in self.parameters() if p.trainable)

    @cached_property
    def trainable_backbone_layers(self) -> frozenset[int]:
        """1-indexed layers whose backbone (adapters aside) has a trainable parameter."""
        return frozenset(i + 1 for i, block in enumerate(self.blocks)
                         if any(p.trainable for p in block.backbone_params()))

    @cached_property
    def lowest_trainable_layer(self) -> int | None:
        """Lowest 1-indexed layer with any trainable parameter, if any."""
        adapted = {i + 1 for i, block in enumerate(self.blocks)
                   if any(p.trainable for meta in block.adapters for p in meta.all())}
        return min(self.trainable_backbone_layers | adapted, default=None)

    def adapted_layers(self) -> list[int]:
        """1-indexed layers carrying adapters."""
        return [i + 1 for i, block in enumerate(self.blocks) if block.adapters]


def _adapter_name(layer: int, index: int, part: str) -> str:
    return f"block{layer:02d}.adapter{index:02d}.{part}"


def _draw(rng: SeededRng, std: float, shape: tuple[int, ...]) -> np.ndarray:
    """N(0, std) drawn in double precision, as the stream defines it, rounded to ``DTYPE``."""
    return rng.normal(0.0, std, shape).astype(DTYPE)


def make_meta_adapter(hidden: int, width: int, layer: int, index: int,
                      rng: SeededRng) -> MetaAdapter:
    """Fresh trainable bottleneck unit: projection weights N(0, 0.02), zero biases."""
    def param(data: np.ndarray, part: str) -> Parameter:
        return tn.make_parameter(data, True, _adapter_name(layer, index, part))

    return MetaAdapter(
        w_down=param(_draw(rng, ADAPTER_INIT_STD, (hidden, width)), "w_down"),
        b_down=param(np.zeros(width, DTYPE), "b_down"),
        w_up=param(_draw(rng, ADAPTER_INIT_STD, (width, hidden)), "w_up"),
        b_up=param(np.zeros(hidden, DTYPE), "b_up"),
    )


def build_model(spec: ModelSpec, seed: int) -> ModelState:
    """Frozen random backbone plus a trainable classifier, no adapters yet.

    Projection matrices use fan-in scaling so the frozen encoder produces
    well-mixed features; the classifier starts at N(0, 0.02) with zero bias.
    """
    root = SeededRng(seed)
    rb = root.spawn("backbone")
    rc = root.spawn("classifier")
    n, f = spec.hidden, spec.ffn_dim

    def frozen(data, name: str) -> Parameter:
        return tn.make_parameter(data, False, name)

    tok = frozen(_draw(rb, EMBED_INIT_STD, (spec.vocab, n)), "tok_embed")
    pos = frozen(_draw(rb, EMBED_INIT_STD, (spec.seqlen, n)), "pos_embed")
    blocks = []
    for layer in range(1, spec.num_layers + 1):
        pref = f"block{layer:02d}"
        std_n = n ** -0.5
        attn = AttentionParams(
            wq=frozen(_draw(rb, std_n, (n, n)), f"{pref}.wq"),
            bq=frozen(np.zeros(n, DTYPE), f"{pref}.bq"),
            wk=frozen(_draw(rb, std_n, (n, n)), f"{pref}.wk"),
            bk=frozen(np.zeros(n, DTYPE), f"{pref}.bk"),
            wv=frozen(_draw(rb, std_n, (n, n)), f"{pref}.wv"),
            bv=frozen(np.zeros(n, DTYPE), f"{pref}.bv"),
            wo=frozen(_draw(rb, std_n, (n, n)), f"{pref}.wo"),
            bo=frozen(np.zeros(n, DTYPE), f"{pref}.bo"),
        )
        blocks.append(BlockParams(
            attn=attn,
            ln1_gain=frozen(np.ones(n, DTYPE), f"{pref}.ln1_gain"),
            ln1_shift=frozen(np.zeros(n, DTYPE), f"{pref}.ln1_shift"),
            ffn_w1=frozen(_draw(rb, std_n, (n, f)), f"{pref}.ffn_w1"),
            ffn_b1=frozen(np.zeros(f, DTYPE), f"{pref}.ffn_b1"),
            ffn_w2=frozen(_draw(rb, f ** -0.5, (f, n)), f"{pref}.ffn_w2"),
            ffn_b2=frozen(np.zeros(n, DTYPE), f"{pref}.ffn_b2"),
            ln2_gain=frozen(np.ones(n, DTYPE), f"{pref}.ln2_gain"),
            ln2_shift=frozen(np.zeros(n, DTYPE), f"{pref}.ln2_shift"),
        ))
    cls_w = tn.make_parameter(_draw(rc, ADAPTER_INIT_STD, (n, spec.num_labels)), True, "cls_w")
    cls_b = tn.make_parameter(np.zeros(spec.num_labels, DTYPE), True, "cls_b")
    return ModelState(spec, tok, pos, blocks, cls_w, cls_b)


# ---------------------------------------------------------------------------
# forward paths
# ---------------------------------------------------------------------------

def _embed(model: ModelState, tokens: np.ndarray) -> Tensor:
    """Token plus position embeddings of [..., B, S] tokens (leading axes: a graph-free stack)."""
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim < 2:
        raise DataError(f"tokens must be [batch, seqlen], got shape {tokens.shape}")
    if tokens.shape[-1] > model.spec.seqlen:
        raise DataError(
            f"sequence length {tokens.shape[-1]} exceeds model seqlen {model.spec.seqlen}"
        )
    tok = tn.embedding(model.tok_embed, tokens)
    pos = tn.embedding(model.pos_embed, np.arange(tokens.shape[-1]))
    return tn.add(tok, pos)


def _apply_body(model: ModelState, layer: int, h: Tensor) -> Tensor:
    """The frozen backbone of layer ``layer``: attention and FFN, each with add & norm.

    ``h`` is [B, S, n], or recording no graph a stack [..., B, S, n] of
    batches, each computed as on its own. The top layer runs only for the
    position the classifier reads (``_classify``): its queries and residual
    are the first token, [B, 1, n], while its keys and values still come
    from every position of ``h``. Its logits equal those of the
    whole-sequence layer bit for bit on OpenBLAS's SkylakeX kernel, not on
    its Haswell, Zen or Prescott kernels, where the one-row GEMMs round
    otherwise.
    """
    block = model.blocks[layer - 1]
    query = h
    if layer == model.spec.num_layers:
        query = tn.reshape(tn.first_token(h), (*h.shape[:-2], 1, model.spec.hidden))
    # nested, so each sublayer's output dies inside the add that reads it; with
    # no graph to record, each add and layer norm writes into an input it consumes
    h = tn.layer_norm(
        tn.add(query, tn.multi_head_attention(h, block.attn, model.spec.heads, query)),
        block.ln1_gain, block.ln1_shift, LN_EPS)
    return tn.layer_norm(
        tn.add(h, tn.linear_forward(tn.relu(tn.linear_forward(h, block.ffn_w1, block.ffn_b1)),
                                    block.ffn_w2, block.ffn_b2)),
        block.ln2_gain, block.ln2_shift, LN_EPS)


def _apply_adapters(block: BlockParams, h: Tensor) -> Tensor:
    """The layer's adapter stack, after its second layer norm."""
    for meta in block.adapters:
        bottleneck = tn.relu(tn.linear_forward(h, meta.w_down, meta.b_down))
        h = tn.add(h, tn.linear_forward(bottleneck, meta.w_up, meta.b_up))
    return h


def _run_blocks(model: ModelState, h: Tensor, start_layer: int,
                stop_layer: int | None = None) -> Tensor:
    """Layers ``start_layer`` to ``stop_layer`` (inclusive; default the top)."""
    stop_layer = model.spec.num_layers if stop_layer is None else stop_layer
    for layer in range(start_layer, stop_layer + 1):
        h = _apply_adapters(model.blocks[layer - 1], _apply_body(model, layer, h))
    return h


def _classify(model: ModelState, h: Tensor) -> Tensor:
    return tn.linear_forward(tn.first_token(h), model.cls_w, model.cls_b)


def forward(model: ModelState, tokens: np.ndarray) -> Tensor:
    """Embedding, all transformer blocks, first-token pooling, classifier.

    The top block runs only for the first token (``_apply_body``), the one
    position the classifier reads.
    """
    return _classify(model, _run_blocks(model, _embed(model, tokens), 1))


def activation_shape(model: ModelState, resume: int, batch: int,
                     seqlen: int) -> tuple[int, int, int]:
    """Shape of the backbone output through layer ``resume`` for a [batch, seqlen] chunk.

    Every position up to layer D - 1; layer D keeps only the pooled first
    token (see ``_apply_body``).
    """
    return (batch, 1 if resume == model.spec.num_layers else seqlen, model.spec.hidden)


def compute_boundary_activation(model: ModelState, tokens: np.ndarray, resume: int) -> np.ndarray:
    """Backbone output through layer ``resume`` (0 = embedding output), as a plain array.

    Layer ``resume``'s own adapters are not applied: ``forward_from_boundary``
    starts with them. Its shape is ``activation_shape``: at the top layer
    D only the pooled token, [B, 1, n]. The backbone is frozen, so no op
    records a graph, and each add and layer norm writes into an array an
    earlier op allocated (see the ``tensor_nn`` module docstring): a build
    holds about one [B, S, ·] activation per sublayer, and its bits are
    those of the same ops recording a graph. ``tokens`` may stack
    same-shape chunks on leading axes, [..., B, S]: one pass then builds
    them all, [..., B, S or 1, n], and each chunk's output has the bits of
    its own pass, since every GEMM runs per chunk (``tn.linear_forward``).
    The result is a fresh array that no other array shares (``base`` is
    ``None``).
    """
    _check_boundary(model, resume)
    h = _embed(model, tokens)
    if resume >= 1:
        h = _apply_body(model, resume, _run_blocks(model, h, 1, resume - 1))
    return h.data


def _check_boundary(model: ModelState, resume: int) -> None:
    """A resume point needs nothing trainable below it and a frozen backbone at it."""
    if not 0 <= resume <= model.spec.num_layers:
        raise ContractViolation(
            f"resume point {resume} outside [0, {model.spec.num_layers}]")
    if model.tok_embed.trainable or model.pos_embed.trainable:
        raise ContractViolation("the embedding is trainable; nothing can be resumed")
    lowest = model.lowest_trainable_layer
    if lowest is None or lowest > resume:
        return
    if lowest < resume:
        raise ContractViolation(
            f"resume point {resume} is above the lowest trainable layer {lowest}; "
            "caller must recompute from below")
    if resume in model.trainable_backbone_layers:
        raise ContractViolation(
            f"resume point {resume} has a trainable backbone; caller must recompute from below")


def forward_from_boundary(model: ModelState, resume: int, cached_act: np.ndarray) -> Tensor:
    """Resume the forward pass at the input of layer ``resume``'s adapters.

    ``cached_act`` is the backbone output through layer ``resume`` (see
    ``compute_boundary_activation``), as ``PrefixStore`` holds it for a
    training batch or a test chunk; this applies that layer's adapters,
    then layers ``resume + 1`` to D and the classifier. Under an adapter
    scheme the resume point is the lowest adapted layer, one above the
    device boundary, so no frozen layer body runs again on the host (see
    ``adapter.TuningScheme.resume_layer``). The emulated clock still
    charges that layer's body on every batch, a departure ``costmodel``
    states.
    Bit-identical to ``forward`` when ``cached_act`` equals the true
    backbone output of the same chunk, because the remaining computation
    is the same instruction sequence either way.

    On the host the top layer D runs only for the pooled first token, the
    one position the classifier reads (``_apply_body``), so at resume point
    D ``cached_act`` is [B, 1, n] (``activation_shape``). The emulated clock
    still charges every layer for the whole sequence: the second departure
    ``costmodel`` states.
    """
    _check_boundary(model, resume)
    act = np.asarray(cached_act)
    if act.ndim != 3 or act.shape != activation_shape(model, resume, *act.shape[:2]):
        raise ContractViolation(
            f"cached activation shape {act.shape} is not a backbone output through "
            f"layer {resume} (hidden size {model.spec.hidden}, one position at layer "
            f"{model.spec.num_layers})")
    if act.dtype != model.tok_embed.data.dtype:
        # a stray double-precision activation would promote the whole step to it
        raise ContractViolation(
            f"cached activation dtype {act.dtype} differs from the model's "
            f"{model.tok_embed.data.dtype}")
    h = Tensor(act)
    if resume >= 1:
        h = _apply_adapters(model.blocks[resume - 1], h)
    return _classify(model, _run_blocks(model, h, resume + 1))


class PrefixStore:
    """The session's one host store of frozen-prefix activations.

    Holds the read-only backbone output through a resume point ``r`` (0 =
    embedding output; a track's scheme names it, see
    ``adapter.TuningScheme.resume_layer``) for caller-keyed chunks: one
    client's training batch, keyed ``(client_id, batch_id)`` by
    ``cache.fetch_or_recompute``, or ``PASS_SAMPLES`` test samples, keyed
    ``("test", start)`` by ``evaluate``. A chunk keeps the shape it is
    trained or evaluated with, so resuming from it is bit-identical to a
    full ``forward``. It is built from the embedding by the round's
    ``prefetch``, or on first use; tuning depths only grow, so the live
    resume points only fall and each chunk is built at most D times per
    session. Asking for a key with other tokens than its first (other data,
    or another chunking) is a ContractViolation. Each chunk owns its memory
    and is read-only: ``forward_from_boundary`` wraps it in a ``Tensor``
    that no op may write into, so a graph-free pass resumed from it never
    consumes it.
    """

    def __init__(self, backbone: ModelState):
        if backbone.adapted_layers():
            raise ContractViolation("the prefix store needs the adapter-free backbone")
        self.backbone = backbone
        self._tokens: dict[Hashable, np.ndarray] = {}
        self._acts: dict[int, dict[Hashable, np.ndarray]] = {}

    def resume_points(self) -> list[int]:
        return sorted(self._acts)

    def _check_tokens(self, key: Hashable, tokens: np.ndarray) -> None:
        known = self._tokens.setdefault(key, tokens)
        if known is not tokens and not np.array_equal(known, tokens):
            raise ContractViolation(f"prefix store chunk {key!r} was built for other tokens")

    def _keep(self, resume: int, key: Hashable, act: np.ndarray) -> np.ndarray:
        act.flags.writeable = False
        self._acts.setdefault(resume, {})[key] = act
        return act

    def activation(self, resume: int, key: Hashable, tokens: np.ndarray) -> np.ndarray:
        """Backbone output through layer ``resume`` for the chunk ``key``, built on first use."""
        self._check_tokens(key, tokens)
        act = self._acts.get(resume, {}).get(key)
        if act is None:
            act = self._keep(resume, key, compute_boundary_activation(self.backbone, tokens, resume))
        return act

    def prefetch(self, resume: int, items: Iterable[tuple[Hashable, np.ndarray]]) -> None:
        """Build, at ``resume``, the chunks of ``items`` ((key, tokens) pairs) the store lacks.

        Every key's tokens are checked as ``activation`` checks them before
        anything is built. Missing chunks of one shape share a pass, at most
        ``PASS_SAMPLES`` samples of them (a larger chunk has a pass of
        its own), and each chunk keeps its own pass's bits
        (``compute_boundary_activation``). Each is kept as its own copy, so
        it owns its memory as a chunk built on first use does.
        """
        items = list(items)
        for key, tokens in items:
            self._check_tokens(key, tokens)
        held = self._acts.get(resume, {})
        missing: dict[tuple[int, ...], dict[Hashable, np.ndarray]] = {}
        for key, tokens in items:
            if key not in held:
                missing.setdefault(tokens.shape, {})[key] = tokens
        for shape, chunks in missing.items():
            keys = list(chunks)
            per_pass = max(1, PASS_SAMPLES // max(shape[0], 1))
            for start in range(0, len(keys), per_pass):
                part = keys[start:start + per_pass]
                acts = compute_boundary_activation(
                    self.backbone, np.stack([chunks[key] for key in part]), resume)
                for key, act in zip(part, acts):
                    self._keep(resume, key, act.copy())

    def retain(self, resume_points: set[int]) -> None:
        """Drop every resume point not in ``resume_points``; builds nothing."""
        for r in set(self._acts) - set(resume_points):
            del self._acts[r]

    def release(self, resume: int, key: Hashable) -> None:
        """Drop the chunk ``key`` at ``resume``, if held: its ledger entry moved off it."""
        chunks = self._acts.get(resume, {})
        chunks.pop(key, None)
        if not chunks:
            self._acts.pop(resume, None)


@contextmanager
def _graph_free(model: ModelState):
    """Record no backward closures: clear ``requires_grad`` on every parameter.

    ``Parameter.trainable`` is left alone (``_check_boundary`` reads it);
    the flags are restored on exit, whatever happens inside.
    """
    params = list(model.parameters())
    saved = [p.requires_grad for p in params]
    for p in params:
        p.requires_grad = False
    try:
        yield
    finally:
        for p, flag in zip(params, saved):
            p.requires_grad = flag


def evaluate(model: ModelState, tokens: np.ndarray, labels: np.ndarray,
             chunk: int = PASS_SAMPLES, *, store: PrefixStore | None = None,
             resume: int | None = None) -> float:
    """Fraction of samples whose argmax logit matches the label.

    ``labels`` holds one label per sample, shape ``[tokens.shape[0]]``;
    any other shape is an ``EvaluationError``, raised before any forward.
    Runs without building a backward graph, ``chunk`` samples at a time
    (``chunk`` < 1 is an ``EvaluationError``), so every op may write into
    the activation it consumes (see the ``tensor_nn`` module docstring);
    the logits are the bits of the same ops recording a graph. Whether a
    sample's logits depend on its chunk depends on the BLAS kernel. On
    OpenBLAS's SkylakeX kernel, where it was established, and its Prescott
    kernel, the default ``PASS_SAMPLES``-sample chunks give the logits of
    32-sample chunks bit for bit: on a mid-shape backbone with drawn
    layer-norm gains, shifts and biases, a 32-sample build equals two
    16-sample builds at every resume point, and so do the logits. Where
    32-sample chunks give a whole-set forward's logits, so do 16-sample ones
    with no single-sample chunk (``test_eval_chunks_give_whole_set_logits``).
    On its Haswell and Zen kernels none of these holds. With a ``store`` and a
    ``resume`` point (the one the track's scheme names,
    ``TuningScheme.resume_layer``), each chunk resumes from the store's
    backbone output through that layer, keyed ``("test", start)``, instead
    of running the frozen prefix again; the accuracy is identical to the
    plain forward's. ``resume=None`` (full fine-tuning has no frozen
    prefix) always runs the plain forward.
    """
    if chunk < 1:
        raise EvaluationError(f"evaluation chunk must be at least 1 sample, got {chunk}")
    tokens = np.asarray(tokens)
    labels = np.asarray(labels, dtype=np.int64)
    if tokens.shape[0] == 0:
        raise EvaluationError("cannot evaluate an empty shard")
    if labels.shape != (tokens.shape[0],):
        raise EvaluationError(
            f"labels shape {labels.shape} does not match {tokens.shape[0]} samples")
    resumed = store is not None and resume is not None
    correct = 0
    with _graph_free(model):
        for start in range(0, tokens.shape[0], chunk):
            part = tokens[start:start + chunk]
            if resumed:
                logits = forward_from_boundary(
                    model, resume, store.activation(resume, ("test", start), part))
            else:
                logits = forward(model, part)
            correct += int((logits.data.argmax(axis=1) == labels[start:start + chunk]).sum())
    return correct / tokens.shape[0]
