"""Per-client cross-round activation cache: the emulated ledger.

For every local batch a client caches the frozen-prefix activation its
training resumes from. In the emulation the cache matters only through its
ledger: the depth watermark it was stored at, the resume point of each
batch's entry, and the hit and recompute counts that price each batch on
the emulated clock. The arrays themselves live in the session's one host
store (``model.PrefixStore``); a ledger entry refers to the store's array
for its batch, so nothing is held twice.

An entry is keyed to the device boundary b, the deepest frozen layer at
the depth watermark. The watermark is the session's running max depth: the
deepest tuning depth of any track dispatched in the current round.
Configurations only grow, so that is also the deepest depth dispatched
since the client last took part, and it never falls. An entry stays valid
while the watermark equals the depth at store time; once the watermark
rises, the boundary moves down and the activation is recomputed and
recached. A session therefore expires the cache at most once per depth
increase, i.e. at most D times. A falling watermark breaks that bound and
is a ContractViolation.

The host keeps more than the device boundary's output. Adapters sit after
a layer's second layer norm, so the whole backbone of layer b+1 is frozen
too: the entry refers to the backbone output through layer b+1, the lowest
adapter's input, where the track's scheme resumes at the watermark
(``TuningScheme.resume_layer``; under layer freezing, where layer b+1 is
trainable, it is the output of layer b). An entry records that resume
point; one stored for another counts as an integrity failure and is
recomputed. The emulated clock still charges layer b+1's body on every
batch (``costmodel.batch_time_from_boundary`` is priced with b), as for the
paper's adapters inside the layer; that is a stated departure of the host
from the emulated device. A second one: the host runs the top layer D only
for the pooled first token, so an entry at resume point D holds [B, 1, n],
1/S of the bytes of one below it (``model.activation_shape``), while the
device is charged that layer for the whole sequence.

When a round's watermark rises, every client whose ledger was stored below
it has its entries cleared and their chunks released from the store before
anyone trains (``expire``), selected or not: those entries could never hit
again.

The ledger decides what the emulated device recomputes; it does not decide
when the host builds. After ``expire`` and client selection, ``fed.run_round``
has the store build every batch its cached tracks' groups will ask for
(``PrefixStore.prefetch``), stacking same-shape batches into shared passes.
A recompute then takes the chunk that prefetch built, and is counted and
priced as a recompute all the same, so the counts and the emulated clock do
not depend on where the host built the chunk.

The ledger counts client-side lookups only. Evaluation reads the same
store for the global test set, but not through ``fetch_or_recompute``, so
the hit and recompute counts here and in the trace stay client-side counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from . import model as model_mod
from .errors import ContractViolation
from .model import ModelState, PrefixStore


@dataclass
class CacheEntry:
    resume: int          # layer whose backbone output is referred to (0 = embeddings)
    activations: np.ndarray  # the store's read-only array, ``model.activation_shape``


@dataclass
class ActivationCache:
    """One client's ledger; ``depth_at_store`` is the watermark it was stored at."""

    entries: dict[Hashable, CacheEntry] = field(default_factory=dict)
    depth_at_store: int | None = None
    integrity_failures: int = 0


def expire(cache: ActivationCache, store: PrefixStore, depth_watermark: int) -> None:
    """Clear a ledger stored below ``depth_watermark`` and release its chunks from ``store``.

    Its entries can never hit again, since the watermark never falls, so
    nothing that was held for them is kept. ``fed.run_round`` calls this for
    every client before any of them trains, selected or not (within a
    round, ``fetch_or_recompute`` replaces a selected client's entries one
    batch at a time); a ledger stored at the watermark, or never stored, is
    left alone. A watermark below the stored depth is a ContractViolation,
    raised before anything is touched.
    """
    d_prev = cache.depth_at_store
    if d_prev is None or depth_watermark == d_prev:
        return
    if depth_watermark < d_prev:
        raise ContractViolation(
            f"depth watermark {depth_watermark} fell below the stored depth {d_prev}")
    for key, entry in cache.entries.items():
        store.release(entry.resume, key)
    cache.entries.clear()


def fetch_or_recompute(
    cache: ActivationCache,
    store: PrefixStore,
    model: ModelState,
    key: Hashable,
    tokens: np.ndarray,
    depth_watermark: int,
    resume: int,
) -> tuple[int, np.ndarray, bool]:
    """Serve a cached activation or recompute it at the watermark boundary.

    ``key`` names the batch in the ledger and in ``store``
    (``(client_id, batch_id)``); ``resume`` is where the track's scheme
    resumes at the watermark (``TuningScheme.resume_layer``). Returns
    (boundary, activations, recomputed): the device boundary
    b = D - ``depth_watermark`` the batch is priced with, and the backbone
    output through layer ``resume``, where training resumes. A hit requires
    that an entry exists, that the watermark equals the depth the cache was
    stored at, and that the entry was stored for ``resume`` with the shape
    ``model.activation_shape`` gives it; an entry failing the last check
    counts as an integrity failure and is recomputed. A watermark below
    the stored depth is a ContractViolation, raised before the cache is
    touched: tuning depths only grow, and that is what bounds the
    recomputes. A recompute takes its array from ``store``, which drops
    the entry's chunk at its old resume point. A key asked for with tokens
    other than its first is a ContractViolation there.
    """
    d_prev = cache.depth_at_store
    if d_prev is not None and depth_watermark < d_prev:
        raise ContractViolation(
            f"depth watermark {depth_watermark} fell below the stored depth {d_prev}")
    boundary = model.spec.num_layers - depth_watermark
    entry = cache.entries.get(key)
    if entry is not None:
        if depth_watermark == d_prev:
            act = entry.activations
            if entry.resume == resume and act.shape == model_mod.activation_shape(
                    model, resume, *tokens.shape):
                return boundary, act, False
            cache.integrity_failures += 1
        if entry.resume != resume:
            store.release(entry.resume, key)
    activations = store.activation(resume, key, tokens)
    cache.entries[key] = CacheEntry(resume, activations)
    return boundary, activations, True
