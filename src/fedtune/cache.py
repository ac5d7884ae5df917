"""Per-client cross-round activation cache: the emulated ledger.

For every local batch a client caches the frozen-prefix activation its
training resumes from. In the emulation the cache matters only through its
ledger: the resume point of each batch's entry, and the hit and recompute
counts that price each batch on the emulated clock. The arrays themselves
live in the session's one host store (``model.PrefixStore``); a ledger
entry refers to the store's array for its batch, so nothing is held twice.

A ledger holds a client's batches at the session's depth watermark
(``fed.ServerState.depth_watermark``), its running max depth: the deepest
tuning depth of any track dispatched so far. An entry is keyed to the
device boundary b = D - watermark, the deepest frozen layer there.
Configurations only grow, so the watermark never falls; ``fed.run_round``
refuses a round whose watermark would fall (a ContractViolation), and when
it rises, the boundary moves down and ``run_round`` clears every ledger
(``expire``) before anyone trains, in a group or not: those entries could
never hit again. That happens at most once per depth increase, i.e. at
most D times.

The host keeps more than the device boundary's output. Adapters sit after
a layer's second layer norm, so the whole backbone of layer b+1 is frozen
too: the entry refers to the backbone output through layer b+1, the lowest
adapter's input, where the track's scheme resumes at the watermark
(``TuningScheme.resume_layer``; under layer freezing, where layer b+1 is
trainable, it is the output of layer b). An entry records that resume
point; one stored for another counts as an integrity failure and is
recomputed. The emulated clock still prices every batch at b, layer b+1's
body included (``costmodel.price_round``). The host also runs the top layer
D only for the pooled first token, so an entry at resume point D holds
[B, 1, n], 1/S of the bytes of one below it (``model.activation_shape``).
``costmodel``'s docstring states both departures of the host from the device.

The ledger decides what the emulated device recomputes; it does not decide
when the host builds. ``fed.run_round`` is given each track's group
(``session.assign_groups`` draws them); after ``expire`` it has the store
build every batch its cached tracks' groups will ask for
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
from .model import ModelState, PrefixStore


@dataclass
class CacheEntry:
    resume: int          # layer whose backbone output is referred to (0 = embeddings)
    activations: np.ndarray  # the store's read-only array, ``model.activation_shape``


@dataclass(slots=True)
class ActivationCache:
    """One client's ledger, held at the session's depth watermark."""

    entries: dict[Hashable, CacheEntry] = field(default_factory=dict)
    integrity_failures: int = 0


def expire(cache: ActivationCache, store: PrefixStore) -> None:
    """Clear the ledger and release its chunks from ``store``.

    ``fed.run_round`` calls this for every client when the session's
    watermark rises, before anyone trains: the entries can never hit again,
    so nothing that was held for them is kept.
    """
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
    output through layer ``resume``, where training resumes. The ledger is
    held at ``depth_watermark`` (``fed.run_round`` clears it when the
    watermark rises), so a hit requires only that an entry exists and was
    stored for ``resume`` with the shape ``model.activation_shape`` gives
    it; an entry failing that counts as an integrity failure and is
    recomputed. A recompute takes its array from ``store``, which drops
    the entry's chunk at its old resume point. A key asked for with tokens
    other than its first is a ContractViolation there.
    """
    boundary = model.spec.num_layers - depth_watermark
    entry = cache.entries.get(key)
    if entry is not None:
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
