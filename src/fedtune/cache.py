"""Per-client cross-round activation cache with depth-watermark expiration.

For every local batch a client stores the frozen-prefix activation its
training resumes from. The entry is keyed to the device boundary b, the
deepest frozen layer at the depth watermark, and stays valid until the
dispatched tuning depth grows past the depth at store time; then the
boundary moves down and the activation is recomputed and recached. Because
the tuning depth only ever grows, a session expires the cache at most once
per depth increase, i.e. at most D times.

The host keeps more than the device boundary's output. Adapters sit after
a layer's second layer norm, so the whole backbone of layer b+1 is frozen
too: the entry holds the backbone output through layer b+1, the lowest
adapter's input (``model.resume_layer``; under layer freezing, where layer
b+1 is trainable, it is the output of layer b). An entry records that
resume point; one stored for another counts as an integrity failure and is
recomputed. The emulated clock still charges layer b+1's body on every
batch (``costmodel.batch_time_from_boundary`` is priced with b), as for the
paper's adapters inside the layer; that is a stated departure of the host
from the emulated device.

This cache serves training only. Evaluation has its own server-side store
of the global test set's frozen-prefix activations (``model.EvalStore``),
bounded by the same argument: it rebuilds from the embedding at most D
times per session. It does not go through ``fetch_or_recompute``, so the
hit and recompute counts here and in the trace stay client-side counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from . import model as model_mod
from .errors import RegistryError
from .model import ModelState


@dataclass
class CacheEntry:
    batch_id: int
    resume: int          # layer whose backbone output is stored (0 = embeddings)
    activations: np.ndarray  # [B, S, n]


@dataclass
class ActivationCache:
    """One client's store; ``depth_at_store`` is its d_prev watermark."""

    entries: dict[int, CacheEntry] = field(default_factory=dict)
    depth_at_store: int | None = None
    integrity_failures: int = 0


@dataclass
class DepthHistory:
    """Server-side append-only record of the max depth dispatched per round."""

    rounds: list[int] = field(default_factory=list)
    depths: list[int] = field(default_factory=list)

    def record(self, round_index: int, depth: int) -> None:
        if self.rounds and round_index <= self.rounds[-1]:
            raise ValueError(f"round {round_index} not after {self.rounds[-1]}")
        self.rounds.append(round_index)
        self.depths.append(depth)

    def max_since(self, since_round: int | None) -> int:
        """Max dispatched depth in rounds strictly after ``since_round``.

        ``None`` (client never participated) scans the whole history, which
        forces a full recompute on first participation anyway.
        """
        if not self.rounds:
            return 0
        if since_round is None:
            return max(self.depths)
        depths = [d for r, d in zip(self.rounds, self.depths) if r > since_round]
        return max(depths) if depths else self.depths[-1]

    def increase_count(self) -> int:
        """Number of times the dispatched max depth rose above all prior values."""
        count = 0
        high = None
        for d in self.depths:
            if high is not None and d > high:
                count += 1
            high = d if high is None else max(high, d)
        return count


def query_watermark(server, client_id: int) -> int:
    """Max depth dispatched since the client last participated (inclusive of now)."""
    if client_id not in server.registry:
        raise RegistryError(f"unknown client id {client_id}")
    client = server.registry[client_id]
    return server.depth_history.max_since(client.last_participation_round)


def fetch_or_recompute(
    cache: ActivationCache,
    model: ModelState,
    batch_id: int,
    tokens: np.ndarray,
    depth_watermark: int,
) -> tuple[int, np.ndarray, bool]:
    """Serve a stored activation or recompute it at the watermark boundary.

    Returns (boundary, activations, recomputed): the device boundary b the
    batch is priced with, and the backbone output through
    ``model.resume_layer(model, b)``, where training resumes. A hit requires
    that an entry exists, that no deeper configuration was dispatched since
    it was stored, and that it was stored for that resume point with the
    batch's shape; an entry failing the last check counts as an integrity
    failure and is recomputed. A stored activation is read-only, as in
    ``model.EvalStore``: a kernel that wrote into its input would otherwise
    corrupt the client's cache for every later round.
    """
    num_layers = model.spec.num_layers
    d_prev = cache.depth_at_store
    entry = cache.entries.get(batch_id)
    if entry is not None and d_prev is not None and depth_watermark <= d_prev:
        boundary = num_layers - d_prev
        act = entry.activations
        ok = (entry.resume == model_mod.resume_layer(model, boundary)
              and act.ndim == 3
              and act.shape[0] == tokens.shape[0]
              and act.shape[1] == tokens.shape[1]
              and act.shape[2] == model.spec.hidden)
        if ok:
            return boundary, act, False
        cache.integrity_failures += 1
    boundary = num_layers - depth_watermark
    resume = model_mod.resume_layer(model, boundary)
    activations = model_mod.compute_boundary_activation(model, tokens, resume)
    activations.flags.writeable = False
    cache.entries[batch_id] = CacheEntry(batch_id, resume, activations)
    return boundary, activations, True


def expirations_this_session(events: Iterable[dict]) -> int:
    """Depth increases observed in a completed session's trace events."""
    per_round: dict[int, int] = {}
    for evt in events:
        if evt.get("evt") == "round" and "max_depth" in evt:
            r = int(evt["round"])
            per_round[r] = max(per_round.get(r, 0), int(evt["max_depth"]))
    history = DepthHistory()
    for r in sorted(per_round):
        history.record(r, per_round[r])
    return history.increase_count()
