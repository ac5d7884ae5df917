"""Synchronous parameter-server federation over simulated clients.

Clients are stateful across rounds only through their activation cache;
the frozen backbone is globally identical and never shipped. Every
participant of a round trains with the same cache watermark, the session's
running max depth: the round's deepest dispatched tuning depth.
Configurations only grow, so no deeper one was dispatched in any earlier
round, and the watermark never falls.

A track round trains its group one client after another, in ascending
client id, on the track's one model. As soon as a client finishes, its
trained parameters are folded into the round's anchored running mean
(``fedavg``), so a round holds two payloads (the anchor and the running
sum), not one per participant. The round's trace fields keep the
selection order: participants, energy summed in that order, and the
round time as the max over the group. Every reduction (aggregation,
selection, batch order) has a fixed order, so the results never depend
on timing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import adapter as adapter_mod
from . import cache as cache_mod
from . import costmodel
from . import model as model_mod
from . import tensor_nn as tn
from .adapter import AdapterPayload, TuningScheme
from .cache import ActivationCache
from .costmodel import DeviceProfile, NetworkProfile
from .errors import AggregationError, SelectionError, TrainingError
from .model import ModelState, PrefixStore
from .tensor_nn import SeededRng


@dataclass
class Batch:
    batch_id: int
    tokens: np.ndarray
    labels: np.ndarray


@dataclass
class ClientState:
    id: int
    train_batches: list[Batch]
    device: DeviceProfile
    net: NetworkProfile
    cache: ActivationCache = field(default_factory=ActivationCache)

    def num_train_samples(self) -> int:
        return sum(int(b.tokens.shape[0]) for b in self.train_batches)


@dataclass
class ServerState:
    registry: dict[int, ClientState]
    rng_select: SeededRng
    round_index: int = 0


@dataclass
class ClientUpdate:
    client_id: int
    payload: AdapterPayload
    num_samples: int


@dataclass
class LocalStats:
    """Per-client cost inputs gathered while training."""

    cache_hits: int = 0
    cache_recomputes: int = 0
    compute_seconds: float = 0.0


@dataclass
class TrackRoundStats:
    track: str
    participants: list[int]
    payload_bytes: int
    round_seconds: float
    energy_j: float
    cache_hits: int
    cache_recomputes: int
    train_samples: int
    client_energy: dict[int, float] = field(default_factory=dict)


@dataclass
class RoundReport:
    round_index: int
    max_depth: int
    tracks: list[TrackRoundStats]


def select_clients(registry: dict[int, ClientState], k: int, rng: SeededRng) -> list[int]:
    """Uniform sample of k distinct client ids, deterministic under rng."""
    ids = sorted(registry)
    if k > len(ids):
        raise SelectionError(f"cannot select {k} clients from a population of {len(ids)}")
    order = rng.permutation(len(ids))
    return [ids[int(i)] for i in order[:k]]


def local_train(
    client: ClientState,
    model: ModelState,
    scheme: TuningScheme,
    *,
    epochs: int,
    lr: float,
    cache_enabled: bool,
    depth_watermark: int,
    store: PrefixStore,
) -> tuple[AdapterPayload, int, LocalStats]:
    """Run E local passes of SGD over the client's fixed batches.

    ``model`` is the round's model of the client's track: ``scheme``
    materialized onto the shared frozen backbone, holding the round's start
    payload (``run_track_round`` loads it before each client, so no earlier
    client's training carries over). With the cache enabled, the client's
    ledger decides per batch whether the bottom frozen path is recomputed
    (at most once per batch per watermark change); the session's ``store``
    holds its output under ``(client.id, batch.batch_id)``, and the forward
    pass resumes at the lowest adapter's input. Each batch is priced at the
    device boundary, one layer below that.

    The returned payload's buffers are the model's own trainable arrays,
    not copies: they hold this client's trained values only until the next
    load into the model, so the caller reads them before that and never
    keeps them.
    """
    if not client.train_batches:
        raise TrainingError(f"client {client.id} has no training data")
    num_layers = model.spec.num_layers
    depth = scheme.tuning_depth(num_layers)
    use_cache = cache_enabled and scheme.boundary_layer(num_layers) is not None
    stats = LocalStats()
    trainable = model.trainable_parameters()
    for _ in range(epochs):
        for batch in client.train_batches:
            if use_cache:
                boundary, act, recomputed = cache_mod.fetch_or_recompute(
                    client.cache, store, model, (client.id, batch.batch_id),
                    batch.tokens, depth_watermark)
                logits = model_mod.forward_from_boundary(
                    model, model_mod.resume_layer(model, boundary), act)
                if recomputed:
                    stats.cache_recomputes += 1
                else:
                    stats.cache_hits += 1
            else:
                boundary, recomputed = None, False
                logits = model_mod.forward(model, batch.tokens)
            stats.compute_seconds += costmodel.batch_time_from_boundary(
                client.device, num_layers, depth, boundary, recomputed)
            loss = tn.cross_entropy_loss(logits, batch.labels)
            loss.backward()
            tn.sgd_step(trainable, lr)
        if use_cache:
            # every batch is stored at this watermark now: later epochs hit
            client.cache.depth_at_store = depth_watermark
    trained = AdapterPayload(scheme, {p.name: p.tensor.data for p in trainable})
    return trained, client.num_train_samples(), stats


@dataclass
class RunningMean:
    """One track round's FedAvg, folded one client update at a time.

    ``total_samples`` is the group's sample count, known before anyone
    trains. The first update folded is the anchor b0; the mean is
    out = b0 + sum_i w_i*(b_i - b0) per buffer, with w_i = n_i / total, so
    averaging identical payloads returns them bit-exactly. The fold holds
    two payloads, the anchor and the running sum, whatever the group size.
    """

    total_samples: int
    scheme: TuningScheme | None = None
    anchor: dict[str, np.ndarray] | None = None
    acc: dict[str, np.ndarray] | None = None
    last_id: int | None = None
    folded_samples: int = 0

    def payload(self) -> AdapterPayload:
        """The group's mean, once every client has been folded."""
        if self.acc is None:
            raise AggregationError("fedavg of an empty group: no update was folded")
        if self.folded_samples != self.total_samples:
            raise AggregationError(
                f"folded {self.folded_samples} samples, the group has {self.total_samples}")
        return AdapterPayload(self.scheme, self.acc)


def fedavg(mean: RunningMean, update: ClientUpdate) -> None:
    """Fold one client's trained payload into the round's running mean.

    Updates arrive in ascending client id, so the sum runs in client-id
    order: the same float operations in the same order as averaging the
    whole sorted list at once. ``update``'s buffers are only read, never
    kept, so they may be the round model's own arrays. A client id not
    above the previous one, another scheme or other buffer names raise
    AggregationError.
    """
    if mean.total_samples <= 0:
        raise AggregationError("total sample count must be > 0")
    if mean.last_id is not None and update.client_id <= mean.last_id:
        raise AggregationError(
            f"client {update.client_id} folded after client {mean.last_id}: "
            "ids must ascend")
    buffers = update.payload.buffers
    if mean.anchor is None:
        mean.scheme = update.payload.scheme
        mean.anchor = {key: buf.copy() for key, buf in buffers.items()}
        mean.acc = {key: buf.copy() for key, buf in buffers.items()}
    elif update.payload.scheme != mean.scheme or list(buffers) != list(mean.anchor):
        raise AggregationError(
            f"client {update.client_id} payload does not match the round's scheme")
    weight = update.num_samples / mean.total_samples
    for key, anchor in mean.anchor.items():
        delta = buffers[key] - anchor
        if delta.any():
            mean.acc[key] += weight * delta
    mean.last_id = update.client_id
    mean.folded_samples += update.num_samples


def split_budget(total: int, groups: int) -> list[int]:
    """Even split of the participant budget; remainder goes to the first group."""
    base = total // groups
    counts = [base] * groups
    counts[0] += total - base * groups
    return counts


def run_track_round(
    track,
    group: list[int],
    registry: dict[int, ClientState],
    *,
    backbone: ModelState,
    epochs: int,
    lr: float,
    cache_enabled: bool,
    depth_watermark: int,
    store: PrefixStore,
) -> TrackRoundStats:
    """One round of one track with a given group: train, aggregate, advance its clock.

    ``track`` is a configurator.TrialTrack. Its ``model`` is materialized
    on its first round and kept until the next dispatch replaces the
    track; between rounds it holds ``track.payload``. The group trains on
    it in ascending client id, each client from the start payload, and each
    trained payload is folded into the round's ``RunningMean`` through
    ``fedavg`` before the next client loads. The mean becomes the track's
    payload and is loaded into its model, the one
    ``configurator.evaluate_tracks`` scores. The stats list the group in
    the order given.
    """
    scheme = track.payload.scheme
    payload_size = costmodel.payload_bytes(track.payload.total_scalars())
    if track.model is None:
        track.model = adapter_mod.materialize(backbone, scheme, track.payload)
    model = track.model
    mean = RunningMean(sum(registry[cid].num_train_samples() for cid in group))
    local: dict[int, LocalStats] = {}
    for position, cid in enumerate(sorted(group)):
        if position:
            # the first client finds the start payload already loaded
            adapter_mod.load_payload(model, track.payload)
        trained, n_samples, local[cid] = local_train(
            registry[cid], model, scheme,
            epochs=epochs, lr=lr, cache_enabled=cache_enabled,
            depth_watermark=depth_watermark, store=store)
        fedavg(mean, ClientUpdate(cid, trained, n_samples))
    track.payload = mean.payload()
    adapter_mod.load_payload(model, track.payload)

    round_seconds = 0.0
    energy = 0.0
    client_energy: dict[int, float] = {}
    for cid in group:
        client, stats = registry[cid], local[cid]
        down_s, up_s = costmodel.transfer_seconds(payload_size, client.net)
        round_seconds = max(round_seconds, down_s + stats.compute_seconds + up_s)
        joules = costmodel.energy_joules(stats.compute_seconds, down_s + up_s, client.device)
        energy += joules
        client_energy[cid] = joules
    track.clock += round_seconds
    return TrackRoundStats(
        track=track.name,
        participants=group,
        payload_bytes=payload_size,
        round_seconds=round_seconds,
        energy_j=energy,
        cache_hits=sum(s.cache_hits for s in local.values()),
        cache_recomputes=sum(s.cache_recomputes for s in local.values()),
        train_samples=mean.total_samples,
        client_energy=client_energy,
    )


def run_round(
    server: ServerState,
    tracks: list,
    total_participants: int,
    *,
    backbone: ModelState,
    epochs: int,
    lr: float,
    cache_enabled: bool,
    store: PrefixStore,
) -> RoundReport:
    """One synchronous round: select, split, and run every live track's round.

    ``tracks`` are configurator.TrialTrack objects: one for a fixed
    configuration, up to three while the configurator searches. All live
    tracks advance together: one selection is split into consecutive
    groups (``split_budget``), and each track runs ``run_track_round`` with
    its group, moving its ``clock`` by its own emulated round time.
    ``store`` is the session's frozen-prefix store, which the clients'
    caches refer into.
    """
    if not tracks:
        raise SelectionError("run_round requires at least one track")
    round_index = server.round_index + 1
    num_layers = backbone.spec.num_layers
    max_depth = max(t.payload.scheme.tuning_depth(num_layers) for t in tracks)

    for client in server.registry.values():
        # a ledger stored below the watermark can never hit again
        cache_mod.expire(client.cache, store, max_depth)
    selected = select_clients(server.registry, total_participants, server.rng_select)
    budgets = split_budget(total_participants, len(tracks))
    report_tracks: list[TrackRoundStats] = []
    cursor = 0
    for track, group_size in zip(tracks, budgets):
        report_tracks.append(run_track_round(
            track, selected[cursor:cursor + group_size], server.registry,
            backbone=backbone, epochs=epochs, lr=lr, cache_enabled=cache_enabled,
            depth_watermark=max_depth, store=store))
        cursor += group_size
    server.round_index = round_index
    return RoundReport(round_index, max_depth, report_tracks)
