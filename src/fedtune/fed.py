"""Synchronous parameter-server federation over simulated clients.

Clients are stateful across rounds only through their activation cache;
the frozen backbone is globally identical and never shipped. Every
participant of a round trains with the same cache watermark, the session's
running max depth: the round's deepest dispatched tuning depth.
Configurations only grow, so no deeper one was dispatched in any earlier
round, and the watermark never falls.

A track is its tuning scheme plus one model, which holds its latest FedAvg
mean between rounds. A track round copies the start values out of the
model once, then trains its group one client after another, in ascending
client id, on that model. As soon as a client finishes, its trained
parameters (a payload: buffers keyed by parameter name) are folded into
the round's anchored running mean (``fedavg``), so a round holds three
payloads (the start values, the anchor and the running sum), not one per
participant. Training only counts each client's batches; the round's
time and energy are priced once from those counts (``costmodel.price_round``).
The round's trace fields keep the selection order: participants, and the
client energies, summed in that order. Every reduction (aggregation,
selection, batch order, pricing) has a fixed order, so the results never
depend on timing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import adapter as adapter_mod
from . import cache as cache_mod
from . import costmodel
from . import model as model_mod
from . import tensor_nn as tn
from .adapter import TuningScheme
from .cache import ActivationCache
from .costmodel import DeviceProfile, NetworkProfile, Work
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
    payload: dict[str, np.ndarray]  # trainable buffers by parameter name
    num_samples: int


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
) -> tuple[dict[str, np.ndarray], int, Work]:
    """Run E local passes of SGD over the client's fixed batches.

    ``model`` is the client's track's model, which shares the frozen
    backbone and holds the round's start values (``run_track_round``
    loads them before each client, so no earlier client's training carries
    over). With the cache enabled, the client's ledger decides per batch
    whether the bottom frozen path is recomputed (at most once per batch
    per watermark change); the session's ``store``
    holds its output under ``(client.id, batch.batch_id)``, and the forward
    pass resumes at the lowest adapter's input. Training only counts its
    batches in the returned ``Work``; ``costmodel.price_round`` prices them,
    so nothing here reads the client's device or network.

    The returned payload's buffers are the model's own trainable arrays,
    not copies: they hold this client's trained values only until the next
    load into the model, so the caller reads them before that and never
    keeps them.
    """
    if not client.train_batches:
        raise TrainingError(f"client {client.id} has no training data")
    resume = scheme.resume_layer(model.spec.num_layers, depth_watermark)
    use_cache = cache_enabled and resume is not None
    work = Work()
    trainable = model.trainable_parameters()
    for _ in range(epochs):
        for batch in client.train_batches:
            if use_cache:
                _, act, recomputed = cache_mod.fetch_or_recompute(
                    client.cache, store, model, (client.id, batch.batch_id),
                    batch.tokens, depth_watermark, resume)
                logits = model_mod.forward_from_boundary(model, resume, act)
                if recomputed:
                    work.recomputes += 1
                else:
                    work.hits += 1
            else:
                work.uncached += 1
                logits = model_mod.forward(model, batch.tokens)
            loss = tn.cross_entropy_loss(logits, batch.labels)
            loss.backward()
            tn.sgd_step(trainable, lr)
        if use_cache:
            # every batch is stored at this watermark now: later epochs hit
            client.cache.depth_at_store = depth_watermark
    return {p.name: p.data for p in trainable}, client.num_train_samples(), work


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
    anchor: dict[str, np.ndarray] | None = None
    acc: dict[str, np.ndarray] | None = None
    last_id: int | None = None
    folded_samples: int = 0

    def payload(self) -> dict[str, np.ndarray]:
        """The group's mean buffers, once every client has been folded."""
        if self.acc is None:
            raise AggregationError("fedavg of an empty group: no update was folded")
        if self.folded_samples != self.total_samples:
            raise AggregationError(
                f"folded {self.folded_samples} samples, the group has {self.total_samples}")
        return self.acc


def fedavg(mean: RunningMean, update: ClientUpdate) -> None:
    """Fold one client's trained payload into the round's running mean.

    Updates arrive in ascending client id, so the sum runs in client-id
    order: the same float operations in the same order as averaging the
    whole sorted list at once. ``update``'s buffers are only read, never
    kept, so they may be the round model's own arrays. A client id not
    above the previous one, or buffers whose names, order or shapes differ
    from the anchor's, raise AggregationError: on one backbone, that is
    every update trained under another scheme.
    """
    if mean.total_samples <= 0:
        raise AggregationError("total sample count must be > 0")
    if mean.last_id is not None and update.client_id <= mean.last_id:
        raise AggregationError(
            f"client {update.client_id} folded after client {mean.last_id}: "
            "ids must ascend")
    buffers = update.payload
    if mean.anchor is None:
        mean.anchor = {key: buf.copy() for key, buf in buffers.items()}
        mean.acc = {key: buf.copy() for key, buf in buffers.items()}
    elif ([(key, buf.shape) for key, buf in buffers.items()]
          != [(key, buf.shape) for key, buf in mean.anchor.items()]):
        raise AggregationError(
            f"client {update.client_id} payload does not match the round's buffers")
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
    epochs: int,
    lr: float,
    cache_enabled: bool,
    round_index: int,
    depth_watermark: int,
    store: PrefixStore,
) -> dict:
    """Round ``round_index`` of one track with a given group: train, aggregate, advance its clock.

    ``track`` is a configurator.TrialTrack; between rounds its model holds
    the track's latest mean. The round copies the start values out once.
    The group trains on the model in ascending client id, each client from
    the start values, and each trained payload is folded into the round's
    ``RunningMean`` through ``fedavg`` before the next client loads. The
    mean is loaded into the model, the one ``configurator.evaluate_tracks``
    scores. ``costmodel.price_round`` then prices the round once, from each
    participant's device, network and counted work. Returns the track's
    ``round`` trace event, which lists the group in the order given;
    ``max_depth`` is the watermark.
    """
    model = track.model
    start = adapter_mod.extract_payload(model)
    payload_size = costmodel.payload_bytes(sum(buf.size for buf in start.values()))
    mean = RunningMean(sum(registry[cid].num_train_samples() for cid in group))
    work: dict[int, Work] = {}
    for position, cid in enumerate(sorted(group)):
        if position:
            # the first client finds the start values already loaded
            adapter_mod.load_payload(model, start)
        trained, n_samples, work[cid] = local_train(
            registry[cid], model, track.scheme,
            epochs=epochs, lr=lr, cache_enabled=cache_enabled,
            depth_watermark=depth_watermark, store=store)
        fedavg(mean, ClientUpdate(cid, trained, n_samples))
    adapter_mod.load_payload(model, mean.payload())
    num_layers = model.spec.num_layers
    round_seconds, client_energy = costmodel.price_round(
        num_layers, track.scheme.tuning_depth(num_layers), depth_watermark, payload_size,
        {str(cid): (registry[cid].device, registry[cid].net, work[cid]) for cid in group})
    track.clock += round_seconds
    return {"evt": "round", "round": round_index, "track": track.name,
            "max_depth": depth_watermark, "clock": track.clock, "participants": group,
            "payload_bytes": payload_size, "round_seconds": round_seconds,
            "energy_j": sum(client_energy.values()),
            "cache_hits": sum(w.hits for w in work.values()),
            "cache_recomputes": sum(w.recomputes for w in work.values()),
            "train_samples": mean.total_samples, "client_energy": client_energy}


def run_round(
    server: ServerState,
    tracks: list,
    total_participants: int,
    *,
    epochs: int,
    lr: float,
    cache_enabled: bool,
    store: PrefixStore,
) -> list[dict]:
    """One synchronous round: select, split, and run every live track's round.

    ``tracks`` are configurator.TrialTrack objects: one for a fixed
    configuration, up to three while the configurator searches. All live
    tracks advance together: one selection is split into consecutive
    groups (``split_budget``), and each track runs ``run_track_round`` with
    its group, moving its ``clock`` by its own emulated round time.
    ``store`` is the session's frozen-prefix store, which the clients'
    caches refer into. After the ledgers expire and the clients are
    selected, the store builds every batch of every selected client of a
    cached track at that track's resume point, in one ``prefetch`` per
    resume point, so same-shape batches share passes; the ledgers then find
    those chunks built, and count hits and recomputes as before. Returns
    each track's ``round`` event, in track order.
    """
    if not tracks:
        raise SelectionError("run_round requires at least one track")
    round_index = server.round_index + 1
    num_layers = tracks[0].model.spec.num_layers
    max_depth = max(t.scheme.tuning_depth(num_layers) for t in tracks)

    for client in server.registry.values():
        # a ledger stored below the watermark can never hit again
        cache_mod.expire(client.cache, store, max_depth)
    selected = select_clients(server.registry, total_participants, server.rng_select)
    groups, cursor = [], 0
    for group_size in split_budget(total_participants, len(tracks)):
        groups.append(selected[cursor:cursor + group_size])
        cursor += group_size
    if cache_enabled:
        wanted: dict[int, list] = {}
        for track, group in zip(tracks, groups):
            resume = track.scheme.resume_layer(num_layers, max_depth)
            if resume is not None:
                wanted.setdefault(resume, []).extend(
                    ((cid, batch.batch_id), batch.tokens)
                    for cid in group for batch in server.registry[cid].train_batches)
        for resume, items in wanted.items():
            store.prefetch(resume, items)
    events = [
        run_track_round(track, group, server.registry, epochs=epochs, lr=lr,
                        cache_enabled=cache_enabled, round_index=round_index,
                        depth_watermark=max_depth, store=store)
        for track, group in zip(tracks, groups)]
    server.round_index = round_index
    return events
