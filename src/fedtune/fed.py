"""Synchronous parameter-server federation over simulated clients.

Clients are stateful across rounds only through their activation cache and
watermark; the frozen backbone is globally identical and never shipped.
Every reduction (aggregation, selection, batch order) has a fixed order so
concurrent execution could never change the results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import adapter as adapter_mod
from . import cache as cache_mod
from . import costmodel
from . import model as model_mod
from . import tensor_nn as tn
from .adapter import AdapterPayload
from .cache import ActivationCache, DepthHistory
from .costmodel import DeviceProfile, NetworkProfile
from .errors import AggregationError, SelectionError, TrainingError
from .model import ModelState
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
    test_tokens: np.ndarray
    test_labels: np.ndarray
    device: DeviceProfile
    net: NetworkProfile
    cache: ActivationCache = field(default_factory=ActivationCache)
    last_participation_round: int | None = None

    def num_train_samples(self) -> int:
        return sum(int(b.tokens.shape[0]) for b in self.train_batches)


@dataclass
class ServerState:
    registry: dict[int, ClientState]
    rng_select: SeededRng
    round_index: int = 0
    depth_history: DepthHistory = field(default_factory=DepthHistory)


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
    energy_joules: float
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
    backbone: ModelState,
    payload: AdapterPayload,
    *,
    epochs: int,
    lr: float,
    cache_enabled: bool,
    depth_watermark: int,
) -> tuple[AdapterPayload, int, LocalStats]:
    """Run E local passes of SGD over the client's fixed batches.

    The payload is materialized onto the shared frozen backbone; with the
    cache enabled, the bottom frozen path runs at most once per batch per
    watermark change and is otherwise served from the client's store.
    """
    if not client.train_batches:
        raise TrainingError(f"client {client.id} has no training data")
    scheme = payload.scheme
    model = adapter_mod.materialize(backbone, scheme, payload)
    num_layers = model.spec.num_layers
    depth = scheme.tuning_depth(num_layers)
    use_cache = cache_enabled and scheme.boundary_layer(num_layers) is not None
    stats = LocalStats()
    trainable = model.trainable_parameters()
    for _ in range(epochs):
        for batch in client.train_batches:
            if use_cache:
                boundary, act, recomputed = cache_mod.fetch_or_recompute(
                    client.cache, model, batch.batch_id, batch.tokens,
                    depth_watermark)
                logits = model_mod.forward_from_boundary(model, boundary, act)
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
        client.cache.depth_at_store = depth_watermark
    updated = adapter_mod.extract_payload(model, scheme)
    return updated, client.num_train_samples(), stats


def fedavg(updates: list[ClientUpdate]) -> AdapterPayload:
    """Sample-count-weighted mean of payloads, summed in client-id order.

    The mean is anchored at the first payload (out = b0 + sum w_i*(b_i-b0))
    so aggregating identical payloads returns them bit-exactly.
    """
    if not updates:
        raise AggregationError("fedavg needs at least one update")
    ordered = sorted(updates, key=lambda u: u.client_id)
    total = sum(u.num_samples for u in ordered)
    if total <= 0:
        raise AggregationError("total sample count must be > 0")
    base = ordered[0].payload
    keys = list(base.buffers)
    for u in ordered[1:]:
        if u.payload.scheme != base.scheme or list(u.payload.buffers) != keys:
            raise AggregationError(
                f"client {u.client_id} payload does not match the round's scheme")
    merged: dict[str, np.ndarray] = {}
    for key in keys:
        anchor = base.buffers[key]
        acc = anchor.copy()
        for u in ordered:
            weight = u.num_samples / total
            delta = u.payload.buffers[key] - anchor
            if delta.any():
                acc += weight * delta
        merged[key] = acc
    return AdapterPayload(base.scheme, merged)


def split_budget(total: int, groups: int) -> list[int]:
    """Even split of the participant budget; remainder goes to the first group."""
    base = total // groups
    counts = [base] * groups
    counts[0] += total - base * groups
    return counts


def run_round(
    server: ServerState,
    tracks: list,
    total_participants: int,
    *,
    backbone: ModelState,
    epochs: int,
    lr: float,
    cache_enabled: bool,
) -> RoundReport:
    """One synchronous round: select, dispatch, train, aggregate, advance clocks.

    ``tracks`` are configurator.TrialTrack objects: one for a fixed
    configuration, up to three while the configurator searches. All live
    tracks advance together: each gets its group's aggregated payload and
    moves its ``clock`` by its own emulated round time.
    """
    if not tracks:
        raise SelectionError("run_round requires at least one track")
    round_index = server.round_index + 1
    num_layers = backbone.spec.num_layers
    max_depth = max(t.payload.scheme.tuning_depth(num_layers) for t in tracks)
    server.depth_history.record(round_index, max_depth)

    selected = select_clients(server.registry, total_participants, server.rng_select)
    budgets = split_budget(total_participants, len(tracks))
    report_tracks: list[TrackRoundStats] = []
    cursor = 0
    for track, group_size in zip(tracks, budgets):
        group = selected[cursor:cursor + group_size]
        cursor += group_size
        payload_size = costmodel.payload_bytes(track.payload.total_scalars())
        updates: list[ClientUpdate] = []
        round_seconds = 0.0
        energy = 0.0
        client_energy: dict[int, float] = {}
        hits = recomputes = samples = 0
        for cid in group:
            client = server.registry[cid]
            watermark = cache_mod.query_watermark(server, cid)
            new_payload, n_samples, stats = local_train(
                client, backbone, track.payload,
                epochs=epochs, lr=lr, cache_enabled=cache_enabled,
                depth_watermark=watermark)
            updates.append(ClientUpdate(cid, new_payload, n_samples))
            down_s, up_s = costmodel.transfer_seconds(payload_size, client.net)
            client_time = down_s + stats.compute_seconds + up_s
            round_seconds = max(round_seconds, client_time)
            joules = costmodel.energy_joules(
                stats.compute_seconds, down_s + up_s, client.device)
            energy += joules
            client_energy[cid] = joules
            hits += stats.cache_hits
            recomputes += stats.cache_recomputes
            samples += n_samples
        track.payload = fedavg(updates)
        track.clock += round_seconds
        report_tracks.append(TrackRoundStats(
            track=track.name,
            participants=group,
            payload_bytes=payload_size,
            round_seconds=round_seconds,
            energy_joules=energy,
            cache_hits=hits,
            cache_recomputes=recomputes,
            train_samples=samples,
            client_energy=client_energy,
        ))
    for cid in selected:
        server.registry[cid].last_participation_round = round_index
    server.round_index = round_index
    return RoundReport(round_index, max_depth, report_tracks)
