"""The emulated price of a track round: its seconds, wire bytes and joules.

``price_round`` is the one price of a round. ``fed.run_round`` gives it,
for each track, each participant's device, network and ``Work`` (its
batches, counted by how the activation cache served them) and keeps no
pricing arithmetic.

- Per-layer costs are uniform: one full-model training batch costs 3*L
  forward-layer units (forward L, backward 2L), so a unit is the device's
  measured full-batch latency over 3*L. A batch backwards through the top
  d layers (the tuning depth) at 2 units each. Without the cache it
  forwards all L layers. With it, at depth watermark w (device boundary
  b = L - w), a hit forwards the w layers above b and a recompute all L,
  to refresh the stored activation; both pay the device's per-batch
  reload charge. Adapter compute overhead is treated as negligible next to
  a transformer block.
- A client's compute seconds add its batch prices one at a time, in the
  order ``fed.local_train`` runs them: the uncached batches, or else the
  recomputes and then the hits. A ledger holds a client's batches at the
  session's watermark, all of them or none (``fed.run_round`` clears every
  ledger when the watermark rises), so a first epoch is all recomputes or
  all hits, and later epochs hit. (Only a corrupted entry, recomputed
  between hits, breaks that order.)
- Each participant downloads and uploads one payload, at 4 bytes per
  trainable scalar, the float32 the model computes in (``traffic_bytes``).
  Its time is download + compute + upload; the slowest sets the round's.
- A participant's joules are its compute seconds at the device's compute
  power plus its transfer seconds at its radio power.

Two stated departures of the host from the emulated device change no
emulated time, byte or joule. The host resumes above the boundary, at the
lowest adapter's input: the backbone of layer b+1 is frozen too, so the
host store keeps its output in place of the boundary's
(``adapter.TuningScheme.resume_layer``, ``model.PrefixStore``). The device is
still charged layer b+1's body on every batch, as for the paper's adapters
inside the layer; pricing the resume point instead would change every
emulated time and energy. And the host runs the top layer only for the
pooled first token the classifier reads (``model.forward_from_boundary``),
while every layer here is priced for the whole sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError

WIRE_BYTES_PER_SCALAR = 4
PAYLOAD_HEADER_BYTES = 64


def _positive(value: float) -> bool:
    """Finite and > 0: a NaN passes every ``<=`` test and would poison the emulated clock."""
    return math.isfinite(value) and value > 0


@dataclass(frozen=True)
class DeviceProfile:
    """Measured device characteristics driving the emulated clock."""

    name: str
    per_batch_latency_full: float  # seconds for one full-model training batch
    compute_power_watts: float
    radio_power_watts: float
    cache_reload_latency: float  # seconds per batch for the activation cache

    def __post_init__(self):
        for field_name in ("per_batch_latency_full", "compute_power_watts",
                           "radio_power_watts", "cache_reload_latency"):
            if not _positive(getattr(self, field_name)):
                raise ConfigurationError(
                    f"device profile '{self.name}': {field_name} must be finite and > 0")


@dataclass(frozen=True)
class NetworkProfile:
    uplink_bytes_per_s: float
    downlink_bytes_per_s: float

    def __post_init__(self):
        for field_name in ("uplink_bytes_per_s", "downlink_bytes_per_s"):
            if not _positive(getattr(self, field_name)):
                raise ConfigurationError(f"network {field_name} must be finite and > 0")


# Per-batch latencies measured on real boards; power coefficients and
# reload latencies are artifact-supplied ballparks for those boards.
BUILTIN_DEVICE_PROFILES = {
    "tx2": DeviceProfile("tx2", 0.88, 7.5, 1.5, 0.005),
    "nano": DeviceProfile("nano", 1.89, 5.0, 1.5, 0.008),
    "rpi4b": DeviceProfile("rpi4b", 18.27, 6.0, 1.2, 0.020),
}

DEFAULT_NETWORK = NetworkProfile(1_000_000.0, 1_000_000.0)  # 1 MB/s each way


@dataclass
class Work:
    """One client's training batches in a round, by how the activation cache served each."""

    recomputes: int = 0  # cached batches whose frozen prefix was recomputed
    hits: int = 0  # cached batches served from the ledger
    uncached: int = 0  # batches run without the cache


def payload_bytes(trainable_scalars: int) -> int:
    """Wire size of one payload in one direction."""
    return trainable_scalars * WIRE_BYTES_PER_SCALAR + PAYLOAD_HEADER_BYTES


def traffic_bytes(payload_size: int, participants: int) -> int:
    """Wire bytes of a round: each participant downloads and uploads one payload."""
    return 2 * payload_size * participants


def price_round(num_layers: int, tuning_depth: int, depth_watermark: int, payload_size: int,
                clients: dict[str, tuple[DeviceProfile, NetworkProfile, Work]],
                ) -> tuple[float, dict[str, float]]:
    """(round seconds, joules per client) of one track round, by the module docstring's rule.

    ``clients`` maps ``str(cid)`` to each participant's device, network and
    work, in group order; the joules come back keyed and ordered alike.
    """
    if not 0 <= tuning_depth <= num_layers:
        raise ConfigurationError(
            f"tuning depth {tuning_depth} outside [0, {num_layers}]")
    backward = 2.0 * tuning_depth
    round_seconds = 0.0
    client_energy = {}
    for key, (device, net, work) in clients.items():
        unit = device.per_batch_latency_full / (3.0 * num_layers)
        compute_s = 0.0
        for count, batch_s in (  # in the order local_train runs them
                (work.uncached, unit * (num_layers + backward)),
                (work.recomputes, unit * (num_layers + backward) + device.cache_reload_latency),
                (work.hits, unit * (depth_watermark + backward) + device.cache_reload_latency)):
            for _ in range(count):
                compute_s += batch_s
        down_s = payload_size / net.downlink_bytes_per_s
        up_s = payload_size / net.uplink_bytes_per_s
        round_seconds = max(round_seconds, down_s + compute_s + up_s)
        client_energy[key] = (compute_s * device.compute_power_watts
                              + (down_s + up_s) * device.radio_power_watts)
    return round_seconds, client_energy
