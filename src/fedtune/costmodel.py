"""Analytic per-batch time, traffic, and energy accounting.

Per-layer costs are uniform: one full-model training batch costs 3*D
forward-layer units (forward D, backward 2D), so the unit cost is the
measured full-batch latency divided by 3*D. One function,
``batch_time_from_boundary``, prices every training batch, with or without
the activation cache; a track round's time and energy are summed from it
in ``fed.run_track_round``. Adapter compute overhead is treated as negligible next
to a transformer block. Wire traffic is charged at 4 bytes per scalar,
the float32 the model computes in.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigurationError

WIRE_BYTES_PER_SCALAR = 4
PAYLOAD_HEADER_BYTES = 64

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
            if getattr(self, field_name) <= 0:
                raise ConfigurationError(f"device profile '{self.name}': {field_name} must be > 0")


@dataclass(frozen=True)
class NetworkProfile:
    uplink_bytes_per_s: float
    downlink_bytes_per_s: float

    def __post_init__(self):
        if self.uplink_bytes_per_s <= 0 or self.downlink_bytes_per_s <= 0:
            raise ConfigurationError("network bandwidth must be > 0")


# Per-batch latencies measured on real boards; power coefficients and
# reload latencies are artifact-supplied ballparks for those boards.
BUILTIN_DEVICE_PROFILES = {
    "tx2": DeviceProfile("tx2", 0.88, 7.5, 1.5, 0.005),
    "nano": DeviceProfile("nano", 1.89, 5.0, 1.5, 0.008),
    "rpi4b": DeviceProfile("rpi4b", 18.27, 6.0, 1.2, 0.020),
}

DEFAULT_NETWORK = NetworkProfile(1_000_000.0, 1_000_000.0)  # 1 MB/s each way


def layer_unit_cost(profile: DeviceProfile, num_layers: int) -> float:
    """Seconds for one forward pass of one transformer layer on one batch."""
    return profile.per_batch_latency_full / (3.0 * num_layers)


def batch_time_from_boundary(profile: DeviceProfile, num_layers: int, tuning_depth: int,
                             boundary: int | None, recomputed: bool) -> float:
    """Per-batch training seconds at tuning depth d; the only per-batch cost.

    Every batch backwards through the top d layers at twice forward cost.
    Without the cache (``boundary`` None) it forwards all L layers. With
    it, a hit forwards the layers above the boundary and a recompute runs
    the bottom path too, all L layers, to refresh the stored activation;
    both pay the per-batch reload/store charge. ``recomputed`` is read
    only with a boundary.

    ``boundary`` is the device boundary b, the deepest frozen layer. The
    host resumes higher, at the lowest adapter's input: the backbone of
    layer b+1 is frozen too, so the host store keeps its output in place
    of the boundary's (``model.resume_layer``, ``model.PrefixStore``). The
    emulated device is still charged layer b+1's body on every batch, as
    for the paper's adapters inside the layer. That is a stated departure;
    pricing the resume point instead would change every emulated time and
    energy. Likewise the host runs the top layer only for the pooled first
    token the classifier reads (``model.forward_from_boundary``), while
    every layer here is priced for the whole sequence.
    """
    if not 0 <= tuning_depth <= num_layers:
        raise ConfigurationError(
            f"tuning depth {tuning_depth} outside [0, {num_layers}]")
    c = layer_unit_cost(profile, num_layers)
    if boundary is None:
        return c * (num_layers + 2.0 * tuning_depth)
    forward_layers = num_layers if recomputed else num_layers - boundary
    return c * (forward_layers + 2.0 * tuning_depth) + profile.cache_reload_latency


def payload_bytes(trainable_scalars: int) -> int:
    """Wire size of one payload in one direction."""
    return trainable_scalars * WIRE_BYTES_PER_SCALAR + PAYLOAD_HEADER_BYTES


def transfer_seconds(num_bytes: int, net: NetworkProfile) -> tuple[float, float]:
    """(downlink, uplink) seconds for one payload each way."""
    return num_bytes / net.downlink_bytes_per_s, num_bytes / net.uplink_bytes_per_s


def energy_joules(compute_s: float, transfer_s: float, profile: DeviceProfile) -> float:
    """Energy spent training plus energy spent on the radio."""
    return compute_s * profile.compute_power_watts + transfer_s * profile.radio_power_watts

