"""The round price, ``costmodel.price_round``, called directly, and the premise of pricing again.

A round's price is a function of the work its clients did, so training
must never read a device or a network: the last test runs one session
under three resource settings and asks for the same training each time.
"""

import pytest

from fedtune import costmodel
from fedtune import session as session_mod
from fedtune import trace as trace_mod
from fedtune.costmodel import BUILTIN_DEVICE_PROFILES, NetworkProfile, Work
from fedtune.errors import ConfigurationError

from conftest import small_session_doc

TX2, RPI4B = BUILTIN_DEVICE_PROFILES["tx2"], BUILTIN_DEVICE_PROFILES["rpi4b"]
SLOW_NET = NetworkProfile(uplink_bytes_per_s=100_000.0, downlink_bytes_per_s=400_000.0)


def _added(*batches: tuple[int, float]) -> float:
    """Seconds of (count, batch price) runs, added one batch at a time in the order given."""
    total = 0.0
    for count, seconds in batches:
        for _ in range(count):
            total += seconds
    return total


def test_a_two_client_round_is_priced_by_hand():
    """L = 4, tuning depth 2, watermark 2: a hit forwards 2 layers, a recompute 4; each backwards 2."""
    payload = 10_064
    round_seconds, energy = costmodel.price_round(4, 2, 2, payload, {
        "5": (RPI4B, SLOW_NET, Work(recomputes=3, hits=6)),
        "2": (TX2, costmodel.DEFAULT_NETWORK, Work(hits=9)),
    })

    rpi_unit, tx2_unit = RPI4B.per_batch_latency_full / 12.0, TX2.per_batch_latency_full / 12.0
    rpi_compute = _added((3, rpi_unit * (4 + 4.0) + RPI4B.cache_reload_latency),
                         (6, rpi_unit * (2 + 4.0) + RPI4B.cache_reload_latency))
    tx2_compute = _added((9, tx2_unit * (2 + 4.0) + TX2.cache_reload_latency))
    rpi_down, rpi_up = payload / 400_000.0, payload / 100_000.0
    tx2_down = tx2_up = payload / 1_000_000.0

    # the slowest client sets the round: here the rpi4b, by far
    assert round_seconds == rpi_down + rpi_compute + rpi_up
    assert round_seconds > tx2_down + tx2_compute + tx2_up
    assert list(energy) == ["5", "2"]  # group order, which the round's energy_j sums in
    assert energy["5"] == (rpi_compute * RPI4B.compute_power_watts
                           + (rpi_down + rpi_up) * RPI4B.radio_power_watts)
    assert energy["2"] == (tx2_compute * TX2.compute_power_watts
                           + (tx2_down + tx2_up) * TX2.radio_power_watts)


def test_uncached_batches_are_priced_without_a_boundary():
    """Forward all L layers and backward d, with no reload charge, whatever the watermark."""
    clients = {"0": (TX2, costmodel.DEFAULT_NETWORK, Work(uncached=7))}
    transfer_s = 1_104 / 1_000_000.0
    compute = _added((7, TX2.per_batch_latency_full / 18.0 * (6 + 2.0 * 6)))
    for watermark in (0, 3, 6):
        round_seconds, energy = costmodel.price_round(6, 6, watermark, 1_104, clients)
        assert round_seconds == transfer_s + compute + transfer_s
        assert energy == {"0": compute * TX2.compute_power_watts
                          + (transfer_s + transfer_s) * TX2.radio_power_watts}


@pytest.mark.parametrize("depth", [-1, 7])
def test_a_tuning_depth_outside_the_model_is_refused(depth):
    with pytest.raises(ConfigurationError, match=f"tuning depth {depth} outside"):
        costmodel.price_round(6, depth, 1, 1_104, {"0": (TX2, costmodel.DEFAULT_NETWORK, Work())})


def test_recomputes_are_added_before_hits():
    """The order ``fed.local_train`` runs them, which here changes the last bit.

    On tx2 with 6 layers, depth 1 and watermark 1, 2 recomputes then 9 hits
    add up to 2.1572222222222224 s of compute; the hits first would give
    2.157222222222222 s, and both the round's seconds and the joules show it.
    """
    unit = TX2.per_batch_latency_full / 18.0
    recompute = unit * (6 + 2.0) + TX2.cache_reload_latency
    hit = unit * (1 + 2.0) + TX2.cache_reload_latency
    compute = _added((2, recompute), (9, hit))
    hits_first = _added((9, hit), (2, recompute))
    assert (compute, hits_first) == (2.1572222222222224, 2.157222222222222)

    round_seconds, energy = costmodel.price_round(
        6, 1, 1, 1_104, {"0": (TX2, costmodel.DEFAULT_NETWORK, Work(recomputes=2, hits=9))})
    transfer_s = 1_104 / 1_000_000.0
    assert round_seconds == transfer_s + compute + transfer_s
    assert round_seconds != transfer_s + hits_first + transfer_s
    radio_j = (transfer_s + transfer_s) * TX2.radio_power_watts
    assert energy["0"] == compute * TX2.compute_power_watts + radio_j
    assert energy["0"] != hits_first * TX2.compute_power_watts + radio_j


RESOURCES = {
    "tx2": {"devices": "tx2"},
    "rpi4b": {"devices": "rpi4b"},
    "tx2_50kBps": {"devices": "tx2", "network": {"uplink_bytes_per_s": 50_000.0,
                                                 "downlink_bytes_per_s": 50_000.0}},
}


@pytest.mark.parametrize("mode", ["fixed_adapter", "full_ft"])
def test_training_never_reads_the_device_or_the_network(mode, tmp_path):
    """Other resources change a fixed-mode session's price, never what it trains or caches."""
    trained, priced = set(), set()
    for name, resources in RESOURCES.items():
        doc = small_session_doc(mode=mode, max_rounds=3, **resources)
        result = session_mod.run_session_config(
            session_mod.config_from_dict(doc), str(tmp_path / f"{name}.jsonl"))
        rounds = trace_mod.events_of_kind(result.events, "round")
        # an eval event's clock is priced; what was trained is its accuracy
        evals = [(e["round"], e["track"], e["accuracy"])
                 for e in trace_mod.events_of_kind(result.events, "eval")]
        trained.add(repr((evals, [(e["participants"], e["cache_hits"], e["cache_recomputes"])
                                  for e in rounds])))
        priced.add(tuple(e["round_seconds"] for e in rounds))
    assert len(trained) == 1
    assert len(priced) == len(RESOURCES)
