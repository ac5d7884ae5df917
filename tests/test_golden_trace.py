"""Golden trace digests: the "no behaviour change" gate.

A trace is a pure function of (config, seed), so its sha256 pins every
emitted accuracy, clock, byte count and configurator decision. A change
that claims to leave behaviour alone must leave these digests alone; a
change that moves one on purpose updates it here and says why.
"""

import functools
import hashlib

import pytest

from fedtune import session as session_mod

from conftest import small_session_doc, stacked_digest

GOLDEN = {
    "fixed_adapter": (
        small_session_doc(max_rounds=6),
        "ec54b1277f2e95abe981fbb2ff7882041409b260a566c5badb6c8609981dd109",
    ),
    "full_ft": (
        small_session_doc(mode="full_ft", max_rounds=4),
        "c61a39d965303ce04ff039969abd0d40acdb47401e23720aadfb3e8fb888229c",
    ),
    "layer_freeze": (
        small_session_doc(mode="layer_freeze", freeze_layers=1, max_rounds=4),
        "8d7ec4acb517f7cea835982ab3bc3eb76d020863f1341042a13615e1a236abc4",
    ),
    "autofed": (
        small_session_doc(mode="autofed", max_rounds=12,
                          configurator={"trial_intvl_s": 1.0}),
        "efeb7f2c53c79297d741e8057874526aa0eef67c48316374b39eb8d399767ef1",
    ),
    "autofed_climb": (
        small_session_doc(mode="autofed", max_rounds=20,
                          configurator={"start_depth": 1, "trial_intvl_s": 0.5}),
        "f471cd05e45724b445157762ef267ca829290572048b7b531afda0d2f9c4f8ab",
    ),
    # the derived trial interval: the one golden whose decisions (rounds 5 and 14)
    # depend on when the decision clock was last reset
    "autofed_derived": (
        small_session_doc(mode="autofed", max_rounds=20),
        "ff481d646437d461827aa887b80b62024e036e6c5d0888ec9350f09090887442",
    ),
    "autofed_no_cache": (
        small_session_doc(mode="autofed", max_rounds=12, cache_enabled=False,
                          configurator={"trial_intvl_s": 1.0}),
        "7948c0a818fd4353264dfeae01270a28d5891972a6839da67ce08cbff5c44d9c",
    ),
}


# What the stacked-unit code wrote (``conftest.stacked_digest``): the event
# index of the first wider round, and the digest of the events before it.
# With no wider round that is the whole trace, and the digest was GOLDEN's.
STACKED = {
    "fixed_adapter": (15, "a364ec8fd6a4b9d1e6d574ffad8cb12c8cc2fa0c7ed4d03e917ef3f7a17945f7"),
    "full_ft": (11, "5c93a4438817633572b2dc1d2050788fd88449e45ed4ef7ec97e8f9d7ee1e414"),
    "layer_freeze": (11, "3c97d09b04cf42f0eecfef556ed3617f47dde920a6bf0e2a08307c5e7e901a5e"),
    "autofed": (14, "b51283d252537dc4276de3907562d7529777b3379b197a87400566837e825b0d"),
    "autofed_climb": (4, "bde972b6ffe24ac917e10e7d38d5026d82bf36cd5ed22ca5ed1cbf6f8ab8262b"),
    "autofed_derived": (87, "113910d79113b5dd18cdb2e2bce2a5c78b051236d6b2045d8223bf9920e2820e"),
    "autofed_no_cache": (14, "1b1c7f0f4203215cd386df4f1d1d2715063a75a70759a9f76a9925174bac9d25"),
}


@pytest.fixture(scope="module")
def trace_of(tmp_path_factory):
    """The golden config's session, run once in this module: its trace's bytes and events."""
    @functools.cache
    def run(name: str) -> tuple[bytes, list[dict]]:
        path = tmp_path_factory.mktemp(name) / "trace.jsonl"
        result = session_mod.run_session_config(
            session_mod.config_from_dict(GOLDEN[name][0]), str(path))
        return path.read_bytes(), result.events
    return run


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_digest_is_pinned(name, trace_of):
    assert hashlib.sha256(trace_of(name)[0]).hexdigest() == GOLDEN[name][1]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_is_the_stacked_trace_until_a_wider_track_trains(name, trace_of):
    assert stacked_digest(trace_of(name)[1]) == STACKED[name]
