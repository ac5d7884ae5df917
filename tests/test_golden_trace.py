"""Golden trace digests: the "no behaviour change" gate.

A trace is a pure function of (config, seed), so its sha256 pins every
emitted accuracy, clock, byte count and configurator decision. A change
that claims to leave behaviour alone must leave these digests alone; a
change that moves one on purpose updates it here and says why.
"""

import hashlib

import pytest

from fedtune import session as session_mod

from conftest import small_session_doc

GOLDEN = {
    "fixed_adapter": (
        small_session_doc(max_rounds=6),
        "a364ec8fd6a4b9d1e6d574ffad8cb12c8cc2fa0c7ed4d03e917ef3f7a17945f7",
    ),
    "full_ft": (
        small_session_doc(mode="full_ft", max_rounds=4),
        "5c93a4438817633572b2dc1d2050788fd88449e45ed4ef7ec97e8f9d7ee1e414",
    ),
    "layer_freeze": (
        small_session_doc(mode="layer_freeze", freeze_layers=1, max_rounds=4),
        "3c97d09b04cf42f0eecfef556ed3617f47dde920a6bf0e2a08307c5e7e901a5e",
    ),
    "autofed": (
        small_session_doc(mode="autofed", max_rounds=12,
                          configurator={"trial_intvl_s": 1.0}),
        "29a766fe8c687ec9f3f1edc168a6149ac5acd018c5ee1cbfb00811e739fbf584",
    ),
    "autofed_climb": (
        small_session_doc(mode="autofed", max_rounds=20,
                          configurator={"start_depth": 1, "trial_intvl_s": 0.5}),
        "8c9d49ea3899cc034183a3a243ebb82d10b82d1449c839b585047af0b5119c66",
    ),
    # the derived trial interval: the one golden whose decisions (rounds 5 and 14)
    # depend on when the decision clock was last reset
    "autofed_derived": (
        small_session_doc(mode="autofed", max_rounds=20),
        "113910d79113b5dd18cdb2e2bce2a5c78b051236d6b2045d8223bf9920e2820e",
    ),
    "autofed_no_cache": (
        small_session_doc(mode="autofed", max_rounds=12, cache_enabled=False,
                          configurator={"trial_intvl_s": 1.0}),
        "d091caf347607ad004b17cc6ba1c43283f3085a88210305c618d54521d218928",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_digest_is_pinned(name, tmp_path):
    doc, digest = GOLDEN[name]
    path = tmp_path / f"{name}.trace.jsonl"
    session_mod.run_session_config(session_mod.config_from_dict(doc), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
