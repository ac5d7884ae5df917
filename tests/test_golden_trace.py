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
        "bfe6c4b6a846d1e750a842f8a36077a537546d1eb6af3e2cfd4c0a7c6cda25ff",
    ),
    "full_ft": (
        small_session_doc(mode="full_ft", max_rounds=4),
        "5363a4842f631ab146db55b9eec39944473690fc9236f6b71bea1bb8af34ed92",
    ),
    "layer_freeze": (
        small_session_doc(mode="layer_freeze", freeze_layers=1, max_rounds=4),
        "60b16b1b386b5bcb582d1ef73b928d5f4d123c1c85094b64e913e968137142b5",
    ),
    "autofed": (
        small_session_doc(mode="autofed", max_rounds=12,
                          configurator={"trial_intvl_s": 1.0}),
        "b30f776a1bdc91c824eac6121eed715094fa69175b4a04e9bdb4f2a83d089159",
    ),
    "autofed_climb": (
        small_session_doc(mode="autofed", max_rounds=20,
                          configurator={"start_depth": 1, "trial_intvl_s": 0.5}),
        "ee254f27c66f35a252886775e9e90689574f295c97fab84dc9462c572b466448",
    ),
    "autofed_no_cache": (
        small_session_doc(mode="autofed", max_rounds=12, cache_enabled=False,
                          configurator={"trial_intvl_s": 1.0}),
        "8cf881630d742072b491c4687b3078274af1bd4ec3cb490f068f6a6aa9288f03",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_digest_is_pinned(name, tmp_path):
    doc, digest = GOLDEN[name]
    path = tmp_path / f"{name}.trace.jsonl"
    session_mod.run_session_config(session_mod.config_from_dict(doc), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
