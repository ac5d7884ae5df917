"""A golden trace digest at the *mid* shape, the shape the benchmark runs.

The digests in ``test_golden_trace.py`` use hidden 16, where the BLAS
library runs other kernels than at hidden 64. This pins a climbing
``autofed`` session at the mid shape (6 layers, hidden 64, 4 heads, ffn
128, seqlen 32) that deepens twice, (0, 8) -> (1, 8) -> (2, 8), in about
1.5 s. The digest is the same with one or two BLAS threads.
"""

import hashlib

import pytest

from fedtune import session as session_mod

from conftest import stacked_digest

MID_CLIMB = {
    "seed": 4,
    "mode": "autofed",
    "model": {"num_layers": 6, "hidden": 64, "heads": 4, "ffn_dim": 128,
              "vocab": 200, "seqlen": 32, "num_labels": 4},
    "task": {"samples_per_label": 200},
    "num_clients": 40,
    "participants_per_group": 5,
    "batch_size": 8,
    "devices": "tx2",
    "max_rounds": 20,
    "configurator": {},
}
DIGEST = "d04e3cc6ad2cf1fd71654bc80dedacd74f35f6dbe4f84978098a4a7b99d7e06e"
# what the stacked-unit code wrote before the first wider round (``conftest.stacked_digest``)
STACKED = (72, "ef7db38f315839a84335e29e2b75804f3a2c2f8bcf57f313bba0321968ca48e6")


@pytest.fixture(scope="module")
def mid_climb(tmp_path_factory):
    """The climbing session, run once in this module: its trace's bytes and its result."""
    path = tmp_path_factory.mktemp("mid") / "mid_climb.trace.jsonl"
    result = session_mod.run_session_config(session_mod.config_from_dict(MID_CLIMB), str(path))
    return path.read_bytes(), result


def test_mid_shape_climb_digest_is_pinned(mid_climb):
    trace, result = mid_climb
    assert result.summary["configs_visited"] == [[0, 8], [1, 8], [2, 8]]
    assert hashlib.sha256(trace).hexdigest() == DIGEST


def test_mid_shape_climb_is_the_stacked_trace_until_a_wider_track_trains(mid_climb):
    assert stacked_digest(mid_climb[1].events) == STACKED
