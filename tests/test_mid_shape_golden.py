"""A golden trace digest at the *mid* shape, the shape the benchmark runs.

The digests in ``test_golden_trace.py`` use hidden 16, where the BLAS
library runs other kernels than at hidden 64. This pins a climbing
``autofed`` session at the mid shape (6 layers, hidden 64, 4 heads, ffn
128, seqlen 32) that deepens twice, (0, 8) -> (1, 8) -> (2, 8), in about
1.5 s. The digest is the same with one or two BLAS threads.
"""

import hashlib

from fedtune import session as session_mod

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
DIGEST = "b6e3571179b64fe8a44bd419d801dc414ac2dc30a2af62465fc1c91a1e7e7146"


def test_mid_shape_climb_digest_is_pinned(tmp_path):
    path = tmp_path / "mid_climb.trace.jsonl"
    result = session_mod.run_session_config(session_mod.config_from_dict(MID_CLIMB), str(path))
    assert result.summary["configs_visited"] == [[0, 8], [1, 8], [2, 8]]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGEST
