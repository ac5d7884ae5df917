"""The block passes of ``data.py`` build the world the one-at-a-time loops built.

The loops are kept here as the reference: ``generate_task``,
``partition_noniid`` and ``split_train_test`` must return the same arrays,
with the same dtypes, and leave every stream at the same position. The
reference samples by binary search over the cdf, so it does not share
``choice_index``'s bucket lookup, which is checked against that search on
the uniforms where a lookup slips: on cdf values and bucket edges. Two
worlds are pinned by the sha256 of every array, so a world byte that moves
shows here, not only through a session trace.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_session_doc
from test_mid_shape_golden import MID_CLIMB

from fedtune import data as data_mod
from fedtune import session as session_mod
from fedtune.errors import DataError, PartitionError, SplitError
from fedtune.tensor_nn import SeededRng, cdf_index

ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# reference: one candidate, one Dirichlet draw, one set operation at a time
# ---------------------------------------------------------------------------

def _topic_of(token: int, num_labels: int) -> int:
    return (token - 1) % num_labels


def _reference_teacher_matrix(spec):
    emb = data_mod._teacher_embeddings(spec)
    cols = np.zeros((data_mod.TEACHER_FEATURE_DIM, spec.num_labels))
    for y in range(spec.num_labels):
        members = [t for t in range(1, spec.vocab) if _topic_of(t, spec.num_labels) == y]
        cols[:, y] = emb[members].mean(axis=0)
    return cols


def reference_choice_index(rng, probs, n):
    """``n`` categorical draws by binary search over the cdf, one uniform each."""
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    return np.searchsorted(cdf, rng._gen.random(n), side="right")


def reference_generate_task(spec, rng):
    emb = data_mod._teacher_embeddings(spec)
    teacher = _reference_teacher_matrix(spec)
    content_tokens = np.arange(1, spec.vocab)
    tokens_out = []
    labels_out = []
    for y in range(spec.num_labels):
        weights = np.ones(content_tokens.size)
        weights[[_topic_of(int(t), spec.num_labels) == y for t in content_tokens]] += \
            data_mod.TOPIC_BOOST
        probs = weights / weights.sum()
        accepted = 0
        draws = 0
        limit = data_mod.MAX_REJECTION_FACTOR * spec.samples_per_label
        while accepted < spec.samples_per_label:
            if draws >= limit:
                raise DataError(
                    f"label {y}: rejection sampling budget exhausted after {draws} draws")
            draws += 1
            idx = reference_choice_index(rng, probs, spec.seqlen - 1)
            seq = np.concatenate(([0], content_tokens[idx]))
            features = emb[seq[1:]].mean(axis=0)
            if int((features @ teacher).argmax()) == y:
                tokens_out.append(seq)
                labels_out.append(y)
                accepted += 1
    tokens = np.stack(tokens_out).astype(np.int64)
    labels = np.asarray(labels_out, dtype=np.int64)
    if spec.noise_rate > 0.0:
        flip = rng.uniform(0.0, 1.0, labels.size) < spec.noise_rate
        offsets = rng.integers(1, spec.num_labels, size=labels.size)
        labels = np.where(flip, (labels + offsets) % spec.num_labels, labels)
    order = rng.permutation(labels.size)
    return data_mod.LabeledDataset(tokens[order], labels[order].astype(np.int64), spec)


def reference_partition_noniid(dataset, num_clients, a, rng, min_per_client=5,
                               max_retries=100):
    n = len(dataset)
    if n < num_clients * min_per_client:
        raise PartitionError("too small")
    labels = dataset.labels
    num_labels = dataset.spec.num_labels
    for _ in range(max_retries):
        prefs = np.stack([rng.dirichlet([a] * num_labels) for _ in range(num_clients)])
        shards = {c: [] for c in range(num_clients)}
        for y in range(num_labels):
            pool = np.flatnonzero(labels == y)
            pool = pool[rng.permutation(pool.size)]
            share = prefs[:, y]
            if share.sum() == 0.0:
                share = np.ones(num_clients)
            counts = data_mod.largest_remainder(share / share.sum(), pool.size)
            start = 0
            for c in range(num_clients):
                shards[c].append(pool[start:start + counts[c]])
                start += counts[c]
        sizes = [sum(part.size for part in shards[c]) for c in range(num_clients)]
        if min(sizes) >= min_per_client:
            return {c: np.sort(np.concatenate(shards[c])) for c in range(num_clients)}
    raise PartitionError("retries exhausted")


def reference_split_train_test(dataset, indices, rng, ratio=0.8):
    if indices.size < 5:
        raise SplitError("too small")
    labels = dataset.labels[indices]
    test_parts = []
    for y in np.unique(labels):
        members = indices[labels == y]
        members = members[rng.permutation(members.size)]
        n_test = int(round(members.size * (1.0 - ratio)))
        test_parts.append(members[:n_test])
    test_idx = np.sort(np.concatenate(test_parts)) if test_parts else np.array([], dtype=np.int64)
    if test_idx.size == 0:
        test_idx = indices[rng.permutation(indices.size)][:1]
    train_idx = np.setdiff1d(indices, test_idx)
    if train_idx.size == 0:
        raise SplitError("no training samples")
    return data_mod.Shard(
        train_tokens=dataset.tokens[train_idx].copy(),
        train_labels=dataset.labels[train_idx].copy(),
        test_tokens=dataset.tokens[test_idx].copy(),
        test_labels=dataset.labels[test_idx].copy(),
    )


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _assert_same_array(got, want):
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def _run(fn, *args):
    """``fn``'s result, or the message of the DataError it raised."""
    try:
        return fn(*args)
    except DataError as err:
        return str(err)


@st.composite
def task_specs(draw):
    num_labels = draw(st.integers(2, 5))
    return data_mod.SyntheticTaskSpec(
        vocab=draw(st.integers(num_labels + 1, 40)),
        seqlen=draw(st.integers(2, 12)),
        num_labels=num_labels,
        teacher_seed=draw(st.integers(0, 2**32 - 1)),
        samples_per_label=draw(st.integers(1, 90)),
        noise_rate=draw(st.sampled_from([0.0, 0.1, 0.3])),
    )


def _small_task(seed: int = 3) -> data_mod.LabeledDataset:
    spec = data_mod.SyntheticTaskSpec(vocab=24, seqlen=8, num_labels=3, teacher_seed=5,
                                      samples_per_label=30)
    return data_mod.generate_task(spec, SeededRng(seed))


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(spec=task_specs(), seed=st.integers(0, 2**64 - 1))
def test_generate_task_matches_the_reference(spec, seed):
    rng, ref_rng = SeededRng(seed), SeededRng(seed)
    got = _run(data_mod.generate_task, spec, rng)
    want = _run(reference_generate_task, spec, ref_rng)
    if isinstance(want, str):
        assert got == want
    else:
        _assert_same_array(got.tokens, want.tokens)
        _assert_same_array(got.labels, want.labels)
    assert rng.uniform(0.0, 1.0) == ref_rng.uniform(0.0, 1.0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), num_clients=st.integers(1, 12),
       a=st.sampled_from([0.01, 0.05, 0.5, 10.0]), min_per_client=st.integers(0, 6))
def test_partition_matches_the_reference(seed, num_clients, a, min_per_client):
    dataset = _small_task()
    rng, ref_rng = SeededRng(seed), SeededRng(seed)
    args = (dataset, num_clients, a)
    try:
        want = reference_partition_noniid(*args, ref_rng, min_per_client)
    except PartitionError:
        with pytest.raises(PartitionError):
            data_mod.partition_noniid(*args, rng, min_per_client)
    else:
        got = data_mod.partition_noniid(*args, rng, min_per_client)
        assert sorted(got) == sorted(want)
        for c in want:
            _assert_same_array(got[c], want[c])
    assert rng.uniform(0.0, 1.0) == ref_rng.uniform(0.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), data=st.data(),
       ratio=st.sampled_from([0.5, 0.8, 0.9]))
def test_split_matches_the_reference(seed, data, ratio):
    dataset = _small_task()
    chosen = data.draw(st.sets(st.integers(0, len(dataset) - 1), min_size=5, max_size=40))
    indices = np.array(sorted(chosen), dtype=np.int64)
    rng, ref_rng = SeededRng(seed), SeededRng(seed)
    got = data_mod.split_train_test(dataset, indices, 4, rng, ratio)
    want = reference_split_train_test(dataset, indices, ref_rng, ratio)
    for name in ("train_tokens", "train_labels", "test_tokens", "test_labels"):
        _assert_same_array(getattr(got, name), getattr(want, name))
    assert rng.uniform(0.0, 1.0) == ref_rng.uniform(0.0, 1.0)


def test_budget_exhaustion_raises_the_reference_error(monkeypatch):
    monkeypatch.setattr(data_mod, "MAX_REJECTION_FACTOR", 1)
    spec = data_mod.SyntheticTaskSpec(vocab=40, seqlen=10, num_labels=4, samples_per_label=150)
    rng, ref_rng = SeededRng(9), SeededRng(9)
    with pytest.raises(DataError) as want:
        reference_generate_task(spec, ref_rng)
    with pytest.raises(DataError) as got:
        data_mod.generate_task(spec, rng)
    assert str(got.value) == str(want.value)
    assert "after 150 draws" in str(got.value)
    assert rng.uniform(0.0, 1.0) == ref_rng.uniform(0.0, 1.0)


def test_tiny_shard_holds_out_one_sample():
    dataset = _small_task()
    # two, two and one members: no label's 20% rounds up to a test sample
    indices = np.sort(np.concatenate(
        [np.flatnonzero(dataset.labels == y)[:n] for y, n in ((0, 2), (1, 2), (2, 1))]))
    rng, ref_rng = SeededRng(5), SeededRng(5)
    got = data_mod.split_train_test(dataset, indices, 0, rng)
    want = reference_split_train_test(dataset, indices, ref_rng)
    assert got.test_labels.size == 1 and got.train_labels.size == 4
    for name in ("train_tokens", "train_labels", "test_tokens", "test_labels"):
        _assert_same_array(getattr(got, name), getattr(want, name))
    assert rng.uniform(0.0, 1.0) == ref_rng.uniform(0.0, 1.0)


@pytest.mark.parametrize("indices", [[0, 2, 1, 3, 4], [0, 1, 1, 2, 3, 4]])
def test_split_refuses_unordered_or_repeated_indices(indices):
    with pytest.raises(SplitError, match="ascending and distinct"):
        data_mod.split_train_test(_small_task(), np.array(indices), 0, SeededRng(1))


# ---------------------------------------------------------------------------
# block draws read the stream as single draws do
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), k=st.integers(1, 70), n=st.integers(1, 40),
       weights=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=30))
def test_choice_index_block_equals_single_draws(seed, k, n, weights):
    probs = np.array(weights) / sum(weights)
    rng, ref_rng = SeededRng(seed), SeededRng(seed)
    block = rng.choice_index(probs, (k, n))
    np.testing.assert_array_equal(block, np.stack([reference_choice_index(ref_rng, probs, n)
                                                   for _ in range(k)]))
    assert rng.uniform(0.0, 1.0) == ref_rng.uniform(0.0, 1.0)


@st.composite
def cdfs_and_uniforms(draw):
    """A cdf as ``choice_index`` builds it, and uniforms that probe its edges.

    Weights of 0 repeat a cdf value, and a heavy weight among tiny ones
    puts many cdf values into one bucket. Besides free draws, the
    uniforms include every cdf value below 1, every bucket edge k / K, and
    the doubles just below and above each.
    """
    weights = draw(st.lists(st.sampled_from([0.0, 1e-9, 1e-3, 0.5, 1.0, 7.0, 1e4]),
                            min_size=1, max_size=300).filter(lambda w: sum(w) > 0))
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    buckets = 1 << cdf.size.bit_length()
    edges = np.concatenate([cdf[cdf < 1.0], np.arange(buckets) / buckets])
    edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    free = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=50))
    uniforms = np.concatenate([edges[(edges >= 0.0) & (edges < 1.0)], free])
    return cdf, uniforms


@settings(max_examples=200, deadline=None)
@given(case=cdfs_and_uniforms())
def test_bucket_lookup_equals_binary_search(case):
    cdf, uniforms = case
    want = np.searchsorted(cdf, uniforms, side="right")
    _assert_same_array(cdf_index(cdf, uniforms), want)
    _assert_same_array(cdf_index(cdf, uniforms.reshape(1, -1, 1)), want.reshape(1, -1, 1))


@pytest.mark.parametrize("a", [0.01, 0.05, 0.5, 10.0])
def test_dirichlet_rows_equal_single_draws(a):
    for seed in range(20):
        rng, ref_rng = SeededRng(seed), SeededRng(seed)
        rows = rng.dirichlet([a] * 5, size=7)
        want = np.stack([ref_rng.dirichlet([a] * 5) for _ in range(7)])
        np.testing.assert_array_equal(rows, want)
        assert rng.uniform(0.0, 1.0) == ref_rng.uniform(0.0, 1.0)


# ---------------------------------------------------------------------------
# pinned worlds
# ---------------------------------------------------------------------------

def world_digests(world) -> dict[str, str]:
    """sha256 of each part of a world: every client's batches, the test set, the backbone."""
    def sha(arrays):
        h = hashlib.sha256()
        for label, a in arrays:
            h.update(f"{label} {a.dtype.str} {a.shape}".encode())
            h.update(a.tobytes())
        return h.hexdigest()

    registry = world.server.registry
    return {
        "batches": sha((f"client {cid} batch {b.batch_id} {part}", getattr(b, part))
                       for cid in sorted(registry) for b in registry[cid].train_batches
                       for part in ("tokens", "labels")),
        "test_tokens": sha([("test", world.test_tokens)]),
        "test_labels": sha([("test", world.test_labels)]),
        "backbone": sha((p.name, p.data) for p in world.backbone.parameters()),
    }


PINNED_WORLDS = {
    # the mid-shape climb's world, the benchmark's shape
    "mid_climb": (MID_CLIMB, {
        "batches": "f75dcbe13dfac81cd98121fb28b0357c683478f72826daae7191dd481f526a8c",
        "test_tokens": "bca015f44c913d477f4fb044e50445b91b141957aa4c2d5eade7a15f0e1825ae",
        "test_labels": "d75a42eaeb54131b5d4157dd62a7a3d82ee25d5d1069494ff5a517beddcd971f",
        "backbone": "8814dd3f3b785439e6fa6c2543cc5bbead33eca1ab1dd7484af9cdc8f5f5ceca",
    }),
    # label noise flips and strongly skewed shards, which no golden config reaches
    "noisy_skewed": (small_session_doc(
        task={"teacher_seed": 5, "samples_per_label": 40, "noise_rate": 0.2},
        noniid_concentration=0.05), {
        "batches": "2ddac679ce07da0ce95cb7f70255810f890ec51826ed029179fba49962d4fb52",
        "test_tokens": "68964ac31ef7af64c8efc1b495dc917568e8e21205a8f9f50007e9e3223678d2",
        "test_labels": "004358291712bf5587f2ecf1b4011516821c558a8379033fa94553c3dd3307db",
        "backbone": "c311e2978dce76f612907bd2e15ce7ed1aa77d9bc9bcff0d6c5bd257a7a598c9",
    }),
}


@pytest.mark.parametrize("name", sorted(PINNED_WORLDS))
def test_world_arrays_are_pinned(name):
    doc, pins = PINNED_WORLDS[name]
    got = world_digests(session_mod.build_world(session_mod.config_from_dict(doc)))
    assert got == pins


# ---------------------------------------------------------------------------
# tooling
# ---------------------------------------------------------------------------

def test_world_build_does_not_import_numpy_ma():
    """``numpy.ma`` costs about 1 MB of RSS; numpy loads it lazily, from ``np.unique`` among others."""
    script = (
        "import sys\n"
        "from fedtune import session\n"
        f"session.build_world(session.config_from_dict({small_session_doc()!r}))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=60)
    assert out.stdout.strip() == "False"
