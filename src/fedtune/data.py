"""Synthetic text-classification tasks and non-IID client partitioning.

Tasks are planted-structure: a hidden teacher (a linear map over
bag-of-token-embedding features drawn from the teacher seed) defines the
label of every sequence, and sequences are sampled from label-tilted token
distributions so the teacher's classes are balanced and learnable. Token 0
is reserved as the leading pooling token of every sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError, PartitionError, SplitError
from .tensor_nn import SeededRng

TEACHER_FEATURE_DIM = 16
TOPIC_BOOST = 4.0
MAX_REJECTION_FACTOR = 400
SAMPLING_BLOCK = 64  # most candidate sequences drawn and scored in one pass


@dataclass(frozen=True)
class SyntheticTaskSpec:
    vocab: int
    seqlen: int
    num_labels: int
    teacher_seed: int = 7
    samples_per_label: int = 100
    noise_rate: float = 0.0

    def __post_init__(self):
        if self.num_labels < 2:
            raise ConfigurationError(f"num_labels must be >= 2, got {self.num_labels}")
        if not 0.0 <= self.noise_rate < 0.5:
            raise ConfigurationError(f"noise_rate must be in [0, 0.5), got {self.noise_rate}")
        if self.vocab < self.num_labels + 1:
            raise ConfigurationError("vocab must exceed num_labels (token 0 is reserved)")
        if self.seqlen < 2 or self.samples_per_label < 1:
            raise ConfigurationError("seqlen must be >= 2 and samples_per_label >= 1")


@dataclass
class LabeledDataset:
    tokens: np.ndarray  # [N, seqlen] int64, row 0 of each sequence is token 0
    labels: np.ndarray  # [N] int64
    spec: SyntheticTaskSpec

    def __len__(self) -> int:
        return int(self.tokens.shape[0])


@dataclass
class Shard:
    """One client's local data after the 80/20 split."""

    train_tokens: np.ndarray
    train_labels: np.ndarray
    test_tokens: np.ndarray
    test_labels: np.ndarray


def _teacher_embeddings(spec: SyntheticTaskSpec) -> np.ndarray:
    rng = SeededRng(spec.teacher_seed)
    return rng.normal(0.0, 1.0, (spec.vocab, TEACHER_FEATURE_DIM))


def _teacher_matrix(emb: np.ndarray, topics: np.ndarray, num_labels: int) -> np.ndarray:
    """Column y = centroid of the embeddings of label y's topic tokens.

    ``topics[t - 1]`` is the topic of content token t.
    """
    cols = np.zeros((TEACHER_FEATURE_DIM, num_labels))
    for y in range(num_labels):
        cols[:, y] = emb[1:][topics == y].mean(axis=0)
    return cols


def generate_task(spec: SyntheticTaskSpec, rng: SeededRng) -> LabeledDataset:
    """Balanced dataset labeled by the hidden teacher, with optional noise.

    Each label's candidates are drawn, scored and accepted in blocks of at
    most ``SAMPLING_BLOCK`` sequences, and a block never holds more
    candidates than the label still needs. A block of k sequences reads the
    stream exactly as k single draws do, so every candidate drawn is one a
    one-at-a-time sampler draws too: the dataset, the draw count at which
    the budget runs out, and the stream's position after the call do not
    depend on the block size. A block's features sum each candidate's
    positions in order, one position after another, as a per-candidate
    mean does, so the scores too are those of one candidate at a time.
    """
    emb = _teacher_embeddings(spec)
    content_tokens = np.arange(1, spec.vocab)
    topics = (content_tokens - 1) % spec.num_labels
    teacher = _teacher_matrix(emb, topics, spec.num_labels)
    per_label = spec.samples_per_label
    limit = MAX_REJECTION_FACTOR * per_label
    # not np.zeros: its calloc faulted the array's pages in anew on every build
    tokens = np.empty((spec.num_labels * per_label, spec.seqlen), dtype=np.int64)
    tokens[:, 0] = 0
    for y in range(spec.num_labels):
        weights = np.ones(content_tokens.size)
        weights[topics == y] += TOPIC_BOOST
        probs = weights / weights.sum()
        accepted = 0
        draws = 0
        while accepted < per_label:
            k = min(per_label - accepted, limit - draws, SAMPLING_BLOCK)
            if k == 0:
                raise DataError(
                    f"label {y}: rejection sampling budget exhausted after {draws} draws")
            draws += k
            seqs = content_tokens[rng.choice_index(probs, (k, spec.seqlen - 1))]
            # position-major, so each candidate's positions are summed in order
            features = np.add.reduce(emb[seqs.T], axis=0) / (spec.seqlen - 1)
            scores = features @ teacher
            kept = seqs[scores.argmax(axis=1) == y]
            row = y * per_label + accepted
            tokens[row:row + kept.shape[0], 1:] = kept
            accepted += kept.shape[0]
    labels = np.repeat(np.arange(spec.num_labels, dtype=np.int64), per_label)
    if spec.noise_rate > 0.0:
        flip = rng.uniform(0.0, 1.0, labels.size) < spec.noise_rate
        offsets = rng.integers(1, spec.num_labels, size=labels.size)
        labels = np.where(flip, (labels + offsets) % spec.num_labels, labels)
    order = rng.permutation(labels.size)
    return LabeledDataset(tokens[order], labels[order].astype(np.int64), spec)


def partition_noniid(dataset: LabeledDataset, num_clients: int, a: float,
                     rng: SeededRng, min_per_client: int = 5,
                     max_retries: int = 100) -> dict[int, np.ndarray]:
    """Assign sample indices to clients with Dirichlet(a) label skew.

    Each client's label preference vector is drawn from a symmetric
    Dirichlet with concentration ``a``, all clients in one batched draw
    that reads the stream as one draw per client in turn does; each
    class's samples are then split
    by largest-remainder rounding of the clients' preferences for it (evenly
    when they are all 0), so the shards are an exact disjoint cover of the
    dataset. Redraws until every client holds at least ``min_per_client``
    samples.
    """
    if num_clients < 1:
        raise ConfigurationError(f"num_clients must be >= 1, got {num_clients}")
    if a <= 0:
        raise ConfigurationError(f"concentration must be > 0, got {a}")
    n = len(dataset)
    if n < num_clients * min_per_client:
        raise PartitionError(
            f"dataset of {n} samples cannot give {num_clients} clients "
            f">= {min_per_client} samples each")
    labels = dataset.labels
    num_labels = dataset.spec.num_labels
    for _ in range(max_retries):
        prefs = rng.dirichlet([a] * num_labels, size=num_clients)
        shards: dict[int, list[np.ndarray]] = {c: [] for c in range(num_clients)}
        for y in range(num_labels):
            pool = np.flatnonzero(labels == y)
            pool = pool[rng.permutation(pool.size)]
            share = prefs[:, y]
            if share.sum() == 0.0:
                # at a small ``a`` every client's preference for y can underflow to 0
                share = np.ones(num_clients)
            counts = largest_remainder(share / share.sum(), pool.size)
            start = 0
            for c in range(num_clients):
                shards[c].append(pool[start:start + counts[c]])
                start += counts[c]
        sizes = [sum(part.size for part in shards[c]) for c in range(num_clients)]
        if min(sizes) >= min_per_client:
            return {c: np.sort(np.concatenate(shards[c])) for c in range(num_clients)}
    raise PartitionError(
        f"could not satisfy >= {min_per_client} samples per client after {max_retries} draws")


def largest_remainder(fractions: np.ndarray, total: int) -> np.ndarray:
    """Integer allocation of ``total`` proportional to ``fractions``, exact sum."""
    raw = fractions * total
    counts = np.floor(raw).astype(np.int64)
    shortfall = total - int(counts.sum())
    if shortfall > 0:
        # ties broken by index for determinism
        order = np.lexsort((np.arange(fractions.size), -(raw - counts)))
        counts[order[:shortfall]] += 1
    return counts


def split_train_test(dataset: LabeledDataset, indices: np.ndarray, client_id: int,
                     rng: SeededRng, ratio: float = 0.8) -> Shard:
    """Per-client stratified-when-possible train/test split at ``ratio``.

    ``indices`` must be ascending and distinct, as ``partition_noniid``
    returns them; both parts keep that order. Each label present, in
    ascending order, takes one ``rng.permutation`` of its members.
    """
    if indices.size < 5:
        raise SplitError(f"client {client_id}: shard of {indices.size} samples is too small")
    if np.any(indices[1:] <= indices[:-1]):
        raise SplitError(f"client {client_id}: shard indices must be ascending and distinct")
    labels = dataset.labels[indices]
    test = np.zeros(indices.size, dtype=bool)
    # a stable sort keeps each label's members in ascending order
    by_label = np.argsort(labels, kind="stable")
    counts = np.bincount(labels)
    ends = np.cumsum(counts)
    for y in np.flatnonzero(counts):
        members = by_label[ends[y] - counts[y]:ends[y]]
        n_test = int(round(members.size * (1.0 - ratio)))
        test[members[rng.permutation(members.size)][:n_test]] = True
    if not test.any():
        # tiny shard: hold out one deterministic sample so evaluation exists
        test[rng.permutation(indices.size)[0]] = True
    train_idx, test_idx = indices[~test], indices[test]
    if train_idx.size == 0:
        raise SplitError(f"client {client_id}: no training samples after split")
    return Shard(
        train_tokens=dataset.tokens[train_idx],
        train_labels=dataset.labels[train_idx],
        test_tokens=dataset.tokens[test_idx],
        test_labels=dataset.labels[test_idx],
    )
