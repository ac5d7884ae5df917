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

    client_id: int
    train_tokens: np.ndarray
    train_labels: np.ndarray
    test_tokens: np.ndarray
    test_labels: np.ndarray


def _teacher_embeddings(spec: SyntheticTaskSpec) -> np.ndarray:
    rng = SeededRng(spec.teacher_seed)
    return rng.normal(0.0, 1.0, (spec.vocab, TEACHER_FEATURE_DIM))


def _topic_of(token: int, num_labels: int) -> int:
    return (token - 1) % num_labels


def _teacher_matrix(spec: SyntheticTaskSpec) -> np.ndarray:
    """Column y = centroid of the embeddings of label y's topic tokens."""
    emb = _teacher_embeddings(spec)
    cols = np.zeros((TEACHER_FEATURE_DIM, spec.num_labels))
    for y in range(spec.num_labels):
        members = [t for t in range(1, spec.vocab) if _topic_of(t, spec.num_labels) == y]
        cols[:, y] = emb[members].mean(axis=0)
    return cols


def generate_task(spec: SyntheticTaskSpec, rng: SeededRng) -> LabeledDataset:
    """Balanced dataset labeled by the hidden teacher, with optional noise."""
    emb = _teacher_embeddings(spec)
    teacher = _teacher_matrix(spec)
    content_tokens = np.arange(1, spec.vocab)
    tokens_out = []
    labels_out = []
    for y in range(spec.num_labels):
        weights = np.ones(content_tokens.size)
        weights[[_topic_of(int(t), spec.num_labels) == y for t in content_tokens]] += TOPIC_BOOST
        probs = weights / weights.sum()
        accepted = 0
        draws = 0
        limit = MAX_REJECTION_FACTOR * spec.samples_per_label
        while accepted < spec.samples_per_label:
            if draws >= limit:
                raise DataError(
                    f"label {y}: rejection sampling budget exhausted after {draws} draws")
            draws += 1
            idx = rng.choice_index(probs, spec.seqlen - 1)
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
    return LabeledDataset(tokens[order], labels[order].astype(np.int64), spec)


def partition_noniid(dataset: LabeledDataset, num_clients: int, a: float,
                     rng: SeededRng, min_per_client: int = 5,
                     max_retries: int = 100) -> dict[int, np.ndarray]:
    """Assign sample indices to clients with Dirichlet(a) label skew.

    Each client's label preference vector is drawn from a symmetric
    Dirichlet with concentration ``a``; each class's samples are then split
    by largest-remainder rounding of the clients' preferences for it, so
    the shards are an exact disjoint cover of the dataset. Redraws until
    every client holds at least ``min_per_client`` samples.
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
        prefs = np.stack([rng.dirichlet([a] * num_labels) for _ in range(num_clients)])
        shards: dict[int, list[np.ndarray]] = {c: [] for c in range(num_clients)}
        for y in range(num_labels):
            pool = np.flatnonzero(labels == y)
            pool = pool[rng.permutation(pool.size)]
            share = prefs[:, y]
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
    """Per-client stratified-when-possible train/test split at ``ratio``."""
    if indices.size < 5:
        raise SplitError(f"client {client_id}: shard of {indices.size} samples is too small")
    labels = dataset.labels[indices]
    test_parts = []
    for y in np.unique(labels):
        members = indices[labels == y]
        members = members[rng.permutation(members.size)]
        n_test = int(round(members.size * (1.0 - ratio)))
        test_parts.append(members[:n_test])
    test_idx = np.sort(np.concatenate(test_parts)) if test_parts else np.array([], dtype=np.int64)
    if test_idx.size == 0:
        # tiny shard: hold out one deterministic sample so evaluation exists
        test_idx = indices[rng.permutation(indices.size)][:1]
    train_idx = np.setdiff1d(indices, test_idx)
    if train_idx.size == 0:
        raise SplitError(f"client {client_id}: no training samples after split")
    return Shard(
        client_id=client_id,
        train_tokens=dataset.tokens[train_idx].copy(),
        train_labels=dataset.labels[train_idx].copy(),
        test_tokens=dataset.tokens[test_idx].copy(),
        test_labels=dataset.labels[test_idx].copy(),
    )

