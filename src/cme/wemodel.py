"""Skip-gram word embeddings with negative sampling, trained from scratch.

The trainer is plain SGD over (center, context) pairs drawn with a
shrinking window, contrasting each true context against noise words drawn
from the unigram distribution raised to 3/4. Training is single-threaded,
so a fixed seed gives bit-identical vectors across runs.

A trained model is a vocabulary plus a |V| x d float64 matrix. Averaging
those rows over a token list gives the view embedding used everywhere
downstream; a token list with no in-vocabulary word yields None, the
empty-view sentinel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np


class TrainingError(Exception):
    """Raised when the corpus cannot support training (e.g. empty vocabulary)."""


@dataclass
class TrainingConfig:
    dimension: int = 300
    window: int = 5
    negatives: int = 10
    epochs: int = 5
    learning_rate: float = 0.025
    min_learning_rate: float = 1e-4
    min_count: int = 5
    subsample_threshold: float = 1e-4
    seed: int = 1

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.negatives < 1:
            raise ValueError("negatives must be >= 1")


@dataclass
class WEModel:
    """Vocabulary -> vector map with its training configuration."""

    vocabulary: dict[str, int]
    vectors: np.ndarray
    config: Optional[TrainingConfig] = None
    words: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.words:
            self.words = [""] * len(self.vocabulary)
            for word, idx in self.vocabulary.items():
                self.words[idx] = word

    @property
    def dimension(self) -> int:
        return int(self.vectors.shape[1])

    def __contains__(self, word: str) -> bool:
        return word in self.vocabulary


def vector(model: WEModel, word: str) -> Optional[np.ndarray]:
    """The stored vector for an in-vocabulary word, else None."""
    idx = model.vocabulary.get(word)
    if idx is None:
        return None
    return model.vectors[idx].copy()


def view_embedding(tokens: Sequence[str], model: WEModel) -> Optional[np.ndarray]:
    """Arithmetic mean of vectors over the multiset of in-vocabulary tokens.

    Repeated tokens count repeatedly. Returns None (the empty-view
    sentinel) when no token is in the vocabulary; never divides by zero.
    Rows are summed in sorted index order, so any permutation of the same
    token multiset produces a bit-identical mean.
    """
    rows = sorted(model.vocabulary[t] for t in tokens if t in model.vocabulary)
    if not rows:
        return None
    return model.vectors[rows].mean(axis=0)


def _build_vocabulary(sentences, min_count):
    counts: dict[str, int] = {}
    for sentence in sentences:
        for tok in sentence:
            counts[tok] = counts.get(tok, 0) + 1
    kept = [(w, c) for w, c in counts.items() if c >= min_count]
    # deterministic order: by descending count, ties alphabetical
    kept.sort(key=lambda wc: (-wc[1], wc[0]))
    vocab = {w: i for i, (w, _) in enumerate(kept)}
    freq = np.array([c for _, c in kept], dtype=np.float64)
    return vocab, freq


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


def train_skipgram(sentences: Sequence[Sequence[str]], config: Optional[TrainingConfig] = None) -> WEModel:
    """Train a skip-gram model with negative sampling.

    sentences is a list of token lists. Words rarer than min_count are
    dropped from the vocabulary; frequent words are probabilistically
    subsampled. Raises TrainingError when nothing survives filtering.
    """
    config = config or TrainingConfig()
    sentences = [list(s) for s in sentences if s]
    vocab, freq = _build_vocabulary(sentences, config.min_count)
    if not vocab:
        raise TrainingError(
            f"no word meets min_count={config.min_count}; effective vocabulary is empty"
        )

    total = freq.sum()
    # noise distribution: unigram frequency ** 3/4
    noise = freq ** 0.75
    noise_cdf = np.cumsum(noise / noise.sum())

    if config.subsample_threshold > 0:
        ratio = freq / (config.subsample_threshold * total)
        keep_prob = np.minimum(1.0, (np.sqrt(ratio) + 1.0) / ratio)
    else:
        keep_prob = np.ones_like(freq)

    rng = np.random.default_rng(config.seed)
    dim = config.dimension
    vecs_in = (rng.random((len(vocab), dim)) - 0.5) / dim
    vecs_out = np.zeros((len(vocab), dim), dtype=np.float64)

    encoded = [
        np.array([vocab[t] for t in sentence if t in vocab], dtype=np.int64)
        for sentence in sentences
    ]
    encoded = [e for e in encoded if e.size]
    if not encoded:
        raise TrainingError("corpus is empty after vocabulary filtering")

    words_per_epoch = sum(int(e.size) for e in encoded)
    total_words = max(1, words_per_epoch * config.epochs)

    _train_pass(encoded, vecs_in, vecs_out, noise_cdf, keep_prob, rng, config, total_words)

    if not np.all(np.isfinite(vecs_in)):
        raise TrainingError("training diverged: non-finite vectors")
    return WEModel(vocabulary=vocab, vectors=vecs_in, config=config)


def _train_pass(encoded, vecs_in, vecs_out, noise_cdf, keep_prob, rng, config, total_words):
    negatives = config.negatives
    window = config.window
    lr0 = config.learning_rate
    lr_min = config.min_learning_rate
    processed = 0

    for _epoch in range(config.epochs):
        for sentence in encoded:
            lr = max(lr_min, lr0 * (1.0 - processed / total_words))
            processed += int(sentence.size)

            kept = sentence[rng.random(sentence.size) < keep_prob[sentence]]
            if kept.size < 2:
                continue
            # shrinking window, redrawn per center position
            spans = rng.integers(1, window + 1, size=kept.size)
            for pos in range(kept.size):
                center = kept[pos]
                b = spans[pos]
                context = np.concatenate(
                    (kept[max(0, pos - b) : pos], kept[pos + 1 : pos + 1 + b])
                )
                if context.size == 0:
                    continue

                draws = np.searchsorted(noise_cdf, rng.random((context.size, negatives)))
                # one gradient step per center, all its pairs batched
                targets = np.concatenate((context[:, None], draws), axis=1).ravel()
                labels = np.zeros((context.size, negatives + 1))
                labels[:, 0] = 1.0
                # a drawn noise word equal to the true context is skipped
                labels = labels.ravel()
                mask = np.ones(targets.size, dtype=bool)
                collision = targets.reshape(context.size, -1)[:, 1:] == context[:, None]
                mask.reshape(context.size, -1)[:, 1:][collision] = False

                targets = targets[mask]
                labels = labels[mask]

                vin = vecs_in[center]
                vout = vecs_out[targets]
                g = (labels - _sigmoid(vout @ vin)) * lr
                grad_in = g @ vout

                update_out = g[:, None] * vin
                if len(set(targets.tolist())) == targets.size:
                    vecs_out[targets] += update_out
                else:
                    np.add.at(vecs_out, targets, update_out)
                vecs_in[center] += grad_in


def save_model(model: WEModel, path) -> None:
    """Write the standard text layout: "<vocab> <dim>" then one word per line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(model.vocabulary)} {model.dimension}\n")
        for idx, word in enumerate(model.words):
            values = " ".join(repr(float(x)) for x in model.vectors[idx])
            fh.write(f"{word} {values}\n")


def load_model(path) -> WEModel:
    """Read the text layout written by save_model (or any compatible file)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: expected '<vocab_size> <dim>' header")
        size, dim = int(header[0]), int(header[1])
        vocab: dict[str, int] = {}
        vectors = np.empty((size, dim), dtype=np.float64)
        for idx in range(size):
            parts = fh.readline().rstrip("\n").split(" ")
            if len(parts) != dim + 1:
                raise ValueError(f"{path}: row {idx} has {len(parts) - 1} values, expected {dim}")
            vocab[parts[0]] = idx
            vectors[idx] = [float(v) for v in parts[1:]]
    return WEModel(vocabulary=vocab, vectors=vectors)
