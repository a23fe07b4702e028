"""Skip-gram word embeddings with negative sampling, trained from scratch.

The objective is word2vec's skip-gram with negative sampling (Mikolov et
al. 2013): each true (centre, context) pair is contrasted against noise
words drawn from the unigram distribution raised to 3/4. The trainer is
minibatched SGD, in the style of Ji et al. 2016. The corpus is encoded
once, as one flat array of in-vocabulary tokens and each sentence's count
of them. Each epoch is set up at once from that array: every token is
subsampled, sentences left with fewer than two tokens are dropped, every
centre draws its shrinking-window span, and every in-sentence pair is
listed centre by centre with the linearly decaying learning rate of its
sentence, so set-up memory grows with the pairs of one epoch (a few int64
arrays of that length). The pairs are then taken BATCH_PAIRS at a time. A
batch draws its noise words, computes every score and gradient from the
matrices as they were before the batch, and adds the summed updates
(_batch_step); a row that several pairs touch gets the sum of their
updates. The learning rate falls linearly by corpus words processed from
LEARNING_RATE to MIN_LEARNING_RATE, word2vec's fixed values.

BATCH_PAIRS is 64 because a larger batch computes more of its updates from
stale rows. Measured with the frozen tests: at 128 the repeated two-word
sentence test falls to |cos| 0.61, under its 0.8 level (its two rows take
every update of a batch), and at 256 the acceptance-06 two-topic margin
falls to 0.58. At 64 that margin is 0.833, against 0.827 for the earlier
one-step-per-centre trainer. Dividing each row's summed update by its count
measured worse at every batch size.

The draws follow a fixed order, so a fixed seed gives bit-identical
vectors across runs at one BLAS thread count. The batch products round
differently at another thread count (1 and 2 threads differ in the last
bit), so the vectors, and everything built on them, may too.

A trained model is a vocabulary plus a |V| x d float64 matrix. Averaging
those rows over a token list gives the view embedding used everywhere
downstream; a token list with no in-vocabulary word yields None, the
empty-view sentinel.

Models, and every per-user matrix the pipeline passes between stages, are
stored as a binary pair: "<stem>.npy" holds the float64 matrix and
"<stem>.words" the row labels, one per line (save_model / load_model).
Float64 round-trips exactly, so a reloaded matrix is bit-identical.
load_text_model reads the word2vec text layout of external models, such
as an emoji background model; the pipeline never writes that layout.
"""

from __future__ import annotations

import itertools
import os
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .corpus import ParseError


# (centre, context) pairs per SGD step; see the module docstring for why 64
BATCH_PAIRS = 64
# the learning rate at the first corpus word, and the floor its decay stops at
LEARNING_RATE = 0.025
MIN_LEARNING_RATE = 1e-4


class TrainingError(Exception):
    """Raised when the corpus cannot support training (e.g. empty vocabulary)."""


@dataclass
class TrainingConfig:
    dimension: int = 300
    window: int = 5
    negatives: int = 10
    epochs: int = 5
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
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.min_count < 1:
            raise ValueError(f"min_count must be >= 1, got {self.min_count}")
        if not self.subsample_threshold >= 0:
            raise ValueError(f"subsample_threshold must be >= 0, got {self.subsample_threshold}")


@dataclass
class WEModel:
    """Vocabulary -> vector map; words lists the vocabulary in row order."""

    vocabulary: dict[str, int]
    vectors: np.ndarray
    words: list[str] = field(default_factory=list)
    # what train_skipgram did (words_per_epoch, keep_rate, pairs, batches);
    # empty for a loaded model, and never written by save_model
    stats: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.words:
            self.words = [""] * len(self.vocabulary)
            for word, idx in self.vocabulary.items():
                self.words[idx] = word

    @property
    def dimension(self) -> int:
        return int(self.vectors.shape[1])


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
    counts = Counter(itertools.chain.from_iterable(sentences))
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

    The model's stats count what training did: words_per_epoch (corpus
    tokens in the vocabulary), keep_rate (the share of them subsampling
    kept, over all epochs), pairs and batches (summed over epochs).
    """
    config = config or TrainingConfig()
    sentences = [list(s) for s in sentences if s]
    vocab, freq = _build_vocabulary(sentences, config.min_count)
    if not vocab:
        raise TrainingError(
            f"no word meets min_count={config.min_count}; effective vocabulary is empty"
        )

    # noise distribution: unigram frequency ** 3/4
    noise = freq ** 0.75
    noise_cdf = np.cumsum(noise / noise.sum())

    if config.subsample_threshold > 0:
        ratio = freq / (config.subsample_threshold * freq.sum())
        keep_prob = np.minimum(1.0, (np.sqrt(ratio) + 1.0) / ratio)
    else:
        keep_prob = np.ones_like(freq)

    rng = np.random.default_rng(config.seed)
    vecs_in = (rng.random((len(vocab), config.dimension)) - 0.5) / config.dimension
    vecs_out = np.zeros_like(vecs_in)

    # every in-vocabulary token in one flat array, and each sentence's count of them
    encoded = [[vocab[t] for t in sentence if t in vocab] for sentence in sentences]
    lengths = np.array([len(e) for e in encoded], dtype=np.int64)
    tokens = np.fromiter(itertools.chain.from_iterable(encoded), dtype=np.int64, count=int(lengths.sum()))
    sentence_of = np.repeat(np.arange(lengths.size), lengths)
    # corpus words processed before each sentence, within one epoch
    offsets = np.cumsum(lengths) - lengths
    total_words = tokens.size * config.epochs
    kept = pairs = batches = 0

    for epoch in range(config.epochs):
        # linear decay by corpus words processed, fixed per sentence
        processed = epoch * tokens.size + offsets
        lr_sentence = np.maximum(MIN_LEARNING_RATE, LEARNING_RATE * (1.0 - processed / total_words))
        keep = rng.random(tokens.size) < keep_prob[tokens]
        kept += int(keep.sum())
        # a sentence left with fewer than 2 kept tokens has no pair
        keep &= np.bincount(sentence_of[keep], minlength=lengths.size)[sentence_of] >= 2
        words = tokens[keep]
        sentence = sentence_of[keep]
        spans = rng.integers(1, config.window + 1, size=words.size)
        centre_at, context_at = _window_pairs(sentence, spans, config.window)
        centres = words[centre_at]
        contexts = words[context_at]
        lr = lr_sentence[sentence[centre_at]]

        starts = range(0, centres.size, BATCH_PAIRS)
        for start in starts:
            batch = slice(start, start + BATCH_PAIRS)
            draws = np.searchsorted(noise_cdf, rng.random((centres[batch].size, config.negatives)))
            _batch_step(vecs_in, vecs_out, centres[batch], contexts[batch], draws, lr[batch])
        pairs += centres.size
        batches += len(starts)

    if not np.all(np.isfinite(vecs_in)):
        raise TrainingError("training diverged: non-finite vectors")
    stats = {"words_per_epoch": tokens.size, "keep_rate": kept / total_words, "pairs": pairs, "batches": batches}
    return WEModel(vocabulary=vocab, vectors=vecs_in, stats=stats)


def _window_pairs(sentence, spans, window):
    """(centre, context) position pairs within each centre's shrinking window.

    sentence holds the nondecreasing sentence id of each token and spans
    each token's drawn span (1..window); pairs never cross a sentence. They
    come centre by centre, and within one centre as the left contexts from
    farthest to nearest, then the right ones from nearest to farthest.
    """
    index = np.arange(sentence.size)
    before = index - np.searchsorted(sentence, sentence, side="left")
    after = np.searchsorted(sentence, sentence, side="right") - 1 - index
    # slot window - o holds the context o places left, slot window + o - 1
    # the one o places right; -1 marks an empty slot
    context = np.full((sentence.size, 2 * window), -1, dtype=np.int64)
    for offset in range(1, window + 1):
        left = (spans >= offset) & (before >= offset)
        context[left, window - offset] = index[left] - offset
        right = (spans >= offset) & (after >= offset)
        context[right, window + offset - 1] = index[right] + offset
    # row-major nonzero walks the slots centre by centre
    centre_at, slot = np.nonzero(context >= 0)
    return centre_at, context[centre_at, slot]


def _batch_step(vecs_in, vecs_out, centres, contexts, draws, lr):
    """One SGD step for B (centre, context) pairs, updating both matrices in place.

    draws is the B x K matrix of noise words; a draw equal to its pair's
    context is skipped. Scores and gradients use the matrices as they were
    before the step, and a row that occurs several times in the batch
    receives the sum of its updates. The rows touched are compacted with
    np.unique, and one np.bincount sums each pair's coefficients into a
    U_c x U matrix (distinct centre rows x distinct output rows), so both
    updates are plain matrix products, not a scatter-add.
    """
    targets = np.concatenate((contexts[:, None], draws), axis=1)
    out_rows, out_inverse = np.unique(targets, return_inverse=True)
    out_inverse = out_inverse.reshape(targets.shape)
    in_rows, in_inverse = np.unique(centres, return_inverse=True)

    vin = vecs_in[in_rows]
    vout = vecs_out[out_rows]
    scores = (vin @ vout.T)[in_inverse[:, None], out_inverse]
    g = -_sigmoid(scores)
    g[:, 0] += 1.0
    g *= lr[:, None]
    g[:, 1:][draws == contexts[:, None]] = 0.0

    coef = np.bincount(
        (in_inverse[:, None] * out_rows.size + out_inverse).ravel(),
        weights=g.ravel(),
        minlength=in_rows.size * out_rows.size,
    ).reshape(in_rows.size, out_rows.size)
    vecs_in[in_rows] += coef @ vout
    vecs_out[out_rows] += coef.T @ vin


def save_model(model: WEModel, path) -> None:
    """Write the binary pair: the matrix at path, the row labels beside it.

    path is conventionally "<stem>.npy"; it receives the C-order float64
    matrix (np.save, no pickling) and "<stem>.words" the row labels in row
    order, one UTF-8 label per line. Equal models give equal bytes.
    """
    path = Path(path)
    vectors = np.ascontiguousarray(model.vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[0] != len(model.words):
        raise ValueError(
            f"{path}: need a 2-D matrix with one row per label, got shape "
            f"{vectors.shape} for {len(model.words)} labels"
        )
    if any("\n" in word for word in model.words):
        raise ValueError(f"{path}: a row label contains a newline")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        np.save(fh, vectors, allow_pickle=False)
    path.with_suffix(".words").write_bytes("".join(f"{w}\n" for w in model.words).encode("utf-8"))


def load_model(path) -> WEModel:
    """Read the pair written by save_model.

    Raises ValueError naming the path when the matrix is not a 2-D float64
    .npy array or the label count differs from the row count.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        try:
            vectors = np.lib.format.read_array(fh, allow_pickle=False)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if vectors.ndim != 2 or vectors.dtype != np.float64:
        raise ValueError(f"{path}: expected a 2-D float64 matrix, got {vectors.dtype} {vectors.shape}")
    text = path.with_suffix(".words").read_bytes().decode("utf-8")
    words = text.split("\n")[:-1]
    if len(words) != vectors.shape[0]:
        raise ValueError(f"{path}: {len(words)} labels for {vectors.shape[0]} rows")
    vocab = {word: idx for idx, word in enumerate(words)}
    if len(vocab) != len(words):
        raise ValueError(f"{path}: duplicate row labels")
    return WEModel(vocabulary=vocab, vectors=vectors, words=words)


def load_text_model(path, dimension: Optional[int] = None) -> WEModel:
    """Read a word2vec text model ("<vocab> <dim>", then "<word> <values>" rows) of a given width.

    The header is checked before the rows are allocated: a row of dim
    values takes at least 2 * dim + 1 bytes, so a header promising more
    rows than the rest of the file can hold is refused at line 1. A row may
    end in whitespace, as the word2vec C tool writes a space after the last
    value.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        try:
            size, dim = map(int, header.split())
        except ValueError:
            raise ParseError(path, 1, "expected '<vocab_size> <dim>' header") from None
        if size < 0 or dim < 0:
            raise ParseError(path, 1, f"negative header value in {header.strip()!r}")
        if dimension is not None and dim != dimension:
            raise ParseError(path, 1, f"vectors are {dim} wide, expected {dimension}")
        room = os.fstat(fh.fileno()).st_size - len(header.encode("utf-8"))
        if size * (2 * dim + 1) > room:
            raise ParseError(path, 1, f"{size} rows of {dim} values cannot fit in the {room} bytes that follow")
        vocab: dict[str, int] = {}
        vectors = np.empty((size, dim), dtype=np.float64)
        # row idx is on line idx + 2, after the header
        for idx in range(size):
            parts = fh.readline().rstrip().split(" ")
            if len(parts) != dim + 1:
                raise ParseError(path, idx + 2, f"{len(parts) - 1} values, expected {dim}")
            if parts[0] in vocab:
                raise ParseError(path, idx + 2, f"duplicate word {parts[0]!r}")
            vocab[parts[0]] = idx
            try:
                vectors[idx] = [float(v) for v in parts[1:]]
            except ValueError:
                raise ParseError(path, idx + 2, f"a value of {parts[0]!r} is not a number") from None
            if not np.isfinite(vectors[idx]).all():
                raise ParseError(path, idx + 2, f"a value of {parts[0]!r} is not finite")
    return WEModel(vocabulary=vocab, vectors=vectors)
