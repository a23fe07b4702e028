"""End-to-end glue: preprocessing, view construction, and experiments.

This module turns a LabeledDataset into per-view embedding sets and runs
the two experiment suites: suite A evaluates text/emoji compositions over
every labeled user, suite B adds the network view on the subset of users
that actually interact, comparing against the best suite-A setting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import classify, compose, netembed
from .corpus import ClassLabel, LabeledDataset
from .emoji import EmojiSenseEntry, emoji_embedding
from .imagetags import MissingImageTagsError
from .preprocess import KEEP_HASHTAG_BODY, extract_entities, token_cleaner
from .wemodel import TrainingConfig, WEModel, train_skipgram, view_embedding

# the experiment defaults; the CLI falls back to the same values
SPLIT_RATIO = 0.8
SUITE_A_TAGS = ("T+D", "T+E", "D+E")
SUITE_B_TAGS = ("N+T+E",)


@dataclass
class PreparedUser:
    """Cleaned per-user text split by source; tweet_tokens joins the tweet sentences on each access."""

    user_id: str
    tweet_sentences: list[list[str]] = field(default_factory=list)
    tweet_emoji: list[str] = field(default_factory=list)
    desc_tokens: list[str] = field(default_factory=list)
    desc_emoji: list[str] = field(default_factory=list)

    @property
    def tweet_tokens(self) -> list[str]:
        return [tok for sentence in self.tweet_sentences for tok in sentence]


def prepare_users(
    dataset: LabeledDataset,
    stopwords: set[str],
    lemma_table: dict[str, str],
    keep_hashtag_body: bool = KEEP_HASHTAG_BODY,
) -> dict[str, PreparedUser]:
    """Extract emoji and clean tokens for every user's text.

    Tokens are lemmatize(clean_tokens(...)) of each text's residual; the
    cleaner memoises per distinct raw token for the length of this call.
    """
    clean = token_cleaner(stopwords, lemma_table, keep_hashtag_body)
    prepared: dict[str, PreparedUser] = {}
    for user in dataset.users:
        rec = PreparedUser(user_id=user.user_id)
        rec.desc_emoji, residual = extract_entities(user.description)
        rec.desc_tokens = clean(residual)
        for tweet in dataset.tweets_by_author.get(user.user_id, []):
            t_emoji, t_residual = extract_entities(tweet.raw_text)
            tokens = clean(t_residual)
            if tokens:
                rec.tweet_sentences.append(tokens)
            rec.tweet_emoji.extend(t_emoji)
        prepared[user.user_id] = rec
    return prepared


def train_view_models(
    prepared: dict[str, PreparedUser],
    config: Optional[TrainingConfig] = None,
) -> tuple[WEModel, WEModel]:
    """Train the two embedding models: content (tweets) and people (descriptions)."""
    config = config or TrainingConfig()
    tweet_sentences = [s for rec in prepared.values() for s in rec.tweet_sentences]
    desc_sentences = [rec.desc_tokens for rec in prepared.values() if rec.desc_tokens]
    content = train_skipgram(tweet_sentences, config)
    people = train_skipgram(desc_sentences, config)
    return content, people


def build_text_views(
    prepared: dict[str, PreparedUser],
    content_model: WEModel,
    people_model: WEModel,
    emoji_lexicon: dict[str, EmojiSenseEntry],
    emoji_background: Optional[WEModel] = None,
) -> dict[str, compose.ViewEmbeddingSet]:
    """Tweet, Description, TweetEmoji, and DescriptionEmoji views.

    The emoji background model defaults to the content model when no
    external pre-trained model is supplied.
    """
    background = emoji_background or content_model
    tweet, desc, tweet_emoji, desc_emoji = {}, {}, {}, {}
    for uid, rec in prepared.items():
        tweet[uid] = view_embedding(rec.tweet_tokens, content_model)
        desc[uid] = view_embedding(rec.desc_tokens, people_model)
        tweet_emoji[uid] = emoji_embedding(rec.tweet_emoji, emoji_lexicon, background)
        desc_emoji[uid] = emoji_embedding(rec.desc_emoji, emoji_lexicon, background)
    return {
        "Tweet": compose.ViewEmbeddingSet("Tweet", tweet),
        "Description": compose.ViewEmbeddingSet("Description", desc),
        "TweetEmoji": compose.ViewEmbeddingSet("TweetEmoji", tweet_emoji),
        "DescriptionEmoji": compose.ViewEmbeddingSet("DescriptionEmoji", desc_emoji),
    }


def build_image_view(
    dataset: LabeledDataset,
    people_model: WEModel,
    tags_by_ref: dict[str, list[str]],
) -> compose.ViewEmbeddingSet:
    """ProfileImage view: each profile picture's tags embedded through the people model.

    tags_by_ref maps an image ref to its tags, as imagetags.load_image_tags
    reads them from the tag file. A user without a profile_image_ref is a
    sentinel; a ref with no entry is a MissingImageTagsError.
    """
    vectors = {}
    for user in dataset.users:
        ref = user.profile_image_ref
        if ref is None:
            vectors[user.user_id] = None
        elif ref in tags_by_ref:
            vectors[user.user_id] = view_embedding(tags_by_ref[ref], people_model)
        else:
            raise MissingImageTagsError(
                f"the image tag file has no line for {ref!r} (user {user.user_id})"
            )
    return compose.ViewEmbeddingSet("ProfileImage", vectors)


def build_network_view(
    dataset: LabeledDataset,
    dimension: int,
    mode: str = netembed.DEFAULT_MODE,
    k: int = 0,
) -> tuple[compose.ViewEmbeddingSet, netembed.NetworkEmbedding]:
    """Network view over users with outgoing interactions.

    Rows are labeled users that act as interaction sources; columns are
    every distinct target. This is where the number of components is
    decided: min(k or dimension, rows), so k is an upper bound and a k
    above dimension is a ValueError. In "paper" mode the singular values
    at or below netembed.sigma_floor are dropped before the division so
    the fold-back stays finite. Rows are zero-padded to the composition
    dimension so the view composes with the text views.
    """
    if k > dimension:
        raise ValueError(f"k must be <= dimension ({dimension}), got {k}")
    sources = sorted({rec.source for rec in dataset.interactions})
    user_ids = {u.user_id for u in dataset.users}
    rows = [uid for uid in sources if uid in user_ids]
    cols = sorted({rec.target for rec in dataset.interactions})
    vectors: dict[str, Optional[np.ndarray]] = {u.user_id: None for u in dataset.users}
    if not rows:  # every source row has a target, so cols is empty only when rows is
        empty = netembed.NetworkEmbedding(matrix=np.zeros((0, 0)), row_ids=[], mode=mode)
        return compose.ViewEmbeddingSet("Network", vectors), empty

    adjacency = netembed.row_normalize(netembed.build_adjacency(dataset.interactions, rows, cols))
    cosine = netembed.cosine_similarity_matrix(adjacency)
    factors = netembed.truncated_svd(cosine, min(k or dimension, len(rows)))
    if mode == "paper":
        keep = factors.sigma > netembed.sigma_floor(factors.sigma)
        factors = netembed.SVDFactors(u=factors.u[:, keep], sigma=factors.sigma[keep])
    embedding = netembed.network_embedding(factors, mode=mode, row_ids=rows, zero_rows=cosine.zero_rows)

    padded = np.zeros((len(rows), dimension))
    padded[:, : embedding.k] = embedding.matrix
    vectors.update(zip(rows, padded))
    return compose.ViewEmbeddingSet("Network", vectors), embedding


def _standardize(train: np.ndarray, test: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = train.mean(axis=0)
    std = train.std(axis=0)
    std[std == 0] = 1.0
    return (train - mean) / std, (test - mean) / std


@dataclass
class ExperimentResult:
    tag: str
    report: classify.EvaluationReport
    n_train: int
    n_test: int
    zero_filled: int
    epochs: int
    converged: bool


def run_experiment(
    feature_view: compose.ViewEmbeddingSet,
    labels_by_user: dict[str, ClassLabel],
    users: Sequence[str],
    split_ratio: float = SPLIT_RATIO,
    seed: int = 0,
    smote_config: Optional[classify.SMOTEConfig] = None,
    classifier_config: Optional[classify.ClassifierConfig] = None,
) -> ExperimentResult:
    """Split, oversample the training fold, standardize, train, and evaluate one setting."""
    users = [u for u in users if u in labels_by_user]
    matrix = classify.feature_matrix_from_view(feature_view, users)
    y = [labels_by_user[u] for u in matrix.user_ids]

    train_idx, test_idx = classify.stratified_split(y, ratio=split_ratio, seed=seed)
    x_train, x_test = matrix.features[train_idx], matrix.features[test_idx]
    y_train = [y[i] for i in train_idx]
    y_test = [y[i] for i in test_idx]

    smote_config = smote_config or classify.SMOTEConfig(seed=seed)
    x_train, y_train = classify.smote(x_train, y_train, smote_config)
    x_train, x_test = _standardize(x_train, x_test)

    classifier_config = classifier_config or classify.ClassifierConfig()
    model = classify.train_classifier(x_train, y_train, classifier_config)
    predicted = classify.predict(model, x_test)
    report = classify.evaluate(predicted, y_test, classes=model.classes)
    return ExperimentResult(
        tag=feature_view.name,
        report=report,
        n_train=len(y_train),
        n_test=len(y_test),
        zero_filled=len(matrix.zero_filled),
        epochs=model.epochs,
        converged=model.converged,
    )


@dataclass
class SuiteResults:
    suite_a: dict[str, ExperimentResult]
    suite_b: dict[str, ExperimentResult]
    best_a_tag: str
    connected_users: list[str]


def run_suites(
    cme_sets: dict[str, compose.ViewEmbeddingSet],
    dataset: LabeledDataset,
    suite_a_tags: Sequence[str] = SUITE_A_TAGS,
    suite_b_tags: Sequence[str] = SUITE_B_TAGS,
    split_ratio: float = SPLIT_RATIO,
    seed: int = 0,
    smote_config: Optional[classify.SMOTEConfig] = None,
    classifier_config: Optional[classify.ClassifierConfig] = None,
) -> SuiteResults:
    """The two experiment suites over pre-composed embedding sets.

    Suite A runs text/emoji compositions over all labeled users. Suite B
    runs network compositions over the interaction-connected subset, using
    the best suite-A setting (re-run on that subset) as its baseline.
    Suite A must name at least one composition; suite B may name none.
    """
    labels = dataset.labels()
    all_users = sorted(labels)
    if not suite_a_tags:
        raise compose.CompositionError("suite A needs at least one composition")
    missing = [t for t in list(suite_a_tags) + list(suite_b_tags) if t not in cme_sets]
    if missing:
        raise compose.CompositionError(f"suites reference unbuilt compositions: {missing}")

    def score(tag: str, users: list[str]) -> ExperimentResult:
        return run_experiment(
            cme_sets[tag], labels, users, split_ratio, seed, smote_config, classifier_config
        )

    suite_a = {tag: score(tag, all_users) for tag in suite_a_tags}
    best_a_tag = max(suite_a, key=lambda t: suite_a[t].report.macro_f1)

    connected = sorted(
        {rec.source for rec in dataset.interactions} & set(all_users)
    )
    suite_b: dict[str, ExperimentResult] = {}
    if connected and suite_b_tags:
        baseline = score(best_a_tag, connected)
        suite_b[best_a_tag] = baseline
        for tag in suite_b_tags:
            suite_b[tag] = score(tag, connected)
            classify.compare_to_baseline(
                suite_b[tag].report, baseline.report, f"{best_a_tag} (connected subset)"
            )
    return SuiteResults(
        suite_a=suite_a,
        suite_b=suite_b,
        best_a_tag=best_a_tag,
        connected_users=connected,
    )
