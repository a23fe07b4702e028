"""End-to-end glue: preprocessing, view construction, and experiments.

This module turns a LabeledDataset into per-view embedding sets and runs
the two experiment suites: suite A evaluates text/emoji compositions over
every labeled user, suite B adds the network view on the subset of users
that actually interact, next to the best suite-A setting re-run on that
subset as its baseline. The report stage compares the results.

A view builder fills one compose.ViewEmbeddingSet: a row per sorted user
id, zero and not present where the view has no vector for the user.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import classify, compose, netembed
from .corpus import ClassLabel, LabeledDataset
from .emoji import EmojiSenseEntry, emoji_embedding
from .imagetags import MissingImageTagsError
from .preprocess import extract_entities, token_cleaner
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
    dataset: LabeledDataset, stopwords: set[str], lemma_table: dict[str, str]
) -> dict[str, PreparedUser]:
    """Extract emoji and clean tokens for every user's text.

    Tokens are lemmatize(clean_tokens(...)) of each text's residual; the
    cleaner memoises per distinct raw token for the length of this call.
    Each author's tweets are taken in tweet_id order (ties by text), so a
    PreparedUser, and the skip-gram training that walks its sentences,
    does not depend on the order of lines in the tweet file. The result
    is keyed in dataset.users order.
    """
    clean = token_cleaner(stopwords, lemma_table)
    prepared: dict[str, PreparedUser] = {}
    for user in dataset.users:
        rec = PreparedUser(user_id=user.user_id)
        rec.desc_emoji, residual = extract_entities(user.description)
        rec.desc_tokens = clean(residual)
        tweets = dataset.tweets_by_author.get(user.user_id, [])
        for tweet in sorted(tweets, key=lambda t: (t.tweet_id, t.raw_text)):
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


def _fill_view(name: str, user_ids: list[str], dimension: int, rows: Iterable) -> compose.ViewEmbeddingSet:
    """The view of one vector-or-None per user id; None is a sentinel."""
    matrix = np.zeros((len(user_ids), dimension))
    present = np.zeros(len(user_ids), dtype=bool)
    for i, row in enumerate(rows):
        if row is not None:
            matrix[i], present[i] = row, True
    return compose.ViewEmbeddingSet(name, user_ids=user_ids, matrix=matrix, present=present)


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
    users = sorted(prepared)
    embeds = {
        "Tweet": (content_model, lambda rec: view_embedding(rec.tweet_tokens, content_model)),
        "Description": (people_model, lambda rec: view_embedding(rec.desc_tokens, people_model)),
        "TweetEmoji": (background, lambda rec: emoji_embedding(rec.tweet_emoji, emoji_lexicon, background)),
        "DescriptionEmoji": (background, lambda rec: emoji_embedding(rec.desc_emoji, emoji_lexicon, background)),
    }
    return {
        name: _fill_view(name, users, model.dimension, (embed(prepared[u]) for u in users))
        for name, (model, embed) in embeds.items()
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
    users = sorted(dataset.users, key=lambda user: user.user_id)

    def embed(user) -> Optional[np.ndarray]:
        ref = user.profile_image_ref
        if ref is not None and ref not in tags_by_ref:
            raise MissingImageTagsError(
                f"the image tag file has no line for {ref!r} (user {user.user_id})"
            )
        return None if ref is None else view_embedding(tags_by_ref[ref], people_model)

    return _fill_view("ProfileImage", [u.user_id for u in users], people_model.dimension, map(embed, users))


def build_network_view(
    dataset: LabeledDataset,
    dimension: int,
    mode: str = netembed.DEFAULT_MODE,
    k: int = 0,
) -> tuple[compose.ViewEmbeddingSet, netembed.NetworkEmbedding]:
    """Network view over users with outgoing interactions.

    Rows are labeled users that act as interaction sources; columns are
    every distinct target. This is where the number of components is
    decided: at most min(k or dimension, rows), so k is an upper bound and
    a k above dimension is a ValueError (N is added to the word-vector
    views, not concatenated, so it is no wider than they are).
    netembed.factor_graph factors the graph one connected component at a
    time and keeps no singular value at or below netembed.sigma_floor, in
    either mode, so the "paper" fold-back stays finite and the view is at
    most as wide as the graph's rank. The view is as wide as the kept
    components, 0 wide without a graph; every user that is not a source is
    a sentinel. The embedding's skipped counts the interactions whose
    source is not a listed user, and its graph summarizes the components.
    """
    if k > dimension:
        raise ValueError(f"k must be <= dimension ({dimension}), got {k}")
    users = sorted(u.user_id for u in dataset.users)
    sources = {rec.source for rec in dataset.interactions}
    present = np.array([uid in sources for uid in users], dtype=bool)
    rows = [uid for uid in users if uid in sources]
    embedding = netembed.NetworkEmbedding(matrix=np.zeros((0, 0)), row_ids=[])
    if rows:  # every source row has a target, so cols is empty only when rows is
        cols = sorted({rec.target for rec in dataset.interactions})
        counts = netembed.build_adjacency(dataset.interactions, rows, cols)
        factors, graph = netembed.factor_graph(netembed.row_normalize(counts), min(k or dimension, len(rows)))
        embedding = netembed.network_embedding(factors, mode=mode, row_ids=rows)
        embedding.skipped = counts.skipped
        embedding.graph = graph

    matrix = np.zeros((len(users), embedding.k))
    matrix[present] = embedding.matrix
    view = compose.ViewEmbeddingSet("Network", user_ids=users, matrix=matrix, present=present)
    return view, embedding


def _standardize(train: np.ndarray, test: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both scaled in place by train's column means and standard deviations."""
    mean = train.mean(axis=0)
    std = train.std(axis=0)
    std[std == 0] = 1.0
    return tuple(np.divide(np.subtract(rows, mean, out=rows), std, out=rows) for rows in (train, test))


@dataclass
class ExperimentResult:
    tag: str
    report: classify.EvaluationReport
    n_train: int  # the split's training rows
    n_test: int
    synthetic: int  # rows SMOTE added to the training rows
    zero_filled: int
    epochs: int
    converged: bool
    final_loss: float  # the fit's last training loss


def run_experiment(
    feature_view: compose.ViewEmbeddingSet,
    labels_by_user: dict[str, ClassLabel],
    users: Sequence[str],
    split_ratio: float = SPLIT_RATIO,
    seed: int = 0,
    smote_config: Optional[classify.SMOTEConfig] = None,
    classifier_config: Optional[classify.ClassifierConfig] = None,
) -> ExperimentResult:
    """Split, oversample the training fold, standardize, train, and evaluate one setting.

    The evaluation covers every class among the users, so a class whose
    users all fall in the test fold is scored, and flagged as never predicted.
    """
    users = [u for u in users if u in labels_by_user]
    features, present = feature_view.take(users)
    if not present.any():
        raise classify.ClassifierError(
            f"composition {feature_view.name!r} has no vector for any of its {len(users)} users"
        )
    y = [labels_by_user[u] for u in users]

    train_idx, test_idx = classify.stratified_split(y, ratio=split_ratio, seed=seed)
    x_train, x_test = features[train_idx], features[test_idx]
    y_train = [y[i] for i in train_idx]
    y_test = [y[i] for i in test_idx]

    smote_config = smote_config or classify.SMOTEConfig(seed=seed)
    x_train, y_fit = classify.smote(x_train, y_train, smote_config)
    x_train, x_test = _standardize(x_train, x_test)

    classifier_config = classifier_config or classify.ClassifierConfig()
    model = classify.train_classifier(x_train, y_fit, classifier_config)
    predicted = classify.predict(model, x_test)
    report = classify.evaluate(predicted, y_test, classes=[c for c in ClassLabel if c in y])
    return ExperimentResult(
        tag=feature_view.name,
        report=report,
        n_train=len(y_train),
        n_test=len(y_test),
        synthetic=len(y_fit) - len(y_train),
        zero_filled=int((~present).sum()),
        epochs=model.epochs,
        converged=model.converged,
        final_loss=model.loss_history[-1],
    )


@dataclass
class SuiteResults:
    suite_a: dict[str, ExperimentResult]
    suite_b: dict[str, ExperimentResult]
    best_a_tag: str
    connected_users: list[str]


def run_suites(
    build: Callable[[str], compose.ViewEmbeddingSet],
    dataset: LabeledDataset,
    suite_a_tags: Sequence[str] = SUITE_A_TAGS,
    suite_b_tags: Sequence[str] = SUITE_B_TAGS,
    split_ratio: float = SPLIT_RATIO,
    seed: int = 0,
    classifier_config: Optional[classify.ClassifierConfig] = None,
) -> SuiteResults:
    """The two experiment suites; build(tag) gives the tag's composition, once per experiment.

    Nothing here keeps a composition past its experiment, so a builder
    that makes it there and then (the CLI's builds it from the saved views)
    holds only the running experiment's. Suite A runs text/emoji
    compositions over all labeled users. Suite B runs network compositions
    over the interaction-connected subset, and records the best suite-A
    setting re-run on that subset as suite_b[best_a_tag], their baseline; a
    suite-B tag that adds the same views, however it is spelled, is that
    setting, scored once under best_a_tag. Nothing here compares:
    the report stage derives each tag's delta against the baseline. Suite A
    must name at least one composition; suite B may name none. Every
    experiment splits and oversamples with the one seed, as
    run_experiment's default SMOTEConfig(seed=seed).
    """
    labels = dataset.labels()
    all_users = sorted(labels)
    if not suite_a_tags:
        raise compose.CompositionError("suite A needs at least one composition")

    def score(tag: str, users: list[str]) -> ExperimentResult:
        return run_experiment(build(tag), labels, users, split_ratio, seed, classifier_config=classifier_config)

    suite_a = {tag: score(tag, all_users) for tag in suite_a_tags}
    best_a_tag = max(suite_a, key=lambda t: suite_a[t].report.macro_f1)

    connected = sorted(
        {rec.source for rec in dataset.interactions} & set(all_users)
    )
    suite_b: dict[str, ExperimentResult] = {}
    if connected and suite_b_tags:
        baseline = set(compose.resolve_tag(best_a_tag))
        others = [tag for tag in suite_b_tags if set(compose.resolve_tag(tag)) != baseline]
        for tag in dict.fromkeys([best_a_tag, *others]):
            suite_b[tag] = score(tag, connected)
    return SuiteResults(
        suite_a=suite_a,
        suite_b=suite_b,
        best_a_tag=best_a_tag,
        connected_users=connected,
    )
