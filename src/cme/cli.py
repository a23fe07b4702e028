"""Subcommand CLI orchestrating the pipeline.

Usage: cme <subcommand> --config <path> [--seed N] [--out DIR]

Subcommands run the stages in order: synth, preprocess, train-we, views,
netembed, correlate, compose, classify, report (plus "run" for the whole
chain). Each stage writes its artifacts under a content-addressed run
directory derived from the config contents and the effective seed, so a
changed config never overwrites a previous run, and rerunning the same
config reproduces the same bytes.

preprocess/tokens.json holds each user's cleaned tokens and emoji as
compact JSON with sorted keys; `cme run` hands the same records to
train-we and views in memory, and the standalone stages read the file.

Per-user matrices (the skip-gram models, the six views, the Network view and
each composition) are written with wemodel.save_model as binary pairs:
"<stem>.npy" holds the float64 matrix and "<stem>.words" the row labels, so
the next stage reads back exactly the bits that were written. Each stage
also writes a meta.json summary. The one text model the CLI reads is an
optional external [views] emoji_background_model in word2vec text layout.

With [views] profile_images on, the views stage also reads the image tag
file ([views] image_fixture, by default <corpus>/image_tags.tsv, which
synth writes) and builds the ProfileImage view from it.

The config file is flat INI with one section per stage; every key has a
default, so a minimal config can be empty. CONFIG_KEYS lists every key the
stages read; any other section or key is an error before anything runs.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import classify, compose, corpus, netembed, pipeline, synth, wemodel
from .emoji import load_emoji_lexicon
from .imagetags import MissingImageTagsError, load_image_tags
from .preprocess import load_lemma_table, load_stopwords


class CLIError(Exception):
    """Raised for user-facing command errors; message goes to stderr."""


STAGE_ORDER = [
    "synth",
    "preprocess",
    "train-we",
    "views",
    "netembed",
    "correlate",
    "compose",
    "classify",
    "report",
]


_SYNTH_CLASSES = ("personal", "informed_agency", "retail")

# section -> keys read by the stage commands below
CONFIG_KEYS = {
    "global": {"seed", "out_dir"},
    "corpus": {"directory"},
    "synth": {"seed_offset", "users_per_class"}
    | {f"{cls}_{suffix}" for cls in _SYNTH_CLASSES for suffix in ("rates", "class_word_prob")},
    "preprocess": {"stopwords", "lemmas", "keep_hashtag_body"},
    "train_we": {
        "dimension", "window", "negatives", "epochs", "learning_rate", "min_count",
        "subsample_threshold", "seed_offset",
    },
    "views": {
        "emoji_lexicon", "emoji_background_model", "profile_images", "image_fixture",
        "image_confidence_threshold",
    },
    "netembed": {"mode", "k"},
    "correlate": {"pairs", "alpha"},
    "compose": {"tags"},
    "classify": {
        "suite_a_tags", "suite_b_tags", "seed_offset", "smote_k", "smote_duplicate_singletons",
        "l2_penalty", "epochs", "split_ratio",
    },
}


class RunContext:
    """Parsed config, the content-addressed run directory and what stages share in memory.

    Within one process (`cme run`) the corpus is parsed once and the
    prepared users that preprocess writes to tokens.json are kept, so
    train-we and views read neither file again.
    """

    def __init__(self, config_path: str, seed: int | None, out_dir: str | None):
        self.parser = configparser.ConfigParser()
        try:
            read = self.parser.read(config_path)
        except configparser.Error as exc:
            raise CLIError(f"malformed config {config_path}: {exc}") from None
        if not read:
            raise CLIError(f"config file not found: {config_path}")
        self._check_keys()
        self.seed = seed if seed is not None else self.getint("global", "seed", 7)
        out = out_dir or self.get("global", "out_dir", "cme-out")
        digest = self._fingerprint()
        self.run_dir = Path(out) / f"run-{digest}"
        self.run_dir.mkdir(parents=True, exist_ok=True)
        # set by _load_corpus on first use, so `cme run` parses the corpus once
        self.dataset: corpus.LabeledDataset | None = None
        # set by cmd_preprocess, in tokens.json's sorted-user_id order
        self.prepared: dict[str, pipeline.PreparedUser] | None = None

    def _check_keys(self) -> None:
        unknown = [f"DEFAULT.{key}" for key in self.parser.defaults()]
        for section in self.parser.sections():
            known = CONFIG_KEYS.get(section, set())
            unknown += [f"{section}.{key}" for key in self.parser[section] if key not in known]
        if unknown:
            raise CLIError(f"unknown config key(s): {', '.join(unknown)}")

    def _fingerprint(self) -> str:
        # canonical serialization: section and key order do not matter
        parts = []
        for section in sorted(self.parser.sections()):
            for key in sorted(self.parser[section]):
                parts.append(f"{section}.{key}={self.parser[section][key]}")
        parts.append(f"seed={self.seed}")
        return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()[:12]

    def _read(self, section: str, key: str) -> tuple[str, str]:
        if key not in CONFIG_KEYS[section]:
            raise KeyError(f"{section}.{key} is read but missing from CONFIG_KEYS")
        return section, key

    def get(self, section: str, key: str, fallback=None):
        return self.parser.get(*self._read(section, key), fallback=fallback)

    def _typed(self, parse, section: str, key: str, fallback):
        try:
            return parse(*self._read(section, key), fallback=fallback)
        except ValueError as exc:
            raise CLIError(f"{section}.{key}: {exc}") from None

    def getint(self, section: str, key: str, fallback: int) -> int:
        return self._typed(self.parser.getint, section, key, fallback)

    def getfloat(self, section: str, key: str, fallback: float) -> float:
        return self._typed(self.parser.getfloat, section, key, fallback)

    def getbool(self, section: str, key: str, fallback: bool) -> bool:
        return self._typed(self.parser.getboolean, section, key, fallback)

    def getlist(self, section: str, key: str, fallback: str) -> list[str]:
        raw = self.get(section, key, fallback)
        return [item.strip() for item in raw.split(",") if item.strip()]

    # ---- artifact paths -------------------------------------------------

    def stage_dir(self, stage: str) -> Path:
        path = self.run_dir / stage
        path.mkdir(parents=True, exist_ok=True)
        return path

    def corpus_dir(self) -> Path:
        configured = self.get("corpus", "directory")
        if configured:
            return Path(configured)
        return self.run_dir / "synth"

    def require(self, path: Path, producer: str) -> Path:
        if not path.exists():
            raise CLIError(
                f"missing artifact {path.name}: run `cme {producer}` first"
            )
        return path

    def log_seed(self, stage: str, seed: int) -> None:
        print(f"[{stage}] effective seed {seed}")


def _write_json(path: Path, payload, indent: int | None = 2) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=indent) + "\n", encoding="utf-8")


def _save_view(view: compose.ViewEmbeddingSet, path: Path) -> None:
    present = view.users_with_vectors()
    vectors = np.vstack([view.vectors[u] for u in present]) if present else np.zeros((0, view.dimension or 0))
    model = wemodel.WEModel(vocabulary={u: i for i, u in enumerate(present)}, vectors=vectors)
    wemodel.save_model(model, path)


def _load_matrix(ctx: RunContext, path: Path, producer: str) -> wemodel.WEModel:
    """Load a stage's .npy/.words pair; a missing or unreadable file is a CLIError."""
    ctx.require(path, producer)
    ctx.require(path.with_suffix(".words"), producer)
    try:
        return wemodel.load_model(path)
    except ValueError as exc:
        raise CLIError(f"unreadable artifact {path.name}: {exc}") from None


def _load_view(ctx: RunContext, path: Path, name: str, producer: str) -> compose.ViewEmbeddingSet:
    model = _load_matrix(ctx, path, producer)
    vectors = {u: model.vectors[i].copy() for u, i in model.vocabulary.items()}
    return compose.ViewEmbeddingSet(name, vectors)


def _view_filename(tag: str) -> str:
    return tag.replace("+", "_") + ".npy"


# ---- stage commands -----------------------------------------------------


def cmd_synth(ctx: RunContext) -> None:
    seed = ctx.seed + ctx.getint("synth", "seed_offset", 0)
    profiles = synth.default_profiles()
    sizes = ctx.getlist("synth", "users_per_class", "60,30,20")
    if len(sizes) != 3:
        raise CLIError("synth.users_per_class must list three counts (P,I,R)")
    order = [corpus.ClassLabel.PERSONAL, corpus.ClassLabel.INFORMED_AGENCY, corpus.ClassLabel.RETAIL]
    for cls, count in zip(order, sizes):
        try:
            profiles[cls] = replace(profiles[cls], users=int(count))
        except ValueError as exc:
            raise CLIError(f"synth.users_per_class: {exc}") from None
    for cls, key in zip(order, _SYNTH_CLASSES):
        rates = ctx.get("synth", f"{key}_rates")
        if rates:
            try:
                retweet, mention = (float(x) for x in rates.split("/"))
                profiles[cls] = replace(profiles[cls], retweet_rate=retweet, mention_rate=mention)
            except ValueError as exc:
                raise CLIError(f"synth.{key}_rates: {exc} (want retweet/mention)") from None
        word_prob = ctx.getfloat("synth", f"{key}_class_word_prob", profiles[cls].class_word_prob)
        profiles[cls] = replace(profiles[cls], class_word_prob=word_prob)

    config = synth.SynthConfig(profiles=profiles, seed=seed)
    dataset = synth.generate(config)
    out = ctx.stage_dir("synth")
    corpus.save_dataset(dataset, out)
    synth.write_image_fixture(dataset, out / "image_tags.tsv", seed=seed)
    _write_json(
        out / "meta.json",
        {
            "seed": seed,
            "class_counts": {c.name: n for c, n in dataset.class_counts.items()},
            "tweets": len(dataset.tweets),
            "interactions": len(dataset.interactions),
        },
    )
    ctx.log_seed("synth", seed)
    print(f"[synth] wrote corpus for {len(dataset.users)} users to {out}")


def _load_corpus(ctx: RunContext) -> corpus.LabeledDataset:
    """The corpus, parsed on first use and then shared; no stage modifies it."""
    if ctx.dataset is None:
        directory = ctx.corpus_dir()
        ctx.require(directory / "users.jsonl", "synth (or set [corpus] directory)")
        ctx.dataset = corpus.load_dataset(directory)
    return ctx.dataset


def cmd_preprocess(ctx: RunContext) -> None:
    dataset = _load_corpus(ctx)
    stopwords = load_stopwords(ctx.get("preprocess", "stopwords"))
    lemmas = load_lemma_table(ctx.get("preprocess", "lemmas"))
    keep_hashtags = ctx.getbool("preprocess", "keep_hashtag_body", True)
    prepared = pipeline.prepare_users(dataset, stopwords, lemmas, keep_hashtags)
    payload = {
        uid: {
            "tweet_tokens": rec.tweet_tokens,
            "tweet_sentences": rec.tweet_sentences,
            "tweet_emoji": rec.tweet_emoji,
            "desc_tokens": rec.desc_tokens,
            "desc_emoji": rec.desc_emoji,
        }
        for uid, rec in prepared.items()
    }
    out = ctx.stage_dir("preprocess")
    # compact: no indent lets json use its C encoder
    _write_json(out / "tokens.json", payload, indent=None)
    # the order _load_prepared reads back: later stages depend on user order
    ctx.prepared = {uid: prepared[uid] for uid in sorted(prepared)}
    print(f"[preprocess] tokenized {len(prepared)} users")


def _load_prepared(ctx: RunContext) -> dict[str, pipeline.PreparedUser]:
    """The prepared users: kept from preprocess in this process, else read from tokens.json."""
    if ctx.prepared is not None:
        return ctx.prepared
    path = ctx.require(ctx.run_dir / "preprocess" / "tokens.json", "preprocess")
    raw = json.loads(path.read_text(encoding="utf-8"))
    return {
        uid: pipeline.PreparedUser(
            user_id=uid,
            tweet_tokens=rec["tweet_tokens"],
            tweet_sentences=[list(s) for s in rec["tweet_sentences"]],
            tweet_emoji=rec["tweet_emoji"],
            desc_tokens=rec["desc_tokens"],
            desc_emoji=rec["desc_emoji"],
        )
        for uid, rec in raw.items()
    }


def _training_config(ctx: RunContext) -> wemodel.TrainingConfig:
    try:
        return wemodel.TrainingConfig(
            dimension=ctx.getint("train_we", "dimension", 300),
            window=ctx.getint("train_we", "window", 5),
            negatives=ctx.getint("train_we", "negatives", 10),
            epochs=ctx.getint("train_we", "epochs", 5),
            learning_rate=ctx.getfloat("train_we", "learning_rate", 0.025),
            min_count=ctx.getint("train_we", "min_count", 5),
            subsample_threshold=ctx.getfloat("train_we", "subsample_threshold", 1e-4),
            seed=ctx.seed + ctx.getint("train_we", "seed_offset", 0),
        )
    except ValueError as exc:
        # TrainingConfig's messages start with the field name, which is also the key
        raise CLIError(f"train_we.{exc}") from None


def cmd_train_we(ctx: RunContext) -> None:
    prepared = _load_prepared(ctx)
    config = _training_config(ctx)
    content, people = pipeline.train_view_models(prepared, config)
    out = ctx.stage_dir("models")
    wemodel.save_model(content, out / "content.npy")
    wemodel.save_model(people, out / "people.npy")
    _write_json(
        out / "meta.json",
        {
            "dimension": config.dimension,
            "content_vocabulary": len(content.vocabulary),
            "people_vocabulary": len(people.vocabulary),
            "seed": config.seed,
            "content": content.stats,
            "people": people.stats,
        },
    )
    ctx.log_seed("train-we", config.seed)
    print(
        f"[train-we] content vocab {len(content.vocabulary)}, "
        f"people vocab {len(people.vocabulary)}, dim {config.dimension}"
    )


def _load_models(ctx: RunContext) -> tuple[wemodel.WEModel, wemodel.WEModel]:
    models = ctx.run_dir / "models"
    return (
        _load_matrix(ctx, models / "content.npy", "train-we"),
        _load_matrix(ctx, models / "people.npy", "train-we"),
    )


def _image_tags_path(ctx: RunContext) -> Path:
    path = Path(ctx.get("views", "image_fixture") or ctx.corpus_dir() / "image_tags.tsv")
    if not path.is_file():
        raise CLIError(f"image tag file not found: {path} (set [views] image_fixture)")
    return path


def _load_image_tags(ctx: RunContext) -> dict[str, list[str]]:
    path = _image_tags_path(ctx)
    threshold = ctx.getfloat("views", "image_confidence_threshold", 0.5)
    try:
        return load_image_tags(path, threshold)
    except ValueError as exc:
        raise CLIError(f"unreadable image tag file {path}: {exc}") from None


def cmd_views(ctx: RunContext) -> None:
    dataset = _load_corpus(ctx)
    prepared = _load_prepared(ctx)
    content, people = _load_models(ctx)
    lexicon = load_emoji_lexicon(ctx.get("views", "emoji_lexicon"))
    background_path = ctx.get("views", "emoji_background_model")
    background = wemodel.load_text_model(background_path) if background_path else None

    views = pipeline.build_text_views(prepared, content, people, lexicon, background)

    if ctx.getbool("views", "profile_images", False):
        views["ProfileImage"] = pipeline.build_image_view(dataset, people, _load_image_tags(ctx))

    out = ctx.stage_dir("views")
    meta = {}
    for name, view in views.items():
        _save_view(view, out / _view_filename(name))
        meta[name] = {
            "dimension": view.dimension,
            "users": len(view.vectors),
            "sentinel_count": view.sentinel_count,
        }
    _write_json(out / "meta.json", meta)
    print(f"[views] built {', '.join(sorted(views))}")


def _load_views(ctx: RunContext, names: list[str]) -> dict[str, compose.ViewEmbeddingSet]:
    views = {}
    for name in names:
        producer = "netembed" if name == "Network" else "views"
        views[name] = _load_view(ctx, ctx.run_dir / producer / _view_filename(name), name, producer)
    return views


def _netembed_settings(ctx: RunContext) -> tuple[str, int | None]:
    """(mode, k); k None lets the pipeline pick min(dimension, rows)."""
    mode = ctx.get("netembed", "mode", "paper")
    if mode not in netembed.MODES:
        raise CLIError(f"netembed.mode must be one of {', '.join(netembed.MODES)}, got {mode!r}")
    return mode, ctx.getint("netembed", "k", 0) or None


def cmd_netembed(ctx: RunContext) -> None:
    dataset = _load_corpus(ctx)
    dimension = ctx.getint("train_we", "dimension", 300)
    mode, k = _netembed_settings(ctx)
    try:
        view, embedding = pipeline.build_network_view(dataset, dimension, mode=mode, k=k)
    except ValueError as exc:
        raise CLIError(f"netembed: {exc}") from None
    out = ctx.stage_dir("netembed")
    _save_view(view, out / _view_filename("Network"))
    _write_json(
        out / "meta.json",
        {
            "mode": mode,
            "rows": len(embedding.row_ids),
            "components": embedding.k,
            "zero_rows": len(embedding.zero_rows),
        },
    )
    print(f"[netembed] embedded {len(embedding.row_ids)} users, {embedding.k} components, mode={mode}")


def _correlate_pairs(ctx: RunContext) -> list[tuple[str, str]]:
    pairs_raw = ctx.getlist(
        "correlate",
        "pairs",
        "Tweet:TweetEmoji,Description:DescriptionEmoji,Tweet:Network,Description:Network",
    )
    pairs = []
    for item in pairs_raw:
        if ":" not in item:
            raise CLIError(f"correlate.pairs entries must look like ViewA:ViewB, got {item!r}")
        pairs.append(tuple(part.strip() for part in item.split(":", 1)))
    names = sorted({name for pair in pairs for name in pair})
    unknown = [name for name in names if name not in compose.VIEW_NAMES]
    if unknown:
        raise CLIError(
            f"correlate.pairs: unknown view(s) {', '.join(map(repr, unknown))}; "
            f"views are {', '.join(compose.VIEW_NAMES)}"
        )
    return pairs


def cmd_correlate(ctx: RunContext) -> None:
    pairs = _correlate_pairs(ctx)
    views = _load_views(ctx, sorted({name for pair in pairs for name in pair}))
    alpha = ctx.getfloat("correlate", "alpha", 0.01)

    results = []
    for name_a, name_b in pairs:
        try:
            res = compose.correlate_views(views[name_a], views[name_b], alpha=alpha)
        except compose.UndefinedCorrelationError as exc:
            res = compose.CorrelationResult(
                rho=float("nan"), p_value=float("nan"), n=0, decision=f"undefined: {exc}"
            )
        results.append((name_a, name_b, res))
    out = ctx.stage_dir("correlate")
    compose.write_correlation_report(results, out / "correlations.tsv")
    for name_a, name_b, res in results:
        print(f"[correlate] {name_a} vs {name_b}: rho={res.rho:.4g} p={res.p_value:.4g} n={res.n}")


def _compose_tags(ctx: RunContext) -> dict[str, tuple[str, ...]]:
    """Each [compose] tag and the views it adds."""
    tags = {}
    for tag in ctx.getlist("compose", "tags", "T+D,T+E,D+E,N+T+E"):
        try:
            tags[tag] = compose.resolve_tag(tag)
        except compose.CompositionError as exc:
            raise CLIError(f"compose.tags: {exc}") from None
    return tags


def _suite_tags(ctx: RunContext) -> tuple[list[str], list[str]]:
    """(suite A tags, suite B tags); each must be a composition the compose stage builds."""
    built = _compose_tags(ctx)
    suite_a = ctx.getlist("classify", "suite_a_tags", "T+D,T+E,D+E")
    suite_b = ctx.getlist("classify", "suite_b_tags", "N+T+E")
    for key, tags in (("suite_a_tags", suite_a), ("suite_b_tags", suite_b)):
        missing = [tag for tag in tags if tag not in built]
        if missing:
            raise CLIError(
                f"classify.{key}: {', '.join(map(repr, missing))} not among compose.tags "
                f"({', '.join(built)})"
            )
    return suite_a, suite_b


def cmd_compose(ctx: RunContext) -> None:
    tags = _compose_tags(ctx)
    needed = sorted({name for names in tags.values() for name in names})
    views = _load_views(ctx, needed)
    out = ctx.stage_dir("compose")
    meta = {}
    for tag in tags:
        cme_set = compose.build_cme(views, tag)
        _save_view(cme_set, out / _view_filename(tag))
        meta[tag] = {
            "dimension": cme_set.dimension,
            "users": len(cme_set.vectors),
            "sentinel_count": cme_set.sentinel_count,
            "per_view_sentinels": cme_set.sentinel_counts,
        }
    _write_json(out / "meta.json", meta)
    print(f"[compose] built {', '.join(tags)}")


def _classify_settings(
    ctx: RunContext,
) -> tuple[classify.SMOTEConfig, classify.ClassifierConfig, float]:
    """(SMOTE config, classifier config, split ratio); the SMOTE seed is the split seed."""
    try:
        smote_config = classify.SMOTEConfig(
            k_neighbors=ctx.getint("classify", "smote_k", 5),
            seed=ctx.seed + ctx.getint("classify", "seed_offset", 0),
            duplicate_singletons=ctx.getbool("classify", "smote_duplicate_singletons", False),
        )
    except ValueError as exc:
        raise CLIError(f"classify.smote_k: {exc}") from None
    try:
        classifier_config = classify.ClassifierConfig(
            l2_penalty=ctx.getfloat("classify", "l2_penalty", 1e-3),
            epochs=ctx.getint("classify", "epochs", 1000),
        )
    except ValueError as exc:
        # ClassifierConfig's messages start with the field name, which is also the key
        raise CLIError(f"classify.{exc}") from None
    split_ratio = ctx.getfloat("classify", "split_ratio", 0.8)
    if not 0.0 < split_ratio < 1.0:
        raise CLIError(f"classify.split_ratio must be in (0, 1), got {split_ratio}")
    return smote_config, classifier_config, split_ratio


def cmd_classify(ctx: RunContext) -> None:
    dataset = _load_corpus(ctx)
    suite_a_tags, suite_b_tags = _suite_tags(ctx)
    cme_sets = {}
    for tag in dict.fromkeys(suite_a_tags + suite_b_tags):
        cme_sets[tag] = _load_view(ctx, ctx.run_dir / "compose" / _view_filename(tag), tag, "compose")

    smote_config, classifier_config, split_ratio = _classify_settings(ctx)
    split_seed = smote_config.seed
    results = pipeline.run_suites(
        cme_sets,
        dataset,
        suite_a_tags=suite_a_tags,
        suite_b_tags=suite_b_tags,
        split_ratio=split_ratio,
        seed=split_seed,
        smote_config=smote_config,
        classifier_config=classifier_config,
    )
    ctx.log_seed("classify", split_seed)

    out = ctx.stage_dir("classify")
    payload = {
        "suite_a": {tag: _result_dict(res) for tag, res in results.suite_a.items()},
        "suite_b": {tag: _result_dict(res) for tag, res in results.suite_b.items()},
        "best_suite_a_tag": results.best_a_tag,
        "connected_users": len(results.connected_users),
        "seed": split_seed,
    }
    _write_json(out / "results.json", payload)

    lines = []
    for suite, bucket in (("A (all users)", results.suite_a), ("B (connected subset)", results.suite_b)):
        for tag, res in bucket.items():
            lines.append(classify.format_report(res.report, title=f"suite {suite}: {tag}"))
    (out / "results.txt").write_text("\n".join(lines), encoding="utf-8")
    for tag, res in results.suite_a.items():
        print(f"[classify] suite A {tag}: macro-F1 {res.report.macro_f1:.4f}")
    for tag, res in results.suite_b.items():
        print(f"[classify] suite B {tag}: macro-F1 {res.report.macro_f1:.4f}")


def _result_dict(res: pipeline.ExperimentResult) -> dict:
    return {
        "tag": res.tag,
        "report": res.report.to_dict(),
        "n_train": res.n_train,
        "n_test": res.n_test,
        "zero_filled": res.zero_filled,
        "converged": res.converged,
        "epochs": res.epochs,
    }


def cmd_report(ctx: RunContext) -> None:
    path = ctx.require(ctx.run_dir / "classify" / "results.json", "classify")
    results = json.loads(path.read_text(encoding="utf-8"))
    out = ctx.stage_dir("report")

    lines = ["composition comparison report", "=" * 30, ""]
    lines.append("suite A (all users):")
    for tag, res in sorted(results["suite_a"].items()):
        lines.append(f"  {tag:<10} macro-F1 {res['report']['macro_f1']:.4f}  accuracy {res['report']['accuracy']:.4f}")
    best = results["best_suite_a_tag"]
    lines.append(f"best suite A setting: {best}")
    lines.append("")
    lines.append(f"suite B (connected subset, {results['connected_users']} users):")
    deltas = {}
    for tag, res in sorted(results["suite_b"].items()):
        report = res["report"]
        line = f"  {tag:<10} macro-F1 {report['macro_f1']:.4f}  accuracy {report['accuracy']:.4f}"
        if report.get("comparison"):
            delta = report["comparison"]["macro_f1_delta"]
            line += f"  (macro-F1 {delta:+.4f} vs {report['comparison']['baseline']})"
            deltas[tag] = delta
        lines.append(line)
    (out / "report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_json(
        out / "report.json",
        {
            "best_suite_a_tag": best,
            "suite_a_macro_f1": {
                tag: res["report"]["macro_f1"] for tag, res in results["suite_a"].items()
            },
            "suite_b_macro_f1": {
                tag: res["report"]["macro_f1"] for tag, res in results["suite_b"].items()
            },
            "suite_b_macro_f1_delta_vs_baseline": deltas,
        },
    )
    print((out / "report.txt").read_text(encoding="utf-8"))


COMMANDS = {
    "synth": cmd_synth,
    "preprocess": cmd_preprocess,
    "train-we": cmd_train_we,
    "views": cmd_views,
    "netembed": cmd_netembed,
    "correlate": cmd_correlate,
    "compose": cmd_compose,
    "classify": cmd_classify,
    "report": cmd_report,
}


def cmd_run(ctx: RunContext) -> None:
    """Run the whole chain in stage order.

    The checked settings of train-we, netembed, correlate, compose and
    classify are built first, so an unusable value fails before the first
    stage writes anything.
    """
    _training_config(ctx)
    _netembed_settings(ctx)
    _correlate_pairs(ctx)
    _suite_tags(ctx)
    _classify_settings(ctx)
    stages = list(STAGE_ORDER)
    if ctx.get("corpus", "directory"):
        stages.remove("synth")
        if ctx.getbool("views", "profile_images", False):
            _image_tags_path(ctx)  # a missing tag file fails before the long stages
    for stage in stages:
        COMMANDS[stage](ctx)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cme",
        description="multiview embedding pipeline for account-type classification",
    )
    parser.add_argument("command", choices=list(COMMANDS) + ["run"])
    parser.add_argument("--config", required=True, help="INI config file")
    parser.add_argument("--seed", type=int, default=None, help="override [global] seed")
    parser.add_argument("--out", default=None, help="override [global] out_dir")
    args = parser.parse_args(argv)

    try:
        ctx = RunContext(args.config, args.seed, args.out)
        if args.command == "run":
            cmd_run(ctx)
        else:
            COMMANDS[args.command](ctx)
    except (
        CLIError, corpus.CorpusError, wemodel.TrainingError, MissingImageTagsError,
        compose.CompositionError, classify.ClassifierError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
