"""Subcommand CLI orchestrating the pipeline.

Usage: cme <subcommand> --config <path> [--seed N] [--out DIR]

Subcommands run the stages in order: synth, preprocess, train-we, views,
netembed, correlate, compose, classify, report (plus "run" for the whole
chain). Each stage writes its artifacts under a content-addressed run
directory derived from the config contents and the effective seed, so a
changed config never overwrites a previous run, and rerunning the same
config reproduces the same bytes.

preprocess/tokens.json holds each user's PreparedUser fields (tweet
sentences, description tokens, emoji) as compact JSON with sorted keys;
`cme run` hands the same records to train-we and views in memory, and the
standalone stages read the file.

Per-user matrices (the skip-gram models, the six views, the Network view and
each composition) are written with wemodel.save_model as binary pairs:
"<stem>.npy" holds the float64 matrix and "<stem>.words" the row labels, so
the next stage reads back exactly the bits that were written. Each stage
also writes a meta.json summary. The one text model the CLI reads is an
optional external [views] emoji_background_model in word2vec text layout.

With [views] profile_images on, the views stage also reads the image tag
file ([views] image_fixture, by default <corpus>/image_tags.tsv, which
synth writes) and builds the ProfileImage view from it.

The compose stage builds exactly the tags of [classify] suite_a_tags and
suite_b_tags, each once; suite A needs a tag, suite B may have none.

[netembed] k is an upper bound on the Network view's components: the
netembed stage takes min(k, source rows), and k = 0 (the default) means
[train_we] dimension, the largest k accepted.

The config file is flat INI with one section per stage. CONFIG_KEYS lists
every key with the type its value is parsed with; any other section or key
is an error before the run directory is made. RunContext reads the file in
one pass: it parses every key, range-checks every stage's settings and
reads the input files the config names, so an unusable value fails before
the first stage runs. A key the file leaves out takes the default of the
setting it feeds (TrainingConfig, SMOTEConfig, ClassifierConfig, ...), so
a minimal config can be empty. Values are taken literally: "%" is not
an interpolation marker.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import classify, compose, corpus, netembed, pipeline, synth, wemodel
from .emoji import load_emoji_lexicon
from .imagetags import CONFIDENCE_THRESHOLD, MissingImageTagsError, load_image_tags
from .preprocess import KEEP_HASHTAG_BODY, load_lemma_table, load_stopwords


class CLIError(Exception):
    """Raised for user-facing command errors; message goes to stderr."""


def _bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


def _list(raw: str) -> list[str]:
    return [item.strip() for item in raw.split(",") if item.strip()]


def _counts(raw: str) -> list[int]:
    return [int(item) for item in _list(raw)]


# section -> key -> the type its value is parsed with
CONFIG_KEYS = {
    "global": {"seed": int, "out_dir": str},
    "corpus": {"directory": str},
    "synth": {"users_per_class": _counts},
    "preprocess": {"stopwords": str, "lemmas": str, "keep_hashtag_body": _bool},
    "train_we": {
        "dimension": int, "window": int, "negatives": int, "epochs": int, "learning_rate": float,
        "min_count": int, "subsample_threshold": float,
    },
    "views": {
        "emoji_lexicon": str, "emoji_background_model": str, "profile_images": _bool,
        "image_fixture": str, "image_confidence_threshold": float,
    },
    "netembed": {"mode": str, "k": int},
    "correlate": {"pairs": _list, "alpha": float},
    "classify": {
        "suite_a_tags": _list, "suite_b_tags": _list, "smote_k": int,
        "smote_duplicate_singletons": _bool, "l2_penalty": float, "epochs": int,
        "split_ratio": float,
    },
}


class RunContext:
    """The config, read once; the run directory; and what stages share in memory.

    Construction parses every key, builds every stage's checked settings
    and reads the input files the config names, so the stage commands read
    no config. Within one process (`cme run`) the corpus is parsed once and
    the prepared users that preprocess writes to tokens.json are kept, so
    train-we and views read neither file again.
    """

    def __init__(self, config_path: str, seed: int | None, out_dir: str | None):
        self.parser = configparser.ConfigParser(interpolation=None)
        try:
            read = self.parser.read(config_path)
        except configparser.Error as exc:
            raise CLIError(f"malformed config {config_path}: {exc}") from None
        if not read:
            raise CLIError(f"config file not found: {config_path}")
        self._check_keys()
        file_seed = self.get("global", "seed", 7)
        self.seed = file_seed if seed is None else seed
        out = out_dir or self.get("global", "out_dir", "cme-out")
        self.run_dir = Path(out) / f"run-{self._fingerprint()}"
        self.run_dir.mkdir(parents=True, exist_ok=True)
        directory = self.get("corpus", "directory")
        self.external_corpus = bool(directory)
        self.corpus_dir = Path(directory) if directory else self.run_dir / "synth"
        # set by _load_corpus on first use, so `cme run` parses the corpus once
        self.dataset: corpus.LabeledDataset | None = None
        # set by cmd_preprocess, in tokens.json's sorted-user_id order
        self.prepared: dict[str, pipeline.PreparedUser] | None = None

        self.synth = _synth_config(self)
        self.stopwords = self._load("preprocess", "stopwords", load_stopwords)
        self.lemmas = self._load("preprocess", "lemmas", load_lemma_table)
        self.keep_hashtags = self.get("preprocess", "keep_hashtag_body", KEEP_HASHTAG_BODY)
        try:
            self.training = wemodel.TrainingConfig(
                seed=self.seed, **self.given("train_we", *CONFIG_KEYS["train_we"])
            )
        except ValueError as exc:
            # TrainingConfig's messages start with the field name, which is also the key
            raise CLIError(f"train_we.{exc}") from None
        self.lexicon = self._load("views", "emoji_lexicon", load_emoji_lexicon)
        self.background = self._load(
            "views", "emoji_background_model",
            # the view is as wide as the model, and compose adds it to dimension-wide views
            lambda path: wemodel.load_text_model(path, self.training.dimension) if path else None,
        )
        self.profile_images = self.get("views", "profile_images", False)
        fixture = self.get("views", "image_fixture")
        self.image_tags = Path(fixture or self.corpus_dir / "image_tags.tsv")
        self.image_threshold = self.get("views", "image_confidence_threshold", CONFIDENCE_THRESHOLD)
        # synth writes the default tag file; any other must exist before the first stage
        if self.profile_images and (fixture or directory) and not self.image_tags.is_file():
            raise CLIError(f"image tag file not found: {self.image_tags} (set [views] image_fixture)")
        self.net_mode, self.net_k = _netembed_settings(self)
        self.pairs = _correlate_pairs(self)
        self.alpha = self.get("correlate", "alpha", compose.ALPHA)
        if not 0.0 < self.alpha < 1.0:
            raise CLIError(f"correlate.alpha must be in (0, 1), got {self.alpha}")
        self.suite_a, self.suite_b, self.tags = _suite_tags(self)
        self.smote, self.classifier, self.split_ratio = _classify_settings(self)

    def _check_keys(self) -> None:
        unknown = [f"DEFAULT.{key}" for key in self.parser.defaults()]
        for section in self.parser.sections():
            known = CONFIG_KEYS.get(section, {})
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

    def _read(self, section: str, key: str):
        """The key's value parsed with its CONFIG_KEYS type, or None when the file does not set it."""
        parse = CONFIG_KEYS[section].get(key)
        if parse is None:
            raise KeyError(f"{section}.{key} is read but missing from CONFIG_KEYS")
        raw = self.parser.get(section, key, fallback=None)
        try:
            return None if raw is None else parse(raw)
        except ValueError as exc:
            raise CLIError(f"{section}.{key}: {exc}") from None

    def get(self, section: str, key: str, default=None):
        value = self._read(section, key)
        return default if value is None else value

    def given(self, section: str, *keys: str, **renamed: str) -> dict:
        """{field: value} for the keys the file sets; renamed maps a field to a differently named key."""
        fields = {key: key for key in keys} | renamed
        values = {field: self._read(section, key) for field, key in fields.items()}
        return {field: value for field, value in values.items() if value is not None}

    def _load(self, section: str, key: str, load):
        """load(path the key names, or None for the packaged default); a bad file is a CLIError."""
        path = self.get(section, key) or None
        try:
            return load(path)
        except (OSError, ValueError) as exc:
            raise CLIError(f"{section}.{key}: {exc}") from None

    # ---- artifact paths -------------------------------------------------

    def stage_dir(self, stage: str) -> Path:
        path = self.run_dir / stage
        path.mkdir(parents=True, exist_ok=True)
        return path

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


def _synth_config(ctx: RunContext) -> synth.SynthConfig:
    profiles = synth.default_profiles()
    sizes = ctx.get("synth", "users_per_class")
    if sizes is not None:
        if len(sizes) != len(profiles):
            raise CLIError("synth.users_per_class must list three counts (P,I,R)")
        try:
            profiles = {cls: replace(p, users=n) for (cls, p), n in zip(profiles.items(), sizes)}
        except ValueError as exc:
            raise CLIError(f"synth.users_per_class: {exc}") from None
    return synth.SynthConfig(profiles=profiles, seed=ctx.seed)


def cmd_synth(ctx: RunContext) -> None:
    seed = ctx.synth.seed
    dataset = synth.generate(ctx.synth)
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
        ctx.require(ctx.corpus_dir / "users.jsonl", "synth (or set [corpus] directory)")
        try:
            ctx.dataset = corpus.load_dataset(ctx.corpus_dir)
        except OSError as exc:
            raise CLIError(f"cannot read the corpus: {exc}") from None
    return ctx.dataset


# the PreparedUser fields tokens.json holds per user_id
_TOKEN_FIELDS = [f.name for f in fields(pipeline.PreparedUser) if f.name != "user_id"]


def cmd_preprocess(ctx: RunContext) -> None:
    dataset = _load_corpus(ctx)
    prepared = pipeline.prepare_users(dataset, ctx.stopwords, ctx.lemmas, ctx.keep_hashtags)
    payload = {
        uid: {name: getattr(rec, name) for name in _TOKEN_FIELDS} for uid, rec in prepared.items()
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
        uid: pipeline.PreparedUser(uid, **{name: rec[name] for name in _TOKEN_FIELDS})
        for uid, rec in raw.items()
    }


def cmd_train_we(ctx: RunContext) -> None:
    prepared = _load_prepared(ctx)
    config = ctx.training
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


def _load_image_tags(ctx: RunContext) -> dict[str, list[str]]:
    try:
        return load_image_tags(ctx.image_tags, ctx.image_threshold)
    except OSError as exc:
        raise CLIError(f"cannot read the image tag file: {exc} (set [views] image_fixture)") from None


def cmd_views(ctx: RunContext) -> None:
    dataset = _load_corpus(ctx)
    prepared = _load_prepared(ctx)
    content, people = _load_models(ctx)

    views = pipeline.build_text_views(prepared, content, people, ctx.lexicon, ctx.background)

    if ctx.profile_images:
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


def _netembed_settings(ctx: RunContext) -> tuple[str, int]:
    """(mode, k); k bounds the components from above, and 0 stands for the dimension."""
    mode = ctx.get("netembed", "mode", netembed.DEFAULT_MODE)
    if mode not in netembed.MODES:
        raise CLIError(f"netembed.mode must be one of {', '.join(netembed.MODES)}, got {mode!r}")
    k = ctx.get("netembed", "k", 0)
    dimension = ctx.training.dimension
    if not 0 <= k <= dimension:
        raise CLIError(f"netembed.k must be in [0, {dimension}] (train_we.dimension), got {k}")
    return mode, k


def cmd_netembed(ctx: RunContext) -> None:
    dataset = _load_corpus(ctx)
    mode = ctx.net_mode
    try:
        view, embedding = pipeline.build_network_view(
            dataset, ctx.training.dimension, mode=mode, k=ctx.net_k
        )
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
    pairs_raw = ctx.get(
        "correlate",
        "pairs",
        ["Tweet:TweetEmoji", "Description:DescriptionEmoji", "Tweet:Network", "Description:Network"],
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
    views = _load_views(ctx, sorted({name for pair in ctx.pairs for name in pair}))
    results = []
    for name_a, name_b in ctx.pairs:
        try:
            res = compose.correlate_views(views[name_a], views[name_b], alpha=ctx.alpha)
        except compose.UndefinedCorrelationError as exc:
            res = compose.CorrelationResult(
                rho=float("nan"), p_value=float("nan"), n=0, decision=f"undefined: {exc}"
            )
        results.append((name_a, name_b, res))
    out = ctx.stage_dir("correlate")
    compose.write_correlation_report(results, out / "correlations.tsv")
    for name_a, name_b, res in results:
        print(f"[correlate] {name_a} vs {name_b}: rho={res.rho:.4g} p={res.p_value:.4g} n={res.n}")


def _suite_tags(ctx: RunContext) -> tuple[list[str], list[str], dict[str, tuple[str, ...]]]:
    """(suite A tags, suite B tags, each tag of either suite and the views it adds)."""
    suites, tags = [], {}
    for key, default in (("suite_a_tags", pipeline.SUITE_A_TAGS), ("suite_b_tags", pipeline.SUITE_B_TAGS)):
        suites.append(list(ctx.get("classify", key, default)))
        for tag in suites[-1]:
            try:
                tags[tag] = compose.resolve_tag(tag)
            except compose.CompositionError as exc:
                raise CLIError(f"classify.{key}: {exc}") from None
    if not suites[0]:
        raise CLIError("classify.suite_a_tags: suite A needs at least one tag")
    return suites[0], suites[1], tags


def cmd_compose(ctx: RunContext) -> None:
    needed = sorted({name for names in ctx.tags.values() for name in names})
    views = _load_views(ctx, needed)
    out = ctx.stage_dir("compose")
    meta = {}
    for tag in ctx.tags:
        cme_set = compose.build_cme(views, tag)
        _save_view(cme_set, out / _view_filename(tag))
        meta[tag] = {
            "dimension": cme_set.dimension,
            "users": len(cme_set.vectors),
            "sentinel_count": cme_set.sentinel_count,
            "per_view_sentinels": cme_set.sentinel_counts,
        }
    _write_json(out / "meta.json", meta)
    print(f"[compose] built {', '.join(ctx.tags)}")


def _classify_settings(
    ctx: RunContext,
) -> tuple[classify.SMOTEConfig, classify.ClassifierConfig, float]:
    """(SMOTE config, classifier config, split ratio); the SMOTE seed is the split seed."""
    try:
        smote_config = classify.SMOTEConfig(
            seed=ctx.seed,
            **ctx.given(
                "classify", k_neighbors="smote_k", duplicate_singletons="smote_duplicate_singletons"
            ),
        )
    except ValueError as exc:
        raise CLIError(f"classify.smote_k: {exc}") from None
    try:
        classifier_config = classify.ClassifierConfig(**ctx.given("classify", "l2_penalty", "epochs"))
    except ValueError as exc:
        # ClassifierConfig's messages start with the field name, which is also the key
        raise CLIError(f"classify.{exc}") from None
    split_ratio = ctx.get("classify", "split_ratio", pipeline.SPLIT_RATIO)
    if not 0.0 < split_ratio < 1.0:
        raise CLIError(f"classify.split_ratio must be in (0, 1), got {split_ratio}")
    return smote_config, classifier_config, split_ratio


def cmd_classify(ctx: RunContext) -> None:
    dataset = _load_corpus(ctx)
    compose_dir = ctx.run_dir / "compose"
    cme_sets = {tag: _load_view(ctx, compose_dir / _view_filename(tag), tag, "compose") for tag in ctx.tags}
    split_seed = ctx.smote.seed
    results = pipeline.run_suites(
        cme_sets,
        dataset,
        suite_a_tags=ctx.suite_a,
        suite_b_tags=ctx.suite_b,
        split_ratio=ctx.split_ratio,
        seed=split_seed,
        smote_config=ctx.smote,
        classifier_config=ctx.classifier,
    )
    ctx.log_seed("classify", split_seed)

    out = ctx.stage_dir("classify")
    payload = {
        "best_suite_a_tag": results.best_a_tag,
        "connected_users": len(results.connected_users),
        "seed": split_seed,
    }
    lines = []
    for name, users, suite in (("A", "all users", results.suite_a), ("B", "connected subset", results.suite_b)):
        # an entry is the ExperimentResult's fields, its report as EvaluationReport.to_dict()
        payload[f"suite_{name.lower()}"] = {
            tag: vars(res) | {"report": res.report.to_dict()} for tag, res in suite.items()
        }
        for tag, res in suite.items():
            lines.append(classify.format_report(res.report, title=f"suite {name} ({users}): {tag}"))
            print(f"[classify] suite {name} {tag}: macro-F1 {res.report.macro_f1:.4f}")
    _write_json(out / "results.json", payload)
    (out / "results.txt").write_text("\n".join(lines), encoding="utf-8")


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
    text = "\n".join(lines) + "\n"
    (out / "report.txt").write_text(text, encoding="utf-8")
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
    print(text)


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
STAGE_ORDER = list(COMMANDS)


def cmd_run(ctx: RunContext) -> None:
    """Run the whole chain in stage order; synth is skipped when [corpus] directory is set."""
    for stage in STAGE_ORDER:
        if not (stage == "synth" and ctx.external_corpus):
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
