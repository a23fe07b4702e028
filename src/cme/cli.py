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

Per-user matrices (the skip-gram models, the text and image views in
views/, the Network view in netembed/) are written with wemodel.save_model
as binary pairs: "<name>.npy" holds the float64 matrix and "<name>.words"
the row labels, so the next stage reads back exactly the bits that were
written. A view is saved as its rows under their user ids (0 x its width
if it has no vector) and loads as it was built, less the ids it found no
vector for; views/meta.json counts those as "sentinel_count", and every
user looked up as "users". netembed/meta.json is the record
pipeline.build_network_view returns, written as it is; that function's
docstring lists its fields. Each stage also writes a meta.json summary.
The one text model the CLI reads is an optional external [views]
emoji_background_model in word2vec text layout.

Past netembed, each stage loads the saved views it names when it uses
them and keeps none: correlate loads the two views of each pair it
screens, and classify builds each tag from its constituents when that
tag's experiment runs and holds it for that experiment only. Compositions
are not files. compose/meta.json is the plan, each suite tag and the views
it adds; classify reads nothing under compose/.

Classify records; report compares. classify/results.json holds each
experiment's figures, and suite B's entries include the best suite-A tag
re-run on the connected users, their baseline. The report stage derives
each other suite-B tag's macro-F1 delta against that baseline.

With [views] profile_images on, the views stage also reads the image tag
file ([views] image_fixture, by default <corpus>/image_tags.tsv, which
synth writes) and the corpus's image refs, and builds the ProfileImage
view from them; without it, the views stage does not parse the corpus.

The suites are the whole plan. The compose stage plans exactly the tags
of [classify] suite_a_tags and suite_b_tags, each once; suite A needs a
tag, suite B may have none. The correlate stage screens each distinct
unordered pair of views inside one of those tags, in plan order (suite A's
tags, then suite B's). A tag naming ProfileImage needs [views]
profile_images on.

[netembed] k is an upper bound on the Network view's components: the
netembed stage takes at most min(k, source rows), fewer where the graph's
rank is lower, and k = 0 (the default) means [train_we] dimension, the
largest k accepted, since N is added to the word-vector views, not
concatenated. A composition zero-extends the view to their width, and the
correlate stage pairs only its components.

The config file is flat UTF-8 INI, one section per stage. CONFIG_KEYS lists
every key with the type its value is parsed with; any other section or key
is an error. The keys are the paths (out_dir, the corpus directory, the
stopword, lemma, emoji lexicon, background model and image tag files), the
seed, and the settings some caller sets: the benchmark workloads'
dimension, profile_images, k and split_ratio, and the acceptance configs'
class sizes, both epochs, min_count, subsample_threshold, network mode and
suites. The skip-gram window and negatives, SMOTE's k and the L2 penalty
are library parameters (TrainingConfig, SMOTEConfig, ClassifierConfig)
that code may pass and a config may not set: tests pass the first three,
and a search over the L2 penalty would pass it. The skip-gram learning
rates (wemodel.LEARNING_RATE, MIN_LEARNING_RATE), the image tag confidence
threshold (imagetags.CONFIDENCE_THRESHOLD) and the screen's alpha
(compose.ALPHA) are constants: no caller uses another value.
RunContext reads the file in one pass: it parses every key, range-checks
every stage's settings and reads the input files the config names, so an
unusable value fails before the first stage runs. The run directory is
made by the first stage that writes to it, so a config that fails leaves
none behind. A key the file leaves out takes the default of the setting
it feeds (TrainingConfig, ClassifierConfig, ...), so a minimal config can
be empty. Values are taken literally: "%" is not an
interpolation marker.

Warnings the stages log (the cme loggers) print to stderr as one
"warning: <message>" line each.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import itertools
import json
import logging
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import classify, compose, corpus, netembed, pipeline, synth, wemodel
from .emoji import load_emoji_lexicon
from .imagetags import MissingImageTagsError, load_image_tags
from .preprocess import load_lemma_table, load_stopwords


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
    "preprocess": {"stopwords": str, "lemmas": str},
    "train_we": {"dimension": int, "epochs": int, "min_count": int, "subsample_threshold": float},
    "views": {"emoji_lexicon": str, "emoji_background_model": str, "profile_images": _bool, "image_fixture": str},
    "netembed": {"mode": str, "k": int},
    "classify": {"suite_a_tags": _list, "suite_b_tags": _list, "epochs": int, "split_ratio": float},
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
            # UTF-8 whatever the locale, with or without a byte-order mark
            read = self.parser.read(config_path, encoding="utf-8-sig")
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise CLIError(f"malformed config {config_path}: {exc}") from None
        if not read:
            raise CLIError(f"config file not found: {config_path}")
        self._check_keys()
        file_seed = self.get("global", "seed", 7)
        self.seed = file_seed if seed is None else seed
        if self.seed < 0:
            # numpy's generators take no negative seed
            raise CLIError(f"{'global.seed' if seed is None else '--seed'} must be >= 0, got {self.seed}")
        out = out_dir or self.get("global", "out_dir", "cme-out")
        self.run_dir = Path(out) / f"run-{self._fingerprint()}"
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
        # synth writes the default tag file; any other must exist before the first stage
        if self.profile_images and (fixture or directory) and not self.image_tags.is_file():
            raise CLIError(f"image tag file not found: {self.image_tags} (set [views] image_fixture)")
        self.net_mode, self.net_k = _netembed_settings(self)
        self.suite_a, self.suite_b, self.tags = _suite_tags(self)
        self.classifier, self.split_ratio = _classify_settings(self)

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

    def given(self, section: str, *keys: str) -> dict:
        """{key: value} for the keys the file sets, to pass as the fields of the same names."""
        values = {key: self._read(section, key) for key in keys}
        return {key: value for key, value in values.items() if value is not None}

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


def _save_view(view: compose.ViewEmbeddingSet, out: Path) -> None:
    """Write the rows under their user ids in out, named after the view."""
    model = wemodel.WEModel(dict(zip(view.user_ids, itertools.count())), view.matrix, view.user_ids)
    wemodel.save_model(model, out / f"{view.name}.npy")


def _load_matrix(ctx: RunContext, path: Path, producer: str) -> wemodel.WEModel:
    """Load a stage's .npy/.words pair; a missing or unreadable file is a CLIError."""
    ctx.require(path, producer)
    ctx.require(path.with_suffix(".words"), producer)
    try:
        return wemodel.load_model(path)
    except ValueError as exc:
        raise CLIError(f"unreadable artifact {path.name}: {exc}") from None


def _load_json(ctx: RunContext, path: Path, producer: str):
    """Parse a stage's JSON artifact; a missing or unparsable file is a CLIError."""
    ctx.require(path, producer)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise CLIError(f"unreadable artifact {path.name}: {exc}") from None


def _load_view(ctx: RunContext, name: str) -> compose.ViewEmbeddingSet:
    """The saved view named name: netembed saves Network, views saves the rest."""
    stage = "netembed" if name == "Network" else "views"
    model = _load_matrix(ctx, ctx.run_dir / stage / f"{name}.npy", stage)
    return compose.ViewEmbeddingSet(name, user_ids=model.words, matrix=model.vectors)


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
    prepared = pipeline.prepare_users(dataset, ctx.stopwords, ctx.lemmas)
    payload = {
        uid: {name: getattr(rec, name) for name in _TOKEN_FIELDS} for uid, rec in prepared.items()
    }
    out = ctx.stage_dir("preprocess")
    # compact: no indent lets json use its C encoder
    _write_json(out / "tokens.json", payload, indent=None)
    ctx.prepared = prepared
    print(f"[preprocess] tokenized {len(prepared)} users")


def _load_prepared(ctx: RunContext) -> dict[str, pipeline.PreparedUser]:
    """The prepared users: kept from preprocess in this process, else read from tokens.json."""
    if ctx.prepared is not None:
        return ctx.prepared
    raw = _load_json(ctx, ctx.run_dir / "preprocess" / "tokens.json", "preprocess")
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


def cmd_views(ctx: RunContext) -> None:
    prepared = _load_prepared(ctx)
    content = _load_matrix(ctx, ctx.run_dir / "models" / "content.npy", "train-we")
    people = _load_matrix(ctx, ctx.run_dir / "models" / "people.npy", "train-we")

    views = pipeline.build_text_views(prepared, content, people, ctx.lexicon, ctx.background)

    if ctx.profile_images:
        try:
            tags = load_image_tags(ctx.image_tags)
        except OSError as exc:
            raise CLIError(f"cannot read the image tag file: {exc} (set [views] image_fixture)") from None
        views["ProfileImage"] = pipeline.build_image_view(_load_corpus(ctx), people, tags)

    out = ctx.stage_dir("views")
    for view in views.values():
        _save_view(view, out)
    meta = {name: {"dimension": v.dimension, "users": len(v.user_ids) + v.sentinel_count,
                   "sentinel_count": v.sentinel_count} for name, v in views.items()}
    _write_json(out / "meta.json", meta)
    print(f"[views] built {', '.join(sorted(views))}")


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
    view, record = pipeline.build_network_view(
        _load_corpus(ctx), ctx.training.dimension, mode=ctx.net_mode, k=ctx.net_k
    )
    out = ctx.stage_dir("netembed")
    _save_view(view, out)
    _write_json(out / "meta.json", record)
    print(f"[netembed] embedded {record['rows']} users, {record['components']} components, mode={record['mode']}")


def cmd_correlate(ctx: RunContext) -> None:
    # each distinct unordered pair of views inside one tag, first seen first
    pairs = {}
    for names in ctx.tags.values():
        for pair in itertools.combinations(names, 2):
            pairs.setdefault(frozenset(pair), pair)
    results = []
    for name_a, name_b in pairs.values():
        try:
            res = compose.correlate_views(_load_view(ctx, name_a), _load_view(ctx, name_b))
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
    """(suite A tags, suite B tags, each tag of either suite and the views it adds).

    A suite names each composition once; a suite-B tag may also be in suite A.
    """
    suites, tags = [], {}
    for key, default in (("suite_a_tags", pipeline.SUITE_A_TAGS), ("suite_b_tags", pipeline.SUITE_B_TAGS)):
        suites.append(list(ctx.get("classify", key, default)))
        named = {}  # the suite's tags by the set of views each adds
        for tag in suites[-1]:
            try:
                tags[tag] = compose.resolve_tag(tag)
            except compose.CompositionError as exc:
                raise CLIError(f"classify.{key}: {exc}") from None
            if "ProfileImage" in tags[tag] and not ctx.profile_images:
                raise CLIError(f"classify.{key}: tag {tag!r} needs [views] profile_images on")
            views = frozenset(tags[tag])
            if views in named:
                raise CLIError(f"classify.{key}: tags {named[views]!r} and {tag!r} name the same composition")
            named[views] = tag
    if not suites[0]:
        raise CLIError("classify.suite_a_tags: suite A needs at least one tag")
    return suites[0], suites[1], tags


def cmd_compose(ctx: RunContext) -> None:
    """Write the plan, each tag and the views it adds; classify builds the compositions."""
    _write_json(ctx.stage_dir("compose") / "meta.json", {tag: list(names) for tag, names in ctx.tags.items()})
    print(f"[compose] planned {', '.join(ctx.tags)}")


def _classify_settings(ctx: RunContext) -> tuple[classify.ClassifierConfig, float]:
    """(classifier config, split ratio); SMOTE takes its defaults and the run seed, as the split does."""
    try:
        classifier_config = classify.ClassifierConfig(**ctx.given("classify", "epochs"))
    except ValueError as exc:
        # ClassifierConfig's messages start with the field name, which is also the key
        raise CLIError(f"classify.{exc}") from None
    split_ratio = ctx.get("classify", "split_ratio", pipeline.SPLIT_RATIO)
    if not 0.0 < split_ratio < 1.0:
        raise CLIError(f"classify.split_ratio must be in (0, 1), got {split_ratio}")
    return classifier_config, split_ratio


def cmd_classify(ctx: RunContext) -> None:
    dataset = _load_corpus(ctx)

    def build(tag: str) -> compose.ViewEmbeddingSet:
        # from the saved views, keeping neither them nor the composition
        return compose.build_cme({name: _load_view(ctx, name) for name in ctx.tags[tag]}, tag)

    results = pipeline.run_suites(
        build,
        dataset,
        suite_a_tags=ctx.suite_a,
        suite_b_tags=ctx.suite_b,
        split_ratio=ctx.split_ratio,
        seed=ctx.seed,
        classifier_config=ctx.classifier,
    )
    ctx.log_seed("classify", ctx.seed)

    out = ctx.stage_dir("classify")
    payload = {
        "best_suite_a_tag": results.best_a_tag,
        "connected_users": len(results.connected_users),
        "seed": ctx.seed,
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
    results = _load_json(ctx, ctx.run_dir / "classify" / "results.json", "classify")
    out = ctx.stage_dir("report")

    lines = ["composition comparison report", "=" * 30, ""]
    lines.append("suite A (all users):")
    for tag, res in sorted(results["suite_a"].items()):
        lines.append(f"  {tag:<10} macro-F1 {res['report']['macro_f1']:.4f}  accuracy {res['report']['accuracy']:.4f}")
    best = results["best_suite_a_tag"]
    lines.append(f"best suite A setting: {best}")
    lines.append("")
    lines.append(f"suite B (connected subset, {results['connected_users']} users):")
    # suite B's baseline is the best suite-A tag re-run on the connected subset
    baseline = results["suite_b"].get(best)
    deltas = {}
    for tag, res in sorted(results["suite_b"].items()):
        report = res["report"]
        line = f"  {tag:<10} macro-F1 {report['macro_f1']:.4f}  accuracy {report['accuracy']:.4f}"
        if tag != best and baseline is not None:
            deltas[tag] = report["macro_f1"] - baseline["report"]["macro_f1"]
            line += f"  (macro-F1 {deltas[tag]:+.4f} vs {best} (connected subset))"
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


class _StderrHandler(logging.Handler):
    """One "<level>: <message>" line on the sys.stderr of the moment."""

    def emit(self, record: logging.LogRecord) -> None:
        print(f"{record.levelname.lower()}: {record.getMessage()}", file=sys.stderr)


_STDERR_HANDLER = _StderrHandler()


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
    logging.getLogger("cme").addHandler(_STDERR_HANDLER)  # a no-op once added

    try:
        ctx = RunContext(args.config, args.seed, args.out)
        if args.command == "run":
            cmd_run(ctx)
        else:
            COMMANDS[args.command](ctx)
    except (
        CLIError, corpus.CorpusError, wemodel.TrainingError, MissingImageTagsError,
        compose.CompositionError, classify.ClassifierError,
        OSError,  # an output path that cannot be made or written
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
