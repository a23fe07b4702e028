"""Traced run: the full ``cme run`` chain with spans around each layer.

Wraps the public functions of each ``cme`` module by attribute (nothing in
``src/`` is edited), runs the chain once in this process, then derives the
per-layer metrics from the spans and from counts taken at the same
boundaries. The network factorisation is checked against
``numpy.linalg.eigh`` on the same cosine matrix after the chain ends, so the
check costs nothing inside the timed spans.

Usage: python3 perfbench/traced.py --config CFG --out DIR --result FILE
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from collections import Counter
from pathlib import Path

import numpy as np

import spans
from metrics import STAGES, VIEWS
from cme import classify, cli, compose, corpus, netembed, pipeline, wemodel
from cme.wemodel import TrainingConfig

# the acceptance-01 oracle tolerance, relative to the largest singular value
SIGMA_TOLERANCE = 1e-8


def keep_rate_terms(sentences, config: TrainingConfig) -> tuple[float, float]:
    """(expected kept tokens, vocabulary tokens) under word2vec subsampling.

    Uses the trainer's documented rule: a vocabulary word of count f out of
    T vocabulary tokens is kept with probability min(1, (sqrt(r) + 1) / r),
    r = f / (threshold * T).
    """
    counts = Counter(token for sentence in sentences for token in sentence)
    freq = np.array([c for c in counts.values() if c >= config.min_count], dtype=np.float64)
    total = float(freq.sum())
    if total == 0:
        return 0.0, 0.0
    if config.subsample_threshold <= 0:
        return total, total
    ratio = freq / (config.subsample_threshold * total)
    keep = np.minimum(1.0, (np.sqrt(ratio) + 1.0) / ratio)
    return float((freq * keep).sum()), total


class LayerCounts:
    """Counts taken where each layer's work happens."""

    def __init__(self):
        self.values: dict[str, float] = Counter()
        self.sentinel_rate: dict[str, float] = {}
        self.kept_tokens = 0.0
        self.vocab_tokens = 0.0
        self.final_losses: list[float] = []
        self.factor_inputs: list[tuple[np.ndarray, np.ndarray]] = []

    def prepared(self, args, kwargs, result):
        for rec in result.values():
            self.values["preprocess.tokens"] += len(rec.tweet_tokens) + len(rec.desc_tokens)
            self.values["preprocess.emoji"] += len(rec.tweet_emoji) + len(rec.desc_emoji)

    def trained(self, args, kwargs, result):
        sentences = args[0] if args else kwargs["sentences"]
        config = (args[1] if len(args) > 1 else kwargs.get("config")) or TrainingConfig()
        self.values["wemodel.words"] += sum(len(s) for s in sentences)
        self.values["wemodel.vocab"] += len(result.vocabulary)
        kept, total = keep_rate_terms(sentences, config)
        self.kept_tokens += kept
        self.vocab_tokens += total

    def _sentinels(self, view):
        self.sentinel_rate[view.name] = view.sentinel_count / max(1, len(view.vectors))

    def text_views(self, args, kwargs, result):
        for view in result.values():
            self._sentinels(view)

    def image_view(self, args, kwargs, result):
        self._sentinels(result)

    def network_view(self, args, kwargs, result):
        self._sentinels(result[0])

    def adjacency(self, args, kwargs, result):
        rows, cols = result.shape
        self.values["netembed.rows"] += rows
        self.values["netembed.cols"] += cols
        self.values["netembed.nnz"] += result.matrix.nnz
        self.values["netembed.skipped"] += result.skipped

    def cosine(self, args, kwargs, result):
        m = result.shape[0]
        self.values["netembed.cosine_mb"] += 8.0 * m * m / 1e6

    def factor(self, args, kwargs, result):
        matrix = args[0].values if isinstance(args[0], netembed.CosineMatrix) else args[0]
        self.factor_inputs.append((matrix, result.sigma.copy()))

    def fold(self, args, kwargs, result):
        sigma = np.asarray(args[0].sigma)
        self.values["netembed.k_kept"] += result.k
        if sigma.size:
            self.values["netembed.sigma_ratio"] = float(sigma.max() / sigma.min())
            self.values["netembed.fold_max_abs"] = float(np.abs(result.matrix).max())

    def spearman(self, args, kwargs, result):
        self.values["compose.spearman_n"] += result.n

    def smote(self, args, kwargs, result):
        features, labels = args[0], list(args[1])
        self.values["classify.synthetic_rows"] += len(result[1]) - len(labels)
        counts = Counter(labels)
        majority = max(counts.values())
        minority = [n for n in counts.values() if 2 <= n < majority]
        if minority:
            size = 8.0 * max(minority) ** 2 * np.asarray(features).shape[1] / 1e6
            key = "classify.smote_pairwise_mb"
            self.values[key] = max(self.values[key], size)

    def fitted(self, args, kwargs, result):
        self.values["classify.fit_epochs"] += len(result.loss_history) - 1
        self.final_losses.append(result.loss_history[-1])

    def sigma_err(self) -> float:
        """Largest gap between the factor's sigma and LAPACK eigenvalues."""
        worst = 0.0
        for matrix, sigma in self.factor_inputs:
            evals = np.linalg.eigh(matrix)[0][::-1][: sigma.size]
            worst = max(worst, float(np.abs(sigma - np.maximum(evals, 0.0)).max()))
        return worst

    def sigma_ok(self, err: float) -> bool:
        scale = max([1.0] + [float(s.max()) for _, s in self.factor_inputs if s.size])
        return math.isfinite(err) and err <= SIGMA_TOLERANCE * scale


def targets(counts: LayerCounts):
    """(module, attribute, span name, observer) for every traced function."""
    stage_targets = [
        (cli, f"cmd_{stage}", f"cli.{stage}", None) for stage in STAGES
    ]
    return stage_targets + [
        (cli, "cmd_run", "cli.run", None),
        (corpus, "load_dataset", "corpus.load", None),
        (pipeline, "prepare_users", "preprocess.prepare", counts.prepared),
        (wemodel, "train_skipgram", "wemodel.train", counts.trained),
        (wemodel, "save_model", "wemodel.save", None),
        (wemodel, "load_model", "wemodel.load", None),
        (pipeline, "build_text_views", "pipeline.text_views", counts.text_views),
        (pipeline, "build_image_view", "pipeline.image_view", counts.image_view),
        (pipeline, "build_network_view", "pipeline.network_view", counts.network_view),
        (netembed, "build_adjacency", "netembed.adjacency", counts.adjacency),
        (netembed, "row_normalize", "netembed.normalize", None),
        (netembed, "cosine_similarity_matrix", "netembed.cosine", counts.cosine),
        (netembed, "truncated_svd", "netembed.factor", counts.factor),
        (netembed, "network_embedding", "netembed.fold", counts.fold),
        (compose, "correlate_views", "compose.correlate", None),
        (compose, "spearman", "compose.spearman", counts.spearman),
        (compose, "build_cme", "compose.build", None),
        (pipeline, "run_experiment", "pipeline.experiment", None),
        (classify, "smote", "classify.smote", counts.smote),
        (classify, "train_classifier", "classify.fit", counts.fitted),
        (classify, "predict", "classify.predict", None),
    ]


def layer_metrics(recorder: spans.Recorder, counts: LayerCounts, sigma_err: float) -> dict:
    """Per-layer metrics from the spans and counts (chain-level ones are added by the caller)."""
    by_name = spans.totals_by_name(recorder.spans)

    def total(name):
        return by_name.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return by_name.get(name, {}).get("calls", 0)

    out = {f"cli.{stage}_s": total(f"cli.{stage}") for stage in STAGES}
    for name in (
        "corpus.load", "preprocess.prepare", "wemodel.train", "wemodel.save", "wemodel.load",
        "pipeline.text_views", "pipeline.image_view", "netembed.adjacency", "netembed.normalize",
        "netembed.cosine", "netembed.factor", "netembed.fold", "compose.correlate",
        "compose.build", "classify.smote", "classify.fit", "classify.predict",
    ):
        out[f"{name}_s"] = total(name)
    out["corpus.loads"] = calls("corpus.load")
    out["wemodel.saves"] = calls("wemodel.save")
    out["wemodel.loads"] = calls("wemodel.load")
    out["classify.experiments"] = calls("pipeline.experiment")
    for key in (
        "preprocess.tokens", "preprocess.emoji", "wemodel.words", "wemodel.vocab",
        "netembed.rows", "netembed.cols", "netembed.nnz", "netembed.skipped",
        "netembed.k_kept", "netembed.sigma_ratio", "netembed.fold_max_abs", "netembed.cosine_mb",
        "compose.spearman_n", "classify.synthetic_rows", "classify.smote_pairwise_mb",
        "classify.fit_epochs",
    ):
        out[key] = counts.values[key]
    out["preprocess.tokens_per_s"] = out["preprocess.tokens"] / max(out["preprocess.prepare_s"], 1e-9)
    out["wemodel.words_per_s"] = out["wemodel.words"] / max(out["wemodel.train_s"], 1e-9)
    out["wemodel.keep_rate"] = counts.kept_tokens / max(counts.vocab_tokens, 1.0)
    out["classify.final_loss"] = statistics.fmean(counts.final_losses) if counts.final_losses else 0.0
    out["netembed.sigma_err"] = sigma_err
    for view in VIEWS:
        out[f"views.sentinel_rate.{view}"] = counts.sentinel_rate.get(view, 1.0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run the cme chain with per-layer spans")
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    recorder = spans.Recorder()
    counts = LayerCounts()
    restore = spans.install(recorder, targets(counts), "cme", registries=[cli.COMMANDS])
    try:
        rc = cli.main(["run", "--config", args.config, "--out", args.out])
    finally:
        restore()

    err = counts.sigma_err()
    payload = {
        "rc": rc,
        "sigma_ok": counts.sigma_ok(err),
        "metrics": layer_metrics(recorder, counts, err),
        "by_name": spans.totals_by_name(recorder.spans),
        "top_level_s": sum(s.duration for s in recorder.spans if s.parent is None),
    }
    Path(args.result).write_text(json.dumps(payload), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
