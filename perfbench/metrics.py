"""Metric names and units, shared by the harness, the traced run and the tests.

Each per-layer group notes the end-to-end metric it should move, and on
which workload, so a change to one layer says beforehand what to expect.
"""

STAGES = ("preprocess", "train_we", "views", "netembed", "correlate", "compose", "classify", "report")
VIEWS = ("Tweet", "Description", "TweetEmoji", "DescriptionEmoji", "ProfileImage", "Network")

# end-to-end metric -> unit, reported with --trace 0
END_TO_END_UNITS = {
    "run_s": "s",  # wall time of one `cme run` process, median over repetitions
    "setup_s": "s",  # imports, corpus generation and write, config; median
    "peak_rss_mb": "MB",  # peak resident memory of the run process; median
    "f1.TD": "ratio",  # suite-A macro-F1 per tag, mean over the run's corpora
    "f1.TE": "ratio",
    "f1.DE": "ratio",
    "f1.NTE": "ratio",  # suite-B N+T+E macro-F1
    "f1.NTE_ratio": "ratio",  # N+T+E over its suite-B baseline, the paper's comparison
    "ok_frac": "ratio",  # operations (stages and checks) that passed, over attempted
}

# per-layer metric -> unit, reported with --trace 1
PER_LAYER_UNITS = {
    # cli: each stage's time moves run_s on the workload that stage dominates
    **{f"cli.{stage}_s": "s" for stage in STAGES},
    "cli.artifact_mb": "MB",
    # corpus, reloaded by four stages: run_s on imbalanced
    "corpus.load_s": "s",
    "corpus.loads": "count",
    # preprocess via pipeline.prepare_users: run_s on text
    "preprocess.prepare_s": "s",
    "preprocess.tokens": "count",
    "preprocess.tokens_per_s": "1/s",
    "preprocess.emoji": "count",
    # wemodel training: run_s on text; f1.* should not move
    "wemodel.train_s": "s",
    "wemodel.words": "count",
    "wemodel.words_per_s": "1/s",
    "wemodel.vocab": "count",
    "wemodel.keep_rate": "ratio",
    # wemodel artifact I/O: run_s on imbalanced
    "wemodel.save_s": "s",
    "wemodel.load_s": "s",
    "wemodel.saves": "count",
    "wemodel.loads": "count",
    # views: times move run_s on text; sentinel rates explain f1.*
    "pipeline.text_views_s": "s",
    "pipeline.image_view_s": "s",
    **{f"views.sentinel_rate.{view}": "ratio" for view in VIEWS},
    # netembed: factor_s moves run_s on network
    **{f"netembed.{step}_s": "s" for step in ("adjacency", "normalize", "cosine", "factor", "fold")},
    # netembed counts and quality: k_kept and fold_max_abs explain f1.NTE on network
    "netembed.rows": "count",
    "netembed.cols": "count",
    "netembed.nnz": "count",
    "netembed.skipped": "count",
    "netembed.k_kept": "count",
    "netembed.sigma_ratio": "ratio",
    "netembed.fold_max_abs": "value",
    "netembed.sigma_err": "value",
    # 8 * rows^2 bytes of dense cosine matrix: peak_rss_mb on network
    "netembed.cosine_mb": "MB",
    # compose: run_s on imbalanced
    "compose.correlate_s": "s",
    "compose.spearman_n": "count",
    "compose.build_s": "s",
    # SMOTE: smote_s moves run_s, smote_pairwise_mb (8 * n^2 * d bytes for the
    # largest minority class) moves peak_rss_mb, both on imbalanced
    "classify.smote_s": "s",
    "classify.synthetic_rows": "count",
    "classify.smote_pairwise_mb": "MB",
    # fitting and evaluation: fit_s moves run_s on imbalanced
    "classify.fit_s": "s",
    "classify.fit_epochs": "count",
    "classify.final_loss": "value",
    "classify.predict_s": "s",
    "classify.experiments": "count",
    # traced run_s minus untraced run_s, and traced run_s not inside any span
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}
