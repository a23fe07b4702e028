import configparser
import inspect
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import cme
from cme import classify, cli, compose, corpus, netembed, pipeline
from cme.classify import ClassifierConfig, SMOTEConfig
from cme.cli import CONFIG_KEYS, STAGE_ORDER, RunContext, main
from cme.emoji import load_emoji_lexicon
from cme.wemodel import TrainingConfig


def _config(tmp_path, seed=11, extra=""):
    path = tmp_path / "cfg.ini"
    path.write_text(
        f"""
[global]
seed = {seed}
out_dir = {tmp_path / 'out'}

[synth]
users_per_class = 24,12,8

[train_we]
dimension = 16
epochs = 2
min_count = 2
subsample_threshold = 0

[netembed]
mode = conventional
k = 6

[classify]
suite_a_tags = T+D,T+E
suite_b_tags = N+T+E
epochs = 150
{extra}
""",
        encoding="utf-8",
    )
    return str(path)


def _set_key(cfg, section, key, value):
    """Set one key in a config file, adding its section if needed."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(cfg)
    if not parser.has_section(section):
        parser.add_section(section)
    parser[section][key] = value
    with open(cfg, "w", encoding="utf-8") as fh:
        parser.write(fh)


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    return err


def _faulty_inputs(tmp_path) -> dict[str, str]:
    """Paths of input files with one fault each, by the name a config value refers to them with."""
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("\N{HERB}\tleaf,plant\n\N{FIRE}\n", encoding="utf-8")
    background = tmp_path / "background.txt"
    background.write_text(f"2 16\nleaf{' 0.1' * 16}\nplant{' 0.1' * 15}\n", encoding="utf-8")
    narrow = tmp_path / "narrow.txt"
    narrow.write_text(f"1 8\nleaf {' '.join(['0.5'] * 8)}\n", encoding="utf-8")
    # a header that used to allocate 14.6 TiB before reading a row
    huge = tmp_path / "huge.txt"
    huge.write_text(f"100000000000 16\nleaf{' 0.5' * 16}\n", encoding="utf-8")
    return {
        "absent": str(tmp_path / "absent.txt"),
        "lexicon_without_tab": str(lexicon),
        "short_row": str(background),
        "narrow_model": str(narrow),
        "huge_header": str(huge),
    }


def _run_dir(tmp_path, sub="out"):
    runs = list((tmp_path / sub).glob("run-*"))
    assert len(runs) == 1
    return runs[0]


def _assert_same_files(first, second):
    """The two directory trees hold the same file names with the same bytes."""
    files = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
    for name in files:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


class TestFullChain:
    def test_chain_produces_report(self, tmp_path, capsys):
        cfg = _config(tmp_path)
        assert main(["run", "--config", cfg]) == 0
        run_dir = _run_dir(tmp_path)
        assert (run_dir / "report" / "report.json").exists()
        assert (run_dir / "classify" / "results.txt").exists()
        out = capsys.readouterr().out
        assert "effective seed" in out

    def test_results_record_no_comparison(self, tmp_path):
        assert main(["run", "--config", _config(tmp_path)]) == 0
        results = json.loads((_run_dir(tmp_path) / "classify" / "results.json").read_text())

        def keys(node):
            if isinstance(node, dict):
                for key, value in node.items():
                    yield key
                    yield from keys(value)
            elif isinstance(node, list):
                for value in node:
                    yield from keys(value)

        assert not {"comparison", "micro_f1"} & set(keys(results))
        # n_train counts the split's rows, so with n_test it covers the users scored
        for suite, scored in (("suite_a", 24 + 12 + 8), ("suite_b", results["connected_users"])):
            for res in results[suite].values():
                assert res["n_train"] + res["n_test"] == scored
        assert set(results["suite_b"]) == {results["best_suite_a_tag"], "N+T+E"}

    def test_report_derives_the_suite_b_deltas(self, tmp_path):
        cfg = _config(tmp_path)
        classified = RunContext(cfg, None, None).run_dir / "classify"
        classified.mkdir(parents=True)

        def entry(macro_f1, accuracy):
            return {"report": {"macro_f1": macro_f1, "accuracy": accuracy}}

        (classified / "results.json").write_text(json.dumps({
            "best_suite_a_tag": "T+E",
            "connected_users": 40,
            "suite_a": {"T+D": entry(0.5, 0.625), "T+E": entry(0.75, 0.8125)},
            "suite_b": {"T+E": entry(0.25, 0.5), "N+T+E": entry(0.625, 0.75)},
        }), encoding="utf-8")
        assert main(["report", "--config", cfg]) == 0
        report = classified.parent / "report"
        assert json.loads((report / "report.json").read_text())["suite_b_macro_f1_delta_vs_baseline"] == {
            "N+T+E": 0.375
        }
        lines = (report / "report.txt").read_text().splitlines()
        assert "  N+T+E      macro-F1 0.6250  accuracy 0.7500  (macro-F1 +0.3750 vs T+E (connected subset))" in lines
        assert "  T+E        macro-F1 0.2500  accuracy 0.5000" in lines

    def test_k_above_the_source_count_is_an_upper_bound(self, tmp_path):
        # k <= dimension passes the config check, so the netembed stage must not refuse it
        cfg = _config(tmp_path)
        _set_key(cfg, "synth", "users_per_class", "8,5,4")
        _set_key(cfg, "netembed", "mode", "paper")
        _set_key(cfg, "netembed", "k", "16")
        assert main(["run", "--config", cfg]) == 0
        meta = json.loads((_run_dir(tmp_path) / "netembed" / "meta.json").read_text(encoding="utf-8"))
        assert 0 < meta["rows"] < 16
        assert meta["components"] <= meta["rows"]

    def test_stage_order_enforced(self, tmp_path, capsys):
        cfg = _config(tmp_path)
        assert main(["synth", "--config", cfg]) == 0
        # classify before views must fail and name the producing command
        assert main(["classify", "--config", cfg]) == 1
        err = _one_line_error(capsys)
        assert "cme views" in err
        assert not (_run_dir(tmp_path) / "classify").exists()

    def test_classify_before_netembed_names_netembed(self, tmp_path, capsys):
        # suite A's tags need only views/; suite B's N+T+E needs the Network view
        cfg = _config(tmp_path)
        for stage in ("synth", "preprocess", "train-we", "views"):
            assert main([stage, "--config", cfg]) == 0
        capsys.readouterr()
        assert main(["classify", "--config", cfg]) == 1
        assert "Network.npy: run `cme netembed` first" in _one_line_error(capsys)

    def test_missing_config_is_error(self, tmp_path, capsys):
        assert main(["synth", "--config", str(tmp_path / "absent.ini")]) == 1
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, line",
        [
            ("train_we", "workers = 4"),
            ("netembed", "normalize_before_cosine = false"),
            ("classify", "epoch = 3"),
            ("classify", "family = linear-margin"),
            ("correlate", "method = per_user_mean"),
            ("classify", "learning_rate = 0.5"),
            ("views", "image_mode = live"),
            ("views", "image_endpoint = tagger.example/tag"),
            ("views", "image_retries = 2"),
            ("views", "image_cache_dir = tag-cache"),
            ("synth", "personal_rates = x/y"),
            ("synth", "retail_class_word_prob = abc"),
            ("synth", "seed_offset = 1"),
            ("train_we", "seed_offset = 1"),
            ("classify", "seed_offset = 1"),
            ("compose", "tags = T+D,T+E"),
            ("correlate", "pairs = Tweet:TweetEmoji"),
            ("preprocess", "keep_hashtag_body = false"),
            ("classify", "smote_duplicate_singletons = true"),
            ("train_we", "window = 5"),
            ("train_we", "negatives = 5"),
            ("train_we", "learning_rate = 0.025"),
            ("views", "image_confidence_threshold = 0.5"),
            ("correlate", "alpha = 0.01"),
            ("classify", "smote_k = 5"),
            ("classify", "l2_penalty = 0.001"),
        ],
        ids=[
            "removed-key", "removed-knob", "misspelt-key", "removed-family", "removed-method",
            "removed-step-size",
            "removed-image-mode", "removed-image-endpoint", "removed-image-retries",
            "removed-image-cache-dir", "removed-rates", "removed-word-prob",
            "removed-seed-offset-synth", "removed-seed-offset-train-we", "removed-seed-offset-classify",
            "removed-compose-tags", "removed-correlate-pairs", "removed-keep-hashtag-body",
            "removed-smote-duplicate-singletons",
            "removed-window", "removed-negatives", "removed-learning-rate", "removed-image-threshold",
            "removed-alpha", "removed-smote-k", "removed-l2-penalty",
        ],
    )
    def test_unknown_config_key_is_error(self, tmp_path, capsys, section, line):
        cfg = _config(tmp_path)
        _set_key(cfg, section, *line.split(" = "))
        assert main(["run", "--config", cfg]) == 1
        assert _one_line_error(capsys) == f"error: unknown config key(s): {section}.{line.split()[0]}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section, key, value, named",
        [
            ("train_we", "dimension", "abc", "train_we.dimension"),
            ("netembed", "mode", "papr", "netembed.mode"),
            ("netembed", "k", "5000", "got 5000"),
            ("classify", "split_ratio", "1.5", "classify.split_ratio"),
            ("train_we", "min_count", "100000", "min_count=100000"),
            ("synth", "users_per_class", "a,b,c", "synth.users_per_class"),
            ("synth", "users_per_class", "0,12,8", "synth.users_per_class"),
            ("train_we", "dimension", "0", "train_we.dimension"),
            ("train_we", "epochs", "0", "train_we.epochs must be >= 1"),
            ("train_we", "min_count", "0", "train_we.min_count must be >= 1"),
            ("classify", "epochs", "0", "classify.epochs must be >= 1"),
        ],
        ids=[
            "unparsable-int", "unknown-mode", "k-above-rows", "split-ratio-above-1", "empty-vocabulary",
            "unparsable-class-size", "empty-class", "zero-dimension", "zero-train-epochs", "zero-min-count",
            "zero-classify-epochs",
        ],
    )
    def test_unusable_config_value_is_one_line_error(self, tmp_path, capsys, section, key, value, named):
        cfg = _config(tmp_path)
        _set_key(cfg, section, key, value)
        assert main(["run", "--config", cfg]) == 1
        assert named in _one_line_error(capsys)

    @pytest.mark.parametrize(
        "section, key, value, named",
        [
            ("classify", "epochs", "0", "classify.epochs must be >= 1"),
            ("classify", "suite_a_tags", "T+D,T+X", "classify.suite_a_tags: tag 'T+X' is not a canonical tag"),
            ("classify", "suite_a_tags", "", "classify.suite_a_tags: suite A needs at least one tag"),
            (
                "classify", "suite_a_tags", "T+D,Tweet+ProfileImage",
                "classify.suite_a_tags: tag 'Tweet+ProfileImage' needs [views] profile_images on",
            ),
            (
                "classify", "suite_b_tags", "Network+ProfileImage",
                "classify.suite_b_tags: tag 'Network+ProfileImage' needs [views] profile_images on",
            ),
            ("classify", "suite_b_tags", "Tweet+Tweet", "classify.suite_b_tags: tag 'Tweet+Tweet' names a view more"),
            (
                "classify", "suite_a_tags", "T+D,T+D,Tweet+Description",
                "classify.suite_a_tags: tags 'T+D' and 'T+D' name the same composition",
            ),
            (
                "classify", "suite_b_tags", "N+T+E,TweetEmoji+Network+Tweet",
                "classify.suite_b_tags: tags 'N+T+E' and 'TweetEmoji+Network+Tweet' name the same composition",
            ),
            ("views", "profile_images", "maybe", "views.profile_images"),
            ("netembed", "k", "-3", "netembed.k must be in [0, 16]"),
            ("netembed", "k", "30", "netembed.k must be in [0, 16]"),
            ("train_we", "subsample_threshold", "-1", "train_we.subsample_threshold must be >= 0"),
            ("preprocess", "stopwords", "{absent}", "preprocess.stopwords"),
            ("preprocess", "lemmas", "{absent}", "preprocess.lemmas"),
            ("views", "emoji_lexicon", "{absent}", "views.emoji_lexicon"),
            ("views", "emoji_background_model", "{absent}", "views.emoji_background_model"),
            ("views", "emoji_lexicon", "{lexicon_without_tab}", "views.emoji_lexicon"),
            ("views", "emoji_background_model", "{short_row}", "views.emoji_background_model"),
            ("views", "emoji_background_model", "{narrow_model}", "vectors are 8 wide, expected 16"),
            ("views", "emoji_background_model", "{huge_header}", "huge.txt:1: 100000000000 rows of 16 values cannot fit"),
        ],
        ids=[
            "zero-classify-epochs", "unknown-compose-tag", "empty-suite-a",
            "unbuilt-view-in-suite-a", "unbuilt-view-in-suite-b", "repeated-view-in-tag",
            "repeated-tag-in-suite-a", "same-views-twice-in-suite-b", "unparsable-bool", "negative-k",
            "k-above-dimension",
            "negative-subsample-threshold", "missing-stopwords", "missing-lemmas",
            "missing-lexicon", "missing-background-model", "lexicon-line-without-tab",
            "background-row-too-short", "background-narrower-than-dimension", "background-header-past-the-file",
        ],
    )
    def test_run_checks_late_stage_config_before_any_stage(
        self, tmp_path, capsys, section, key, value, named
    ):
        cfg = _config(tmp_path)
        _set_key(cfg, section, key, value.format(**_faulty_inputs(tmp_path)))
        assert main(["run", "--config", cfg]) == 1
        assert named in _one_line_error(capsys)
        assert not list((tmp_path / "out").glob("run-*"))

    def test_malformed_lemma_table_names_path_and_line(self, tmp_path, capsys):
        # a line without a tab used to be dropped, and the run ended 0
        lemmas = tmp_path / "lemmas.tsv"
        lemmas.write_text("# token\tlemma\nam\tbe\nwere be\n", encoding="utf-8")
        cfg = _config(tmp_path, extra=f"[preprocess]\nlemmas = {lemmas}\n")
        assert main(["run", "--config", cfg]) == 1
        assert _one_line_error(capsys).startswith(f"error: preprocess.lemmas: {lemmas}:3: ")
        assert not list((tmp_path / "out").glob("run-*"))

    def test_missing_corpus_file_is_one_line_error(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        (corpus_dir / "users.jsonl").write_text('{"user_id": "u1"}\n', encoding="utf-8")
        cfg = _config(tmp_path, extra=f"[corpus]\ndirectory = {corpus_dir}\n")
        assert main(["run", "--config", cfg]) == 1
        assert "tweets.jsonl" in _one_line_error(capsys)

    def test_user_id_with_a_line_break_is_one_line_error(self, tmp_path, capsys):
        # views/*.words hold one id per line; this id used to end the views stage in a traceback
        assert main(["synth", "--config", _config(tmp_path)]) == 0
        users = _run_dir(tmp_path) / "synth" / "users.jsonl"
        first = json.loads(users.read_text(encoding="utf-8").splitlines()[0])
        with open(users, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(first | {"user_id": first["user_id"] + "\nx"}) + "\n")
        line_no = len(users.read_text(encoding="utf-8").splitlines())
        cfg = _config(tmp_path, extra=f"[corpus]\ndirectory = {users.parent}\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "broken")]) == 1
        assert _one_line_error(capsys).startswith(f"error: {users}:{line_no}: user_id ")

    def test_percent_in_a_value_is_taken_literally(self, tmp_path):
        # "%" used to start an interpolation and end the command in a traceback
        cfg = _config(tmp_path)
        _set_key(cfg, "global", "out_dir", str(tmp_path / "out%b"))
        assert main(["synth", "--config", cfg]) == 0
        assert (_run_dir(tmp_path, "out%b") / "synth" / "users.jsonl").is_file()

    def test_empty_config_takes_the_library_defaults(self, tmp_path):
        # each train_we and classify default lives in its dataclass, not in the CLI
        cfg = tmp_path / "empty.ini"
        cfg.write_text("", encoding="utf-8")
        ctx = RunContext(str(cfg), None, str(tmp_path / "out"))
        assert ctx.training == TrainingConfig(seed=7)
        assert ctx.classifier == ClassifierConfig()

    def test_experiments_oversample_with_the_config_seed(self, tmp_path, monkeypatch):
        configs = []
        smote = classify.smote

        def recording_smote(features, labels, config=None):
            configs.append(config)
            return smote(features, labels, config)

        monkeypatch.setattr(classify, "smote", recording_smote)
        assert main(["run", "--config", _config(tmp_path, seed=13)]) == 0
        assert len(configs) == 4  # T+D and T+E in suite A, the baseline and N+T+E in suite B
        assert all(config == SMOTEConfig(seed=13) for config in configs)

    def test_suite_b_may_repeat_a_suite_a_tag(self, tmp_path):
        cfg = _config(tmp_path)
        _set_key(cfg, "classify", "suite_b_tags", "T+D,N+T+E")
        ctx = RunContext(cfg, None, None)
        assert (ctx.suite_a, ctx.suite_b) == (["T+D", "T+E"], ["T+D", "N+T+E"])

    def test_unset_keys_fall_back_to_the_library_signature_defaults(self, tmp_path):
        cfg = tmp_path / "empty.ini"
        cfg.write_text("", encoding="utf-8")
        ctx = RunContext(str(cfg), None, str(tmp_path / "out"))

        def default(function, name):
            return inspect.signature(function).parameters[name].default

        assert ctx.net_mode == default(pipeline.build_network_view, "mode")
        assert ctx.net_mode == default(netembed.network_embedding, "mode")
        assert ctx.net_k == default(pipeline.build_network_view, "k")
        assert ctx.split_ratio == default(pipeline.run_suites, "split_ratio")
        assert ctx.split_ratio == default(pipeline.run_experiment, "split_ratio")
        assert tuple(ctx.suite_a) == default(pipeline.run_suites, "suite_a_tags")
        assert tuple(ctx.suite_b) == default(pipeline.run_suites, "suite_b_tags")

    def test_every_config_key_is_read(self, tmp_path, monkeypatch):
        # a key left in CONFIG_KEYS after its reader is gone would be accepted and do nothing
        seen = set()
        read = RunContext._read

        def recording_read(ctx, section, key):
            seen.add((section, key))
            return read(ctx, section, key)

        monkeypatch.setattr(RunContext, "_read", recording_read)
        cfg = _config(tmp_path, extra="[views]\nprofile_images = true\n")
        assert main(["run", "--config", cfg]) == 0
        assert {(s, k) for s, keys in CONFIG_KEYS.items() for k in keys} - seen == set()

    def test_unknown_config_section_is_error(self, tmp_path, capsys):
        cfg = _config(tmp_path, extra="[clasify]\nepochs = 3\n")
        assert main(["run", "--config", cfg]) == 1
        assert "clasify.epochs" in capsys.readouterr().err

    def test_malformed_config_is_error(self, tmp_path, capsys):
        cfg = _config(tmp_path, extra="[netembed]\nk = 3\n")
        assert main(["run", "--config", cfg]) == 1
        assert "netembed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "stage, artifact",
        [("classify", "views/TweetEmoji.words"), ("classify", "views/Tweet.npy")],
        ids=["missing-words", "truncated-npy"],
    )
    def test_broken_artifact_is_one_line_error(self, tmp_path, capsys, stage, artifact):
        cfg = _config(tmp_path)
        assert main(["run", "--config", cfg]) == 0
        path = _run_dir(tmp_path) / artifact
        if path.suffix == ".words":
            path.unlink()
        else:
            path.write_bytes(path.read_bytes()[:10])
        capsys.readouterr()
        assert main([stage, "--config", cfg]) == 1
        assert path.name in _one_line_error(capsys)

    def test_import_loads_no_http_client(self):
        # the pipeline runs offline; importing an HTTP client would cost ~4 MB RSS on every run
        code = (
            "import sys, cme.cli; "
            "print(sorted(m for m in ('requests', 'urllib.request', 'http.client') if m in sys.modules))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(cme.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        ).stdout
        assert out.strip() == "[]"

    def test_run_loads_no_scipy(self, tmp_path):
        # scipy is a test-only oracle; a whole run, lazy imports included, must not load it
        code = (
            "import sys, cme.cli; "
            f"assert cme.cli.main(['run', '--config', {_config(tmp_path)!r}]) == 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), file=sys.stderr)"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(cme.__file__).parents[1])}
        err = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        ).stderr
        assert err.strip() == "[]"

    def test_run_loads_no_masked_arrays(self, tmp_path):
        # np.unique without return_index/inverse/counts imports numpy.ma on its first call,
        # about 10 ms of every run's start-up
        code = (
            "import sys, cme.cli; "
            f"assert cme.cli.main(['run', '--config', {_config(tmp_path)!r}]) == 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']), file=sys.stderr)"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(cme.__file__).parents[1])}
        err = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        ).stderr
        assert err.strip() == "[]"

    def test_synth_import_loads_only_the_corpus_model(self):
        # perfbench/workloads.py imports cme.synth, and its set-up time is a benchmark metric
        code = (
            "import sys, cme.synth; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('cme', 'scipy')))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(cme.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        ).stdout
        assert out.strip() == "['cme', 'cme.corpus', 'cme.synth']"

    def test_run_without_a_graph(self, tmp_path):
        # a corpus with no interactions.tsv: the Network view is empty and suite B is skipped
        assert main(["synth", "--config", _config(tmp_path)]) == 0
        corpus_dir = _run_dir(tmp_path) / "synth"
        (corpus_dir / "interactions.tsv").unlink()
        cfg = _config(tmp_path, extra=f"[corpus]\ndirectory = {corpus_dir}\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "nograph")]) == 0
        run_dir = _run_dir(tmp_path, "nograph")
        assert json.loads((run_dir / "netembed" / "meta.json").read_text())["components"] == 0
        rows = [line.split("\t") for line in (run_dir / "correlate" / "correlations.tsv").read_text().splitlines()]
        network = [row for row in rows if "Network" in row[:2]]
        assert [row[:2] for row in network] == [["Network", "Tweet"], ["Network", "TweetEmoji"]]
        for row in network:
            assert row[4] == "0" and row[5].startswith("undefined: ")
        assert json.loads((run_dir / "report" / "report.json").read_text())["suite_b_macro_f1"] == {}

    def test_interaction_from_a_non_user_is_counted_and_warned_once(self, tmp_path, capsys):
        assert main(["synth", "--config", _config(tmp_path)]) == 0
        corpus_dir = _run_dir(tmp_path) / "synth"
        with open(corpus_dir / "interactions.tsv", "a", encoding="utf-8") as fh:
            fh.write("ghost\tp0000\tretweet\t1\n")
        cfg = _config(tmp_path, extra=f"[corpus]\ndirectory = {corpus_dir}\n")
        warning = "warning: build_adjacency: skipped 1 interactions outside the index lists\n"
        capsys.readouterr()
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "ghost")]) == 0
        assert capsys.readouterr().err == warning
        meta = _run_dir(tmp_path, "ghost") / "netembed" / "meta.json"
        assert json.loads(meta.read_text())["skipped"] == 1
        # a second call in the same process adds no second handler
        assert main(["netembed", "--config", cfg, "--out", str(tmp_path / "ghost")]) == 0
        assert capsys.readouterr().err == warning

    def test_run_parses_corpus_once_and_matches_stage_by_stage(self, tmp_path, monkeypatch):
        loads = []
        load_dataset = corpus.load_dataset

        def counting_load(directory):
            loads.append(directory)
            return load_dataset(directory)

        monkeypatch.setattr(corpus, "load_dataset", counting_load)
        cfg = _config(tmp_path)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "whole")]) == 0
        assert len(loads) == 1
        for stage in STAGE_ORDER:
            assert main([stage, "--config", cfg, "--out", str(tmp_path / "staged")]) == 0
        assert len(loads) == 5  # preprocess, views, netembed and classify parse it again
        _assert_same_files(_run_dir(tmp_path, "whole"), _run_dir(tmp_path, "staged"))


class TestViewArtifacts:
    def _context(self, tmp_path):
        return RunContext(_config(tmp_path), None, str(tmp_path / "out"))

    def test_round_trip_keeps_ids_and_bits(self, tmp_path):
        rows = np.random.default_rng(5).standard_normal((4, 3))
        rows[0, 0], rows[1, 1] = -0.0, np.nextafter(1.0, 2.0)
        view = compose.ViewEmbeddingSet("Tweet", {f"u{i}": rows[i] for i in (3, 0, 2, 1)})
        ctx = self._context(tmp_path)
        cli._save_view(view, ctx.stage_dir("views"))
        loaded = cli._load_view(ctx, "Tweet")
        assert (loaded.user_ids, loaded.missing) == (["u0", "u1", "u2", "u3"], [])
        assert loaded.matrix.tobytes() == rows.tobytes()

    def test_sentinel_users_are_not_written(self, tmp_path):
        view = compose.ViewEmbeddingSet("Tweet", {"u0": np.ones(2), "u1": None, "u2": np.zeros(2)})
        cli._save_view(view, tmp_path)
        assert (tmp_path / "Tweet.words").read_text(encoding="utf-8") == "u0\nu2\n"
        assert np.load(tmp_path / "Tweet.npy").tolist() == [[1.0, 1.0], [0.0, 0.0]]

    def test_view_without_vectors_round_trips_at_its_width(self, tmp_path):
        empty = compose.ViewEmbeddingSet("Network", user_ids=[], matrix=np.zeros((0, 3)), missing=["u0", "u1"])
        ctx = self._context(tmp_path)
        cli._save_view(empty, ctx.stage_dir("netembed"))
        assert np.load(ctx.run_dir / "netembed" / "Network.npy").shape == (0, 3)
        loaded = cli._load_view(ctx, "Network")
        assert (loaded.user_ids, loaded.dimension) == ([], 3)
        tweet = compose.ViewEmbeddingSet("Tweet", {"u0": np.array([1.0, 2.0, 3.0]), "u1": None})
        composed = compose.build_cme({"Network": loaded, "Tweet": tweet}, "Network+Tweet")
        assert composed.matrix.tobytes() == tweet.matrix.tobytes()
        assert (composed.user_ids, composed.missing) == (["u0"], [])

    def test_tag_without_vectors_is_one_line_error(self, tmp_path, capsys):
        # without a graph the Network view has no vector, so a tag of it alone has nothing to fit
        assert main(["synth", "--config", _config(tmp_path)]) == 0
        corpus_dir = _run_dir(tmp_path) / "synth"
        (corpus_dir / "interactions.tsv").unlink()
        cfg = _config(tmp_path, extra=f"[corpus]\ndirectory = {corpus_dir}\n")
        _set_key(cfg, "classify", "suite_a_tags", "T+D,Network")
        capsys.readouterr()
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "nograph")]) == 1
        assert "composition 'Network' has no vector" in _one_line_error(capsys)
        run_dir = _run_dir(tmp_path, "nograph")
        assert np.load(run_dir / "netembed" / "Network.npy").shape == (0, 0)

    def test_artifact_widths_follow_the_kept_components(self, tmp_path, monkeypatch):
        # the Network view is as wide as its components; a composition as wide as its widest part
        built, build = {}, compose.build_cme

        def building(views, tag):
            cme_set = build(views, tag)
            built[tag] = cme_set.dimension
            return cme_set

        monkeypatch.setattr(compose, "build_cme", building)
        assert main(["run", "--config", _config(tmp_path)]) == 0
        run_dir = _run_dir(tmp_path)
        widths = {path.stem: np.load(path).shape[1] for path in run_dir.glob("views/*.npy")}
        widths["Network"] = np.load(run_dir / "netembed" / "Network.npy").shape[1]
        meta = json.loads((run_dir / "netembed" / "meta.json").read_text(encoding="utf-8"))
        assert widths["Network"] == meta["components"] < 16
        assert sorted(built) == ["N+T+E", "T+D", "T+E"]
        for tag, width in built.items():
            assert width == max(widths[name] for name in compose.resolve_tag(tag)), tag
        assert built["N+T+E"] == 16 > widths["Network"]


class TestDeterminismAndAddressing:
    def test_rerun_same_seed_bit_identical_report(self, tmp_path):
        cfg = _config(tmp_path)
        assert main(["run", "--config", cfg]) == 0
        report = _run_dir(tmp_path) / "report" / "report.json"
        first = report.read_bytes()
        assert main(["run", "--config", cfg]) == 0
        assert report.read_bytes() == first

    def test_two_runs_write_identical_artifacts(self, tmp_path):
        cfg = _config(tmp_path)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        first, second = _run_dir(tmp_path, "a"), _run_dir(tmp_path, "b")
        for stage in ("models", "views", "netembed"):
            names = sorted(p.name for p in (first / stage).iterdir())
            assert names == sorted(p.name for p in (second / stage).iterdir())
            assert any(name.endswith(".npy") for name in names)
            for name in names:
                assert (first / stage / name).read_bytes() == (second / stage / name).read_bytes(), name

    def test_corpus_line_order_does_not_matter(self, tmp_path):
        # two spellings of one corpus: every file's lines, shuffled, give the same run
        assert main(["synth", "--config", _config(tmp_path)]) == 0
        corpus_dir = _run_dir(tmp_path) / "synth"
        cfg = _config(tmp_path, extra=f"[corpus]\ndirectory = {corpus_dir}\n[views]\nprofile_images = true\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        rng = np.random.default_rng(5)
        for path in sorted([*corpus_dir.glob("*.jsonl"), *corpus_dir.glob("*.tsv")]):
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            path.write_text("".join(lines[i] for i in rng.permutation(len(lines))), encoding="utf-8")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        first, second = _run_dir(tmp_path, "a"), _run_dir(tmp_path, "b")
        assert first.name == second.name
        _assert_same_files(first, second)

    def test_different_seed_different_run_dir(self, tmp_path):
        cfg = _config(tmp_path)
        assert main(["synth", "--config", cfg]) == 0
        assert main(["synth", "--config", cfg, "--seed", "99"]) == 0
        assert len(list((tmp_path / "out").glob("run-*"))) == 2

    def test_out_override_keeps_run_id(self, tmp_path):
        cfg = _config(tmp_path)
        assert main(["synth", "--config", cfg]) == 0
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "other")]) == 0
        assert _run_dir(tmp_path, "out").name == _run_dir(tmp_path, "other").name


class TestViewsHeld:
    """Past netembed a stage holds only the views its current step names."""

    @pytest.fixture
    def loaded(self, monkeypatch):
        """(stage, name, weak reference, names earlier loads still hold) per view load, in order."""
        loaded, load_view, running = [], cli._load_view, [None]

        def tracking(ctx, name):
            held = self._alive(loaded)
            view = load_view(ctx, name)
            loaded.append((running[0], name, weakref.ref(view), held))
            return view

        def staged(stage, command):
            def run(ctx):
                running[0] = stage
                command(ctx)
            return run

        monkeypatch.setattr(cli, "_load_view", tracking)
        for stage, command in cli.COMMANDS.items():
            monkeypatch.setitem(cli.COMMANDS, stage, staged(stage, command))
        return loaded

    @staticmethod
    def _alive(loaded) -> set[str]:
        return {name for _, name, ref, _ in loaded if ref() is not None}

    def _config(self, tmp_path):
        cfg = _config(tmp_path)
        _set_key(cfg, "classify", "suite_a_tags", "T+D,T+E,D+E")
        return cfg

    def _classify_alone(self, tmp_path, loaded):
        """Run every stage before classify, then classify with loaded cleared; its tags in experiment order."""
        cfg = self._config(tmp_path)
        for stage in STAGE_ORDER[:-2]:
            assert main([stage, "--config", cfg]) == 0
        loaded.clear()
        assert main(["classify", "--config", cfg]) == 0
        best = json.loads((_run_dir(tmp_path) / "classify" / "results.json").read_text())["best_suite_a_tag"]
        return ["T+D", "T+E", "D+E", best, "N+T+E"]

    def test_correlate_and_compose_drop_a_view_after_its_last_step(self, tmp_path, monkeypatch, loaded):
        steps, correlate = [], compose.correlate_views

        def correlating(a, b, **kwargs):
            steps.append(({a.name, b.name}, self._alive(loaded)))
            return correlate(a, b, **kwargs)

        monkeypatch.setattr(compose, "correlate_views", correlating)
        assert main(["run", "--config", self._config(tmp_path)]) == 0
        assert len(steps) == 5
        for pair, held in steps:
            assert held == pair, (pair, held)
        # correlate loads each pair's two views for that pair; compose, which writes only the plan, loads none
        views = [name for stage, name, _, _ in loaded if stage == "correlate"]
        assert len(views) == 10
        assert [set(views[at:at + 2]) for at in range(0, 10, 2)] == [pair for pair, _ in steps]
        assert "compose" not in {stage for stage, _, _, _ in loaded}

    def test_classify_holds_one_composition_at_a_time(self, tmp_path, monkeypatch, loaded):
        built, build = [], compose.build_cme

        def building(views, tag):
            alive = [earlier for earlier, ref in built if ref() is not None]
            cme_set = build(views, tag)
            built.append((tag, weakref.ref(cme_set)))
            assert alive == [], (tag, alive)
            return cme_set

        monkeypatch.setattr(compose, "build_cme", building)
        tags = self._classify_alone(tmp_path, loaded)
        # each composition is built from the saved views when its experiment runs
        assert [tag for tag, _ in built] == tags
        assert [name for _, name, _, _ in loaded] == [name for tag in tags for name in compose.resolve_tag(tag)]
        # a load holds at most the earlier constituents of its own tag
        at = 0
        for tag in tags:
            names = compose.resolve_tag(tag)
            for i in range(len(names)):
                assert loaded[at + i][3] <= set(names[:i]), (tag, loaded[at + i][3])
            at += len(names)
        assert self._alive(loaded) == set() and [tag for tag, ref in built if ref() is not None] == []

    def test_classify_holds_no_view_during_a_fit(self, tmp_path, monkeypatch, loaded):
        fits, train = [], classify.train_classifier

        def training(*args, **kwargs):
            fits.append((len(loaded), self._alive(loaded)))
            return train(*args, **kwargs)

        monkeypatch.setattr(classify, "train_classifier", training)
        tags = self._classify_alone(tmp_path, loaded)
        assert [alive for _, alive in fits] == [set()] * len(tags)
        # each experiment loads exactly its tag's constituents, in tag order
        bounds = [0] + [count for count, _ in fits]
        for tag, start, stop in zip(tags, bounds, bounds[1:]):
            assert [name for _, name, _, _ in loaded[start:stop]] == list(compose.resolve_tag(tag)), tag

    def test_classify_without_compose_matches_run(self, tmp_path):
        # classify reads no file under compose/, so skipping the stage changes nothing it writes
        cfg = _config(tmp_path)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "whole")]) == 0
        for stage in ("synth", "preprocess", "train-we", "views", "netembed", "classify"):
            assert main([stage, "--config", cfg, "--out", str(tmp_path / "staged")]) == 0
        whole, staged = _run_dir(tmp_path, "whole"), _run_dir(tmp_path, "staged")
        assert not (staged / "compose").exists()
        for name in ("results.json", "results.txt"):
            assert (staged / "classify" / name).read_bytes() == (whole / "classify" / name).read_bytes()


class TestArtifacts:
    def test_stage_artifacts_layout(self, tmp_path):
        cfg = _config(tmp_path)
        assert main(["run", "--config", cfg]) == 0
        run_dir = _run_dir(tmp_path)
        assert (run_dir / "synth" / "users.jsonl").exists()
        assert (run_dir / "preprocess" / "tokens.json").exists()
        assert (run_dir / "models" / "content.npy").exists()
        assert (run_dir / "views" / "Tweet.npy").exists()
        assert (run_dir / "netembed" / "Network.npy").exists()
        assert (run_dir / "correlate" / "correlations.tsv").exists()
        assert sorted(p.name for p in (run_dir / "compose").iterdir()) == ["meta.json"]
        results = json.loads((run_dir / "classify" / "results.json").read_text())
        assert "suite_a" in results and "suite_b" in results
        for res in [*results["suite_a"].values(), *results["suite_b"].values()]:
            assert isinstance(res["converged"], bool)
            assert 1 <= res["epochs"] <= 150
            assert res["final_loss"] > 0
        assert set(json.loads((run_dir / "netembed" / "meta.json").read_text())) == {
            "mode", "rows", "components", "skipped", "graph_components", "largest_component",
            "tied_columns", "sigma_max", "sigma_min",
        }
        plan = json.loads((run_dir / "compose" / "meta.json").read_text())
        assert plan == {"T+D": ["Tweet", "Description"], "T+E": ["Tweet", "TweetEmoji"],
                        "N+T+E": ["Network", "Tweet", "TweetEmoji"]}

    def test_compose_builds_exactly_the_suites_tags(self, tmp_path):
        # the suites name T+D, T+E and N+T+E; D+E used to be built by a default list of its own
        cfg = _config(tmp_path)
        _set_key(cfg, "classify", "suite_b_tags", "Network+Description,N+T+E")
        assert main(["run", "--config", cfg]) == 0
        compose_dir = _run_dir(tmp_path) / "compose"
        plan = json.loads((compose_dir / "meta.json").read_text())
        assert sorted(plan) == ["N+T+E", "Network+Description", "T+D", "T+E"]
        assert all(plan[tag] == list(compose.resolve_tag(tag)) for tag in plan)
        assert not list(compose_dir.glob("*.npy")) and not list(compose_dir.glob("*.words"))

    def test_trainer_stats_in_model_meta(self, tmp_path):
        cfg = _config(tmp_path)
        _set_key(cfg, "train_we", "subsample_threshold", "1e-3")
        for stage in ("synth", "preprocess", "train-we"):
            assert main([stage, "--config", cfg]) == 0
        meta = json.loads((_run_dir(tmp_path) / "models" / "meta.json").read_text())
        for model in ("content", "people"):
            stats = meta[model]
            assert set(stats) == {"words_per_epoch", "keep_rate", "pairs", "batches"}
            assert 0 < stats["keep_rate"] <= 1
            assert stats["pairs"] >= stats["batches"] >= 1

    def test_correlation_table_has_pairs(self, tmp_path):
        # the distinct view pairs of T+D, T+E and N+T+E, in plan order
        cfg = _config(tmp_path)
        assert main(["run", "--config", cfg]) == 0
        lines = (_run_dir(tmp_path) / "correlate" / "correlations.tsv").read_text().splitlines()
        assert [line.split("\t")[:2] for line in lines[1:]] == [
            ["Tweet", "Description"], ["Tweet", "TweetEmoji"], ["Network", "Tweet"], ["Network", "TweetEmoji"],
        ]

    def test_profile_image_view_opt_in(self, tmp_path):
        cfg = _config(tmp_path, extra="[views]\nprofile_images = true\n")
        for stage in ("synth", "preprocess", "train-we", "views"):
            assert main([stage, "--config", cfg]) == 0
        assert (_run_dir(tmp_path) / "views" / "ProfileImage.npy").exists()

    def test_image_tag_file_missing_a_user_is_one_line_error(self, tmp_path, capsys):
        cfg = _config(tmp_path, extra="[views]\nprofile_images = true\n")
        assert main(["synth", "--config", cfg]) == 0
        tag_file = _run_dir(tmp_path) / "synth" / "image_tags.tsv"
        dropped, *kept = tag_file.read_text(encoding="utf-8").splitlines(keepends=True)
        tag_file.write_text("".join(kept), encoding="utf-8")
        for stage in ("preprocess", "train-we"):
            assert main([stage, "--config", cfg]) == 0
        capsys.readouterr()
        assert main(["views", "--config", cfg]) == 1
        ref = dropped.split("\t")[0]
        assert ref.startswith("img://")
        assert repr(ref) in _one_line_error(capsys)

    def test_malformed_image_tag_file_names_its_path_once(self, tmp_path, capsys):
        cfg = _config(tmp_path, extra="[views]\nprofile_images = true\n")
        for stage in ("synth", "preprocess", "train-we"):
            assert main([stage, "--config", cfg]) == 0
        tag_file = _run_dir(tmp_path) / "synth" / "image_tags.tsv"
        with open(tag_file, "a", encoding="utf-8") as fh:
            fh.write("img://extra\tperson\tabc\n")
        line_no = len(tag_file.read_text(encoding="utf-8").splitlines())
        capsys.readouterr()
        assert main(["views", "--config", cfg]) == 1
        err = _one_line_error(capsys)
        assert f"{tag_file}:{line_no}: " in err
        assert err.count(str(tag_file)) == 1

    def test_no_image_tag_file_fails_before_any_stage(self, tmp_path, capsys):
        assert main(["synth", "--config", _config(tmp_path)]) == 0
        corpus_dir = _run_dir(tmp_path) / "synth"
        (corpus_dir / "image_tags.tsv").unlink()
        cfg = _config(tmp_path, extra=f"[views]\nprofile_images = true\n[corpus]\ndirectory = {corpus_dir}\n")
        capsys.readouterr()
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "again")]) == 1
        assert str(corpus_dir / "image_tags.tsv") in _one_line_error(capsys)
        assert not list((tmp_path / "again").glob("run-*/preprocess"))

    def test_external_text_background_model(self, tmp_path):
        keywords = sorted({k for e in load_emoji_lexicon().values() for k in e.keywords})
        background = tmp_path / "background.txt"
        rows = "".join(f"{word} {' '.join(['0.25'] * 16)}\n" for word in keywords)
        background.write_text(f"{len(keywords)} 16\n{rows}", encoding="utf-8")
        cfg = _config(tmp_path, extra=f"[views]\nemoji_background_model = {background}\n")
        for stage in ("synth", "preprocess", "train-we", "views"):
            assert main([stage, "--config", cfg]) == 0
        emoji_view = np.load(_run_dir(tmp_path) / "views" / "TweetEmoji.npy")
        assert emoji_view.shape[0] > 0
        assert np.all(emoji_view == 0.25)
