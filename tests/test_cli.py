import configparser
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cme
from cme import compose, corpus, netembed, pipeline
from cme.classify import ClassifierConfig, SMOTEConfig
from cme.cli import CONFIG_KEYS, STAGE_ORDER, RunContext, main
from cme.emoji import load_emoji_lexicon
from cme.imagetags import load_image_tags
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
    background.write_text("2 3\nleaf 0.1 0.2 0.3\nplant 0.1 0.2\n", encoding="utf-8")
    narrow = tmp_path / "narrow.txt"
    narrow.write_text(f"1 8\nleaf {' '.join(['0.5'] * 8)}\n", encoding="utf-8")
    return {
        "absent": str(tmp_path / "absent.txt"),
        "lexicon_without_tab": str(lexicon),
        "short_row": str(background),
        "narrow_model": str(narrow),
    }


def _run_dir(tmp_path, sub="out"):
    runs = list((tmp_path / sub).glob("run-*"))
    assert len(runs) == 1
    return runs[0]


class TestFullChain:
    def test_chain_produces_report(self, tmp_path, capsys):
        cfg = _config(tmp_path)
        assert main(["run", "--config", cfg]) == 0
        run_dir = _run_dir(tmp_path)
        assert (run_dir / "report" / "report.json").exists()
        assert (run_dir / "classify" / "results.txt").exists()
        out = capsys.readouterr().out
        assert "effective seed" in out

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
        # compose before views must fail and name the producing command
        assert main(["compose", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "cme views" in err

    def test_classify_before_compose_names_compose(self, tmp_path, capsys):
        cfg = _config(tmp_path)
        assert main(["synth", "--config", cfg]) == 0
        assert main(["classify", "--config", cfg]) == 1
        assert "cme compose" in capsys.readouterr().err

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
        ],
        ids=[
            "removed-key", "removed-knob", "misspelt-key", "removed-family", "removed-method",
            "removed-step-size",
            "removed-image-mode", "removed-image-endpoint", "removed-image-retries",
            "removed-image-cache-dir", "removed-rates", "removed-word-prob",
            "removed-seed-offset-synth", "removed-seed-offset-train-we", "removed-seed-offset-classify",
            "removed-compose-tags",
        ],
    )
    def test_unknown_config_key_is_error(self, tmp_path, capsys, section, line):
        cfg = _config(tmp_path)
        _set_key(cfg, section, *line.split(" = "))
        assert main(["run", "--config", cfg]) == 1
        assert f"{section}.{line.split()[0]}" in capsys.readouterr().err
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
            ("train_we", "window", "0", "train_we.window"),
            ("classify", "smote_k", "0", "classify.smote_k"),
            ("correlate", "pairs", "Tweet:Nope", "correlate.pairs: unknown view(s) 'Nope'"),
            ("train_we", "epochs", "0", "train_we.epochs must be >= 1"),
            ("train_we", "learning_rate", "0", "train_we.learning_rate must be > 0"),
            ("train_we", "learning_rate", "1e-5", "train_we.learning_rate must be >= min_learning_rate"),
            ("train_we", "min_count", "0", "train_we.min_count must be >= 1"),
            ("classify", "epochs", "0", "classify.epochs must be >= 1"),
            ("classify", "l2_penalty", "-1", "classify.l2_penalty must be >= 0"),
        ],
        ids=[
            "unparsable-int", "unknown-mode", "k-above-rows", "split-ratio-above-1", "empty-vocabulary",
            "unparsable-class-size", "empty-class", "zero-dimension", "zero-window",
            "zero-smote-k", "unknown-view-in-pairs",
            "zero-train-epochs", "zero-learning-rate", "learning-rate-below-floor", "zero-min-count",
            "zero-classify-epochs", "negative-l2-penalty",
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
            ("train_we", "window", "0", "train_we.window"),
            ("classify", "suite_a_tags", "T+D,T+X", "classify.suite_a_tags: tag 'T+X' is not a canonical tag"),
            ("classify", "suite_a_tags", "", "classify.suite_a_tags: suite A needs at least one tag"),
            ("correlate", "alpha", "abc", "correlate.alpha"),
            ("correlate", "alpha", "5", "correlate.alpha must be in (0, 1)"),
            ("correlate", "alpha", "0", "correlate.alpha must be in (0, 1)"),
            ("views", "profile_images", "maybe", "views.profile_images"),
            ("views", "image_confidence_threshold", "abc", "views.image_confidence_threshold"),
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
        ],
        ids=[
            "zero-classify-epochs", "zero-window", "unknown-compose-tag", "empty-suite-a",
            "unparsable-alpha", "alpha-above-1", "zero-alpha", "unparsable-bool",
            "unparsable-unused-threshold", "negative-k", "k-above-dimension",
            "negative-subsample-threshold", "missing-stopwords", "missing-lemmas",
            "missing-lexicon", "missing-background-model", "lexicon-line-without-tab",
            "background-row-too-short", "background-narrower-than-dimension",
        ],
    )
    def test_run_checks_late_stage_config_before_any_stage(
        self, tmp_path, capsys, section, key, value, named
    ):
        cfg = _config(tmp_path)
        _set_key(cfg, section, key, value.format(**_faulty_inputs(tmp_path)))
        assert main(["run", "--config", cfg]) == 1
        assert named in _one_line_error(capsys)
        assert not (_run_dir(tmp_path) / "preprocess" / "tokens.json").exists()

    def test_malformed_lemma_table_names_path_and_line(self, tmp_path, capsys):
        # a line without a tab used to be dropped, and the run ended 0
        lemmas = tmp_path / "lemmas.tsv"
        lemmas.write_text("# token\tlemma\nam\tbe\nwere be\n", encoding="utf-8")
        cfg = _config(tmp_path, extra=f"[preprocess]\nlemmas = {lemmas}\n")
        assert main(["run", "--config", cfg]) == 1
        assert _one_line_error(capsys).startswith(f"error: preprocess.lemmas: {lemmas}:3: ")
        assert not list(_run_dir(tmp_path).iterdir())

    def test_missing_corpus_file_is_one_line_error(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        (corpus_dir / "users.jsonl").write_text('{"user_id": "u1"}\n', encoding="utf-8")
        cfg = _config(tmp_path, extra=f"[corpus]\ndirectory = {corpus_dir}\n")
        assert main(["run", "--config", cfg]) == 1
        assert "tweets.jsonl" in _one_line_error(capsys)

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
        assert ctx.smote == SMOTEConfig(seed=7)
        assert ctx.classifier == ClassifierConfig()

    def test_unset_keys_fall_back_to_the_library_signature_defaults(self, tmp_path):
        cfg = tmp_path / "empty.ini"
        cfg.write_text("", encoding="utf-8")
        ctx = RunContext(str(cfg), None, str(tmp_path / "out"))

        def default(function, name):
            return inspect.signature(function).parameters[name].default

        assert ctx.keep_hashtags == default(pipeline.prepare_users, "keep_hashtag_body")
        assert ctx.image_threshold == default(load_image_tags, "confidence_threshold")
        assert ctx.net_mode == default(pipeline.build_network_view, "mode")
        assert ctx.net_mode == default(netembed.network_embedding, "mode")
        assert ctx.net_k == default(pipeline.build_network_view, "k")
        assert ctx.alpha == default(compose.correlate_views, "alpha")
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
        [("classify", "compose/T_D.words"), ("compose", "views/Tweet.npy")],
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
        whole, staged = _run_dir(tmp_path, "whole"), _run_dir(tmp_path, "staged")
        files = sorted(p.relative_to(whole) for p in whole.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(staged) for p in staged.rglob("*") if p.is_file())
        for name in files:
            assert (whole / name).read_bytes() == (staged / name).read_bytes(), name


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
        for stage in ("models", "views", "netembed", "compose"):
            names = sorted(p.name for p in (first / stage).iterdir())
            assert names == sorted(p.name for p in (second / stage).iterdir())
            assert any(name.endswith(".npy") for name in names)
            for name in names:
                assert (first / stage / name).read_bytes() == (second / stage / name).read_bytes(), name

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
        assert (run_dir / "compose" / "N_T_E.npy").exists()
        results = json.loads((run_dir / "classify" / "results.json").read_text())
        assert "suite_a" in results and "suite_b" in results
        for res in [*results["suite_a"].values(), *results["suite_b"].values()]:
            assert isinstance(res["converged"], bool)
            assert 1 <= res["epochs"] <= 150

    def test_compose_builds_exactly_the_suites_tags(self, tmp_path):
        # the suites name T+D, T+E and N+T+E; D+E used to be built by a default list of its own
        assert main(["run", "--config", _config(tmp_path)]) == 0
        compose_dir = _run_dir(tmp_path) / "compose"
        assert sorted(p.name for p in compose_dir.glob("*.npy")) == ["N_T_E.npy", "T_D.npy", "T_E.npy"]
        assert sorted(json.loads((compose_dir / "meta.json").read_text())) == ["N+T+E", "T+D", "T+E"]

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
        cfg = _config(tmp_path)
        assert main(["run", "--config", cfg]) == 0
        table = (_run_dir(tmp_path) / "correlate" / "correlations.tsv").read_text()
        assert "Tweet\tTweetEmoji" in table
        assert "Description\tNetwork" in table

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
