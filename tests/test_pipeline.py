import itertools
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import cme
from cme import classify, cli, compose, netembed, pipeline, synth
from cme.classify import ClassifierConfig, ClassifierError, stratified_split
from cme.corpus import ClassLabel
from cme.emoji import load_emoji_lexicon
from cme.imagetags import MissingImageTagsError, load_image_tags
from cme.preprocess import load_lemma_table, load_stopwords
from cme.wemodel import TrainingConfig


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    profiles = {
        cls: replace(p, users=14) for cls, p in synth.default_profiles().items()
    }
    dataset = synth.generate(synth.SynthConfig(profiles=profiles, seed=20))
    stopwords = load_stopwords()
    lemmas = load_lemma_table()
    prepared = pipeline.prepare_users(dataset, stopwords, lemmas)
    config = TrainingConfig(dimension=20, epochs=2, min_count=2, subsample_threshold=0, seed=1)
    content, people = pipeline.train_view_models(prepared, config)
    views = pipeline.build_text_views(prepared, content, people, load_emoji_lexicon())
    return dataset, prepared, content, people, views


@pytest.fixture(scope="module")
def one_retail_source():
    """14 users a class (seed 3) with the interactions of every Retail source but one removed; its views."""
    profiles = {cls: replace(p, users=14) for cls, p in synth.default_profiles().items()}
    dataset = synth.generate(synth.SynthConfig(profiles=profiles, seed=3))
    labels = dataset.labels()
    retail = sorted({rec.source for rec in dataset.interactions if labels.get(rec.source) is ClassLabel.RETAIL})
    dataset = replace(dataset, interactions=[rec for rec in dataset.interactions if rec.source not in retail[1:]])
    prepared = pipeline.prepare_users(dataset, load_stopwords(), load_lemma_table())
    config = TrainingConfig(dimension=20, epochs=2, min_count=2, subsample_threshold=0, seed=1)
    views = pipeline.build_text_views(prepared, *pipeline.train_view_models(prepared, config), load_emoji_lexicon())
    views["Network"], _ = pipeline.build_network_view(dataset, 20, mode="conventional", k=6)
    return dataset, views


class TestPrepare:
    def test_every_user_prepared(self, small_run):
        dataset, prepared, *_ = small_run
        assert set(prepared) == {u.user_id for u in dataset.users}

    def test_tokens_are_clean(self, small_run):
        _, prepared, *_ = small_run
        stopwords = load_stopwords()
        for rec in prepared.values():
            for tok in rec.tweet_tokens + rec.desc_tokens:
                assert tok not in stopwords
                assert not any(c.isdigit() for c in tok)

    def test_emoji_collected(self, small_run):
        _, prepared, *_ = small_run
        assert any(rec.tweet_emoji for rec in prepared.values())

    def test_order_of_users_and_tweets_is_prepare_users_own(self, small_run):
        # keyed by sorted user_id, each author's tweets in tweet_id order, whatever the file order
        dataset, prepared, *_ = small_run
        tweets = [dataset.tweets[i] for i in np.random.default_rng(4).permutation(len(dataset.tweets))]
        shuffled = replace(dataset, users=dataset.users[::-1], tweets=tweets)
        again = pipeline.prepare_users(shuffled, load_stopwords(), load_lemma_table())
        assert list(again.items()) == list(prepared.items())
        assert list(prepared) == sorted(prepared)


class TestViews:
    def test_view_names_and_dimensions(self, small_run):
        *_, views = small_run
        assert set(views) == {"Tweet", "Description", "TweetEmoji", "DescriptionEmoji"}
        assert all(v.dimension == 20 for v in views.values())

    def test_tweet_view_mostly_present(self, small_run):
        *_, views = small_run
        assert views["Tweet"].sentinel_count <= 2

    def test_image_view_from_fixture(self, small_run, tmp_path):
        dataset, _, _, people, _ = small_run
        fixture = tmp_path / "tags.tsv"
        synth.write_image_fixture(dataset, fixture)
        tags_by_ref = load_image_tags(fixture)
        view = pipeline.build_image_view(dataset, people, tags_by_ref)
        assert len(view.vectors) == len(dataset.users)
        ref = dataset.users[0].profile_image_ref
        del tags_by_ref[ref]
        with pytest.raises(MissingImageTagsError) as err:
            pipeline.build_image_view(dataset, people, tags_by_ref)
        assert ref in str(err.value)

    @staticmethod
    def _built(small_run, tmp_path):
        """Every builder's view of the small run: the four text views, ProfileImage and Network."""
        dataset, _, _, people, views = small_run
        fixture = tmp_path / "tags.tsv"
        synth.write_image_fixture(dataset, fixture)
        return list(views.values()) + [
            pipeline.build_image_view(dataset, people, load_image_tags(fixture)),
            pipeline.build_network_view(dataset, 20, mode="conventional", k=5)[0],
        ]

    def test_builders_fill_sorted_rows_and_name_missing_users(self, small_run, tmp_path):
        users = sorted(u.user_id for u in small_run[0].users)
        built = self._built(small_run, tmp_path)
        for view in built:
            assert view.user_ids == sorted(view.user_ids) and view.missing == sorted(view.missing), view.name
            assert sorted(view.user_ids + view.missing) == users, view.name
            assert view.matrix.shape == (len(view.user_ids), 5 if view.name == "Network" else 20), view.name
            # perfbench's sentinel rate divides sentinel_count by len(vectors), every user looked up
            assert len(view.vectors) == len(view.user_ids) + view.sentinel_count, view.name
            assert [u for u, row in view.vectors.items() if row is None] == view.missing, view.name
        assert any(view.sentinel_count for view in built)

    def _saved(self, small_run, tmp_path):
        """A run context whose views/ and netembed/ hold every builder's view; those views by name."""
        (tmp_path / "empty.ini").write_text("", encoding="utf-8")  # every key takes its default
        ctx = cli.RunContext(str(tmp_path / "empty.ini"), None, str(tmp_path / "out"))
        built = {view.name: view for view in self._built(small_run, tmp_path)}
        for view in built.values():
            cli._save_view(view, ctx.stage_dir("netembed" if view.name == "Network" else "views"))
        return ctx, built

    def test_saved_then_loaded_view_is_the_built_one(self, small_run, tmp_path):
        ctx, built = self._saved(small_run, tmp_path)
        for name, view in built.items():
            loaded = cli._load_view(ctx, name)
            assert loaded.user_ids == view.user_ids, name
            assert loaded.matrix.tobytes() == view.matrix.tobytes(), name

    def test_composition_of_built_views_is_that_of_loaded_views(self, small_run, tmp_path):
        # the in-memory path (acceptance 07) against `cme run`'s, which builds from the saved views;
        # the pairs include some that no constituent covers every user of
        ctx, built = self._saved(small_run, tmp_path)
        for tag in [*compose.COMPOSITION_TAGS, *map("+".join, itertools.combinations(built, 2))]:
            loaded = {name: cli._load_view(ctx, name) for name in compose.resolve_tag(tag)}
            from_built, from_loaded = compose.build_cme(built, tag), compose.build_cme(loaded, tag)
            assert from_built.user_ids == from_loaded.user_ids, tag
            assert from_built.matrix.tobytes() == from_loaded.matrix.tobytes(), tag


def network_shaped(seed: int):
    """A corpus of the benchmark's `network` shape: 330/165/110 users, 1-3 short tweets, default rates."""
    profiles = synth.default_profiles()
    for cls, users in zip((ClassLabel.PERSONAL, ClassLabel.INFORMED_AGENCY, ClassLabel.RETAIL), (330, 165, 110)):
        profiles[cls] = replace(
            profiles[cls], users=users, tweets_min=1, tweets_max=3, tweet_len_min=6, tweet_len_max=12
        )
    return synth.generate(synth.SynthConfig(profiles=profiles, seed=seed))


class TestNetworkViewIsAFunctionOfTheGraph:
    """About 480 sources, 40-odd of them lone, so k = 100 cuts inside the group of sigma = 1."""

    def test_rounding_level_scaling_keeps_the_view(self, monkeypatch):
        dataset = network_shaped(1)
        view, embedding = pipeline.build_network_view(dataset, 100, k=100)
        adjacency = netembed.build_adjacency
        rng = np.random.default_rng(0)
        calls = []

        def scaled(*args):
            calls.append(args)
            out = adjacency(*args)
            mat = out.matrix
            return replace(out, matrix=replace(mat, data=mat.data * (1 + 1e-15 * rng.standard_normal(mat.nnz))))

        monkeypatch.setattr(netembed, "build_adjacency", scaled)
        again, _ = pipeline.build_network_view(dataset, 100, k=100)
        assert len(calls) == 1  # the noise reached factor_graph
        assert again.matrix.shape == view.matrix.shape
        np.testing.assert_allclose(again.matrix, view.matrix, atol=1e-8)
        assert 0 < embedding.graph.tied_columns < embedding.k

    def test_same_view_at_one_and_two_blas_threads(self, tmp_path):
        code = (
            f"import sys, numpy as np; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
            "from test_pipeline import network_shaped; from cme import pipeline; "
            "np.save(sys.argv[1], pipeline.build_network_view(network_shaped(2), 100, k=100)[0].matrix)"
        )
        saved = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": str(Path(cme.__file__).parents[1]), "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads}
            path = tmp_path / f"network-{threads}.npy"
            subprocess.run([sys.executable, "-c", code, str(path)], check=True, env=env, timeout=120)
            saved.append(np.load(path))
        assert saved[0].shape == saved[1].shape
        np.testing.assert_allclose(saved[0], saved[1], atol=1e-8)

    def test_conventional_mode_keeps_no_null_column(self):
        # sources with the same targets make the cosine rank-deficient; each conventional
        # column is u * sigma, so its norm is its sigma
        dataset = network_shaped(3)
        rows = len({rec.source for rec in dataset.interactions})
        _, embedding = pipeline.build_network_view(dataset, rows, mode="conventional", k=rows)
        assert embedding.k < rows
        norms = np.linalg.norm(embedding.matrix, axis=0)
        assert np.all(norms > netembed.sigma_floor(norms))
        np.testing.assert_allclose(norms, embedding.sigma, rtol=1e-12)


class TestNetworkView:
    def test_rows_are_the_kept_components(self, small_run):
        # the view is as wide as the embedding, not padded to the composition dimension
        dataset, *_ = small_run
        view, embedding = pipeline.build_network_view(dataset, 20, mode="conventional", k=5)
        assert embedding.k == view.dimension == 5
        assert view.user_ids == embedding.row_ids
        assert view.matrix.tobytes() == embedding.matrix.tobytes()

    def test_k_above_dimension_rejected(self, small_run):
        # a k wider than the composition dimension used to be cut to it without a word
        dataset, *_ = small_run
        with pytest.raises(ValueError, match="k must be <= dimension"):
            pipeline.build_network_view(dataset, 4, mode="conventional", k=5)

    def test_k_above_rows_is_capped_at_rows(self, small_run):
        # k bounds the components from above; a graph with fewer sources gives fewer
        dataset, *_ = small_run
        rows = len({rec.source for rec in dataset.interactions})
        dimension = rows + 10
        for mode in ("conventional", "paper"):
            view, embedding = pipeline.build_network_view(dataset, dimension, mode=mode, k=dimension)
            assert len(embedding.row_ids) == rows
            assert embedding.k <= rows
            assert view.dimension == embedding.k
            assert len(view.user_ids) == rows
            assert view.matrix.tobytes() == embedding.matrix.tobytes()

    def test_k_zero_means_the_dimension(self, small_run):
        dataset, *_ = small_run
        _, embedding = pipeline.build_network_view(dataset, 5, mode="conventional", k=0)
        assert embedding.k == 5

    def test_unconnected_users_are_sentinels(self, small_run):
        dataset, *_ = small_run
        view, _ = pipeline.build_network_view(dataset, 20, mode="conventional")
        sources = {rec.source for rec in dataset.interactions}
        for user in dataset.users:
            if user.user_id not in sources:
                assert view.vectors[user.user_id] is None

    def test_paper_mode_drops_null_components(self, small_run):
        dataset, *_ = small_run
        view, embedding = pipeline.build_network_view(dataset, 20, mode="paper")
        assert np.all(np.isfinite(embedding.matrix))

    def test_empty_interactions_give_empty_view(self, small_run):
        dataset, *_ = small_run
        bare = type(dataset)(users=dataset.users, tweets=[], interactions=[])
        view, embedding = pipeline.build_network_view(bare, 20)
        assert all(v is None for v in view.vectors.values())
        assert len(view.vectors) == len(dataset.users)
        assert view.matrix.shape == (0, 0)
        assert embedding.matrix.shape[0] == 0
        assert embedding.k == 0


class TestExperiments:
    def test_composition_without_vectors_is_named_error(self, small_run):
        # an all-sentinel composition used to fit a bias-only model at chance level
        dataset, _, _, _, views = small_run
        bare = type(dataset)(users=dataset.users, tweets=[], interactions=[])
        net_view, _ = pipeline.build_network_view(bare, 20)
        assert net_view.dimension == 0
        composed = compose.build_cme({"Network": net_view}, "Network")
        with pytest.raises(ClassifierError, match="'Network'"):
            pipeline.run_experiment(composed, dataset.labels(), sorted(dataset.labels()))

    def test_run_experiment_and_suites(self, small_run):
        dataset, _, _, _, views = small_run
        net_view, _ = pipeline.build_network_view(dataset, 20, mode="conventional", k=6)
        all_views = dict(views)
        all_views["Network"] = net_view
        results = pipeline.run_suites(
            partial(compose.build_cme, all_views),
            dataset,
            suite_a_tags=("T+D", "T+E"),
            suite_b_tags=("N+T+E",),
            seed=2,
            classifier_config=ClassifierConfig(epochs=150),
        )
        assert results.best_a_tag in ("T+D", "T+E")
        # suite B holds the baseline, the best suite-A tag re-run on the connected users
        assert list(results.suite_b) == [results.best_a_tag, "N+T+E"]
        assert results.connected_users
        for res in list(results.suite_a.values()) + list(results.suite_b.values()):
            assert not hasattr(res.report, "comparison")

    def test_experiment_counts_real_training_rows(self, small_run):
        dataset, _, _, _, views = small_run
        labels = dataset.labels()
        # half the Retail users, so SMOTE has rows to add
        retail = sorted(u for u, lbl in labels.items() if lbl is ClassLabel.RETAIL)
        users = sorted(set(labels) - set(retail[::2]))
        res = pipeline.run_experiment(
            compose.build_cme(views, "T+D"), labels, users,
            classifier_config=ClassifierConfig(epochs=50),
        )
        train, test = stratified_split([labels[u] for u in users], ratio=pipeline.SPLIT_RATIO)
        per_class = Counter(labels[users[i]] for i in train)
        assert res.n_train + res.n_test == len(users)
        assert (res.n_train, res.n_test) == (len(train), len(test))
        assert res.synthetic == len(per_class) * max(per_class.values()) - len(train) > 0

    def test_result_records_the_fit_s_final_loss(self, small_run, monkeypatch):
        dataset, _, _, _, views = small_run
        models = []
        train = classify.train_classifier

        def recording(*args, **kwargs):
            models.append(train(*args, **kwargs))
            return models[-1]

        monkeypatch.setattr(classify, "train_classifier", recording)
        labels = dataset.labels()
        res = pipeline.run_experiment(
            compose.build_cme(views, "T+D"), labels, sorted(labels),
            classifier_config=ClassifierConfig(epochs=50),
        )
        [model] = models
        assert res.final_loss == model.loss_history[-1]
        assert res.epochs == len(model.loss_history) - 1

    @staticmethod
    def _scored(small_run, monkeypatch, suite_b_tags):
        """(the composition of each experiment, the results) of suite A T+D and the given suite B."""
        dataset, _, _, _, views = small_run
        scored = []
        run_experiment = pipeline.run_experiment

        def counting(view, *args, **kwargs):
            scored.append(view.name)
            return run_experiment(view, *args, **kwargs)

        monkeypatch.setattr(pipeline, "run_experiment", counting)
        results = pipeline.run_suites(
            partial(compose.build_cme, views), dataset, suite_a_tags=("T+D",), suite_b_tags=suite_b_tags,
            classifier_config=ClassifierConfig(epochs=50),
        )
        assert results.best_a_tag == "T+D"
        return scored, results

    def test_suite_b_tag_that_is_the_baseline_is_scored_once(self, small_run, monkeypatch):
        scored, results = self._scored(small_run, monkeypatch, ("T+D", "T+E"))
        assert scored == ["T+D", "T+D", "T+E"]
        assert list(results.suite_b) == ["T+D", "T+E"]

    def test_suite_b_tag_spelling_the_baseline_is_scored_once(self, small_run, monkeypatch):
        # Description+Tweet used to be fitted beside T+D on the same users and reported +0.0000 against it
        scored, results = self._scored(small_run, monkeypatch, ("Description+Tweet", "T+E"))
        assert scored == ["T+D", "T+D", "T+E"]
        assert list(results.suite_b) == ["T+D", "T+E"]

    @pytest.mark.parametrize("split_ratio, retail_tested", [(0.8, 0), (0.5, 1)])
    def test_class_with_one_connected_user_is_scored(self, one_retail_source, split_ratio, retail_tested):
        # SMOTE used to refuse the lone training row (0.8), and evaluate the class the model never saw (0.5)
        dataset, views = one_retail_source
        results = pipeline.run_suites(
            partial(compose.build_cme, views), dataset, suite_a_tags=("T+D",), suite_b_tags=("N+T+E",),
            split_ratio=split_ratio, classifier_config=ClassifierConfig(epochs=50),
        )
        labels = dataset.labels()
        assert [labels[u] for u in results.connected_users].count(ClassLabel.RETAIL) == 1
        assert list(results.suite_b) == ["T+D", "N+T+E"]
        for res in results.suite_b.values():
            assert res.report.classes == list(ClassLabel)
            assert res.report.support[ClassLabel.RETAIL] == retail_tested
            flag = "never predicted" if retail_tested else "zero support"
            assert f"class RETAIL: {flag}" in " ".join(res.report.flags)
        assert list(results.suite_a) == ["T+D"] and results.suite_a["T+D"].report.classes == list(ClassLabel)

    def test_class_left_out_of_the_test_fold_does_not_cap_macro_f1(self, one_retail_source):
        # with its lone connected user in the training fold, RETAIL used to hold macro-F1 at 2/3
        dataset, views = one_retail_source
        results = pipeline.run_suites(
            partial(compose.build_cme, views), dataset, suite_a_tags=("T+E",), suite_b_tags=("N+T+E",),
            split_ratio=0.8, classifier_config=ClassifierConfig(epochs=50),
        )
        report = results.suite_b["T+E"].report
        assert (report.accuracy, report.macro_f1) == (1.0, 1.0)
        assert report.flags == ["class RETAIL: zero support; recall reported as 0; left out of the macro averages"]

    def test_unbuilt_tag_rejected(self, small_run):
        # the builder names what it cannot build; here no Network view was built
        dataset, _, _, _, views = small_run
        with pytest.raises(compose.CompositionError, match=r"'N\+T\+E' needs views \['Network'\]"):
            pipeline.run_suites(
                partial(compose.build_cme, views), dataset, suite_a_tags=("T+D", "N+T+E"), suite_b_tags=(),
                classifier_config=ClassifierConfig(epochs=50),
            )

    def test_empty_suite_a_rejected(self, small_run):
        # the best suite-A tag is suite B's baseline; with none, max() used to raise ValueError
        dataset, _, _, _, views = small_run
        with pytest.raises(compose.CompositionError, match="suite A"):
            pipeline.run_suites(partial(compose.build_cme, views), dataset, suite_a_tags=(), suite_b_tags=("T+D",))
