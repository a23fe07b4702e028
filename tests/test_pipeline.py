from dataclasses import replace

import numpy as np
import pytest

from cme import compose, pipeline, synth
from cme.classify import ClassifierConfig, SMOTEConfig
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


class TestNetworkView:
    def test_rows_padded_to_dimension(self, small_run):
        dataset, *_ = small_run
        view, embedding = pipeline.build_network_view(dataset, 20, mode="conventional", k=5)
        present = [v for v in view.vectors.values() if v is not None]
        assert all(v.shape == (20,) for v in present)
        assert embedding.k == 5

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
            present = [v for v in view.vectors.values() if v is not None]
            assert len(present) == rows and all(v.shape == (dimension,) for v in present)
            assert all(not v[embedding.k:].any() for v in present)

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
        bare = type(dataset)(
            users=dataset.users, tweets_by_author={}, interactions=[], class_counts={}
        )
        view, embedding = pipeline.build_network_view(bare, 20)
        assert all(v is None for v in view.vectors.values())
        assert embedding.matrix.shape[0] == 0
        assert embedding.k == 0


class TestExperiments:
    def test_run_experiment_and_suites(self, small_run):
        dataset, _, _, _, views = small_run
        net_view, _ = pipeline.build_network_view(dataset, 20, mode="conventional", k=6)
        all_views = dict(views)
        all_views["Network"] = net_view
        cme_sets = {
            tag: compose.build_cme(all_views, tag) for tag in ("T+D", "T+E", "N+T+E")
        }
        results = pipeline.run_suites(
            cme_sets,
            dataset,
            suite_a_tags=("T+D", "T+E"),
            suite_b_tags=("N+T+E",),
            seed=2,
            smote_config=SMOTEConfig(seed=2),
            classifier_config=ClassifierConfig(epochs=150),
        )
        assert results.best_a_tag in ("T+D", "T+E")
        assert "N+T+E" in results.suite_b
        comparison = results.suite_b["N+T+E"].report.comparison
        assert comparison is not None and "macro_f1_delta" in comparison
        assert results.connected_users

    def test_unbuilt_tag_rejected(self, small_run):
        dataset, _, _, _, views = small_run
        cme_sets = {"T+D": compose.build_cme(views, "T+D")}
        with pytest.raises(compose.CompositionError):
            pipeline.run_suites(cme_sets, dataset, suite_a_tags=("T+D", "T+E"), suite_b_tags=())

    def test_empty_suite_a_rejected(self, small_run):
        # the best suite-A tag is suite B's baseline; with none, max() used to raise ValueError
        dataset, _, _, _, views = small_run
        cme_sets = {"T+D": compose.build_cme(views, "T+D")}
        with pytest.raises(compose.CompositionError, match="suite A"):
            pipeline.run_suites(cme_sets, dataset, suite_a_tags=(), suite_b_tags=("T+D",))
