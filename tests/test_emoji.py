import numpy as np
import pytest

from cme.emoji import EmojiSenseEntry, emoji_embedding, load_emoji_lexicon
from cme.wemodel import view_embedding


def _lexicon():
    return {
        "🌿": EmojiSenseEntry("🌿", ["herb", "plant"]),
        "😊": EmojiSenseEntry("😊", ["smile"]),
        "📰": EmojiSenseEntry("📰", ["news"]),
    }


class TestLookup:
    def test_known_emoji(self, toy_model):
        # a known emoji contributes exactly its lexicon keywords
        out = emoji_embedding(["🌿"], _lexicon(), toy_model)
        assert np.array_equal(out, view_embedding(["herb", "plant"], toy_model))

    def test_unknown_emoji_gives_empty(self, toy_model):
        # an unknown emoji among known ones contributes nothing
        out = emoji_embedding(["🚀", "😊", "🛸"], _lexicon(), toy_model)
        assert np.array_equal(out, emoji_embedding(["😊"], _lexicon(), toy_model))

    def test_entry_requires_keywords(self):
        with pytest.raises(ValueError):
            EmojiSenseEntry("🚀", [])

    def test_default_lexicon_loads(self):
        lexicon = load_emoji_lexicon()
        assert "🌿" in lexicon
        assert all(entry.keywords for entry in lexicon.values())


class TestEmbedding:
    def test_single_keyword_is_exact_vector(self, toy_model):
        out = emoji_embedding(["😊"], _lexicon(), toy_model)
        assert np.array_equal(out, toy_model.vectors[toy_model.vocabulary["smile"]])

    def test_two_keywords_average(self, toy_model):
        out = emoji_embedding(["🌿"], _lexicon(), toy_model)
        expected = (toy_model.vectors[0] + toy_model.vectors[1]) / 2
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_empty_list_gives_sentinel(self, toy_model):
        assert emoji_embedding([], _lexicon(), toy_model) is None

    def test_all_unknown_gives_sentinel(self, toy_model):
        assert emoji_embedding(["🚀", "🛸"], _lexicon(), toy_model) is None

    def test_permutation_invariant(self, toy_model):
        emojis = ["🌿", "😊", "📰", "🌿", "😊"]
        base = emoji_embedding(emojis, _lexicon(), toy_model)
        rng = np.random.default_rng(3)
        for _ in range(20):
            shuffled = list(rng.permutation(emojis))
            assert np.array_equal(emoji_embedding(shuffled, _lexicon(), toy_model), base)

    def test_multiset_doubling_keeps_mean(self, toy_model):
        emojis = ["🌿", "😊"]
        base = emoji_embedding(emojis, _lexicon(), toy_model)
        doubled = emoji_embedding(emojis * 2, _lexicon(), toy_model)
        np.testing.assert_allclose(doubled, base, atol=1e-15)

    def test_multiset_weighting_shifts_mean(self, toy_model):
        # an account spamming one emoji leans the view toward its senses
        spam = emoji_embedding(["😊"] * 9 + ["📰"], _lexicon(), toy_model)
        balanced = emoji_embedding(["😊", "📰"], _lexicon(), toy_model)
        smile = toy_model.vectors[toy_model.vocabulary["smile"]]
        assert np.linalg.norm(spam - smile) < np.linalg.norm(balanced - smile)

    def test_result_in_convex_hull(self, toy_model):
        out = emoji_embedding(["🌿", "😊"], _lexicon(), toy_model)
        # contributing vectors are unit basis rows, so hull membership means
        # nonnegative coordinates summing to 1
        assert np.all(out >= -1e-15)
        assert abs(out.sum() - 1.0) < 1e-12
