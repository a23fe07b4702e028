import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cme.preprocess import (
    clean_tokens,
    extract_entities,
    lemmatize,
    load_lemma_table,
    load_stopwords,
)


class TestExtractEntities:
    def test_retweet_url_emoji(self):
        emoji, residual = extract_entities("RT @acme: buy now https://a.b 🌿")
        assert emoji == ["🌿"]
        assert residual == "buy now"

    def test_plain_text_passes_through(self):
        emoji, residual = extract_entities("hello world")
        assert emoji == []
        assert residual == "hello world"

    def test_email_and_phone(self):
        emoji, residual = extract_entities("mail me a@b.co or call 555-123-4567")
        assert emoji == []
        assert residual == "mail me or call"

    def test_mentions_extracted_without_at(self):
        _, residual = extract_entities("hey @friend and @other_1")
        assert residual == "hey and"

    def test_web_address_in_contacts(self):
        _, residual = extract_entities("visit www.green-leaf.example/shop today")
        assert residual == "visit today"

    def test_zwj_sequence_is_one_emoji(self):
        emoji, residual = extract_entities("family 👩‍👩‍👧 time")
        assert emoji == ["👩‍👩‍👧"]
        assert residual == "family time"

    def test_skin_tone_stays_attached(self):
        emoji, _ = extract_entities("wave 👋🏽")
        assert emoji == ["👋🏽"]

    def test_flag_pair_is_one_emoji(self):
        emoji, _ = extract_entities("go 🇺🇸 go")
        assert emoji == ["🇺🇸"]

    @pytest.mark.parametrize(
        "text, emoji, residual",
        [
            ("key #\ufe0f\u20e3 pad", ["#\ufe0f\u20e3"], "key pad"),
            ("key 1\u20e3 pad", ["1\u20e3"], "key pad"),
            ("tone \U0001F3FD only", ["\U0001F3FD"], "tone only"),
            # a selector between the indicators ends the first unit: two units, no flag
            ("go \U0001F1FA\ufe0f\U0001F1F8 go", ["\U0001F1FA\ufe0f", "\U0001F1F8"], "go go"),
            # a joiner attaches only a following emoji base
            ("ok \U0001F44D\u200dx", ["\U0001F44D"], "ok \u200dx"),
            ("\u00a9 2024 acme", ["\u00a9"], "2024 acme"),
        ],
        ids=["keycap-selector", "keycap-bare", "lone-skin-tone", "split-flag", "zwj-non-emoji", "copyright"],
    )
    def test_emoji_units(self, text, emoji, residual):
        assert extract_entities(text) == (emoji, residual)

    def test_idempotent_on_residual(self):
        text = "RT @a: see https://x.y mail z@q.io call 555-123-4567 @b 🌿 plain"
        emoji, residual = extract_entities(text)
        assert emoji == ["🌿"]
        assert residual == "see mail call plain"
        assert extract_entities(residual) == ([], residual)

    @settings(max_examples=80, deadline=None)
    @given(st.text(min_size=0, max_size=120))
    def test_idempotence_property(self, text):
        _, residual = extract_entities(text)
        assert extract_entities(residual) == ([], residual)


class TestCleanTokens:
    def test_stopwords_and_punctuation_removed(self):
        assert clean_tokens("The Quick dog!!", {"the"}) == ["quick", "dog"]

    def test_empty_text(self):
        assert clean_tokens("", {"the"}) == []

    def test_tokens_with_digits_removed(self):
        # the digit-removal reading of alphanumeric cleanup
        assert clean_tokens("sale420 weed", set()) == ["weed"]

    def test_hashtag_body_kept_by_default(self):
        assert clean_tokens("#weed rocks", set()) == ["weed", "rocks"]

    def test_hashtag_dropped_when_configured(self):
        assert clean_tokens("#weed rocks", set(), keep_hashtag_body=False) == ["rocks"]

    def test_rescan_invariant(self):
        stop = load_stopwords()
        tokens = clean_tokens("The thing!! cost $50, call 555-0199 -- maybe läter", stop)
        for tok in tokens:
            assert tok not in stop
            assert not any(c.isdigit() for c in tok)
            assert any(c.isalpha() for c in tok)

    def test_punctuation_only_tokens_removed(self):
        assert clean_tokens("!! -- ... ??", set()) == []


class TestLemmatize:
    def test_table_entry_applied(self):
        assert lemmatize(["dogs"], {"dogs": "dog"}) == ["dog"]

    def test_identity_when_no_entry(self):
        assert lemmatize(["dog"], {"dogs": "dog"}) == ["dog"]

    def test_multiple_forms_to_one_lemma(self):
        assert lemmatize(["running", "ran"], {"running": "run", "ran": "run"}) == ["run", "run"]

    def test_idempotent_when_lemmas_map_to_themselves(self):
        table = {"running": "run", "run": "run"}
        once = lemmatize(["running", "run", "walk"], table)
        assert lemmatize(once, table) == once


class TestDataFiles:
    def test_default_stopwords_load(self):
        stop = load_stopwords()
        assert "the" in stop and len(stop) > 100

    def test_default_lemma_table_loads(self):
        table = load_lemma_table()
        assert table["dogs"] == "dog"
