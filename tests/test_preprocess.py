import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cme import preprocess
from cme.corpus import LabeledDataset, TweetRecord, UserRecord
from cme.pipeline import prepare_users
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


def _unguarded_extract(raw_text):
    """extract_entities with every pattern applied unconditionally."""
    text = preprocess._RT_RE.sub("", raw_text or "", count=1)
    for pattern in (
        preprocess._URL_RE, preprocess._EMAIL_RE, preprocess._WEB_RE,
        preprocess._PHONE_RE, preprocess._MENTION_RE,
    ):
        text = pattern.sub(" ", text)
    emoji = preprocess._EMOJI_RE.findall(text)
    text = preprocess._EMOJI_RE.sub(" ", text)
    return emoji, " ".join(text.split())


# each one sits on the edge of a guard or of the per-token rule
EDGE_TEXTS = [
    "Rt @x: hi there",
    "visit WWW.Example.COM now",
    "see HTTPS://x today",
    "call \u0665\u0665\u0665-\u0661\u0662\u0663-\u0664\u0665\u0666\u0667 now",
    "call +1 (555) 123-4567 now",
    "\u00a9 acme \u00ae",
    "key 1\ufe0f\u20e3 and #\u20e3 pad",
    "STRASSE stra\u00dfe \u0130stanbul istanbul Weed weed #Weed #weed",
    "sale420 4/20 2024 !! -- ... ?? 'quoted' dogs' dogs",
    "mail A.B@Example.co or me@site.org or @friend, plain",
    "\U0001F33F\U0001F1FA\U0001F1F8 leaf\u200d\U0001F33F greens",
    "",
]

# fragments that straddle the guards; joined with no separator they also merge
_FRAGMENTS = st.sampled_from([
    "RT", "Rt ", "@", "@x:", " ", "://", "HTTPS", "http", "s://x", "WWW", "www.", "Example",
    ".COM", "a@b.co", "x@y.io", "\u0665\u0665\u0665-", "\u0661\u0662\u0663-\u0664\u0665\u0666\u0667",
    "555-", "123-4567", "1", "\ufe0f", "\u20e3", "\u00a9",
    "\u200d", "\U0001F33F", "\U0001F1FA", "#", "\u00df", "\u0130", "weed", "dogs", "!!", "the",
])
EDGE_STRATEGY = st.lists(st.one_of(_FRAGMENTS, st.text(max_size=6)), max_size=14).map("".join)


class TestFastPaths:
    """The guarded and memoised paths against the per-text reference."""

    @pytest.mark.parametrize("text", EDGE_TEXTS)
    def test_guarded_extract_matches_unguarded(self, text):
        assert extract_entities(text) == _unguarded_extract(text)

    @settings(max_examples=300, deadline=None)
    @given(EDGE_STRATEGY)
    def test_guarded_extract_matches_unguarded_property(self, text):
        assert extract_entities(text) == _unguarded_extract(text)

    def test_guards_hold_for_every_code_point(self):
        # the claims the guards rest on: no emoji unit is ASCII-only, and only w/W match w
        assert preprocess._EMOJI_RE.search("".join(map(chr, range(128)))) is None
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert set(re.findall("w", every, re.IGNORECASE)) == {"w", "W"}

    @staticmethod
    def _check_prepared(texts):
        stop, table = load_stopwords(), load_lemma_table()
        # two users share every text, so the memo is hit as well as filled; tweet ids
        # ascend in list order, the order prepare_users takes each author's tweets in
        users = [UserRecord(f"u{i}", description=texts[i % len(texts)]) for i in range(2)]
        tweets = [TweetRecord(f"{u.user_id}t{j:03d}", u.user_id, t) for u in users for j, t in enumerate(texts)]
        dataset = LabeledDataset(users=users, tweets=tweets, interactions=[])
        prepared = prepare_users(dataset, stop, table)

        def reference(text):
            emoji, residual = _unguarded_extract(text)
            return emoji, lemmatize(clean_tokens(residual, stop), table)

        for user in users:
            rec = prepared[user.user_id]
            assert (rec.desc_emoji, rec.desc_tokens) == reference(user.description)
            per_tweet = [reference(t) for t in texts]
            assert rec.tweet_sentences == [tokens for _, tokens in per_tweet if tokens]
            assert rec.tweet_tokens == [tok for _, tokens in per_tweet for tok in tokens]
            assert rec.tweet_emoji == [e for emoji, _ in per_tweet for e in emoji]

    def test_token_cleaner_cleans_each_distinct_token_once(self, monkeypatch):
        stop, table = load_stopwords(), load_lemma_table()
        # more distinct tokens than a bounded cache's default 128 keeps, each seen again
        words = " ".join(f"word{chr(97 + i // 26)}{chr(97 + i % 26)}" for i in range(300))
        texts = [words, words.upper(), "The the Grows grows, GROWS, " + words]
        expected = [lemmatize(clean_tokens(text, stop), table) for text in texts]
        calls = []
        clean_token = preprocess._clean_token
        monkeypatch.setattr(preprocess, "_clean_token", lambda raw, s: calls.append(raw) or clean_token(raw, s))
        clean = preprocess.token_cleaner(stop, table)
        assert [clean(text) for text in texts] == expected
        assert sorted(calls) == sorted({raw for text in texts for raw in text.casefold().split()})

    def test_prepare_users_matches_per_text_reference(self):
        self._check_prepared(EDGE_TEXTS)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(EDGE_STRATEGY, min_size=1, max_size=6))
    def test_prepare_users_matches_per_text_reference_property(self, texts):
        self._check_prepared(texts)
