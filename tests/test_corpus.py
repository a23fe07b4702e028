import json
import re
from functools import partial

import pytest

from cme.corpus import (
    ClassLabel,
    InteractionKind,
    InteractionRecord,
    ParseError,
    TweetRecord,
    UserRecord,
    ValidationError,
    assemble_dataset,
    load_dataset,
    load_interactions,
    load_labels,
    load_tweets,
    load_users,
    save_dataset,
)
from cme.emoji import load_emoji_lexicon
from cme.imagetags import load_image_tags
from cme.preprocess import load_lemma_table, load_stopwords
from cme.wemodel import load_text_model


def _write(path, lines):
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    return path


# each input file with one malformed line, and that line's number
MALFORMED_INPUTS = {
    "users": (load_users, "users.jsonl", ['{"user_id": "u0"}', "{broken"], 2),
    "tweets": (
        load_tweets,
        "tweets.jsonl",
        ['{"tweet_id": "t0", "author_id": "u0"}', '{"tweet_id": "t1", "raw_text": "hi"}'],
        2,
    ),
    # ids are written one per line (.words) and tab-separated (labels.tsv, interactions.tsv)
    "users-id-with-newline": (
        load_users, "users.jsonl", ['{"user_id": "u0"}', '{"user_id": "p0000\\nx"}'], 2
    ),
    "tweets-id-with-tab": (load_tweets, "tweets.jsonl", ['{"tweet_id": "t\\t0", "author_id": "u0"}'], 1),
    "tweets-author-with-cr": (load_tweets, "tweets.jsonl", ['{"tweet_id": "t0", "author_id": "u0\\r"}'], 1),
    # text fields reach preprocess, which needs a string; null keeps meaning "none"
    "users-description-number": (
        load_users, "users.jsonl", ['{"user_id": "u0", "name": null}', '{"user_id": "u1", "description": 123}'], 2
    ),
    "users-name-list": (load_users, "users.jsonl", ['{"user_id": "u0", "name": ["a"]}'], 1),
    "users-screen-name-bool": (load_users, "users.jsonl", ['{"user_id": "u0", "screen_name": false}'], 1),
    "users-image-ref-number": (load_users, "users.jsonl", ['{"user_id": "u0", "profile_image_ref": 7}'], 1),
    "tweets-text-object": (
        load_tweets, "tweets.jsonl",
        ['{"tweet_id": "t0", "author_id": "u0", "raw_text": null}', '{"tweet_id": "t1", "author_id": "u0", "raw_text": {}}'],
        2,
    ),
    "tweets-retweet-of-number": (
        load_tweets, "tweets.jsonl", ['{"tweet_id": "t0", "author_id": "u0", "retweet_of": 5}'], 1
    ),
    "interactions": (load_interactions, "interactions.tsv", ["u1\tu2\tmention\t1", "u1\tu2\tmention"], 2),
    "labels": (load_labels, "labels.tsv", ["u1\tP", "", "u2\tX"], 3),
    "lemmas": (load_lemma_table, "lemmas.tsv", ["# token\tlemma", "am\tbe", "were be"], 3),
    "emoji-lexicon": (load_emoji_lexicon, "senses.tsv", ["\N{HERB}\therb", "\N{FIRE}\t,"], 2),
    "image-tags": (load_image_tags, "tags.tsv", ["img1\tperson", "img2\tperson\tabc"], 2),
    "image-tags-repeated-ref": (load_image_tags, "tags.tsv", ["img1\tperson", "img1\tstore"], 2),
    "emoji-lexicon-repeated-emoji": (
        load_emoji_lexicon, "senses.tsv", ["\N{HERB}\therb", "# comment", "\N{HERB}\tleaf"], 3
    ),
    "text-model": (load_text_model, "model.txt", ["2 2", "foo 1.0 2.0", "bar 1.0 abc"], 3),
    "text-model-duplicate-word": (load_text_model, "model.txt", ["2 2", "foo 1.0 2.0", "foo 3.0 4.0"], 3),
    # the header is checked before its rows are allocated
    "text-model-more-rows-than-bytes": (load_text_model, "model.txt", ["100000000000 20", "foo" + " 1.0" * 20], 1),
    "text-model-rows-past-the-end": (load_text_model, "model.txt", ["3 2", "foo 1.0 2.0"], 1),
    "text-model-negative-count": (load_text_model, "model.txt", ["-1 2", "foo 1.0 2.0"], 1),
    "text-model-negative-width": (load_text_model, "model.txt", ["1 -2", "foo"], 1),
    "text-model-other-width": (partial(load_text_model, dimension=3), "model.txt", ["1 2", "foo 1.0 2.0"], 1),
}


@pytest.mark.parametrize("load, name, lines, line_no", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS)
def test_malformed_line_is_named_by_path_and_line(tmp_path, load, name, lines, line_no):
    path = _write(tmp_path / name, lines)
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:{line_no}: "):
        load(path)


class TestLoadUsers:
    def test_empty_file_gives_empty_list(self, tmp_path):
        path = _write(tmp_path / "users.jsonl", [])
        assert load_users(path) == []

    def test_records_returned_in_file_order(self, tmp_path):
        lines = [
            json.dumps({"user_id": f"u{i}", "name": f"User {i}", "screen_name": f"u{i}"})
            for i in range(3)
        ]
        users = load_users(_write(tmp_path / "users.jsonl", lines))
        assert [u.user_id for u in users] == ["u0", "u1", "u2"]

    def test_missing_user_id_cites_line_number(self, tmp_path):
        lines = [
            json.dumps({"user_id": "u0"}),
            json.dumps({"name": "nobody"}),
            json.dumps({"user_id": "u2"}),
        ]
        with pytest.raises(ParseError) as err:
            load_users(_write(tmp_path / "users.jsonl", lines))
        assert err.value.line_no == 2

    def test_bad_json_cites_line_number(self, tmp_path):
        with pytest.raises(ParseError) as err:
            load_users(_write(tmp_path / "users.jsonl", ['{"user_id": "a"}', "{broken"]))
        assert err.value.line_no == 2

    def test_null_text_fields_take_their_defaults(self, tmp_path):
        keys = ("name", "screen_name", "description", "profile_image_ref")
        line = json.dumps({"user_id": "u0"} | dict.fromkeys(keys))
        (user,) = load_users(_write(tmp_path / "users.jsonl", [line]))
        assert (user.name, user.screen_name, user.description, user.profile_image_ref) == ("", "", "", None)

    def test_duplicate_user_id_rejected(self, tmp_path):
        lines = [json.dumps({"user_id": "u0"}), json.dumps({"user_id": "u0"})]
        with pytest.raises(ValidationError):
            load_users(_write(tmp_path / "users.jsonl", lines))

    def test_unreadable_file_raises(self, tmp_path):
        with pytest.raises(Exception):
            load_users(tmp_path / "missing.jsonl")


class TestLoadTweets:
    def test_empty_file(self, tmp_path):
        assert load_tweets(_write(tmp_path / "tweets.jsonl", [])) == []

    def test_retweet_marker_populates_retweet_of(self, tmp_path):
        lines = [
            json.dumps({"tweet_id": "t1", "author_id": "u1", "raw_text": "hi"}),
            json.dumps(
                {"tweet_id": "t2", "author_id": "u1", "raw_text": "RT", "retweet_of": "u9"}
            ),
        ]
        tweets = load_tweets(_write(tmp_path / "tweets.jsonl", lines))
        assert tweets[0].retweet_of is None
        assert tweets[1].retweet_of == "u9"

    def test_null_text_fields_take_their_defaults(self, tmp_path):
        line = json.dumps({"tweet_id": "t1", "author_id": "u1", "raw_text": None, "retweet_of": None})
        (tweet,) = load_tweets(_write(tmp_path / "tweets.jsonl", [line]))
        assert (tweet.raw_text, tweet.retweet_of) == ("", None)

    def test_duplicate_tweet_id_rejected(self, tmp_path):
        lines = [
            json.dumps({"tweet_id": "t1", "author_id": "u1", "raw_text": "a"}),
            json.dumps({"tweet_id": "t1", "author_id": "u2", "raw_text": "b"}),
        ]
        with pytest.raises(ValidationError):
            load_tweets(_write(tmp_path / "tweets.jsonl", lines))


class TestLoadInteractionsAndLabels:
    def test_interactions_roundtrip_fields(self, tmp_path):
        path = _write(tmp_path / "x.tsv", ["u1\tu2\tmention\t3", "u2\tu1\tretweet\t1"])
        records = load_interactions(path)
        assert records[0] == InteractionRecord("u1", "u2", InteractionKind.MENTION, 3)
        assert records[1].kind is InteractionKind.RETWEET

    def test_zero_count_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_interactions(_write(tmp_path / "x.tsv", ["u1\tu2\tmention\t0"]))

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_interactions(_write(tmp_path / "x.tsv", ["u1\tu2\tfollow\t1"]))

    def test_labels_parse_codes_and_names(self, tmp_path):
        path = _write(tmp_path / "labels.tsv", ["u1\tP", "u2\tI", "u3\tR"])
        labels = load_labels(path)
        assert labels == {
            "u1": ClassLabel.PERSONAL,
            "u2": ClassLabel.INFORMED_AGENCY,
            "u3": ClassLabel.RETAIL,
        }

    def test_unknown_label_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_labels(_write(tmp_path / "labels.tsv", ["u1\tX"]))


def _three_users():
    return [UserRecord(user_id=f"u{i}", name=f"U{i}") for i in range(3)]


class TestAssemble:
    def test_one_user_per_class_counts(self):
        labels = {
            "u0": ClassLabel.PERSONAL,
            "u1": ClassLabel.INFORMED_AGENCY,
            "u2": ClassLabel.RETAIL,
        }
        ds = assemble_dataset(_three_users(), [], [], labels)
        assert ds.class_counts == {
            ClassLabel.PERSONAL: 1, ClassLabel.INFORMED_AGENCY: 1, ClassLabel.RETAIL: 1
        }

    def test_no_labels_is_valid(self):
        ds = assemble_dataset(_three_users(), [], [], {})
        assert ds.class_counts == {c: 0 for c in ClassLabel}

    def test_label_for_absent_user_rejected(self):
        with pytest.raises(ValidationError, match="x9"):
            assemble_dataset(_three_users(), [], [], {"x9": ClassLabel.PERSONAL})

    def test_grouping_preserves_tweet_multiplicity(self):
        tweets = [
            TweetRecord(f"t{i}", f"u{i % 2}", f"text {i}") for i in range(7)
        ]
        ds = assemble_dataset(_three_users(), tweets, [], {})
        # kept whole and in file order; prepare_users groups them by author
        assert ds.tweets == tweets


class TestRoundTrip:
    def test_save_then_load_yields_equal_dataset(self, tmp_path):
        users = [
            UserRecord("u0", name="Ann Smith", screen_name="ann", description="hi 🌿"),
            UserRecord("u1", name="Shop", description="deals", profile_image_ref="img://u1"),
            UserRecord("u2"),
        ]
        tweets = [
            TweetRecord("t0", "u0", "hello world"),
            TweetRecord("t1", "u0", "RT @shop: sale", retweet_of="u1"),
            TweetRecord("t2", "u1", "buy now"),
            # json.dumps leaves these two line separators unescaped; only "\n" ends a line
            TweetRecord("t3", "u2", "next\x85line\u2028sep"),
        ]
        interactions = [
            InteractionRecord("u0", "u1", InteractionKind.RETWEET, 2),
            InteractionRecord("u1", "hub_x", InteractionKind.MENTION, 1),
        ]
        labels = {"u0": ClassLabel.PERSONAL, "u1": ClassLabel.RETAIL}
        ds = assemble_dataset(users, tweets, interactions, labels)
        save_dataset(ds, tmp_path)
        reloaded = load_dataset(tmp_path)
        assert reloaded == ds

    def test_interaction_only_targets_survive(self, tmp_path):
        # targets absent from users.jsonl are retained as bare ids
        ds = assemble_dataset(
            _three_users(),
            [],
            [InteractionRecord("u0", "someone_else", InteractionKind.MENTION, 4)],
            {},
        )
        save_dataset(ds, tmp_path)
        reloaded = load_dataset(tmp_path)
        assert reloaded.interactions[0].target == "someone_else"


class TestEncoding:
    def test_byte_that_is_not_utf8_names_its_line(self, tmp_path):
        # lines end at "\r\n" and a lone "\r" as well; the byte used to raise UnicodeDecodeError
        path = tmp_path / "users.jsonl"
        path.write_bytes(b'{"user_id": "u0"}\r\n{"user_id": "u1"}\r\n\n{"user_id": "caf\xe9"}\r')
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:4: byte 0xE9 is not UTF-8$"):
            load_users(path)

    def test_byte_past_the_first_read_names_its_line(self, tmp_path):
        path = _write(tmp_path / "stop.txt", ["x" * 20000] + ["word"] * 5000)
        path.write_bytes(path.read_bytes() + b"\xff\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:5002: byte 0xFF "):
            load_stopwords(path)

    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        # the mark used to stay on the first entry: "\ufeffthe" was no stopword
        def with_bom(name, lines):
            path = _write(tmp_path / name, lines)
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
            return path

        assert load_stopwords(with_bom("stop.txt", ["the", "and"])) == {"the", "and"}
        assert list(load_emoji_lexicon(with_bom("senses.tsv", ["\N{HERB}\therb"]))) == ["\N{HERB}"]
        users = with_bom("users.jsonl", ['{"user_id": "u0"}', '{"user_id": "u1"}'])
        assert [u.user_id for u in load_users(users)] == ["u0", "u1"]
