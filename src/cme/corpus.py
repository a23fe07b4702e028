"""Data model and ingestion for users, tweets, interactions, and labels.

Every input file the pipeline reads is line-oriented UTF-8, a leading
byte-order mark dropped, and read_lines is the one function that splits
one into lines. Lines end at "\n" (or "\r\n", "\r"), are numbered from 1,
and blank lines are skipped. A bad line, or one holding a byte that is
not UTF-8, raises ParseError (a ValueError), "<path>:<line>: <reason>";
an unreadable file raises OSError, which the CLI names once. The inputs:

Corpus files (a directory; lines are taken as written, "#" is data):

- ``users.jsonl``        one JSON object per line:
                         user_id, name, screen_name, description,
                         profile_image_ref (optional)
- ``tweets.jsonl``       one JSON object per line:
                         tweet_id, author_id, raw_text, retweet_of (optional)
- ``interactions.tsv``   source TAB target TAB kind TAB count
                         (kind is "mention" or "retweet"; replies count
                         as mentions upstream of this file)
- ``labels.tsv``         user_id TAB {P|I|R}

Resource files (each line stripped; lines starting with "#" are comments):

- stopwords (preprocess.load_stopwords): one word per line
- lemmas (preprocess.load_lemma_table): token TAB lemma
- emoji ranges (packaged, read by preprocess): first TAB last hex code point
- emoji lexicon (emoji.load_emoji_lexicon): emoji TAB keyword,keyword,...
- image tags (imagetags.load_image_tags): image_ref TAB tag,tag,...
  [TAB confidence,confidence,...]

Further columns of the emoji ranges and lexicon are ignored. The external
text model (wemodel.load_text_model) is a "<vocab> <dim>" line, then one
"<word> <value> ..." line per word, with no blank or comment lines; its
own loop streams it, since background models can be large, and a bad
header, row or value, or a repeated word, is the same ParseError.

Labels live in their own file so unlabeled corpora can still be ingested
for embedding training. Interaction targets do not have to appear in
users.jsonl; they are retained as bare ids.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Iterator, Mapping, Optional


class CorpusError(Exception):
    """Base class for ingestion failures."""


class ParseError(CorpusError, ValueError):
    """A line of an input file could not be parsed; carries its path and line number."""

    def __init__(self, path, line_no: int, message: str):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


class ValidationError(CorpusError):
    """Parsed records violate a dataset invariant."""


class ClassLabel(Enum):
    """The three account types."""

    PERSONAL = "P"
    INFORMED_AGENCY = "I"
    RETAIL = "R"

    @classmethod
    def parse(cls, text: str) -> "ClassLabel":
        t = text.strip()
        for label in cls:
            if t == label.value or t.upper() == label.name:
                return label
        raise ValueError(f"unknown class label {text!r} (expected one of P, I, R)")


class InteractionKind(Enum):
    MENTION = "mention"
    RETWEET = "retweet"


@dataclass(frozen=True)
class UserRecord:
    user_id: str
    name: str = ""
    screen_name: str = ""
    description: str = ""
    profile_image_ref: Optional[str] = None
    label: Optional[ClassLabel] = None


@dataclass(frozen=True)
class TweetRecord:
    tweet_id: str
    author_id: str
    raw_text: str
    retweet_of: Optional[str] = None


@dataclass(frozen=True)
class InteractionRecord:
    source: str
    target: str
    kind: InteractionKind
    count: int


@dataclass
class LabeledDataset:
    """Immutable-after-assembly container shared by every downstream stage."""

    users: list[UserRecord]
    tweets: list[TweetRecord]
    interactions: list[InteractionRecord]

    @property
    def class_counts(self) -> dict[ClassLabel, int]:
        """Labeled users per class, in ClassLabel order, 0 for a class nobody has."""
        counts = Counter(u.label for u in self.users)
        return {label: counts[label] for label in ClassLabel}

    def labels(self) -> dict[str, ClassLabel]:
        return {u.user_id: u.label for u in self.users if u.label is not None}


def read_lines(path, resource: bool = False) -> Iterator[tuple[int, str]]:
    """(line number, line) for each non-blank line of a UTF-8 file, without its newline.

    A leading byte-order mark is dropped; a byte that is not UTF-8 is a
    ParseError at its line. A resource file also skips "#" comment lines
    and strips each line. The file is streamed, never held whole.
    """
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            # surrogateescape decodes a byte b that is not UTF-8 to U+DC00 + b
            if not line.isascii() and (bad := re.search("[\udc80-\udcff]", line)):
                raise ParseError(path, line_no, f"byte 0x{ord(bad[0]) - 0xDC00:02X} is not UTF-8")
            if resource:
                line = line.strip()
                if line and not line.startswith("#"):
                    yield line_no, line
            elif not line.isspace():
                yield line_no, line.rstrip("\n")


def _json_objects(path, id_key: str, *required: str, text: tuple[str, ...] = ()) -> Iterator[dict]:
    """Each line's JSON object; id_key and required must be non-empty strings, id_key unique.

    They are ids, which later stages write one per line (the .words files)
    or tab-separated (labels.tsv, interactions.tsv), so a tab or a line
    break in one is a ParseError here. Each key in text may be absent or
    null; any other value that is not a string is a ParseError.
    """
    seen = set()
    for line_no, line in read_lines(path):
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(path, line_no, f"invalid JSON: {exc.msg}") from exc
        if not isinstance(raw, dict):
            raise ParseError(path, line_no, "expected a JSON object")
        for key in (id_key, *required):
            value = raw.get(key)
            if not value or not isinstance(value, str):
                raise ParseError(path, line_no, f"missing or empty {key}")
            if any(ch in value for ch in "\t\n\r"):
                raise ParseError(path, line_no, f"{key} {value!r} holds a tab or line break")
        for key in text:
            if raw.get(key) is not None and not isinstance(raw[key], str):
                raise ParseError(path, line_no, f"{key} must be a string or null, got {type(raw[key]).__name__}")
        if raw[id_key] in seen:
            raise ValidationError(f"{path}:{line_no}: duplicate {id_key} {raw[id_key]!r}")
        seen.add(raw[id_key])
        yield raw


def _tsv_fields(path, width: int) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) for each line, which must hold exactly width tab-separated fields."""
    for line_no, line in read_lines(path):
        parts = line.split("\t")
        if len(parts) != width:
            raise ParseError(path, line_no, f"expected {width} tab-separated fields, got {len(parts)}")
        yield line_no, parts


def load_users(path) -> list[UserRecord]:
    """Load users.jsonl. Returns records in file order."""
    return [
        UserRecord(
            user_id=raw["user_id"],
            name=raw.get("name", "") or "",
            screen_name=raw.get("screen_name", "") or "",
            description=raw.get("description", "") or "",
            profile_image_ref=raw.get("profile_image_ref"),
        )
        for raw in _json_objects(
            path, "user_id", text=("name", "screen_name", "description", "profile_image_ref")
        )
    ]


def load_tweets(path) -> list[TweetRecord]:
    """Load tweets.jsonl. retweet_of is set when the raw record marks a retweet."""
    return [
        TweetRecord(
            tweet_id=raw["tweet_id"],
            author_id=raw["author_id"],
            raw_text=raw.get("raw_text", "") or "",
            retweet_of=raw.get("retweet_of"),
        )
        for raw in _json_objects(path, "tweet_id", "author_id", text=("raw_text", "retweet_of"))
    ]


def load_interactions(path) -> list[InteractionRecord]:
    """Load interactions.tsv (source TAB target TAB kind TAB count)."""
    records = []
    for line_no, (source, target, kind_text, count_text) in _tsv_fields(path, 4):
        if not source or not target:
            raise ParseError(path, line_no, "empty source or target user id")
        try:
            kind = InteractionKind(kind_text.strip().lower())
        except ValueError as exc:
            raise ParseError(path, line_no, f"unknown interaction kind {kind_text!r}") from exc
        try:
            count = int(count_text)
        except ValueError as exc:
            raise ParseError(path, line_no, f"count is not an integer: {count_text!r}") from exc
        if count < 1:
            raise ParseError(path, line_no, f"count must be >= 1, got {count}")
        records.append(InteractionRecord(source=source, target=target, kind=kind, count=count))
    return records


def load_labels(path) -> dict[str, ClassLabel]:
    """Load labels.tsv (user_id TAB {P|I|R})."""
    labels: dict[str, ClassLabel] = {}
    for line_no, (user_id, label_text) in _tsv_fields(path, 2):
        try:
            label = ClassLabel.parse(label_text)
        except ValueError as exc:
            raise ParseError(path, line_no, str(exc)) from exc
        if user_id in labels:
            raise ValidationError(f"{path}:{line_no}: duplicate label for user {user_id!r}")
        labels[user_id] = label
    return labels


def assemble_dataset(
    users: list[UserRecord],
    tweets: list[TweetRecord],
    interactions: list[InteractionRecord],
    labels: Mapping[str, ClassLabel],
) -> LabeledDataset:
    """Join the four record streams into one dataset.

    Labels must refer to loaded users. Tweets are kept in file order,
    including those whose author is not a listed user (they may be
    interaction-only accounts).
    """
    known = {u.user_id for u in users}
    unknown = sorted(set(labels) - known)
    if unknown:
        raise ValidationError(f"labels refer to unknown users: {', '.join(unknown[:5])}")

    labeled_users = [replace(u, label=labels.get(u.user_id)) for u in users]
    return LabeledDataset(users=labeled_users, tweets=list(tweets), interactions=list(interactions))


def load_dataset(directory) -> LabeledDataset:
    """Load the four canonical files from a directory and assemble them."""
    directory = Path(directory)
    users = load_users(directory / "users.jsonl")
    tweets = load_tweets(directory / "tweets.jsonl")
    interactions_path = directory / "interactions.tsv"
    interactions = load_interactions(interactions_path) if interactions_path.exists() else []
    labels_path = directory / "labels.tsv"
    labels = load_labels(labels_path) if labels_path.exists() else {}
    return assemble_dataset(users, tweets, interactions, labels)


def save_dataset(dataset: LabeledDataset, directory) -> None:
    """Write the dataset back out in the canonical four-file layout."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    with open(directory / "users.jsonl", "w", encoding="utf-8") as fh:
        for u in dataset.users:
            record = {
                "user_id": u.user_id,
                "name": u.name,
                "screen_name": u.screen_name,
                "description": u.description,
            }
            if u.profile_image_ref is not None:
                record["profile_image_ref"] = u.profile_image_ref
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")

    with open(directory / "tweets.jsonl", "w", encoding="utf-8") as fh:
        for t in dataset.tweets:
            record = {"tweet_id": t.tweet_id, "author_id": t.author_id, "raw_text": t.raw_text}
            if t.retweet_of is not None:
                record["retweet_of"] = t.retweet_of
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")

    with open(directory / "interactions.tsv", "w", encoding="utf-8") as fh:
        for rec in dataset.interactions:
            fh.write(f"{rec.source}\t{rec.target}\t{rec.kind.value}\t{rec.count}\n")

    with open(directory / "labels.tsv", "w", encoding="utf-8") as fh:
        for u in dataset.users:
            if u.label is not None:
                fh.write(f"{u.user_id}\t{u.label.value}\n")
