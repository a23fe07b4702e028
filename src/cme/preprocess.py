"""Text cleanup and emoji extraction for tweets and profile descriptions.

extract_entities removes a leading retweet marker, URLs, contact info
(e-mail, web addresses, phone numbers) and @-mentions, then pulls out the
emoji; it returns the emoji and the residual text. The residual is then
tokenized, filtered, and lemmatized.

Two reading notes that differ from naive expectations:

- "alphanumeric removal" is implemented as dropping tokens that contain a
  digit (codes, prices, handles). Dropping every alphanumeric character
  would delete the corpus.
- hashtags keep their body as a plain token by default ("#weed" -> "weed");
  pass keep_hashtag_body=False to drop them instead.

Preprocessing costs what the vocabulary costs, not what the corpus costs:

- Every whitespace token is cleaned on its own (_clean_token), so
  token_cleaner memoises the cleaned lemma, or None for a dropped token,
  per casefolded raw token. A corpus cleans each distinct token once.
  clean_tokens and lemmatize stay as the per-token reference.
- extract_entities runs a pattern only when a cheap test that every match
  needs holds on the text at that point, so a skipped pattern is one that
  could not have matched:
  - the retweet, e-mail and mention patterns each match a literal "@";
  - the URL pattern matches a literal "://";
  - the web pattern matches "www." case-insensitively, and the only code
    points that match "w" that way are "w" and "W", so "www." is in
    text.lower();
  - the phone pattern matches digits, so a search for one digit succeeds;
  - every emoji unit holds a non-ASCII code point: the lowest base in
    emoji_ranges.tsv is U+00A9, flags and attachments are above U+007F,
    and a keycap base is only taken before U+20E3, so an ASCII text has
    none.
"""

from __future__ import annotations

import re
import string
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional

_RT_RE = re.compile(r"^\s*RT\s+@(\w+):?\s*", re.IGNORECASE)
_URL_RE = re.compile(r"\bhttps?://[^\s]+", re.IGNORECASE)
_EMAIL_RE = re.compile(r"\b[A-Za-z0-9._%+-]+@[A-Za-z0-9-]+(?:\.[A-Za-z0-9-]+)+\b")
_WEB_RE = re.compile(r"\bwww\.[A-Za-z0-9-]+(?:\.[A-Za-z0-9-]+)+(?:/[^\s]*)?", re.IGNORECASE)
# North-American style numbers; deliberately narrow to avoid eating dates
_PHONE_RE = re.compile(r"(?:\+\d{1,3}[ .-]?)?(?:\(\d{3}\)\s?|\b\d{3}[ .-])\d{3}[ .-]\d{4}\b")
_MENTION_RE = re.compile(r"@(\w+)")
_DIGIT_RE = re.compile(r"\d")

# edge punctuation stripped from tokens; includes common unicode quotes/dashes
_EDGE_PUNCT = string.punctuation + "‘’“”…«»–—"

# "#weed" -> "weed" unless a caller passes keep_hashtag_body=False
KEEP_HASHTAG_BODY = True


def _data_path(name: str) -> Path:
    return Path(str(resources.files("cme").joinpath("data") / name))


def _read_word_lines(path) -> list[str]:
    words = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            words.append(line)
    return words


def load_stopwords(path=None) -> set[str]:
    """Stopword set, case-folded. Defaults to the packaged English list."""
    path = path or _data_path("stopwords.txt")
    return {w.casefold() for w in _read_word_lines(path)}


def load_lemma_table(path=None) -> dict[str, str]:
    """token TAB lemma lookup table. Defaults to the packaged table."""
    path = path or _data_path("lemmas.tsv")
    table = {}
    for line in _read_word_lines(path):
        parts = line.split("\t")
        if len(parts) == 2:
            table[parts[0].casefold()] = parts[1].casefold()
    return table


def _emoji_regex() -> re.Pattern:
    """One emoji unit: a base from emoji_ranges.tsv plus everything attached to it.

    A unit starts with a regional-indicator pair (a flag), a base code
    point, or a keycap base (#, *, 0-9) followed by an optional variation
    selector and U+20E3. Any run of variation selectors, skin tones, U+20E3
    and ZWJ-plus-base stays attached, so each emoji is one unit. The unit
    is one capturing group, so split returns the emoji between the pieces
    of text around them.
    """
    spans = []
    for line in _read_word_lines(_data_path("emoji_ranges.tsv")):
        lo, hi = line.split("\t")[:2]
        spans.append(f"\\U{int(lo, 16):08X}-\\U{int(hi, 16):08X}")
    base = f"[{''.join(spans)}]"
    flag = "[\\U0001F1E6-\\U0001F1FF]{2}"
    keycap = "[#*0-9](?=[\\uFE0E\\uFE0F]?\\u20E3)"
    attached = f"(?:[\\uFE0E\\uFE0F\\U0001F3FB-\\U0001F3FF\\u20E3]|\\u200D{base})"
    return re.compile(f"((?:{flag}|{base}|{keycap}){attached}*)")


_EMOJI_RE = _emoji_regex()


def _squash_whitespace(text: str) -> str:
    return " ".join(text.split())


def extract_entities(raw_text: str) -> tuple[list[str], str]:
    """Split raw text into its emoji and the residual text.

    The retweet marker, URLs, e-mails, web addresses, phone numbers and
    mentions are removed first, then each emoji unit. Removed spans leave
    a space so the surrounding fragments never merge into a new
    extractable pattern. Extraction is idempotent on its own residual:
    running it again finds no emoji and returns the same residual. A
    pattern whose match is impossible is skipped (see the module notes).
    """
    text = raw_text or ""
    if "@" in text:
        text = _RT_RE.sub("", text, count=1)
    if "://" in text:
        text = _URL_RE.sub(" ", text)
    if "@" in text:
        text = _EMAIL_RE.sub(" ", text)
    if "www." in text.lower():
        text = _WEB_RE.sub(" ", text)
    if _DIGIT_RE.search(text):
        text = _PHONE_RE.sub(" ", text)
    if "@" in text:
        text = _MENTION_RE.sub(" ", text)
    if text.isascii():
        return [], _squash_whitespace(text)
    # one scan: even parts are the text around the emoji, odd parts the emoji
    parts = _EMOJI_RE.split(text)
    return parts[1::2], _squash_whitespace(" ".join(parts[::2]))


def _clean_token(raw: str, stopwords: set[str], keep_hashtag_body: bool) -> Optional[str]:
    """One casefolded whitespace token, edge-stripped, or None when it is dropped."""
    if raw.startswith("#") and not keep_hashtag_body:
        return None
    tok = raw.strip(_EDGE_PUNCT)
    if not tok:
        return None
    if not any(c.isalpha() for c in tok):
        return None
    if any(c.isdigit() for c in tok):
        return None
    if tok in stopwords:
        return None
    return tok


def clean_tokens(
    residual_text: str,
    stopwords: Iterable[str],
    keep_hashtag_body: bool = KEEP_HASHTAG_BODY,
) -> list[str]:
    """Lowercase and tokenize residual text, dropping noise tokens.

    Dropped: stopwords, tokens with no letters, and tokens containing any
    digit. Edge punctuation is stripped; internal apostrophes survive.
    """
    stopset = stopwords if isinstance(stopwords, (set, frozenset)) else set(stopwords)
    tokens = []
    for raw in (residual_text or "").casefold().split():
        tok = _clean_token(raw, stopset, keep_hashtag_body)
        if tok is not None:
            tokens.append(tok)
    return tokens


def lemmatize(tokens: list[str], lemma_table: Mapping[str, str]) -> list[str]:
    """Replace each token by its lemma when the table has one."""
    return [lemma_table.get(tok, tok) for tok in tokens]


class _LemmaMemo(dict):
    """Casefolded raw token -> its lemma, or None when the token is dropped."""

    def __init__(self, stopwords: set[str], lemma_table: Mapping[str, str], keep_hashtag_body: bool):
        super().__init__()
        self.stopwords = stopwords
        self.lemma_table = lemma_table
        self.keep_hashtag_body = keep_hashtag_body

    def __missing__(self, raw: str) -> Optional[str]:
        tok = _clean_token(raw, self.stopwords, self.keep_hashtag_body)
        lemma = self[raw] = None if tok is None else self.lemma_table.get(tok, tok)
        return lemma


def token_cleaner(
    stopwords: Iterable[str],
    lemma_table: Mapping[str, str],
    keep_hashtag_body: bool = KEEP_HASHTAG_BODY,
) -> Callable[[str], list[str]]:
    """A function equal to lemmatize(clean_tokens(text, ...), lemma_table).

    It memoises each casefolded raw token's lemma (None when the token is
    dropped), so a corpus cleans each distinct token once. The memo lives
    as long as the returned function.
    """
    stopset = stopwords if isinstance(stopwords, (set, frozenset)) else set(stopwords)
    lemma = _LemmaMemo(stopset, lemma_table, keep_hashtag_body).__getitem__

    def clean(residual_text: str) -> list[str]:
        words = (residual_text or "").casefold().split()
        return [lem for lem in map(lemma, words) if lem is not None]

    return clean
