"""Emoji sense lexicon and cumulative emoji embeddings.

Each emoji maps to a small set of sense keywords; a user's emoji view is
the mean word vector over the keywords of every emoji they used, looked up
in a background embedding model. Repeated emoji weigh in repeatedly
(multiset semantics): an account spamming one emoji leans its view toward
that emoji's senses. The lexicon's line rules are in the corpus module
docstring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .corpus import ParseError, read_lines
from .preprocess import _data_path
from .wemodel import WEModel, view_embedding


@dataclass
class EmojiSenseEntry:
    emoji: str
    keywords: list[str]

    def __post_init__(self):
        if not self.keywords:
            raise ValueError(f"emoji entry {self.emoji!r} has no keywords")


def load_emoji_lexicon(path=None) -> dict[str, EmojiSenseEntry]:
    """Load emoji TAB comma-separated-keywords; further columns are ignored.

    Defaults to the small lexicon shipped with the package. A line without
    a keyword is a ParseError.
    """
    path = path or _data_path("emoji_senses.tsv")
    lexicon: dict[str, EmojiSenseEntry] = {}
    for line_no, line in read_lines(path, resource=True):
        parts = line.split("\t")
        keywords = [k.strip() for k in parts[1].split(",") if k.strip()] if len(parts) > 1 else []
        if not keywords:
            raise ParseError(path, line_no, f"expected emoji TAB keyword,keyword,..., got {line!r}")
        lexicon[parts[0]] = EmojiSenseEntry(emoji=parts[0], keywords=keywords)
    return lexicon


def lookup_senses(emoji: str, lexicon: dict[str, EmojiSenseEntry]) -> list[str]:
    """Keywords for an emoji, or [] when it is not in the lexicon."""
    entry = lexicon.get(emoji)
    if entry is None:
        return []
    return list(entry.keywords)


def emoji_embedding(
    emoji_list: Sequence[str],
    lexicon: dict[str, EmojiSenseEntry],
    background_model: WEModel,
) -> Optional[np.ndarray]:
    """Mean background vector over all keywords of all emoji in the list.

    Unknown emoji contribute nothing; out-of-vocabulary keywords are
    skipped. Returns None (empty-view sentinel) when nothing is left.
    """
    keywords: list[str] = []
    for emoji in emoji_list:
        keywords.extend(lookup_senses(emoji, lexicon))
    return view_embedding(keywords, background_model)
