"""Profile-image tags, read from a tag file.

The ProfileImage view embeds the word tags given to each profile picture.
Those tags are an input: a tab-separated file with one line per image,
``image_ref TAB tag,tag,... [TAB confidence,confidence,...]``, where blank
lines and lines starting with ``#`` are skipped. Whatever tagging service
produced the tags ran before the pipeline, which itself stays offline.
"""

from __future__ import annotations

from pathlib import Path


class MissingImageTagsError(Exception):
    """A user's profile_image_ref has no line in the tag file."""


def load_image_tags(path, confidence_threshold: float = 0.5) -> dict[str, list[str]]:
    """Tags per image ref, without the tags whose confidence is below the threshold.

    A line with no confidence column keeps all its tags. A line with fewer
    than two columns, or whose confidences do not align one-to-one with its
    tags, is a ValueError.
    """
    tags_by_ref: dict[str, list[str]] = {}
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) < 2:
            raise ValueError(f"line {line_no}: malformed tag line {line!r}")
        tags = [t.strip() for t in parts[1].split(",") if t.strip()]
        if len(parts) > 2 and parts[2].strip():
            confidences = [float(c) for c in parts[2].split(",")]
            if len(confidences) != len(tags):
                raise ValueError(f"line {line_no}: confidences must align one-to-one with tags")
            tags = [t for t, c in zip(tags, confidences) if c >= confidence_threshold]
        tags_by_ref[parts[0]] = tags
    return tags_by_ref
