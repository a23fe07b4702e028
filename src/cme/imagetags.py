"""Profile-image tags, read from a tag file.

The ProfileImage view embeds the word tags given to each profile picture.
Those tags are an input: a resource file with one line per image, whose
line rules are in the corpus module docstring. Whatever tagging service
produced the tags ran before the pipeline, which itself stays offline.
"""

from __future__ import annotations

from .corpus import ParseError, read_lines

CONFIDENCE_THRESHOLD = 0.5


class MissingImageTagsError(Exception):
    """A user's profile_image_ref has no line in the tag file."""


def load_image_tags(path) -> dict[str, list[str]]:
    """Tags per image ref, without the tags whose confidence is below CONFIDENCE_THRESHOLD.

    A line is image_ref TAB tag,tag,... [TAB confidence,confidence,...]; one
    with no confidence column keeps all its tags. A line with fewer than two
    columns, a confidence that is not a number, confidences that do not
    align one-to-one with the tags, or a ref an earlier line gave is a
    ParseError.
    """
    tags_by_ref: dict[str, list[str]] = {}
    for line_no, line in read_lines(path, resource=True):
        parts = line.split("\t")
        if len(parts) < 2:
            raise ParseError(path, line_no, f"expected image_ref TAB tags, got {line!r}")
        if parts[0] in tags_by_ref:
            raise ParseError(path, line_no, f"duplicate image ref {parts[0]!r}")
        tags = [t.strip() for t in parts[1].split(",") if t.strip()]
        if len(parts) > 2 and parts[2].strip():
            try:
                confidences = [float(c) for c in parts[2].split(",")]
            except ValueError:
                raise ParseError(path, line_no, f"confidences must be numbers, got {parts[2]!r}") from None
            if len(confidences) != len(tags):
                raise ParseError(path, line_no, "confidences must align one-to-one with tags")
            tags = [t for t, c in zip(tags, confidences) if c >= CONFIDENCE_THRESHOLD]
        tags_by_ref[parts[0]] = tags
    return tags_by_ref
