"""The transcript grammar's tags and its one reader.

Transcripts hold one action per line, tagged <THINK>, <SEARCH>, <RECORD>,
<RANK> or <FINAL>; ``<Final>`` and ``<FINIAL>`` are read as ``<FINAL>``.
:func:`match_tag` reads one line, :func:`iter_actions` the lines of a text
as ``str.splitlines`` splits them, :func:`read_citations` the "[n]" numbers
of a <SEARCH> or <RANK> payload. A tag counts only at the start of a line,
after leading whitespace; a space after it is optional; its payload is the
rest of the line, stripped; a tag in mid-line is text.

Every other module reads the grammar through these functions. This module
needs only :mod:`re`, so the offline stub (:mod:`exsearch.stub`) can read a
transcript without loading :mod:`exsearch.trajectory`; the writer and
:func:`exsearch.trajectory.parse_transcript` live there.
"""

from __future__ import annotations

import re
from collections.abc import Iterator

THINK = "<THINK>"
SEARCH = "<SEARCH>"
RECORD = "<RECORD>"
RANK = "<RANK>"
FINAL = "<FINAL>"
FINAL_VARIANTS = (FINAL, "<Final>", "<FINIAL>")
_TAGS = (THINK, SEARCH, RECORD, RANK) + FINAL_VARIANTS

_CITATION_RE = re.compile(r"\[(\d+)\]")


def match_tag(line: str) -> tuple[str, str] | None:
    """The action on one line: its canonical tag and stripped payload, or
    None when the line is text. A tag counts only at the start of the line,
    after leading whitespace; a space after it is optional."""
    line = line.lstrip()
    for tag in _TAGS:
        if line.startswith(tag):
            return (FINAL if tag in FINAL_VARIANTS else tag), line[len(tag):].strip()
    return None


def iter_actions(text: str) -> Iterator[tuple[str, str]]:
    """The actions of ``text``, one per line that holds one, in order."""
    for line in text.splitlines():
        matched = match_tag(line)
        if matched is not None:
            yield matched


def read_citations(text: str) -> tuple[int, ...]:
    """The numbers cited as "[n]" in ``text``, in order."""
    return tuple(int(n) for n in _CITATION_RE.findall(text))
