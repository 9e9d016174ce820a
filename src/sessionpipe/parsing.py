"""Turn free-text model completions into taxonomy labels or binary decisions.

Parsing is total: anything that does not resolve becomes Unknown, never an
exception. Matching is case-insensitive and punctuation-insensitive.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .corpus import ActivityTaxonomy

_WORD_RE = re.compile(r"[a-z0-9]+")

_BINARY_TOKENS = {
    "yes": True,
    "present": True,
    "no": False,
    "absent": False,
}


class MatchTier(Enum):
    EXACT = "exact"
    ALIAS = "alias"
    FUZZY = "fuzzy"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class ParsedLabel:
    label: str | None  # None exactly when tier is UNKNOWN
    tier: MatchTier


def normalize(text: str) -> str:
    """Case-fold, strip punctuation, collapse whitespace."""
    return " ".join(_WORD_RE.findall(text.casefold()))


def parse_label(text: str, taxonomy: ActivityTaxonomy) -> ParsedLabel:
    """Match text against the taxonomy: exact, then alias, then fuzzy.

    Fuzzy matching finds labels as whole words in the text ("drawing" is not
    found in "withdrawing") and picks the one whose first occurrence is
    earliest; of labels found at the same position, the longer one wins
    ("toy play" over "toy"). Labels differ when normalized, so there is no tie.
    """
    norm = normalize(text)
    labels, aliases = taxonomy.match_forms

    for form, label in labels:
        if norm == form:
            return ParsedLabel(label=label, tier=MatchTier.EXACT)

    for form, target in aliases:
        if norm == form:
            return ParsedLabel(label=target, tier=MatchTier.ALIAS)

    padded = f" {norm} "
    found = [(pos, -len(form), label) for form, label in labels if (pos := padded.find(f" {form} ")) >= 0]
    if found:
        return ParsedLabel(label=min(found)[2], tier=MatchTier.FUZZY)

    return ParsedLabel(label=None, tier=MatchTier.UNKNOWN)


def parse_binary(text: str) -> bool | None:
    """Presence (True) or Absence (False) from the first standalone yes/no/present/absent
    token; None when there is none."""
    for token in _WORD_RE.findall(text.casefold()):
        if token in _BINARY_TOKENS:
            return _BINARY_TOKENS[token]
    return None
