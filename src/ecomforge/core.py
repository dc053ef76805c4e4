"""Shared domain types, the product taxonomy, and text normalization.

Everything here is pure; the only state is two tables that memoize Unicode
category lookups, and a fixed ASCII copy of one of them. The rest of the
toolkit builds on these primitives, and raises ``ForgeError`` for
everything it refuses.
"""
from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from enum import Enum


class ForgeError(Exception):
    """The toolkit's one error type: an input, setting or model call it
    refuses. ``forge`` prints its message as one ``error:`` line."""


# The fixed 15-category product taxonomy. Values are canonical: lowercase,
# single internal spaces, no punctuation.
TAXONOMY: tuple[str, ...] = (
    "clothing",
    "accessories",
    "home and living",
    "weddings",
    "art and collectibles",
    "craft supplies and tools",
    "jewelry",
    "paper and party supplies",
    "toys and games",
    "electronics and accessories",
    "books movies and music",
    "bath and beauty",
    "bags and purses",
    "shoes",
    "pet supplies",
)

_TAXONOMY_SET = frozenset(TAXONOMY)

# Labels as word tuples, longest phrases first, for longest-match extraction.
_TAXONOMY_WORDS = sorted(
    ((tuple(label.split()), label) for label in TAXONOMY),
    key=lambda item: (-len(item[0]), -len(item[1])),
)


class TaskKind(str, Enum):
    """The five instruction task families."""

    ADS_GENERATION = "ads_generation"
    TITLE_REWRITING = "title_rewriting"
    PRODUCT_CLASSIFICATION = "product_classification"
    INTENT_SPECULATION = "intent_speculation"
    GENERAL_QA = "general_qa"


class Action(str, Enum):
    """Customer interaction outcome attached to a product row."""

    NO_ACTION = "no_action"
    CLICK = "click"
    CART_ADD = "cart_add"
    PURCHASE = "purchase"


@dataclass(frozen=True)
class ProductRecord:
    """One e-commerce interaction row."""

    id: str
    title: str
    taxonomy: str
    action: Action
    description: str | None = None
    query: str | None = None


def is_taxonomy_label(value: str) -> bool:
    return value in _TAXONOMY_SET


class MemoTable(dict):
    """A table that fills itself: looking up a missing key stores and returns
    ``classify(key)``, which must be a pure function of the key. It is only
    ever filled, so it needs no lock; threads racing on one key only compute
    the same value twice. It holds one entry per distinct key looked up."""

    __slots__ = ("classify",)

    def __init__(self, classify):
        super().__init__()
        self.classify = classify

    def __missing__(self, key):
        value = self[key] = self.classify(key)
        return value


# Unicode general categories stripped by clean_text: symbols (So, Sk) cover
# emoji and modifier marks, C* covers control/format/private-use/surrogates.
# In ASCII that is "^" and "`" (Sk) and DEL (Cc).
_STRIP_CATEGORIES = frozenset({"So", "Sk", "Cc", "Cf", "Co", "Cs"})


def _clean_code_point(cp: int) -> int:
    # Variation selectors (Mn) only pick an emoji's glyph: kept,
    # "\U0001f6cd\ufe0f" would clean to an invisible "\ufe0f".
    selector = 0xFE00 <= cp <= 0xFE0F or 0xE0100 <= cp <= 0xE01EF
    return 0x20 if selector or unicodedata.category(chr(cp)) in _STRIP_CATEGORIES else cp


# clean_text's str.translate table (code point -> code point), the same map
# over ASCII as a bytes.translate table, and whether a character is
# punctuation (tokenize, normalize_label).
_CLEAN = MemoTable(_clean_code_point)
_CLEAN_ASCII = bytes(map(_clean_code_point, range(128))) + bytes(range(128, 256))
_PUNCT = MemoTable(lambda ch: unicodedata.category(ch).startswith("P"))


def clean_text(raw: str) -> str:
    """Strip emoji/control/format characters and normalize whitespace.

    Characters in the stripped categories and variation selectors act as
    separators (they are replaced by a space, not deleted), so "a\\u200bb"
    becomes "a b" rather than "ab". Whitespace runs collapse to single
    spaces; the result is stripped. Idempotent.

    ASCII text, the common case, is mapped as bytes through
    ``_CLEAN_ASCII``, the code point map taken over the 128 ASCII code points
    when the module loads; any other text goes through ``_CLEAN``. Both give
    the same string.
    """
    if raw.isascii():
        return " ".join(raw.encode().translate(_CLEAN_ASCII).decode().split())
    return " ".join(raw.translate(_CLEAN).split())


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, then peel leading/trailing punctuation
    into their own tokens.

    Internal punctuation (hyphens, apostrophes) stays attached, so
    "Boho-style bag!" -> ["boho-style", "bag", "!"].
    """
    tokens: list[str] = []
    for chunk in text.lower().split():
        if not (_PUNCT[chunk[0]] or _PUNCT[chunk[-1]]):
            tokens.append(chunk)
            continue
        start, end = 0, len(chunk)
        while start < end and _PUNCT[chunk[start]]:
            start += 1
        while end > start and _PUNCT[chunk[end - 1]]:
            end -= 1
        tokens.extend(chunk[:start])
        if start < end:
            tokens.append(chunk[start:end])
        tokens.extend(chunk[end:])
    return tokens


def normalize_label(free_text: str) -> str | None:
    """Resolve a free-form model answer to a taxonomy label.

    Lowercases, maps "&" to "and", strips punctuation, and returns the
    longest taxonomy phrase occurring as a contiguous word run. Returns
    None (unmapped) when no label phrase occurs; unmapped never matches a
    gold label downstream.
    """
    cleaned = clean_text(free_text).lower().replace("&", " and ")
    words = []
    for word in cleaned.split():
        stripped = "".join([c for c in word if not _PUNCT[c]])
        if stripped:
            words.append(stripped)
    for phrase, label in _TAXONOMY_WORDS:
        n = len(phrase)
        if n > len(words):
            continue
        for i in range(len(words) - n + 1):
            if tuple(words[i : i + n]) == phrase:
                return label
    return None
