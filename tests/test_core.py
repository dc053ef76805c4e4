import importlib
import inspect
import pkgutil
import unicodedata

import pytest
from hypothesis import example, given, settings, strategies as st

import ecomforge
from ecomforge import core
from ecomforge.core import (
    TAXONOMY,
    Action,
    ForgeError,
    ProductRecord,
    TaskKind,
    clean_text,
    is_taxonomy_label,
    normalize_label,
    tokenize,
)

from oracles import oracle_clean_text


class TestTaxonomy:
    def test_exactly_fifteen_labels(self):
        assert len(TAXONOMY) == 15
        assert len(set(TAXONOMY)) == 15

    def test_labels_canonical_form(self):
        for label in TAXONOMY:
            assert label == label.lower()
            assert "  " not in label
            assert label.strip() == label
            assert all(c.isalpha() or c == " " for c in label)

    def test_expected_members(self):
        assert "home and living" in TAXONOMY
        assert "books movies and music" in TAXONOMY
        assert not is_taxonomy_label("Home & Living")


class TestTaskMapping:
    def test_five_tasks(self):
        assert len(list(TaskKind)) == 5


class TestProductRecord:
    def test_valid_record(self):
        r = ProductRecord(id="r1", title="salt lamp", taxonomy="home and living", action=Action.CLICK)
        assert r.query is None


class TestCleanText:
    def test_removes_emoji(self):
        assert clean_text("Himalayan salt lamp \U0001F525✨") == "Himalayan salt lamp"

    def test_identity_on_clean_input(self):
        assert clean_text("plain title") == "plain title"

    def test_control_and_format_chars_act_as_separators(self):
        assert clean_text("a\x00​b   c") == "a b c"

    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("Love \u2764\ufe0f it", "Love it"),
            ("\U0001f6cd\ufe0f", ""),
            ("text\ufe0estyle", "text style"),
            ("ideograph\U000e0100variant", "ideograph variant"),
            ("cafe\u0301", "cafe\u0301"),
        ],
        ids=["vs16-after-emoji", "vs16-only", "vs15", "vs17", "acute-mark-stays"],
    )
    def test_variation_selectors_act_as_separators(self, raw, expected):
        assert clean_text(raw) == expected

    def test_category_filter_oracle(self):
        samples = [
            "tab\there",
            "new\nline",
            "emoji \U0001F60A mid",
            "modifier˂ok",  # Sk arrowhead
            "private\U000F0000use",
            "zero​width",
            "  padded  out  ",
            "© copyright-sign stays",  # So is stripped
        ]
        for raw in samples:
            assert clean_text(raw) == oracle_clean_text(raw)

    def test_every_ascii_code_point_alone_and_embedded(self):
        # ASCII text takes the bytes table, which must strip exactly what
        # the category filter strips: "^", "`", DEL and the C0 controls.
        for cp in range(128):
            c = chr(cp)
            for raw in (c, f"a{c}b", f" {c}{c} ", f"{c}x", f"x{c}", f"caf\u00e9{c}b"):
                assert clean_text(raw) == oracle_clean_text(raw), (cp, raw)

    @settings(derandomize=True, max_examples=300)
    @given(st.text(alphabet=st.characters(max_codepoint=127), max_size=120))
    def test_ascii_text_matches_the_category_filter(self, raw):
        assert clean_text(raw) == oracle_clean_text(raw)

    @settings(derandomize=True, max_examples=300)
    @given(
        st.text(
            alphabet=st.one_of(
                st.characters(max_codepoint=127),
                st.sampled_from("\u00a0\u00e9\u0085\u200b\u2028\ufe0f\U0001f6cd"),
                st.characters(),
            ),
            max_size=120,
        )
    )
    def test_mixed_text_matches_the_category_filter(self, raw):
        assert clean_text(raw) == oracle_clean_text(raw)

    @given(st.text(max_size=200))
    def test_idempotent(self, raw):
        once = clean_text(raw)
        assert clean_text(once) == once

    @given(st.text(max_size=200))
    def test_output_has_no_stripped_categories(self, raw):
        cleaned = clean_text(raw)
        strip = {"So", "Sk", "Cc", "Cf", "Co", "Cs"}
        assert not any(unicodedata.category(c) in strip for c in cleaned)
        assert "  " not in cleaned

    def test_ascii_symbols_and_del_are_stripped(self):
        # "^" and "`" are category Sk and DEL is Cc, though all three are ASCII.
        assert clean_text("a^b`c\x7fd") == "a b c d"


class TestTokenize:
    def test_basic_sentence(self):
        assert tokenize("The cat sat.") == ["the", "cat", "sat", "."]

    def test_empty(self):
        assert tokenize("") == []

    def test_internal_hyphen_kept(self):
        assert tokenize("Boho-style bag!") == ["boho-style", "bag", "!"]

    def test_leading_and_trailing_punctuation(self):
        assert tokenize('"hello,"') == ['"', "hello", ",", '"']

    def test_all_punctuation_token(self):
        assert tokenize("...") == [".", ".", "."]

    def test_reference_splitter_oracle(self):
        # Character-class reference: mark each char as punct/space/other and
        # rebuild tokens, splitting only edge punctuation runs.
        def reference(text):
            out = []
            for chunk in text.lower().split():
                chars = list(chunk)
                i, j = 0, len(chars)
                while i < j and unicodedata.category(chars[i]).startswith("P"):
                    i += 1
                while j > i and unicodedata.category(chars[j - 1]).startswith("P"):
                    j -= 1
                out.extend(chars[:i])
                if i < j:
                    out.append("".join(chars[i:j]))
                out.extend(chars[j:])
            return out

        samples = [
            "Boho-style bag!",
            "(parenthetical) remark...",
            "price: $5.99!",
            "don't stop",
            "a--b --c d--",
        ]
        for text in samples:
            assert tokenize(text) == reference(text)

    @given(st.text(max_size=150))
    def test_tokens_never_contain_whitespace(self, raw):
        for token in tokenize(clean_text(raw)):
            assert token
            assert not any(c.isspace() for c in token)


    @settings(derandomize=True, max_examples=400)
    @given(
        st.text(
            alphabet=st.one_of(st.sampled_from(" .,;!?-'\"()ΑΣσςİıI"), st.characters()),
            max_size=80,
        )
    )
    @example("Wait!!! ...what?! (yes) --")
    @example("ΟΔΟΣ ΣΑΣ. Σ ΑΣ!")
    @example("İSTANBUL İ İi")
    def test_joined_tokens_tokenize_to_themselves(self, text):
        # evalsuite embeds distinct tokens as one space-joined text, which
        # the backend tokenizes again: every token must come back unchanged.
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens

class TestNormalizeLabel:
    def test_ampersand_form(self):
        assert normalize_label("Home & Living") == "home and living"

    def test_already_canonical(self):
        assert normalize_label("jewelry") == "jewelry"

    def test_embedded_in_sentence(self):
        got = normalize_label("interested in accessories, specifically a lamp")
        assert got == "accessories"

    def test_unmapped(self):
        assert normalize_label("a url like https://example.com") is None
        assert normalize_label("") is None

    def test_longest_match_wins(self):
        assert normalize_label("electronics and accessories") == "electronics and accessories"
        assert normalize_label("I want electronics and accessories today") == (
            "electronics and accessories"
        )

    def test_exhaustive_scan_oracle(self):
        # Oracle: scan all 15 label word tuples for contiguous hits, pick the
        # longest (words, then characters).
        def oracle(text):
            cleaned = " ".join(text.lower().replace("&", " and ").split())
            words = []
            for w in cleaned.split():
                w = "".join(c for c in w if not unicodedata.category(c).startswith("P"))
                if w:
                    words.append(w)
            hits = []
            for label in TAXONOMY:
                lw = label.split()
                for i in range(len(words) - len(lw) + 1):
                    if words[i : i + len(lw)] == lw:
                        hits.append(label)
                        break
            if not hits:
                return None
            return max(hits, key=lambda l: (len(l.split()), len(l)))

        samples = [
            "The customer wants Bags & Purses.",
            "maybe toys and games or shoes",
            "category: pet supplies!",
            "Craft Supplies And Tools",
            "nothing relevant here",
            "books movies and music, definitely",
        ]
        for text in samples:
            assert normalize_label(text) == oracle(text), text

    @given(st.sampled_from(TAXONOMY))
    def test_canonical_fixpoint(self, label):
        assert normalize_label(label) == label

    @given(st.text(max_size=120))
    def test_output_valid_or_unmapped(self, raw):
        got = normalize_label(raw)
        assert got is None or is_taxonomy_label(got)


class TestEveryCodePoint:
    def test_clean_text_matches_the_category_filter(self, monkeypatch):
        # One string per plane, each on a fresh table: every code point takes
        # the table's fill path, and the module's own table keeps no entry
        # per code point once the test ends.
        for plane in range(17):
            monkeypatch.setattr(core, "_CLEAN", type(core._CLEAN)(core._CLEAN.classify))
            raw = "".join(map(chr, range(plane << 16, (plane + 1) << 16)))
            assert clean_text(raw) == oracle_clean_text(raw), f"plane {plane}"

    def test_tokenize_matches_the_reference_splitter(self):
        # Chunks of 97 consecutive code points: the edges of each chunk fall
        # on punctuation runs, letters with multi-character lowercase forms,
        # and everything between.
        def reference(text):
            out = []
            for chunk in text.lower().split():
                chars = list(chunk)
                i, j = 0, len(chars)
                while i < j and unicodedata.category(chars[i]).startswith("P"):
                    i += 1
                while j > i and unicodedata.category(chars[j - 1]).startswith("P"):
                    j -= 1
                out.extend(chars[:i])
                if i < j:
                    out.append("".join(chars[i:j]))
                out.extend(chars[j:])
            return out

        every = "".join(map(chr, range(0x110000)))
        text = " ".join(every[i : i + 97] for i in range(0, len(every), 97))
        assert tokenize(text) == reference(text)


class TestErrorType:
    def test_every_exception_class_is_a_forge_error(self):
        defined = {}
        for info in pkgutil.iter_modules(ecomforge.__path__):
            module = importlib.import_module(f"ecomforge.{info.name}")
            for name, obj in vars(module).items():
                if (
                    inspect.isclass(obj)
                    and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__
                ):
                    assert issubclass(obj, ForgeError), f"{module.__name__}.{name}"
                    defined[name] = obj
        assert sorted(defined) == ["BackendError", "ForgeError", "TransportError"]
        assert ecomforge.ForgeError is ForgeError
