import hashlib
import json
import math
import os
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ecomforge import ingest
from ecomforge.core import Action, ForgeError, ProductRecord
from ecomforge.ingest import (
    build_record,
    canonical_json,
    filter_by_action,
    load_interactions,
    read_rows,
    string_field,
    sample,
    split_generic,
    write_atomic,
    write_rows,
)

from oracles import oracle_read_rows

# Characters at which str.splitlines breaks a line but JSONL does not;
# canonical_json writes them raw inside strings.
SEPARATORS = ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]

# Lines no reader can parse, with the start of the reason each one gets.
UNPARSEABLE_ROWS = [
    pytest.param(
        b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
        id="not-utf8",
    ),
    pytest.param(b"not json", "Expecting value: line 1 column 1 (char 0)", id="not-json"),
    pytest.param(
        b"[" * 200_000 + b"]" * 200_000, "maximum recursion depth exceeded",
        id="nested-200000-deep",
    ),
    pytest.param(b'["rec-001"]', "row is not a JSON object", id="not-an-object"),
]
UNPARSEABLE = pytest.mark.parametrize("raw, reason", UNPARSEABLE_ROWS)


def _line(i, action="click", taxonomy="shoes", **extra):
    obj = {
        "id": f"rec-{i:03d}",
        "title": f"title number {i}",
        "description": f"description {i}",
        "taxonomy": taxonomy,
        "query": f"query {i}",
        "action": action,
    }
    obj.update(extra)
    return json.dumps(obj)


# Rows that are JSON objects but that ``_parse_id`` rejects, one per error
# type a parser may raise, with the reason each one gets.
PARSE_FAULT_ROWS = [
    pytest.param(b'{"title": "x"}', "row has no 'id' key", id="parse-key-error"),
    pytest.param(b'{"id": 7}', "'id' must be a string, got 7", id="parse-type-error"),
    pytest.param(b'{"id": ""}', "empty id", id="parse-value-error"),
]

# Lines that are no bad row: a blank line is skipped unreported, and a string
# holding U+2028 stays one row.
CLEAN_ROWS = [
    pytest.param(b" \t ", None, id="blank"),
    pytest.param(
        canonical_json(json.loads(_line(1, id="rec-001\u2028x"))).encode(), None,
        id="u2028-in-a-string",
    ),
]


_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(alphabet=st.sampled_from("ab \u2028\x85\"\\"), max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)
_OBJECTS = st.dictionaries(
    st.sampled_from(["id", "t", "\u2028", "\x85"]), _JSON_VALUES, max_size=3
)
_PADS = st.sampled_from([b"", b" ", b"\t", b"\xef\xbb\xbf", "\u00a0".encode(), b"\x1c", b"x"])


@st.composite
def _jsonl_line(draw):
    """A line near what a JSONL writer makes: an object, canonical or spaced,
    maybe padded or cut short, or a line from the fixed cases, or raw bytes."""
    obj = draw(_OBJECTS)
    text = canonical_json(obj) if draw(st.booleans()) else json.dumps(obj)
    line = text.encode()
    shape = draw(st.sampled_from(["whole", "padded", "cut", "fixed", "bytes"]))
    if shape == "padded":
        line = draw(_PADS) + line + draw(_PADS)
    elif shape == "cut":
        line = line[: draw(st.integers(0, len(line)))]
    elif shape == "fixed":
        line = draw(st.sampled_from([v for v in ORACLE_LINES.values() if len(v) < 1000]))
    elif shape == "bytes":
        line = draw(st.binary(max_size=12))
    return line


_JSONL_LINES = _jsonl_line()


def _parse_id(obj):
    row_id = string_field(obj, "id")
    if not row_id:
        raise ValueError("empty id")
    return row_id


def _around_good_rows(tmp_path, raw):
    """A rows file whose line 2 is ``raw``, between two good records."""
    p = tmp_path / "rows.jsonl"
    p.write_bytes(b"\n".join([_line(0).encode(), raw, _line(2).encode()]) + b"\n")
    return p


def _record(i, action=Action.CLICK):
    return ProductRecord(
        id=f"rec-{i:03d}", title=f"title {i}", taxonomy="shoes", action=action
    )


class TestLoadInteractions:
    def test_single_good_line(self, tmp_path):
        p = tmp_path / "data.jsonl"
        p.write_text(_line(0) + "\n", encoding="utf-8")
        records, diags = load_interactions(p)
        assert len(records) == 1 and not diags
        assert records[0].id == "rec-000"
        assert records[0].action is Action.CLICK

    def test_bad_action_collected(self, tmp_path):
        p = tmp_path / "data.jsonl"
        p.write_text(_line(0) + "\n" + _line(1, action="browse") + "\n", encoding="utf-8")
        records, diags = load_interactions(p)
        assert [r.id for r in records] == ["rec-000"]
        assert len(diags) == 1 and diags[0].line == 2
        assert "browse" in diags[0].reason

    @pytest.mark.parametrize(
        "fields, reason",
        [
            ({"id": ""}, "missing or empty id"),
            ({"title": "\U0001f6cd \u2728\U0001f381"}, "empty title after cleaning"),
            ({"title": "\U0001f6cd\ufe0f"}, "empty title after cleaning"),
            ({"title": ["Boho", "bag"]},
             "'title' must be a string or null, got [\"Boho\", \"bag\"]"),
            ({"title": 7}, "'title' must be a string or null, got 7"),
            ({"description": {"text": "soft"}},
             "'description' must be a string or null, got {\"text\": \"soft\"}"),
            ({"query": False}, "'query' must be a string or null, got false"),
            ({"action": ["click"]}, "invalid action ['click']"),
            ({"taxonomy": 5}, "'taxonomy' must be a string or null, got 5"),
        ],
        ids=["empty-id", "emoji-only-title", "emoji-variation-selector-title",
             "list-title", "int-title", "object-description", "bool-query", "list-action",
             "int-taxonomy"],
    )
    def test_bad_line_gets_its_diagnostic(self, tmp_path, fields, reason):
        p = tmp_path / "data.jsonl"
        p.write_text(_line(0) + "\n" + _line(1, **fields) + "\n", encoding="utf-8")
        records, diags = load_interactions(p)
        assert [r.id for r in records] == ["rec-000"]
        assert [(d.line, d.reason) for d in diags] == [(2, reason)]

    @UNPARSEABLE
    def test_unparseable_line_gets_its_diagnostic(self, tmp_path, raw, reason):
        p = tmp_path / "data.jsonl"
        p.write_bytes(b"\n".join([_line(0).encode(), raw, _line(2).encode()]) + b"\n")
        records, diags = load_interactions(p)
        assert [r.id for r in records] == ["rec-000", "rec-002"]
        assert [d.line for d in diags] == [2] and diags[0].reason.startswith(reason)
        skipped = []
        read_rows(p, dict, lambda *pair: skipped.append(pair))
        assert [(d.line, d.reason) for d in diags] == skipped

    def test_only_newlines_end_a_line(self, tmp_path):
        lines = [
            canonical_json(json.loads(_line(i, id=f"rec-{i:03d}{sep}x")))
            for i, sep in enumerate(SEPARATORS)
        ]
        p = tmp_path / "data.jsonl"
        text = "\n".join(lines[:3]) + "\r\n" + "\r".join(lines[3:]) + "\nnot json\n"
        p.write_bytes(text.encode())
        records, diags = load_interactions(p)
        assert [r.id for r in records] == [f"rec-{i:03d}{sep}x" for i, sep in enumerate(SEPARATORS)]
        assert [d.line for d in diags] == [len(SEPARATORS) + 1]

    def test_three_line_fixture_hand_parsed(self, tmp_path):
        # Hand parse: line 2 has an invalid taxonomy, lines 1 and 3 are good.
        p = tmp_path / "data.jsonl"
        p.write_text(
            "\n".join([_line(0), _line(1, taxonomy="gadgets"), _line(2)]) + "\n",
            encoding="utf-8",
        )
        records, diags = load_interactions(p)
        assert [r.id for r in records] == ["rec-000", "rec-002"]
        assert [d.line for d in diags] == [2]

    def test_sidecar_written(self, tmp_path):
        p = tmp_path / "data.jsonl"
        p.write_text(_line(0) + "\n" + "not json\n", encoding="utf-8")
        _, diags = load_interactions(p)
        assert [d.line for d in diags] == [2] and diags[0].reason
        assert [f.name for f in tmp_path.iterdir()] == ["data.jsonl"]

    def test_text_fields_cleaned(self, tmp_path):
        p = tmp_path / "data.jsonl"
        obj = json.loads(_line(0))
        obj["title"] = "salt  lamp \U0001F525"
        obj["query"] = "lamp​glow"
        p.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        records, _ = load_interactions(p)
        assert records[0].title == "salt lamp"
        assert build_record(records[0]).query == "lamp glow"

    def test_missing_optional_fields(self, tmp_path):
        p = tmp_path / "data.jsonl"
        obj = json.loads(_line(0))
        obj["description"] = None
        del obj["query"]
        p.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        records, diags = load_interactions(p)
        assert not diags
        record = build_record(records[0])
        assert record.description is None and record.query is None

    def test_all_lines_bad_is_fatal(self, tmp_path):
        p = tmp_path / "data.jsonl"
        p.write_text("nope\nstill nope\n", encoding="utf-8")
        with pytest.raises(ForgeError, match="all 2 lines"):
            load_interactions(p)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ForgeError, match="cannot read"):
            load_interactions(tmp_path / "missing.jsonl")

    def test_ordering_preserved(self, tmp_path):
        p = tmp_path / "data.jsonl"
        p.write_text("\n".join(_line(i) for i in range(20)) + "\n", encoding="utf-8")
        records, _ = load_interactions(p)
        assert [r.id for r in records] == [f"rec-{i:03d}" for i in range(20)]


class TestReadRows:
    def test_separators_inside_strings_round_trip(self, tmp_path):
        rows = [{"id": f"r{i}{sep}x", "text": f"a{sep}b"} for i, sep in enumerate(SEPARATORS)]
        p = tmp_path / "rows.jsonl"
        write_rows(p, rows)
        assert read_rows(p, dict) == rows

    @UNPARSEABLE
    def test_unparseable_row_names_path_and_line(self, tmp_path, raw, reason):
        p = tmp_path / "rows.jsonl"
        p.write_bytes(b'{"id": "a"}\n' + raw + b"\n")
        with pytest.raises(ForgeError) as info:
            read_rows(p, dict)
        assert str(info.value).startswith(f"{p}:2: {reason}")

    @pytest.mark.parametrize("raw, reason", [*UNPARSEABLE_ROWS, *PARSE_FAULT_ROWS, *CLEAN_ROWS])
    def test_refusing_and_skipping_give_the_same_reason(self, tmp_path, raw, reason):
        p = _around_good_rows(tmp_path, raw)
        skipped = []
        rows = read_rows(p, _parse_id, lambda *pair: skipped.append(pair))
        if reason is None:
            assert skipped == [] and read_rows(p, _parse_id) == rows
            assert rows == [json.loads(line)["id"] for line in p.read_bytes().split(b"\n")
                            if line.strip()]
            return
        with pytest.raises(ForgeError) as info:
            read_rows(p, _parse_id)
        assert skipped == [(2, str(info.value).removeprefix(f"{p}:2: "))]
        assert skipped[0][1].startswith(reason)
        assert rows == ["rec-000", "rec-002"]


def _parse_any(obj):
    """Every object is a row, save one whose "id" ``_parse_id`` refuses."""
    if "id" in obj:
        _parse_id(obj)
    return obj


def _assert_read_as_the_oracle_reads(path, data, parse):
    """``read_rows`` on ``data`` gives the oracle's rows and skips, and
    without ``skip`` refuses the file at the oracle's first bad line."""
    path.write_bytes(data)
    rows, bad = oracle_read_rows(data, parse)
    skipped = []
    assert read_rows(path, parse, lambda *pair: skipped.append(pair)) == rows
    assert skipped == bad
    if not bad:
        assert read_rows(path, parse) == rows
        return
    with pytest.raises(ForgeError) as info:
        read_rows(path, parse)
    assert str(info.value) == f"{path}:{bad[0][0]}: {bad[0][1]}"


LINE_ENDS = [b"\n", b"\r\n", b"\r"]
DEEP = b"[" * 200_000 + b"]" * 200_000

# One line each: the C scanner's fast path must keep what it reads whole and
# leave every other line, read or refused, to json.loads.
ORACLE_LINES = {
    "canonical": canonical_json({"id": "a", "n": [1, 2.5, None], "t": "x"}).encode(),
    "spaced-json": b'{"id": "a", "n": {"m": true}}',
    "space-padded": b'  {"id": "a"}  ',
    "tab-padded": b'\t{"id": "a"}\t',
    "trailing-space": b'{"id": "a"} ',
    "bom": b'\xef\xbb\xbf{"id": "a"}',
    "two-objects-spaced": b"{} {}",
    "two-objects-comma": b"{},{}",
    "object-then-junk": b'{"id": "a"}x',
    "truncated": b'{"id": "a", "n": [1',
    "missing-value": b'{"id":}',
    "empty-object": b"{}",
    "non-object-list": b'["a"]',
    "non-object-string": b'"a"',
    "non-object-number": b"7",
    "deep-object": b'{"a":' + DEEP + b"}",
    "deep-list": DEEP,
    "invalid-utf8": b'{"id": "\xff"}',
    "u2028-and-u0085-in-strings": '{"id": "a\u2028b", "t": "c\x85d"}'.encode(),
    "key-order-and-huge-float": b'{"z": 1, "a": -0.0, "m": 1e400}',
    "parse-key-error": b'{"title": "x"}',
    "parse-type-error": b'{"id": 7}',
    "parse-value-error": b'{"id": ""}',
    "empty": b"",
    "ascii-whitespace": b" \t \x0b\x0c",
    "file-separator": b"\x1c",
    "nbsp": "\u00a0".encode(),
    "u2028-only": "\u2028".encode(),
}


class TestReadRowsOracle:
    @pytest.mark.parametrize("end", LINE_ENDS, ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("raw", list(ORACLE_LINES.values()), ids=list(ORACLE_LINES))
    def test_line_between_good_rows(self, tmp_path, raw, end):
        data = end.join([_line(0).encode(), raw, _line(2).encode(), b""])
        _assert_read_as_the_oracle_reads(tmp_path / "rows.jsonl", data, _parse_any)

    def test_every_line_in_one_file(self, tmp_path):
        data = b"\r\n".join(ORACLE_LINES.values())
        _assert_read_as_the_oracle_reads(tmp_path / "rows.jsonl", data, _parse_any)

    @settings(
        derandomize=True,
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.lists(st.tuples(_JSONL_LINES, st.sampled_from(LINE_ENDS)), max_size=8))
    def test_matches_the_per_line_oracle(self, tmp_path, lines):
        data = b"".join(line + end for line, end in lines)
        _assert_read_as_the_oracle_reads(tmp_path / "rows.jsonl", data, _parse_any)


# Bytes that end lines, open objects, and split a code point or a \r\n when
# a chunk ends between them.
_LINE_BYTES = st.lists(
    st.sampled_from([b"a", b"{", b"}", b"\r", b"\n", "\u00e9".encode(), b"\xff"]), max_size=40
).map(b"".join)


class TestChunkedRead:
    @settings(
        derandomize=True,
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(_LINE_BYTES, st.integers(1, 8))
    def test_lines_are_those_of_the_whole_file(self, tmp_path, data, chunk):
        p = tmp_path / "rows.jsonl"
        p.write_bytes(data)
        with mock.patch.object(ingest, "CHUNK", chunk):
            assert list(ingest._lines(p)) == list(enumerate(p.read_bytes().splitlines(), 1))

    def test_crlf_across_a_chunk_boundary(self, tmp_path):
        # Each chunk ends between a \r and its \n: a reader that ends the
        # line at the \r reads an extra blank line and shifts every number.
        first = _line(0).encode() + b"\r"
        data = first + b"\nnot json\r\n" + _line(2).encode() + b"\r\n"
        path = tmp_path / "rows.jsonl"
        with mock.patch.object(ingest, "CHUNK", len(first)):
            _assert_read_as_the_oracle_reads(path, data, _parse_any)
            with pytest.raises(ForgeError, match=r":2: Expecting value"):
                read_rows(path, _parse_any)

    def test_the_file_is_never_read_whole(self, tmp_path, monkeypatch):
        p = tmp_path / "rows.jsonl"
        write_rows(p, [{"id": f"r{i}"} for i in range(3 * ingest.CHUNK // 10)])

        def read_bytes(self):
            raise AssertionError(f"{self} read whole")

        monkeypatch.setattr(Path, "read_bytes", read_bytes)
        assert len(read_rows(p, dict)) == 3 * ingest.CHUNK // 10


class _Interrupted(Exception):
    pass


class TestChunkedWrite:
    def test_rows_that_raise_leave_the_previous_file(self, tmp_path):
        p = tmp_path / "rows.jsonl"
        write_rows(p, [{"id": "old"}])
        before = p.read_bytes()

        def rows():
            # Enough rows for several blocks to reach the temp file first.
            for i in range(3 * ingest.CHUNK // 10):
                yield {"id": f"r{i}"}
            raise _Interrupted

        with pytest.raises(_Interrupted):
            write_rows(p, rows())
        assert p.read_bytes() == before
        assert [q.name for q in tmp_path.iterdir()] == ["rows.jsonl"]

    @pytest.mark.parametrize("n", [0, 1, 5000])
    def test_returns_the_sha256_of_the_file(self, tmp_path, n):
        p = tmp_path / "rows.jsonl"
        digest = write_rows(p, [{"id": f"r{i}", "t": "\u00e9" * (i % 7)} for i in range(n)])
        assert digest == hashlib.sha256(p.read_bytes()).hexdigest()

    def test_no_block_passes_the_block_size_by_more_than_a_row(self, tmp_path, monkeypatch):
        rows = [{"id": f"r{i}", "t": "\u00e9x" * (i % 300)} for i in range(2000)]
        longest = max(len(canonical_json(row).encode()) + 1 for row in rows)
        blocks, write = [], ingest.write_atomic

        def recording_write(path, data):
            blocks.extend(data)
            write(path, blocks)

        monkeypatch.setattr(ingest, "write_atomic", recording_write)
        p = tmp_path / "rows.jsonl"
        write_rows(p, rows)
        assert len(blocks) > 2
        assert max(map(len, blocks)) < ingest._WRITE_BLOCK + longest
        assert b"".join(blocks) == p.read_bytes()
        assert read_rows(p, dict) == rows


class TestFilterByAction:
    def test_drops_no_action(self):
        records = [
            _record(0, Action.CLICK),
            _record(1, Action.NO_ACTION),
            _record(2, Action.PURCHASE),
        ]
        assert [r.id for r in filter_by_action(records)] == ["rec-000", "rec-002"]

    def test_all_no_action(self):
        records = [_record(i, Action.NO_ACTION) for i in range(3)]
        assert filter_by_action(records) == []

    def test_predicate_scan_oracle(self):
        actions = list(Action)
        records = [_record(i, actions[i % 4]) for i in range(100)]
        expected = [r for r in records if r.action != Action.NO_ACTION]
        assert filter_by_action(records) == expected

    @given(st.lists(st.sampled_from(list(Action)), max_size=40))
    def test_idempotent_and_shrinking(self, actions):
        records = [_record(i, a) for i, a in enumerate(actions)]
        once = filter_by_action(records)
        assert filter_by_action(once) == once
        assert len(once) <= len(records)


def _split(records, ratio, seed):
    return split_generic(records, ratio, seed, lambda r: r.id)


class TestSplit:
    def test_sizes(self):
        records = [_record(i) for i in range(10)]
        train, test = _split(records, ratio=0.8, seed=0)
        assert len(train) == 8 and len(test) == 2

    def test_deterministic(self):
        records = [_record(i) for i in range(25)]
        a = _split(records, 0.8, seed=7)
        b = _split(records, 0.8, seed=7)
        assert [r.id for r in a[0]] == [r.id for r in b[0]]
        assert [r.id for r in a[1]] == [r.id for r in b[1]]

    def test_reference_shuffle_oracle(self):
        # Independent re-derivation of the hash ordering.
        records = [_record(i) for i in range(50)]
        s1 = _split(records, 0.8, seed=1)
        s2 = _split(records, 0.8, seed=2)
        assert [r.id for r in s1[0]] != [r.id for r in s2[0]]
        assert len(s1[0]) == len(s2[0]) == 40
        for seed, (train, test) in ((1, s1), (2, s2)):
            ordered = sorted(
                records,
                key=lambda r: hashlib.sha256(f"{seed}|{r.id}".encode()).hexdigest(),
            )
            assert train == ordered[:40]
            assert test == ordered[40:]

    def test_empty_input(self):
        with pytest.raises(ForgeError, match="^input: no rows to split$"):
            _split([], 0.5, seed=0)

    def test_bad_ratio(self):
        with pytest.raises(ValueError):
            _split([_record(0)], 1.0, seed=0)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ForgeError, match="duplicate"):
            _split([_record(0), _record(0)], 0.5, seed=0)
        records = [_record(0), _record(1), _record(2), _record(1), _record(0)]
        with pytest.raises(ForgeError) as excinfo:
            split_generic(records, 0.5, 0, lambda r: r.id, "data/records.jsonl")
        assert str(excinfo.value) == (
            "data/records.jsonl: duplicate id 'rec-000'; train/test disjointness would break"
        )

    @given(st.integers(1, 60), st.floats(0.05, 0.95), st.integers(0, 1000))
    def test_partition_property(self, n, ratio, seed):
        records = [_record(i) for i in range(n)]
        train, test = _split(records, ratio, seed)
        assert len(train) + len(test) == n
        assert len(train) == math.ceil(ratio * n)
        ids = [r.id for r in train] + [r.id for r in test]
        assert len(set(ids)) == n


class TestSample:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("k", [0, 7, 30])
    def test_matches_sort_take_restore_oracle(self, seed, k):
        records = [_record(i) for i in range(30)]
        ranked = sorted(
            range(len(records)),
            key=lambda i: hashlib.sha256(f"{seed}|salt|{records[i].id}".encode()).hexdigest(),
        )
        expected = [records[i] for i in sorted(ranked[:k])]
        assert sample(records, k, seed, "salt") == expected

    def test_seed_and_salt_change_the_choice(self):
        records = [_record(i) for i in range(30)]
        chosen = {
            tuple(r.id for r in sample(records, 7, seed, salt))
            for seed, salt in ((1, "a"), (2, "a"), (1, "b"))
        }
        assert len(chosen) == 3


class TestWriteAtomic:
    def test_file_then_rename_then_directory_are_synced(self, tmp_path, monkeypatch):
        # Each fsync is listed by the inode it syncs; the temp file keeps its
        # inode through the rename.
        events, fsync, replace = [], os.fsync, os.replace

        def recording_fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            fsync(fd)

        def recording_replace(src, dst):
            events.append(("replace", dst))
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "replace", recording_replace)
        path = tmp_path / "report.json"
        write_atomic(path, b"{}\n")
        assert events == [
            ("fsync", path.stat().st_ino),
            ("replace", path),
            ("fsync", tmp_path.stat().st_ino),
        ]
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
        assert path.read_bytes() == b"{}\n"
