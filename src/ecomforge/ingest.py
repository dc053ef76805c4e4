"""Loading, screening, and splitting of raw interaction data, and the JSONL
row format of every artifact.

Every JSONL file is written by ``write_rows``, one canonical line per row
(sorted keys, compact separators, UTF-8, LF), and read by ``read_rows``,
which refuses the whole file at its first bad row with one path:line error.
The interaction records file (keys: id, title, description, taxonomy, query,
action) is read by the same loop and differs only in that a bad row is
skipped and listed as a diagnostic, and the load goes on. A whole-file JSON
input (config, replay rows, run manifest) is read by ``read_json``, which
refuses it with one error naming the file.

``read_rows`` has one fast path: a line that starts with ``{`` is handed
whole to the C scanner (``JSONDecoder.scan_once``), and its object is kept
only when it ends exactly where the line does. Every other line (padded,
BOM-prefixed, blank, not an object, two values long, or failing that scan)
is read by ``json.loads``, which words every error, so the fast path
changes no row and no reason.

No file is held whole. ``read_rows`` reads ``CHUNK`` bytes at a time,
``write_rows`` hands ``write_atomic`` blocks of half that and hashes them as
they go, and ``sha256_file`` hashes in ``CHUNK`` reads, so a stage holds its
rows but never a copy of the file they come from or go to. ``CHUNK`` stays
under glibc malloc's 128 KiB mmap threshold, for the reason its comment gives.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .core import Action, ForgeError, ProductRecord, clean_text, is_taxonomy_label

_ACTIONS = {a.value: a for a in Action}

# Below glibc malloc's 128 KiB mmap threshold (M_MMAP_THRESHOLD). A larger
# buffer is mmapped, and freeing it raises that threshold for the rest of
# the process, so later large allocations come from the heap and stay
# resident: 1 MiB hash reads raised teacher-http's peak RSS by about 0.6 MB.
CHUNK = 1 << 16


@dataclass(frozen=True)
class MalformedLine:
    """Per-line load diagnostic; the record is skipped, the load continues."""

    line: int
    reason: str


def _text_field(obj: dict, key: str) -> str:
    """The cleaned ``obj[key]``; empty when it is absent or null."""
    return clean_text(optional_string(obj, key) or "")


class ScreenedRow(NamedTuple):
    """An interaction row that passed every check of the screen. Title and
    taxonomy are cleaned; description and query are held as the file gives
    them (a string or None), and ``build_record`` cleans them."""

    id: str
    title: str
    taxonomy: str
    action: Action
    raw_description: str | None
    raw_query: str | None


def _screen(obj: dict) -> ScreenedRow:
    rec_id = obj.get("id")
    if not isinstance(rec_id, str) or not rec_id:
        raise ValueError("missing or empty id")
    title = _text_field(obj, "title")
    if not title:
        raise ValueError("empty title after cleaning")
    taxonomy = _text_field(obj, "taxonomy").lower()
    if not is_taxonomy_label(taxonomy):
        raise ValueError(f"invalid taxonomy {obj.get('taxonomy')!r}")
    action_raw = obj.get("action")
    if not isinstance(action_raw, str) or action_raw not in _ACTIONS:
        raise ValueError(f"invalid action {action_raw!r}")
    return ScreenedRow(
        rec_id,
        title,
        taxonomy,
        _ACTIONS[action_raw],
        optional_string(obj, "description"),
        optional_string(obj, "query"),
    )


def build_record(row: ScreenedRow) -> ProductRecord:
    """The record of a screened row, with description and query cleaned."""
    return ProductRecord(
        id=row.id,
        title=row.title,
        taxonomy=row.taxonomy,
        action=row.action,
        description=clean_text(row.raw_description or "") or None,
        query=clean_text(row.raw_query or "") or None,
    )


def _split_lines(fh):
    """The lines of ``fh``, read ``CHUNK`` bytes at a time, without their ends."""
    rest: list[bytes] = []  # the pieces of the line the last chunk left open
    while chunk := fh.read(CHUNK):
        rest.append(chunk)
        if b"\n" not in chunk and b"\r" not in chunk:
            continue  # a line longer than a chunk is joined once, when it ends
        lines = b"".join(rest).splitlines()
        # The last line may go on in the next chunk, and a final \r may be
        # the first half of a \r\n: both are read again with what follows.
        if chunk.endswith(b"\n"):
            rest = []
        else:
            rest = [lines.pop() + b"\r" if chunk.endswith(b"\r") else lines.pop()]
        yield from lines
    yield from b"".join(rest).splitlines()


def _lines(path: Path):
    """``(line number, bytes)`` of each line of ``path``, exactly those of
    ``enumerate(path.read_bytes().splitlines(), 1)``. Only \\n, \\r and
    \\r\\n end a line: ``str.splitlines`` also breaks at U+2028, U+0085 and
    other separators that ``canonical_json`` writes raw inside strings. Each
    line is decoded on its own, so a bad byte is that line's fault. The file
    is closed when the lines run out or the generator is closed."""
    with open(path, "rb") as fh:
        yield from enumerate(_split_lines(fh), 1)


def load_interactions(path: str | Path) -> tuple[list[ScreenedRow], list[MalformedLine]]:
    """Screen every interaction row, skipping bad rows. A stage builds the
    records it uses from the screened rows with ``build_record``.

    Returns (rows, diagnostics) with input ordering preserved. Raises
    ForgeError if the file cannot be read or if every line fails.
    """
    path = Path(path)
    diagnostics: list[MalformedLine] = []
    try:
        records = read_rows(path, _screen, lambda *d: diagnostics.append(MalformedLine(*d)))
    except OSError as exc:
        raise ForgeError(f"cannot read {path}: {exc}") from exc
    if diagnostics and not records:
        raise ForgeError(f"all {len(diagnostics)} lines of {path} failed to parse")
    return records, diagnostics


_CANONICAL = json.JSONEncoder(
    default=vars, sort_keys=True, ensure_ascii=False, separators=(",", ":")
)


def canonical_json(obj) -> str:
    """One row as canonical JSON; a dataclass row is written as its fields."""
    return _CANONICAL.encode(obj)


# Bytes of rows per block handed to write_atomic: half of CHUNK, since a
# block is joined while its lines are still held. A block ends at the row
# that reaches this size, so it holds at most one row more.
_WRITE_BLOCK = CHUNK // 2


def write_rows(path: str | Path, rows) -> str:
    """Replace ``path`` with one canonical line per row, written in blocks of
    about ``_WRITE_BLOCK`` bytes; returns the sha256 of the bytes written.
    If ``rows`` raises, the previous file is left as it was."""
    digest = hashlib.sha256()

    def blocks():
        lines, size = [], 0
        for row in rows:
            line = (canonical_json(row) + "\n").encode("utf-8")
            lines.append(line)
            size += len(line)
            if size >= _WRITE_BLOCK:
                block = b"".join(lines)
                digest.update(block)
                yield block
                lines, size = [], 0
        block = b"".join(lines)
        digest.update(block)
        yield block

    write_atomic(path, blocks())
    return digest.hexdigest()


_scan_once = json.JSONDecoder().scan_once


def _whole_object(line: str) -> dict | None:
    """The JSON object that is exactly ``line``, by the C scanner, or None
    when the line does not start with ``{``, fails to scan, or holds more
    than one value: ``json.loads`` then reads it, and words any error."""
    if line[:1] != "{":
        return None
    try:
        obj, end = _scan_once(line, 0)
    except (StopIteration, ValueError, RecursionError):
        return None
    return obj if end == len(line) else None


def read_rows(path: str | Path, parse, skip=None) -> list:
    """``parse(obj)`` of each non-blank row of a JSONL file. A row that is not
    UTF-8, not JSON, nested too deeply to parse, not an object, or that
    ``parse`` rejects with KeyError, TypeError or ValueError is bad. Without
    ``skip`` the file is refused at its first bad row with a ForgeError naming
    path:line; with it, ``skip(line number, reason)`` is called and the row
    left out."""
    rows = []
    for line_no, raw in _lines(Path(path)):
        try:
            line = raw.decode("utf-8")
            obj = _whole_object(line)
            if obj is None:
                if not line.strip():
                    continue
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise ValueError("row is not a JSON object")
            rows.append(parse(obj))
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            reason = f"row has no {exc.args[0]!r} key" if isinstance(exc, KeyError) else str(exc)
            if skip is None:
                raise ForgeError(f"{path}:{line_no}: {reason}") from None
            skip(line_no, reason)
    return rows


def sha256_file(path: str | Path) -> str:
    """The sha256 of a file, read ``CHUNK`` bytes at a time: a paper-scale
    ``expanded.jsonl`` is 87 MB, which ``read_bytes`` would hold at once."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(CHUNK):
            digest.update(chunk)
    return digest.hexdigest()


def read_json(path: str | Path):
    """The JSON value of a whole file. A file that is not UTF-8, not JSON or
    nested too deeply to parse is refused with a ForgeError naming it; a
    file that cannot be read raises OSError."""
    try:
        return json.loads(Path(path).read_bytes().decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ForgeError(f"{path}: {exc}") from None


def string_field(row: dict, key: str) -> str:
    """``row[key]``, refused with a TypeError unless it is a JSON string."""
    value = row[key]
    if not isinstance(value, str):
        raise TypeError(f"{key!r} must be a string, got {json.dumps(value)}")
    return value


def optional_string(row: dict, key: str) -> str | None:
    """``row.get(key)``, refused with a TypeError unless it is a JSON string
    or null."""
    value = row.get(key)
    if value is not None and not isinstance(value, str):
        raise TypeError(f"{key!r} must be a string or null, got {json.dumps(value)}")
    return value


def write_atomic(path: str | Path, data: bytes | Iterable[bytes]) -> None:
    """Replace ``path`` with ``data``, given whole or as an iterable of
    blocks, in one step: write a temp file in the same directory, then
    ``os.replace`` it over the target, and fsync the directory so that the
    rename, too, outlives a power loss. A crash, a failed write or an
    iterable that raises leaves the previous file whole and removes the temp
    file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines((data,) if isinstance(data, bytes) else data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def filter_by_action(records: list) -> list:
    """Drop rows labelled no_action (no purchase interest); order preserved."""
    return [r for r in records if r.action is not Action.NO_ACTION]


def shuffle_key(seed: int, item_id: str) -> str:
    """Stable shuffle key: hex digest of ``seed|id``.

    Hash-based ordering keeps splits and samples reproducible across
    platforms and processes without relying on RNG internals.
    """
    return hashlib.sha256(f"{seed}|{item_id}".encode("utf-8")).hexdigest()


def sample(items: list, k: int, seed: int, salt: str) -> list:
    """The k items that come first in ``shuffle_key(seed, f"{salt}|{item.id}")``
    order, returned in their input order."""
    ranked = sorted(range(len(items)), key=lambda i: shuffle_key(seed, f"{salt}|{items[i].id}"))
    return [items[i] for i in sorted(ranked[:k])]


def split_generic(
    items: list, ratio: float, seed: int, id_of, source: str | Path = "input"
) -> tuple[list, list]:
    """Deterministic two-way split of any id-carrying items: shuffle by
    seeded hash, first ceil(ratio*n) to the first side. No items, or a
    repeated id, is refused with an error naming ``source``."""
    if not items:
        raise ForgeError(f"{source}: no rows to split")
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    ids = [id_of(item) for item in items]
    if len(set(ids)) != len(ids):
        repeated = next(i for i, n in Counter(ids).items() if n > 1)
        raise ForgeError(
            f"{source}: duplicate id {repeated!r}; train/test disjointness would break"
        )
    shuffled = sorted(items, key=lambda item: shuffle_key(seed, id_of(item)))
    n_first = math.ceil(ratio * len(items))
    return shuffled[:n_first], shuffled[n_first:]
