"""Deduplication, task balancing, JSONL emission, and held-out prompt packs.

Near-duplicate detection uses token 3-gram Jaccard similarity over the
normalized instruction+input+output text. Tokens are interned and each
distinct 3-gram gets an int id; a pair's grams are held as one sorted
``array('i')`` of ranks, rarest gram first. Exact duplicates are found by a
hash per token stream, compared token by token only when two hashes
collide. Near duplicates are found by ``NearDupIndex``: a prefix index over
the rank arrays, a positional filter on the overlap counted while probing,
and verification by overlap count, so it keeps the earliest pair of each
group and the same survivors as an all-pairs comparison. Rows are written
and read by ``ingest.write_rows`` and ``ingest.read_rows``.
"""
from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import count, product
from math import ceil
from pathlib import Path

import numpy as np

from .core import ForgeError, MemoTable, TaskKind, tokenize
from .formulate import InstructionPair, Provenance
from .ingest import CHUNK, optional_string, read_rows, sample, string_field, write_rows

NGRAM_ORDER = 3
# A candidate's overlap count once the positional filter has ruled it out:
# adding any remaining overlap leaves it below every bound.
_PRUNED = -(1 << 62)
# Gram ids ranked per numpy sort. Its int64 temporaries then stay under
# glibc's 128 KiB mmap threshold (see ingest.CHUNK), so they reuse heap
# pages that are already resident instead of mapping fresh ones.
_RANK_CHUNK = CHUNK // 8


@dataclass(frozen=True)
class Manifest:
    count: int
    per_task: dict[str, int]
    sha256: str


def pair_tokens(pair: InstructionPair) -> tuple[str, ...]:
    """Normalized token stream of instruction+input+output, the dedup basis.
    Tokens are interned, so one string object serves every equal token."""
    return tuple(map(sys.intern, tokenize(f"{pair.instruction} {pair.input} {pair.output}")))


def _digest(tokens: tuple[str, ...]) -> int:
    """The exact-duplicate key of a token stream; equal streams share it."""
    return hash(tokens)


class NearDupIndex:
    """Sets of gram ranks, queried for members at Jaccard >= ``threshold``.

    A set is a sorted ``array('i')`` of ranks in one global order, rarest
    gram first. Two sets at Jaccard >= t have |a∩b| >= ceil(t/(1+t)·(|a|+|b|))
    and share a rank within each one's first ``size - ceil(t * size) + 1``
    (the prefix filter, Bayardo et al., WWW 2007), so only prefixes are
    indexed and probed. Probing counts each candidate's prefix overlap and
    drops it once that count plus the shorter of the two remainders cannot
    reach the bound (the positional filter, Xiao et al., WWW 2008). The
    rest are counted out by a merge that stops when the bound is out of
    reach, and decided by the float test ``inter / union >= threshold``.
    An empty set matches nothing.
    """

    def __init__(self, threshold: float):
        if threshold <= 0:
            raise ValueError("threshold must be > 0")
        self.threshold = threshold
        # The bounds use a threshold a hair below the real one, so rounding
        # in them or in the final float test can only lengthen a prefix or
        # lower a required overlap: they prune, and never decide.
        t = threshold * (1 - 1e-9)
        # Past t = 1 the length goes negative; no pair can match there.
        self._prefix_len = MemoTable(lambda size: max(size - ceil(t * size) + 1, 0))
        self._need = MemoTable(lambda total: ceil(t / (1 + t) * total))  # by |a| + |b|
        self._sets: list[array] = []
        # rank -> flat (entry, grams from this one on, entry size) triples
        self._postings: dict[int, array] = {}

    def add(self, ranks: array) -> int:
        """Index ``ranks`` as the next entry and return its number."""
        entry, size = len(self._sets), len(ranks)
        self._sets.append(ranks)
        for j, g in enumerate(ranks[: self._prefix_len[size]]):
            posting = self._postings.get(g)
            if posting is None:
                posting = self._postings[g] = array("i")
            posting.extend((entry, size - j, size))
        return entry

    def query(self, ranks: array) -> Iterator[int]:
        """Entries at Jaccard >= threshold with ``ranks``, by first shared prefix rank."""
        size = len(ranks)
        prefix = self._prefix_len[size]
        need, postings = self._need, self._postings
        counts: dict[int, int] = {}
        count_of = counts.get
        for i, g in enumerate(ranks[:prefix]):
            posting = postings.get(g)
            if posting is None:
                continue
            left = size - i
            triples = iter(posting)
            for entry, rest, other in zip(triples, triples, triples):
                found = count_of(entry, 0)
                # Found so far, this gram, and at most the shorter remainder.
                if found + (left if left < rest else rest) >= need[size + other]:
                    counts[entry] = found + 1
                elif found:
                    counts[entry] = _PRUNED
                # A first hit that fails leaves no count: each later hit
                # has less left on both sides, so it fails too.
        for entry, found in counts.items():
            if found > 0 and self._matches(ranks, prefix, self._sets[entry], found):
                yield entry

    def _matches(self, a: array, a_prefix: int, b: array, found: int) -> bool:
        """Whether ``a`` and ``b``, which share ``found`` grams of their
        prefixes, are at Jaccard >= threshold. The shared grams not yet
        found all rank after the end of the prefix that ends first, so at
        most the grams after it can be added; a merge that stops once either
        array holds more grams the other lacks than the bound allows counts
        the rest."""
        la, lb = len(a), len(b)
        need = self._need[la + lb]
        b_prefix = self._prefix_len[lb]
        unseen = la - a_prefix if a[a_prefix - 1] < b[b_prefix - 1] else lb - b_prefix
        if found + unseen < need:
            return False
        spare_a, spare_b = la - need, lb - need
        i = j = inter = 0
        while i < la and j < lb:
            x, y = a[i], b[j]
            if x == y:
                inter += 1
                i += 1
                j += 1
            elif x < y:
                i += 1
                spare_a -= 1
                if spare_a < 0:
                    return False
            else:
                j += 1
                spare_b -= 1
                if spare_b < 0:
                    return False
        return inter / (la + lb - inter) >= self.threshold


def _grams(tokens: tuple[str, ...]):
    """Token n-grams; a stream shorter than n is one gram, itself whole."""
    if len(tokens) < NGRAM_ORDER:
        return (tokens,) if tokens else ()
    return zip(*(tokens[k:] for k in range(NGRAM_ORDER)))


def _same_stream(earlier: InstructionPair, pair: InstructionPair, tokens: tuple[str, ...]) -> bool:
    """Whether ``earlier`` has ``pair``'s token stream ``tokens``; equal text
    settles it without tokenizing ``earlier`` again."""
    fields = (earlier.instruction, earlier.input, earlier.output)
    return fields == (pair.instruction, pair.input, pair.output) or pair_tokens(earlier) == tokens


def _distinct_streams(pairs: list[InstructionPair]) -> tuple[list[InstructionPair], list[array], int]:
    """The pairs whose token stream no earlier pair has, each one's gram ids
    (one int per distinct gram, in first-appearance order overall), and the
    number of distinct grams."""
    gram_ids: defaultdict[tuple[str, ...], int] = defaultdict(count().__next__)
    first: dict[int, int] = {}  # digest -> the first pair with it
    collided: dict[int, list[int]] = {}  # digest -> later distinct streams with it
    distinct: list[InstructionPair] = []
    grams: list[array] = []
    for i, pair in enumerate(pairs):
        tokens = pair_tokens(pair)
        digest = _digest(tokens)
        earliest = first.setdefault(digest, i)
        if earliest != i:
            same = (earliest, *collided.get(digest, ()))
            if any(_same_stream(pairs[k], pair, tokens) for k in same):
                continue
            collided.setdefault(digest, []).append(i)
        distinct.append(pair)
        grams.append(array("i", set(map(gram_ids.__getitem__, _grams(tokens)))))
    return distinct, grams, len(gram_ids)


def _flat(arrays: list[array]) -> np.ndarray:
    return np.frombuffer(b"".join(arrays), dtype=np.intc)


def _chunks(grams: list[array]) -> list[tuple[int, int]]:
    """(start, stop) of consecutive runs of ``grams`` that hold at most
    ``_RANK_CHUNK`` ids in all; an array longer than that is a run alone."""
    bounds, start, total = [], 0, 0
    for k, ids in enumerate(grams):
        if total + len(ids) > _RANK_CHUNK and k > start:
            bounds.append((start, k))
            start, total = k, 0
        total += len(ids)
    if start < len(grams):
        bounds.append((start, len(grams)))
    return bounds


def _rank_in_place(grams: list[array], n_grams: int) -> None:
    """Turn each gram-id array into its sorted array of ranks: ascending
    document frequency, ties in id order."""
    bounds = _chunks(grams)
    df = np.zeros(n_grams, dtype=np.int64)
    for start, stop in bounds:
        # Counted in place: a bincount makes an n_grams-long int64 array per
        # chunk, 462 KB at paper scale, over the mmap threshold.
        np.add.at(df, _flat(grams[start:stop]), 1)
    rank = np.empty(n_grams, dtype=np.intc)
    rank[np.argsort(df, kind="stable")] = np.arange(n_grams, dtype=np.intc)
    for start, stop in bounds:
        chunk = grams[start:stop]
        sizes = np.fromiter(map(len, chunk), dtype=np.int64, count=len(chunk))
        # Each pair's ranks lifted by n_grams times its place in the chunk,
        # so one sort orders every pair's ranks and keeps the pairs apart.
        lift = np.repeat(np.arange(len(chunk), dtype=np.int64) * n_grams, sizes)
        ranks = rank[_flat(chunk)] + lift
        data = (np.sort(ranks) - lift).astype(np.intc).tobytes()
        ends = (np.cumsum(sizes) * rank.itemsize).tolist()
        for k, (lo, hi) in enumerate(zip([0, *ends], ends), start):
            grams[k] = array("i", data[lo:hi])


def dedup(pairs: list[InstructionPair], threshold: float) -> list[InstructionPair]:
    """Remove exact duplicates, then near-duplicates at or above the Jaccard
    threshold, keeping earliest occurrences. Stable order; idempotent.

    A pair whose token stream an earlier pair has is dropped: that earlier
    pair survived or matched a survivor, and so would this one. The rest
    are queried, in order, against a ``NearDupIndex`` of the survivors, so
    the result is that of an all-pairs comparison.
    """
    if not pairs:
        raise ValueError("pairs must be nonempty")
    if threshold <= 0:
        # Every pair matches the first one, even with no gram in common.
        return pairs[:1]
    distinct, grams, n_grams = _distinct_streams(pairs)
    _rank_in_place(grams, n_grams)
    index = NearDupIndex(threshold)
    survivors: list[InstructionPair] = []
    for pair, ranks in zip(distinct, grams):
        if next(index.query(ranks), None) is None:
            index.add(ranks)
            survivors.append(pair)
    return survivors


def balance(pairs: list[InstructionPair], per_task: int, rng_seed: int) -> list[InstructionPair]:
    """Deterministic sample of exactly ``per_task`` pairs from each task.

    Output is grouped in task order; within a task, pairs keep their input
    order. Raises ForgeError naming the first short task.
    """
    by_task: dict[TaskKind, list[InstructionPair]] = {task: [] for task in TaskKind}
    for pair in pairs:
        by_task[pair.task].append(pair)
    out: list[InstructionPair] = []
    for task, pool in by_task.items():
        if len(pool) < per_task:
            raise ForgeError(f"{task.value}: {len(pool)} pairs after dedup, need {per_task}")
        out.extend(sample(pool, per_task, rng_seed, task.value))
    return out


def _pair_from_obj(obj: dict) -> InstructionPair:
    prov = obj["provenance"]
    return InstructionPair(
        id=string_field(obj, "id"),
        task=TaskKind(obj["task"]),
        instruction=string_field(obj, "instruction"),
        input=string_field(obj, "input"),
        output=string_field(obj, "output"),
        provenance=Provenance(
            origin=prov["origin"],
            strategy=optional_string(prov, "strategy"),
            seed_id=optional_string(prov, "seed_id"),
            teacher=optional_string(prov, "teacher"),
        ),
    )


def emit_jsonl(pairs: list[InstructionPair], path: str | Path) -> Manifest:
    """Write canonical JSONL and return a manifest with per-task counts and
    the file's content hash. emit -> load -> emit is byte-identical."""
    try:
        sha256 = write_rows(path, pairs)
    except OSError as exc:
        raise ForgeError(f"cannot write {path}: {exc}") from exc
    per_task = {task.value: 0 for task in TaskKind}
    for pair in pairs:
        per_task[pair.task.value] += 1
    return Manifest(count=len(pairs), per_task=per_task, sha256=sha256)


def load_jsonl(path: str | Path) -> list[InstructionPair]:
    """The pairs of a JSONL file, which must hold at least one row."""
    pairs = read_rows(path, _pair_from_obj)
    if not pairs:
        raise ForgeError(f"{path}: no rows")
    return pairs


# ---------------------------------------------------------------------------
# Held-out prompt packs

SCENARIO_ADS = "scenario_ads"
RECOMMENDATION = "recommendation"

SCENARIO_AD_TEMPLATE = "{scenario} is almost. Generate an ad for the following products: {products}."


@dataclass(frozen=True)
class HeldoutPrompt:
    id: str
    kind: str
    prompt: str


def and_join(items: list[str]) -> str:
    if len(items) == 1:
        return items[0]
    if len(items) == 2:
        return f"{items[0]} and {items[1]}"
    return ", ".join(items[:-1]) + f", and {items[-1]}"


def build_heldout_packs(
    scenarios: list[str], product_sets: list[list[str]], intents: list[str]
) -> tuple[list[HeldoutPrompt], list[HeldoutPrompt]]:
    """The two zero-shot evaluation packs, never turned into training pairs:
    scenario_ads crosses every scenario with every product set, and
    recommendation wraps each free-form shopping intent as-is."""
    if not scenarios or not product_sets or any(not ps for ps in product_sets):
        raise ForgeError("scenario_ads needs scenarios and nonempty product sets")
    if not intents:
        raise ForgeError("recommendation needs at least one intent")
    ads = [
        SCENARIO_AD_TEMPLATE.format(scenario=scenario, products=and_join(list(products)))
        for scenario, products in product(scenarios, product_sets)
    ]
    return tuple(
        [HeldoutPrompt(f"heldout-{kind}-{i:04d}", kind, text) for i, text in enumerate(texts)]
        for kind, texts in ((SCENARIO_ADS, ads), (RECOMMENDATION, intents))
    )


def emit_pack(prompts: list[HeldoutPrompt], path: str | Path) -> int:
    write_rows(path, prompts)
    return len(prompts)
