"""Deduplication, task balancing, JSONL emission, and held-out prompt packs.

Near-duplicate detection uses token 3-gram Jaccard similarity over the
normalized instruction+input+output text. Candidates come from an exact
prefix-filter index over 3-grams ordered by ascending document frequency,
so it keeps the earliest pair of each group and the same survivors as an
all-pairs comparison without making most of the comparisons. Rows are
written and read by ``ingest.write_rows`` and ``ingest.read_rows``.
"""
from __future__ import annotations

import hashlib
from collections import defaultdict
from dataclasses import dataclass
from itertools import product
from pathlib import Path

from .core import ForgeError, TaskKind, tokenize
from .formulate import InstructionPair, Provenance
from .ingest import optional_string, read_rows, sample, string_field, write_rows

NGRAM_ORDER = 3


@dataclass(frozen=True)
class Manifest:
    count: int
    per_task: dict[str, int]
    sha256: str


def pair_tokens(pair: InstructionPair) -> tuple[str, ...]:
    """Normalized token stream of instruction+input+output, the dedup basis."""
    return tuple(tokenize(f"{pair.instruction} {pair.input} {pair.output}"))


def ngram_set(tokens: tuple[str, ...], n: int = NGRAM_ORDER) -> frozenset[tuple[str, ...]]:
    """Token n-grams; sequences shorter than n contribute themselves whole."""
    if not tokens:
        return frozenset()
    if len(tokens) < n:
        return frozenset({tokens})
    return frozenset(tokens[i : i + n] for i in range(len(tokens) - n + 1))


def jaccard(a: frozenset, b: frozenset) -> float:
    if not a and not b:
        return 1.0
    union = len(a | b)
    return len(a & b) / union


def dedup(pairs: list[InstructionPair], threshold: float) -> list[InstructionPair]:
    """Remove exact duplicates, then near-duplicates at or above the Jaccard
    threshold, keeping earliest occurrences. Stable order; idempotent.

    Candidates come from a prefix-filter index (Bayardo et al., WWW 2007):
    with grams ranked rarest first, two sets at Jaccard >= t share a gram
    within each one's first ``size - ceil(t * size) + 1`` ranked grams. Only
    those prefixes are indexed and probed, and every candidate is verified
    exactly, so the survivors are those of an all-pairs comparison.
    """
    if not pairs:
        raise ValueError("pairs must be nonempty")
    if threshold <= 0:
        # Every pair matches the first one, even with no gram in common.
        return pairs[:1]
    tokens = [pair_tokens(pair) for pair in pairs]
    # Grams become ints shared by every set, so each distinct gram is held
    # once; set sizes and Jaccard values are those of the gram sets.
    gram_ids: dict[tuple[str, ...], int] = {}
    grams = [
        frozenset([gram_ids.setdefault(g, len(gram_ids)) for g in ngram_set(toks)])
        for toks in tokens
    ]
    # Document frequency per gram id, then overwritten by its rank: rarest
    # first, ties in order of first appearance.
    rank = [0] * len(gram_ids)
    for pair_grams in grams:
        for g in pair_grams:
            rank[g] += 1
    for r, g in enumerate(sorted(range(len(rank)), key=rank.__getitem__)):
        rank[g] = r
    survivors: list[InstructionPair] = []
    seen_exact: set[tuple[str, ...]] = set()
    kept_grams: list[frozenset] = []
    index: dict[int, list[int]] = defaultdict(list)
    for pair, toks, pair_grams in zip(pairs, tokens, grams):
        if toks in seen_exact:
            continue
        size = len(pair_grams)
        # int() floors, so a t*size that rounds up past an integer cannot
        # shorten the prefix below the exact ceil bound.
        prefix = sorted(pair_grams, key=rank.__getitem__)[: size - int(threshold * size) + 1]
        candidates = {k for g in prefix for k in index.get(g, ())}
        duplicate = False
        for k in candidates:
            other = kept_grams[k]
            # |a∩b|/|a∪b| can reach t only if min/max set sizes do.
            lo, hi = min(size, len(other)), max(size, len(other))
            if hi and lo / hi < threshold:
                continue
            if jaccard(pair_grams, other) >= threshold:
                duplicate = True
                break
        if duplicate:
            continue
        seen_exact.add(toks)
        for g in prefix:
            index[g].append(len(kept_grams))
        kept_grams.append(pair_grams)
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
        data = write_rows(path, pairs)
    except OSError as exc:
        raise ForgeError(f"cannot write {path}: {exc}") from exc
    per_task = {task.value: 0 for task in TaskKind}
    for pair in pairs:
        per_task[pair.task.value] += 1
    return Manifest(
        count=len(pairs), per_task=per_task, sha256=hashlib.sha256(data).hexdigest()
    )


def load_jsonl(path: str | Path) -> list[InstructionPair]:
    return read_rows(path, _pair_from_obj)


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
