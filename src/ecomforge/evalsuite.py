"""The 18-metric evaluation system and its geometric-mean aggregate.

Per task family: BLEU/ROUGE-L overlap scores for ads (against title and
description), title rewriting (against raw title and query) plus perplexity,
macro P/R/F1 for the two label tasks, and BLEU/ROUGE-L plus an embedding
similarity score for Q&A. Sentence-level metrics are averaged over samples.
Perplexity enters the aggregate as 1/ln(PPL) so that lower perplexity raises
the geometric mean like every other metric.

ROUGE-L's LCS is computed bit-parallel, one big-int step per candidate token;
the tests check it against the memoized LCS recurrence. BLEU is one batch
kernel, ``bleu_many``: per chunk of pairs it maps tokens to integer ids,
builds each n-gram level's ids from the level below, and counts every
pair's clipped matches at levels 1-4 with a few numpy passes. The clips are
integers, and each score is then formed in Python floats in one fixed order
of operations, so it is float-identical to clipping with two ``Counter``s.
"""
from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, count

import numpy as np

from .core import ForgeError, MemoTable, TaskKind, normalize_label, tokenize
from .formulate import LABEL_TASKS
from .ingest import read_rows, string_field
from .modelio import Backend, BackendError


BLEU_EPSILON = 1e-9
# Pairs per ``_clip_counts`` call. Its arrays grow with the tokens of a
# chunk: scoring a whole reference field as one chunk raised evaluate-mock's
# peak RSS by about 5%.
BLEU_CHUNK_PAIRS = 128
ROUGE_BETA = 1.2
# Tokens per ``embed_tokens`` call: OpenAI's embeddings endpoint takes at most
# 2,048 inputs per request
# (https://platform.openai.com/docs/api-reference/embeddings/create).
EMBED_CHUNK_TOKENS = 2048

# Report fields in table column order; PPL is reported raw and transformed
# only inside the aggregate.
METRIC_NAMES = (
    "BL_At", "RL_At", "BL_Ad", "RL_Ad",
    "BL_Tt", "RL_Tt", "BL_Tq", "RL_Tq", "PPL",
    "P_pt", "R_pt", "F1_pt",
    "P_qs", "R_qs", "F1_qs",
    "BL_qa", "RL_qa", "BE_qa",
)


def _clip_counts(candidates: list[list[str]], references: list[list[str]]) -> np.ndarray:
    """The clipped n-gram matches of each (candidate, reference) pair, as a
    (4, pairs) integer array whose row n-1 holds level n.

    Tokens become ids through one vocabulary. Every position that starts an
    n-gram gets one id for (its pair, its n-gram): level n packs the
    position's level n-1 id (its pair at level 1) with its n-th token and
    re-ranks the packed keys, so ids stay below the token count and no key
    overflows. Each gram clips to the smaller of its two counts in its pair.
    A level past an empty clip clips to 0 with no special case, since an
    (n+1)-gram can only match if its leading n-gram does.
    """
    seqs = [seq for pair in zip(candidates, references) for seq in pair]
    flat = list(chain.from_iterable(seqs))
    vocab = dict(zip(dict.fromkeys(flat), count()))
    tokens = np.fromiter(map(vocab.__getitem__, flat), dtype=np.int64, count=len(flat))
    lengths = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    # Pair i's candidate is sequence 2i and its reference 2i+1.
    seq = np.repeat(np.arange(len(seqs)), lengths)
    pair, side = seq >> 1, seq & 1
    pos = np.arange(len(flat))
    left = np.repeat(np.cumsum(lengths), lengths) - pos  # tokens to the end of the sequence
    ids = pair
    clips = np.zeros((4, len(candidates)), dtype=np.int64)
    for n in range(1, 5):
        keep = left >= n
        pos, left, pair, side, ids = pos[keep], left[keep], pair[keep], side[keep], ids[keep]
        grams, ids = np.unique(ids * len(vocab) + tokens[pos + n - 1], return_inverse=True)
        sides = np.bincount(ids * 2 + side, minlength=2 * len(grams))
        matched = np.minimum(sides[0::2], sides[1::2])
        gram_pair = np.empty(len(grams), dtype=np.int64)
        gram_pair[ids] = pair
        clips[n - 1] = np.bincount(gram_pair, weights=matched, minlength=len(candidates))
    return clips


def bleu_many(candidates: list[list[str]], references: list[list[str]]) -> list[float]:
    """Sentence BLEU-4 of each (candidate, reference) pair: uniform quarter
    weights, brevity penalty, and epsilon-smoothed zero counts. Scaled to
    0-100. The clips are counted by ``_clip_counts`` over chunks of
    ``BLEU_CHUNK_PAIRS`` pairs; each score is then formed in Python floats."""
    if len(candidates) != len(references):
        raise ForgeError(f"{len(candidates)} candidates vs {len(references)} references")
    for candidate, reference in zip(candidates, references):
        if not candidate:
            raise ForgeError("candidate token sequence is empty")
        if not reference:
            raise ForgeError("reference token sequence is empty")
    scores = []
    for start in range(0, len(candidates), BLEU_CHUNK_PAIRS):
        chunk = slice(start, start + BLEU_CHUNK_PAIRS)
        cands, refs = candidates[chunk], references[chunk]
        for candidate, reference, clipped in zip(cands, refs, _clip_counts(cands, refs).T.tolist()):
            c, r = len(candidate), len(reference)
            log_sum = 0.0
            for n in range(1, 5):
                total = c - n + 1
                if total <= 0:
                    log_sum += 0.25 * math.log(BLEU_EPSILON)
                    continue
                k = clipped[n - 1]
                p = k / total if k > 0 else BLEU_EPSILON / total
                log_sum += 0.25 * math.log(p)
            bp = 1.0 if c > r else math.exp(1 - r / c)
            scores.append(100.0 * bp * math.exp(log_sum))
    return scores


def bleu(candidate: list[str], reference: list[str]) -> float:
    """Sentence BLEU-4 of one pair; see ``bleu_many``. No stage calls it, but
    ``perfbench/passrun.py`` wraps ``evalsuite.bleu`` by name, so it stays."""
    return bleu_many([candidate], [reference])[0]


def _lcs_length(a: list[str], b: list[str]) -> int:
    """Bit-parallel LCS length (Allison & Dix 1986; Hyyrö 2004), one big-int
    step per token of ``a``. After each step the zero bits of ``v`` mark the
    positions of ``b`` where the LCS of the prefix of ``a`` read so far with
    the prefix of ``b`` grows, so their count is the LCS length."""
    masks: dict[str, int] = {}
    for j, y in enumerate(b):
        masks[y] = masks.get(y, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    for x in a:
        mask = masks.get(x)
        if mask is not None:
            u = v & mask
            v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(candidate: list[str], reference: list[str]) -> float:
    """LCS F-score with recall-weighted beta, scaled to 0-100."""
    if not candidate:
        raise ForgeError("candidate token sequence is empty")
    if not reference:
        raise ForgeError("reference token sequence is empty")
    lcs = _lcs_length(candidate, reference)
    precision = lcs / len(candidate)
    recall = lcs / len(reference)
    if precision + recall == 0:
        return 0.0
    b2 = ROUGE_BETA * ROUGE_BETA
    return 100.0 * (1 + b2) * precision * recall / (recall + b2 * precision)


def perplexity(token_logprobs: list[float]) -> float:
    """exp of the negative mean natural-log token probability."""
    if not token_logprobs:
        raise ForgeError("no token logprobs")
    if any(lp > 0 for lp in token_logprobs):
        raise ForgeError("logprobs must be <= 0")
    return math.exp(-sum(token_logprobs) / len(token_logprobs))


def ppl_transform(ppl: float) -> float:
    """Monotone inversion 1/ln(PPL): lower perplexity, higher score."""
    if ppl <= 1.0:
        raise ForgeError(f"transform undefined for PPL {ppl} <= 1")
    return 1.0 / math.log(ppl)


def macro_prf(
    predictions: list[str | None], gold: list[str]
) -> tuple[float, float, float]:
    """Macro-averaged precision/recall/F1 over labels occurring in gold.

    Unmapped predictions (None) never match; labels with no predicted
    positives score precision 0. Scaled to 0-100.
    """
    if not gold:
        raise ForgeError("gold labels are empty")
    if len(predictions) != len(gold):
        raise ForgeError(f"{len(predictions)} predictions vs {len(gold)} gold labels")
    labels = sorted(set(gold))
    precisions, recalls, f1s = [], [], []
    for label in labels:
        tp = sum(1 for p, g in zip(predictions, gold) if p == label and g == label)
        fp = sum(1 for p, g in zip(predictions, gold) if p == label and g != label)
        fn = sum(1 for p, g in zip(predictions, gold) if p != label and g == label)
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn)
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        precisions.append(precision)
        recalls.append(recall)
        f1s.append(f1)
    n = len(labels)
    return (
        100.0 * sum(precisions) / n,
        100.0 * sum(recalls) / n,
        100.0 * sum(f1s) / n,
    )


def bert_style_score(
    candidate_vectors: np.ndarray | list[list[float]],
    reference_vectors: np.ndarray | list[list[float]],
) -> tuple[float, float, float]:
    """Greedy cosine matching between token embeddings, given as nested lists
    or as 2-D float arrays (one row per token).

    Recall averages each reference token's best match among candidate tokens;
    precision is symmetric; F1 is their harmonic mean (zero unless both sides
    are positive). No baseline rescaling. Scaled to 0-100.
    """
    if len(candidate_vectors) == 0 or len(reference_vectors) == 0:
        raise ForgeError("both sides need at least one token vector")
    cand = np.asarray(candidate_vectors, dtype=float)
    ref = np.asarray(reference_vectors, dtype=float)
    if cand.shape[1] != ref.shape[1]:
        raise ForgeError(f"{cand.shape[1]} vs {ref.shape[1]} dimensions")
    cand_norm = np.linalg.norm(cand, axis=1, keepdims=True)
    ref_norm = np.linalg.norm(ref, axis=1, keepdims=True)
    # Zero vectors contribute zero similarity instead of NaN.
    cand_unit = np.divide(cand, cand_norm, out=np.zeros_like(cand), where=cand_norm > 0)
    ref_unit = np.divide(ref, ref_norm, out=np.zeros_like(ref), where=ref_norm > 0)
    sim = cand_unit @ ref_unit.T  # (n_cand, n_ref)
    precision = float(np.mean(np.max(sim, axis=1)))
    recall = float(np.mean(np.max(sim, axis=0)))
    f1 = 2 * precision * recall / (precision + recall) if precision > 0 and recall > 0 else 0.0
    return 100.0 * precision, 100.0 * recall, 100.0 * f1


def geometric_mean(values: list[float]) -> float:
    """exp of the mean log of exactly 18 positive metric values (the PPL slot
    must already hold its 1/ln transform)."""
    if len(values) != len(METRIC_NAMES):
        raise ForgeError(f"expected {len(METRIC_NAMES)} values, got {len(values)}")
    for i, v in enumerate(values):
        if v <= 0:
            raise ForgeError(f"value at index {i} is not positive: {v}")
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ---------------------------------------------------------------------------
# Run-level evaluation


@dataclass(frozen=True)
class Sample:
    """One generation and its reference texts, in the order of its task's
    fields in TASK_REFERENCES."""

    sample_id: str
    generation: str
    references: tuple[str, ...]


# Each task's reference fields (attributes of the test record or Q&A pair)
# and the report keys each one scores: macro P/R/F1 for label tasks, else
# BLEU and ROUGE-L; PPL and BE_qa come on top. Metric functions are looked
# up by name at call time, never stored here, so rebinding a module global
# reaches every call.
TASK_REFERENCES: dict[TaskKind, tuple[tuple[str, tuple[str, ...]], ...]] = {
    TaskKind.ADS_GENERATION: (("title", ("BL_At", "RL_At")), ("description", ("BL_Ad", "RL_Ad"))),
    TaskKind.TITLE_REWRITING: (("title", ("BL_Tt", "RL_Tt")), ("query", ("BL_Tq", "RL_Tq"))),
    TaskKind.PRODUCT_CLASSIFICATION: (("taxonomy", ("P_pt", "R_pt", "F1_pt")),),
    TaskKind.INTENT_SPECULATION: (("taxonomy", ("P_qs", "R_qs", "F1_qs")),),
    TaskKind.GENERAL_QA: (("answer", ("BL_qa", "RL_qa")),),
}


@dataclass
class MetricReport:
    """The 18 named metric values plus the aggregate; missing tasks leave
    their metrics (and the aggregate) unset, and so does a metric that
    leaves the aggregate undefined (see ``gm_undefined_by``)."""

    values: dict[str, float | None]
    gm: float | None
    missing_tasks: list[str] = field(default_factory=list)

    @property
    def partial(self) -> bool:
        return bool(self.missing_tasks)

    def to_json(self) -> dict:
        out: dict = {name: self.values.get(name) for name in METRIC_NAMES}
        out["GM"] = self.gm
        if self.missing_tasks:
            out["missing_tasks"] = self.missing_tasks
        elif self.gm is None:
            out["gm_undefined_by"] = gm_undefined_by(self.values)
        return out


def gm_undefined_by(values: dict[str, float]) -> list[str]:
    """The metrics whose term in the aggregate is undefined: a value of 0,
    or a PPL of 1, whose 1/ln(PPL) has no value."""
    return [name for name in METRIC_NAMES if values[name] <= (1.0 if name == "PPL" else 0.0)]


def gm_from_metrics(values: dict[str, float]) -> float:
    """Assemble the aggregate from a full named-metric dict, applying the
    perplexity transform in place of the raw PPL."""
    vector = [
        ppl_transform(values[name]) if name == "PPL" else values[name]
        for name in METRIC_NAMES
    ]
    return geometric_mean(vector)


def _mean(xs: list[float]) -> float:
    return sum(xs) / len(xs)


def _embed_rows(backend: Backend, vocab: list[str]) -> np.ndarray:
    """One float64 row per token of ``vocab``, in its order: one
    ``embed_tokens`` call per chunk of ``EMBED_CHUNK_TOKENS`` tokens, sent
    space-joined (``tokenize`` gives the joined tokens back unchanged). A
    chunk answered with a vector count other than its token count, or at a
    width other than the first chunk's, is refused: every later row would
    belong to another token."""
    rows: list[list[float]] = []
    for start in range(0, len(vocab), EMBED_CHUNK_TOKENS):
        chunk = vocab[start : start + EMBED_CHUNK_TOKENS]
        vectors = backend.embed_tokens(" ".join(chunk))
        if len(vectors) != len(chunk):
            raise BackendError(f"{len(vectors)} embedding vectors for {len(chunk)} tokens")
        if rows and len(vectors[0]) != len(rows[0]):
            raise BackendError(
                f"embedding width {len(vectors[0])} differs from the first chunk's {len(rows[0])}"
            )
        rows.extend(vectors)
    return np.asarray(rows, dtype=float)


def evaluate_run(data: dict[TaskKind, list[Sample]], backend: Backend) -> MetricReport:
    """Compute the full report over aligned per-task samples.

    Each distinct text is tokenized once per run. The backend supplies token
    logprobs (perplexity of rewritten titles), one call per distinct text,
    all through one ``score_logprobs_many``, and token embeddings (Q&A
    similarity): a token's vector does not depend on the text around it, so
    the distinct tokens of all Q&A texts are embedded together, in chunks. Tasks with no samples are reported as
    missing and the aggregate is omitted; so is an aggregate that a metric
    leaves undefined. A generation with no tokens on an overlap task is
    refused, naming its task and sample.
    """
    values: dict[str, float | None] = {name: None for name in METRIC_NAMES}
    missing: list[str] = []
    # Interned, a token repeated across texts is held once.
    tokens = MemoTable(lambda text: list(map(sys.intern, tokenize(text))))
    for task, fields in TASK_REFERENCES.items():
        samples = data.get(task)
        if not samples:
            missing.append(task.value)
            continue
        # normalize_label is a pure function of the text, so it runs once per
        # distinct text of the task.
        if task in LABEL_TASKS:
            labels = {t: normalize_label(t) for t in dict.fromkeys(s.generation for s in samples)}
            predictions = [labels[s.generation] for s in samples]
            gold = [s.references[0] for s in samples]
            values.update(zip(fields[0][1], macro_prf(predictions, gold)))
            continue
        gens = [tokens[s.generation] for s in samples]
        for s, gen in zip(samples, gens):
            if not gen:
                raise ForgeError(f"{task.value}: sample {s.sample_id!r} has an empty generation")
        for i, (_, (bleu_key, rouge_key)) in enumerate(fields):
            refs = [tokens[s.references[i]] for s in samples]
            values[bleu_key] = _mean(bleu_many(gens, refs))
            values[rouge_key] = _mean([rouge_l(g, r) for g, r in zip(gens, refs)])
        # The scorer is a pure function of the text, so each distinct text
        # is scored once, in first-seen order, and read back per sample.
        if task is TaskKind.TITLE_REWRITING:
            texts = list(dict.fromkeys(s.generation for s in samples))
            scored = backend.score_logprobs_many(texts)
            ppl = {t: perplexity(logprobs) for t, logprobs in zip(texts, scored)}
            values["PPL"] = _mean([ppl[s.generation] for s in samples])
        elif task is TaskKind.GENERAL_QA:
            texts = dict.fromkeys(t for s in samples for t in (s.generation, s.references[0]))
            vocab = dict.fromkeys(chain.from_iterable(tokens[t] for t in texts))
            matrix = _embed_rows(backend, list(vocab))
            row_of = dict(zip(vocab, count()))
            vectors = {t: matrix[[row_of[tok] for tok in tokens[t]]] for t in texts}
            f1s = [
                bert_style_score(vectors[s.generation], vectors[s.references[0]])[2]
                for s in samples
            ]
            values["BE_qa"] = _mean(f1s)

    gm = None if missing or gm_undefined_by(values) else gm_from_metrics(values)
    return MetricReport(values=values, gm=gm, missing_tasks=missing)


# ---------------------------------------------------------------------------
# Human evaluation

RATES = ("A", "B", "C", "D")
HUMAN_EVAL_TASKS = (TaskKind.ADS_GENERATION, TaskKind.TITLE_REWRITING)


@dataclass(frozen=True)
class HumanRating:
    annotator: str
    sample_id: str
    task: TaskKind
    rate: str

    def __post_init__(self) -> None:
        if not self.annotator or not self.sample_id:
            raise ValueError("annotator and sample_id must be non-empty")
        if self.rate not in RATES:
            raise ValueError(f"rate must be one of {RATES}, got {self.rate!r}")
        if self.task not in HUMAN_EVAL_TASKS:
            raise ValueError(f"human evaluation covers {[t.value for t in HUMAN_EVAL_TASKS]}")


@dataclass
class HumanEvalReport:
    per_task: dict[str, dict[str, float]]  # task -> rate -> fraction
    annotator_counts: dict[str, int]


def human_eval_report(ratings: list[HumanRating]) -> HumanEvalReport:
    """Per-task A-D rate distribution (fractions sum to 1) plus per-annotator
    volume for audit. Rejects duplicate (annotator, sample) entries."""
    seen: set[tuple[str, str]] = set()
    task_counts: dict[str, Counter] = {}
    annotator_counts: Counter = Counter()
    for rating in ratings:
        key = (rating.annotator, rating.sample_id)
        if key in seen:
            raise ForgeError(f"duplicate rating for {key}")
        seen.add(key)
        task_counts.setdefault(rating.task.value, Counter())[rating.rate] += 1
        annotator_counts[rating.annotator] += 1
    per_task = {}
    for task, counts in task_counts.items():
        total = sum(counts.values())
        per_task[task] = {rate: counts.get(rate, 0) / total for rate in RATES}
    return HumanEvalReport(per_task=per_task, annotator_counts=dict(annotator_counts))


def load_ratings(path) -> list[HumanRating]:
    return read_rows(
        path,
        lambda obj: HumanRating(
            annotator=string_field(obj, "annotator"),
            sample_id=string_field(obj, "sample_id"),
            task=TaskKind(obj["task"]),
            rate=string_field(obj, "rate"),
        ),
    )


# ---------------------------------------------------------------------------
# Rendering


def render_table(rows: list[tuple[str, MetricReport]]) -> str:
    """Aligned fixed-order comparison table, one row per named report."""
    headers = ["model", *METRIC_NAMES, "GM"]
    table = [headers]
    for name, report in rows:
        cells = [name]
        for metric in METRIC_NAMES:
            v = report.values.get(metric)
            cells.append("-" if v is None else f"{v:.2f}")
        cells.append("-" if report.gm is None else f"{report.gm:.2f}")
        table.append(cells)
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(table):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
