"""Independent reference implementations used only by tests.

Each oracle computes its quantity straight from the definition (explicit
loops, no vectorization, no code shared with the package) so agreement with
the production implementations is meaningful. Quadratic-or-worse complexity
is fine; inputs are guarded small.
"""
from __future__ import annotations

import json
import math
import re
import unicodedata
from collections import Counter
from functools import lru_cache

MAX_TOKENS = 100
MAX_DIM = 64


class InputTooLarge(Exception):
    pass


def _guard_tokens(*sequences) -> None:
    for seq in sequences:
        if len(seq) > MAX_TOKENS:
            raise InputTooLarge(f"oracle inputs capped at {MAX_TOKENS} tokens")


def _guard_matrix(*matrices) -> None:
    for m in matrices:
        rows = len(m)
        cols = len(m[0]) if rows else 0
        if rows > MAX_DIM or cols > MAX_DIM:
            raise InputTooLarge(f"oracle matrices capped at {MAX_DIM}x{MAX_DIM}")


def oracle_bleu(candidate, reference, epsilon=1e-9):
    """Sentence BLEU-4 from the definition: clipped n-gram counts, fourth
    root of the precision product, brevity penalty."""
    _guard_tokens(candidate, reference)
    if not candidate or not reference:
        raise ValueError("oracle_bleu needs nonempty sequences")
    product = 1.0
    for n in range(1, 5):
        cand_grams = [tuple(candidate[i : i + n]) for i in range(len(candidate) - n + 1)]
        ref_grams = [tuple(reference[i : i + n]) for i in range(len(reference) - n + 1)]
        if not cand_grams:
            product *= epsilon
            continue
        clipped = 0
        for gram in set(cand_grams):
            clipped += min(cand_grams.count(gram), ref_grams.count(gram))
        p = clipped / len(cand_grams) if clipped > 0 else epsilon / len(cand_grams)
        product *= p
    c, r = len(candidate), len(reference)
    bp = 1.0 if c > r else math.exp(1 - r / c)
    return 100.0 * bp * product ** (1.0 / 4.0)


def counter_clip_bleu(candidate, reference, epsilon=1e-9):
    """Sentence BLEU-4 with each level's clip taken from two Counters, in the
    package's order of operations (n-grams built level from level, one
    ``log_sum`` of quarter-weighted logs, levels past the first empty clip
    skipped), so any clip that agrees with it gives the same float."""
    _guard_tokens(candidate, reference)
    log_sum = 0.0
    cand_grams, ref_grams = candidate, reference
    clipped = 1
    for n in range(1, 5):
        total = len(candidate) - n + 1
        if total <= 0:
            log_sum += 0.25 * math.log(epsilon)
            continue
        if clipped > 0:
            if n == 2:
                cand_grams = list(zip(candidate, candidate[1:]))
                ref_grams = list(zip(reference, reference[1:]))
            elif n > 2:
                cand_grams = [g + (t,) for g, t in zip(cand_grams, candidate[n - 1 :])]
                ref_grams = [g + (t,) for g, t in zip(ref_grams, reference[n - 1 :])]
            ref_counts = Counter(ref_grams)
            clipped = sum(
                min(c, ref_counts[g]) for g, c in Counter(cand_grams).items() if g in ref_counts
            )
        p = clipped / total if clipped > 0 else epsilon / total
        log_sum += 0.25 * math.log(p)
    c, r = len(candidate), len(reference)
    bp = 1.0 if c > r else math.exp(1 - r / c)
    return 100.0 * bp * math.exp(log_sum)


def oracle_lcs(a, b) -> int:
    """LCS length via the memoized recurrence."""
    _guard_tokens(a, b)
    a, b = tuple(a), tuple(b)

    @lru_cache(maxsize=None)
    def rec(i: int, j: int) -> int:
        if i == 0 or j == 0:
            return 0
        if a[i - 1] == b[j - 1]:
            return rec(i - 1, j - 1) + 1
        return max(rec(i - 1, j), rec(i, j - 1))

    result = rec(len(a), len(b))
    rec.cache_clear()
    return result


def oracle_rouge_l(candidate, reference, beta=1.2):
    if not candidate or not reference:
        raise ValueError("oracle_rouge_l needs nonempty sequences")
    lcs = oracle_lcs(candidate, reference)
    p = lcs / len(candidate)
    r = lcs / len(reference)
    if p + r == 0:
        return 0.0
    return 100.0 * (1 + beta**2) * p * r / (r + beta**2 * p)


def oracle_ngrams(tokens, n=3):
    """The set of token n-grams; a sequence shorter than n is one gram,
    itself whole, and an empty one has none."""
    tokens = tuple(tokens)
    if not tokens:
        return set()
    if len(tokens) < n:
        return {tokens}
    return {tokens[i : i + n] for i in range(len(tokens) - n + 1)}


def oracle_jaccard(tokens_a, tokens_b, n=3):
    """Pairwise n-gram set Jaccard similarity; short sequences contribute
    themselves whole, matching the documented convention."""
    _guard_tokens(tokens_a, tokens_b)
    ga, gb = oracle_ngrams(tokens_a, n), oracle_ngrams(tokens_b, n)
    if not ga and not gb:
        return 1.0
    inter = sum(1 for g in ga if g in gb)
    union = len(ga) + len(gb) - inter
    return inter / union


def oracle_confusion_prf(predictions, gold):
    """Macro P/R/F1 from an explicit confusion matrix over gold labels."""
    _guard_tokens(predictions, gold)
    if len(predictions) != len(gold):
        raise ValueError("length mismatch")
    labels = sorted(set(gold))
    matrix: dict[tuple, int] = {}
    for p, g in zip(predictions, gold):
        matrix[(g, p)] = matrix.get((g, p), 0) + 1
    ps, rs, fs = [], [], []
    for label in labels:
        tp = matrix.get((label, label), 0)
        predicted = sum(v for (g, p), v in matrix.items() if p == label)
        actual = sum(v for (g, p), v in matrix.items() if g == label)
        precision = tp / predicted if predicted else 0.0
        recall = tp / actual
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        ps.append(precision)
        rs.append(recall)
        fs.append(f1)
    k = len(labels)
    return 100.0 * sum(ps) / k, 100.0 * sum(rs) / k, 100.0 * sum(fs) / k


def oracle_perplexity(logprobs):
    _guard_tokens(logprobs)
    if not logprobs:
        raise ValueError("empty sequence")
    return math.exp(-math.fsum(logprobs) / len(logprobs))


def _cosine(u, v):
    dot = sum(a * b for a, b in zip(u, v))
    nu = math.sqrt(sum(a * a for a in u))
    nv = math.sqrt(sum(b * b for b in v))
    if nu == 0 or nv == 0:
        return 0.0
    return dot / (nu * nv)


def oracle_bert_score(candidate_vectors, reference_vectors):
    """Greedy matching with explicit max-per-row loops; the harmonic mean is
    taken only when both sides are positive."""
    _guard_tokens(candidate_vectors, reference_vectors)
    if not candidate_vectors or not reference_vectors:
        raise ValueError("empty side")
    precision = 0.0
    for u in candidate_vectors:
        precision += max(_cosine(u, v) for v in reference_vectors)
    precision /= len(candidate_vectors)
    recall = 0.0
    for v in reference_vectors:
        recall += max(_cosine(u, v) for u in candidate_vectors)
    recall /= len(reference_vectors)
    f1 = 2 * precision * recall / (precision + recall) if precision > 0 and recall > 0 else 0.0
    return 100.0 * precision, 100.0 * recall, 100.0 * f1


def oracle_dense_lora(W0, A, B, x):
    """Materialize W0 + B A and multiply, all with explicit loops."""
    _guard_matrix(W0)
    d = len(W0)
    k = len(W0[0])
    r = len(B[0])
    dense = [[0.0] * k for _ in range(d)]
    for i in range(d):
        for j in range(k):
            delta = 0.0
            for t in range(r):
                delta += B[i][t] * A[t][j]
            dense[i][j] = W0[i][j] + delta
    return [sum(dense[i][j] * x[j] for j in range(k)) for i in range(d)]


def oracle_fd_gradient(W0, A, B, x, y, eps=1e-5):
    """Central finite-difference gradients of 0.5*||(W0+BA)x - y||^2 with
    respect to every entry of A and B."""
    _guard_matrix(W0)

    def loss(A_, B_):
        h = oracle_dense_lora(W0, A_, B_, x)
        return 0.5 * sum((hi - yi) ** 2 for hi, yi in zip(h, y))

    def perturb(M, i, j, delta):
        out = [row[:] for row in M]
        out[i][j] += delta
        return out

    grad_A = [
        [
            (loss(perturb(A, i, j, eps), B) - loss(perturb(A, i, j, -eps), B)) / (2 * eps)
            for j in range(len(A[0]))
        ]
        for i in range(len(A))
    ]
    grad_B = [
        [
            (loss(A, perturb(B, i, j, eps)) - loss(A, perturb(B, i, j, -eps))) / (2 * eps)
            for j in range(len(B[0]))
        ]
        for i in range(len(B))
    ]
    return grad_A, grad_B


def oracle_clean_text(raw):
    """Text cleaning from its definition: each character of a stripped
    Unicode category (So, Sk, C*) or a variation selector becomes a space,
    then whitespace runs collapse to one space and the ends are trimmed."""
    strip = {"So", "Sk", "Cc", "Cf", "Co", "Cs"}
    out = []
    for c in raw:
        selector = "\ufe00" <= c <= "\ufe0f" or "\U000e0100" <= c <= "\U000e01ef"
        out.append(" " if selector or unicodedata.category(c) in strip else c)
    return " ".join("".join(out).split())


def oracle_read_rows(data, parse):
    """A JSONL read from its definition, one ``json.loads`` per line: lines end
    only at \\r\\n, \\n or \\r; a line that is empty or all whitespace is no
    row; a line that is not UTF-8, not JSON, nested too deeply or not an
    object is bad, and so is one that ``parse`` rejects with KeyError,
    TypeError or ValueError. Returns the parsed rows and the (line number,
    reason) of each bad line, in file order."""
    lines = re.split(rb"\r\n|\n|\r", data)
    if lines[-1] == b"":
        lines.pop()
    rows, bad = [], []
    for number, raw in enumerate(lines, 1):
        try:
            text = raw.decode("utf-8")
            if text == "" or text.isspace():
                continue
            value = json.loads(text)
            if type(value) is not dict:
                raise ValueError("row is not a JSON object")
            rows.append(parse(value))
        except KeyError as exc:
            bad.append((number, f"row has no {exc.args[0]!r} key"))
        except (TypeError, ValueError, RecursionError) as exc:
            bad.append((number, str(exc)))
    return rows, bad
