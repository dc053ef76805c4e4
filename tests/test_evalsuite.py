import json
import math
import random
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from ecomforge import evalsuite
from ecomforge.core import ForgeError, TaskKind, normalize_label, tokenize
from ecomforge.evalsuite import (
    BLEU_CHUNK_PAIRS,
    METRIC_NAMES,
    HumanRating,
    MetricReport,
    Sample,
    TASK_REFERENCES,
    _lcs_length,
    bert_style_score,
    bleu,
    bleu_many,
    evaluate_run,
    geometric_mean,
    gm_from_metrics,
    human_eval_report,
    load_ratings,
    macro_prf,
    perplexity,
    ppl_transform,
    render_table,
    rouge_l,
)
from ecomforge.formulate import LABEL_TASKS
from ecomforge.modelio import EMBED, LOGPROBS, BackendError, MockBackend, TransportError

from oracles import (
    counter_clip_bleu,
    oracle_bert_score,
    oracle_bleu,
    oracle_confusion_prf,
    oracle_lcs,
    oracle_perplexity,
    oracle_rouge_l,
)


class TestBleu:
    def test_perfect_match(self):
        tokens = "the quick brown fox jumps".split()
        assert bleu(tokens, list(tokens)) == pytest.approx(100.0)

    def test_disjoint_near_zero(self):
        assert bleu("a b c d e".split(), "v w x y z".split()) < 0.01

    def test_known_case_with_definition_oracle(self):
        candidate = "the cat sat".split()
        reference = "the cat sat down".split()
        got = bleu(candidate, reference)
        assert got == pytest.approx(oracle_bleu(candidate, reference), abs=1e-9)
        # By hand: p1=p2=p3=1, no 4-grams so p4=eps, BP=e^(1-4/3).
        by_hand = 100.0 * math.exp(1 - 4 / 3) * (1e-9) ** 0.25
        assert got == pytest.approx(by_hand, rel=1e-9)

    def test_empty_sides(self):
        with pytest.raises(ForgeError, match="candidate token sequence is empty"):
            bleu([], ["a"])
        with pytest.raises(ForgeError, match="reference token sequence is empty"):
            bleu(["a"], [])

    def test_short_candidate_smoothed(self):
        assert 0.0 < bleu(["one"], ["one"]) < 1.0  # no 2-4 grams, epsilon floor

    @given(
        st.lists(st.sampled_from("abcdef"), min_size=1, max_size=25),
        st.lists(st.sampled_from("abcdef"), min_size=1, max_size=25),
    )
    def test_bounded_zero_to_hundred(self, cand, ref):
        assert 0.0 <= bleu(cand, ref) <= 100.0 + 1e-9
        assert 0.0 <= rouge_l(cand, ref) <= 100.0 + 1e-9

    @given(st.lists(st.sampled_from("abcdef"), min_size=4, max_size=25))
    def test_self_score_is_hundred(self, tokens):
        assert bleu(tokens, list(tokens)) == pytest.approx(100.0)
        assert rouge_l(tokens, list(tokens)) == pytest.approx(100.0)


class TestRougeL:
    def test_identical(self):
        assert rouge_l("a b c".split(), "a b c".split()) == pytest.approx(100.0)

    def test_no_overlap(self):
        assert rouge_l(["a", "b"], ["c", "d"]) == 0.0

    def test_swapped_middle(self):
        got = rouge_l(list("abcd"), list("acbd"))
        assert oracle_lcs(list("abcd"), list("acbd")) == 3
        assert got == pytest.approx(75.0)

    def test_exhaustive_lcs_oracle(self):
        cases = [
            ("the quick brown fox", "the brown quick fox"),
            ("a b c a b c", "c b a"),
            ("one two three", "four five six"),
            ("repeat repeat repeat", "repeat"),
        ]
        for cand, ref in cases:
            got = rouge_l(cand.split(), ref.split())
            assert got == pytest.approx(oracle_rouge_l(cand.split(), ref.split()), abs=1e-9)


# Three tokens and up to 100 per side: many repeats, and bit masks that cross
# the 64-bit word boundary.
THREE_TOKEN_LISTS = st.lists(st.sampled_from(["x", "y", "z"]), min_size=1, max_size=100)


class TestOverlapKernelsAgainstOracles:
    @given(THREE_TOKEN_LISTS, THREE_TOKEN_LISTS)
    def test_lcs_and_rouge_l_match_recurrence(self, cand, ref):
        assert _lcs_length(cand, ref) == oracle_lcs(cand, ref)
        assert rouge_l(cand, ref) == pytest.approx(oracle_rouge_l(cand, ref), rel=1e-12)

    @given(THREE_TOKEN_LISTS, THREE_TOKEN_LISTS)
    def test_bleu_matches_definition(self, cand, ref):
        assert bleu(cand, ref) == pytest.approx(oracle_bleu(cand, ref), rel=1e-9)

    def test_seventy_token_sides(self):
        words = "red blue green red blue wool silk red".split()
        cand = [words[(i * 3) % len(words)] for i in range(70)]
        ref = [words[(i * 5 + 1) % len(words)] for i in range(70)]
        lcs = oracle_lcs(cand, ref)
        assert 0 < lcs < 70
        assert _lcs_length(cand, ref) == lcs
        assert _lcs_length(ref, cand) == lcs
        assert rouge_l(cand, ref) == pytest.approx(100.0 * lcs / 70, rel=1e-12)
        assert bleu(cand, ref) == pytest.approx(oracle_bleu(cand, ref), rel=1e-9)


ALPHABETS = pytest.mark.parametrize(
    "alphabet",
    [("x", "y"), ("x", "y", "z"), tuple(f"w{i}" for i in range(20))],
    ids=["2-token", "3-token", "20-token"],
)


class TestBleuClipIsExact:
    """The batch kernel's clip gives the same float as two Counters."""

    @ALPHABETS
    @given(data=st.data())
    def test_equals_counter_clip(self, alphabet, data):
        tokens = st.lists(st.sampled_from(alphabet), min_size=1, max_size=60)
        pairs = data.draw(st.lists(st.tuples(tokens, tokens), min_size=1, max_size=6))
        cands, refs = [c for c, _ in pairs], [r for _, r in pairs]
        assert bleu_many(cands, refs) == [counter_clip_bleu(c, r) for c, r in pairs]
        assert [bleu(c, r) for c, r in pairs] == [counter_clip_bleu(c, r) for c, r in pairs]

    # Batches one pair short of a chunk, one chunk, and one pair into a
    # second chunk. Sides of 1-3 tokens have levels with no grams.
    @ALPHABETS
    @given(
        size=st.sampled_from([BLEU_CHUNK_PAIRS - 1, BLEU_CHUNK_PAIRS, BLEU_CHUNK_PAIRS + 1]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batches_across_a_chunk_boundary_equal_counter_clip(self, alphabet, size, seed):
        rnd = random.Random(seed)

        def side():
            return [rnd.choice(alphabet) for _ in range(rnd.randint(1, 60))]

        cands, refs = [side() for _ in range(size)], [side() for _ in range(size)]
        assert bleu_many(cands, refs) == [counter_clip_bleu(c, r) for c, r in zip(cands, refs)]

    def test_long_repetitive_pair_is_counted_in_linear_time(self):
        # 20,000 tokens cycling over 300 words, against the same cycle
        # rotated: every gram repeats about 66 times on each side. A clip
        # that counts each gram with list.count took seconds here.
        words = [f"w{i}" for i in range(300)]
        cand = [words[i % 300] for i in range(20_000)]
        ref = cand[5_000:] + cand[:5_000]
        started = time.perf_counter()
        clips = evalsuite._clip_counts([cand], [ref])[:, 0].tolist()
        score = bleu_many([cand], [ref])[0]
        assert time.perf_counter() - started < 1.0
        for n in range(1, 5):
            cand_grams = Counter(zip(*(cand[i:] for i in range(n))))
            ref_grams = Counter(zip(*(ref[i:] for i in range(n))))
            assert clips[n - 1] == sum((cand_grams & ref_grams).values())
        log_sum = 0.0
        for n in range(1, 5):
            log_sum += 0.25 * math.log(clips[n - 1] / (20_000 - n + 1))
        assert score == 100.0 * math.exp(log_sum)

    def test_batch_refuses_what_one_pair_refuses(self):
        with pytest.raises(ForgeError, match="^candidate token sequence is empty$"):
            bleu_many([["a"], []], [["a"], ["b"]])
        with pytest.raises(ForgeError, match="^reference token sequence is empty$"):
            bleu_many([["a"], ["b"]], [["a"], []])
        with pytest.raises(ForgeError, match="^2 candidates vs 1 references$"):
            bleu_many([["a"], ["b"]], [["a"]])
        assert bleu_many([], []) == []

    def test_repeated_gram_clips_to_its_reference_count(self):
        # "the" is 4 of the candidate's 4 unigrams and 2 of the reference's 3:
        # it clips to 2, and no bigram is shared.
        cand, ref = "the the the the".split(), "the cat the".split()
        assert evalsuite._clip_counts([cand], [ref])[:, 0].tolist() == [2, 0, 0, 0]
        assert bleu(cand, ref) == counter_clip_bleu(cand, ref)
        eps = evalsuite.BLEU_EPSILON
        logs = [math.log(2 / 4), math.log(eps / 3), math.log(eps / 2), math.log(eps / 1)]
        log_sum = 0.0
        for value in logs:
            log_sum += 0.25 * value
        assert bleu(cand, ref) == 100.0 * math.exp(log_sum)


class TestPerplexity:
    def test_certainty(self):
        assert perplexity([0.0, 0.0, 0.0]) == pytest.approx(1.0)

    def test_uniform_binary(self):
        assert perplexity([-math.log(2)] * 4) == pytest.approx(2.0)

    def test_arithmetic_oracle(self):
        assert perplexity([-1.0, -2.0, -3.0]) == pytest.approx(math.e**2, rel=1e-12)

    def test_errors(self):
        with pytest.raises(ForgeError, match="no token logprobs"):
            perplexity([])
        with pytest.raises(ForgeError, match="logprobs must be <= 0"):
            perplexity([-1.0, 0.5])

    @given(st.lists(st.floats(-8, 0), min_size=1, max_size=30))
    def test_order_invariant_and_monotone(self, logprobs):
        assert perplexity(logprobs) == pytest.approx(perplexity(list(reversed(logprobs))))
        bumped = [logprobs[0] - 1.0] + logprobs[1:]
        assert perplexity(bumped) > perplexity(logprobs)


class TestPplTransform:
    def test_e(self):
        assert ppl_transform(math.e) == pytest.approx(1.0)

    def test_published_value(self):
        assert ppl_transform(132.86) == pytest.approx(1 / math.log(132.86), rel=1e-12)
        assert ppl_transform(132.86) == pytest.approx(0.20455, abs=5e-5)

    def test_at_one(self):
        with pytest.raises(ForgeError, match="transform undefined for PPL 1.0 <= 1"):
            ppl_transform(1.0)

    # 1/ln(x) is strictly decreasing, but two inputs within float rounding
    # of each other can map to the same float, as the example's pair does.
    @given(st.floats(1.0001, 1e6), st.floats(1.0001, 1e6))
    @example(1e6, 999999.9999999999)
    def test_strictly_decreasing(self, a, b):
        lo, hi = sorted((a, b))
        assert ppl_transform(lo) >= ppl_transform(hi)
        if hi > lo * (1 + 1e-9):
            assert ppl_transform(lo) > ppl_transform(hi)


class TestMacroPrf:
    def test_all_correct(self):
        gold = ["shoes", "jewelry", "shoes"]
        assert macro_prf(list(gold), gold) == pytest.approx((100.0, 100.0, 100.0))

    def test_all_unmapped(self):
        gold = ["shoes", "jewelry"]
        assert macro_prf([None, None], gold) == (0.0, 0.0, 0.0)

    def test_hand_built_confusion_matrix(self):
        # 3 classes, 6 samples, one confusion: a "shoes" predicted "jewelry".
        gold = ["shoes", "shoes", "jewelry", "jewelry", "clothing", "clothing"]
        pred = ["shoes", "jewelry", "jewelry", "jewelry", "clothing", "clothing"]
        got = macro_prf(pred, gold)
        # shoes: tp=1 fp=0 fn=1 -> P=1, R=.5, F=2/3
        # jewelry: tp=2 fp=1 fn=0 -> P=2/3, R=1, F=.8
        # clothing: tp=2 fp=0 fn=0 -> P=1, R=1, F=1
        assert got[0] == pytest.approx(100 * (1 + 2 / 3 + 1) / 3)
        assert got[1] == pytest.approx(100 * (0.5 + 1 + 1) / 3)
        assert got[2] == pytest.approx(100 * (2 / 3 + 0.8 + 1) / 3)
        assert got == pytest.approx(oracle_confusion_prf(pred, gold))

    def test_prediction_outside_gold_counts_as_miss(self):
        gold = ["shoes", "shoes"]
        pred = ["clothing", "shoes"]
        p, r, f1 = macro_prf(pred, gold)
        assert (p, r) == (100.0, 50.0)

    def test_errors(self):
        with pytest.raises(ForgeError, match="1 predictions vs 2 gold labels"):
            macro_prf(["a"], ["a", "b"])
        with pytest.raises(Exception):
            macro_prf([], [])


class TestBertStyleScore:
    def test_identical_vectors(self):
        vectors = [[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]]
        assert bert_style_score(vectors, [list(v) for v in vectors]) == pytest.approx(
            (100.0, 100.0, 100.0)
        )

    def test_orthogonal_vocabularies(self):
        cand = [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]
        ref = [[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
        assert bert_style_score(cand, ref) == (0.0, 0.0, 0.0)

    def test_hand_set_toy_against_exhaustive_oracle(self):
        cand = [[1.0, 0.0], [0.8, 0.6], [0.0, 1.0]]
        ref = [[0.6, 0.8], [1.0, 0.0]]
        got = bert_style_score(cand, ref)
        assert got == pytest.approx(oracle_bert_score(cand, ref), abs=1e-9)

    def test_errors(self):
        with pytest.raises(ForgeError, match="both sides need at least one token vector"):
            bert_style_score([], [[1.0]])
        with pytest.raises(Exception):
            bert_style_score([[1.0, 0.0]], [[1.0]])


class TestGeometricMean:
    def test_all_ones(self):
        assert geometric_mean([1.0] * 18) == pytest.approx(1.0)

    def test_published_row_best_model(self):
        row = [15.18, 46.96, 0.45, 9.87, 18.88, 54.36, 4.66, 25.69,
               1 / math.log(132.86), 60.03, 63.80, 59.01, 59.52, 61.09,
               59.71, 4.04, 15.86, 86.43]
        assert geometric_mean(row) == pytest.approx(17.41, abs=0.05)

    def test_published_row_teacher(self):
        row = [16.76, 47.65, 0.56, 11.15, 26.08, 60.04, 9.10, 35.00,
               1 / math.log(120.86), 49.48, 49.23, 49.35, 19.58, 19.18,
               19.38, 2.83, 14.41, 85.53]
        assert geometric_mean(row) == pytest.approx(15.06, abs=0.05)

    def test_arity_and_positivity(self):
        with pytest.raises(ForgeError, match="expected 18 values, got 17"):
            geometric_mean([1.0] * 17)
        with pytest.raises(ForgeError, match="^value at index 9 is not positive: 0.0$"):
            geometric_mean([1.0] * 9 + [0.0] + [1.0] * 8)

    @given(st.lists(st.floats(0.01, 1000), min_size=18, max_size=18), st.randoms())
    def test_permutation_invariant(self, values, rnd):
        shuffled = list(values)
        rnd.shuffle(shuffled)
        assert geometric_mean(shuffled) == pytest.approx(geometric_mean(values), rel=1e-9)

    @given(st.lists(st.floats(0.01, 1000), min_size=18, max_size=18), st.floats(0.1, 10))
    def test_scale_consistent(self, values, c):
        scaled = [v * c for v in values]
        assert geometric_mean(scaled) == pytest.approx(c * geometric_mean(values), rel=1e-9)

    def test_transform_composition_preserves_ordering(self):
        # Lower PPL (better) must give higher GM with everything else fixed.
        base = [10.0] * 18
        low, high = list(base), list(base)
        low[8] = ppl_transform(50.0)
        high[8] = ppl_transform(500.0)
        assert geometric_mean(low) > geometric_mean(high)


class TestEvaluateRun:
    def _smoke_data(self):
        # Generation == reference everywhere; title = description = query so
        # ads and rewriting metrics hit 100 on both reference sides.
        text = "luxury walnut chess set with storage"
        label_samples = [
            Sample("s1", "home and living", ("home and living",)),
            Sample("s2", "jewelry", ("jewelry",)),
        ]
        return {
            TaskKind.ADS_GENERATION: [Sample("a1", text, (text, text))],
            TaskKind.TITLE_REWRITING: [Sample("t1", text, (text, text))],
            TaskKind.PRODUCT_CLASSIFICATION: list(label_samples),
            TaskKind.INTENT_SPECULATION: list(label_samples),
            TaskKind.GENERAL_QA: [Sample("q1", text, (text,))],
        }

    def test_smoke_all_hundreds(self):
        backend = MockBackend(logprob_per_token=-1.0)  # PPL = e, transform = 1
        report = evaluate_run(self._smoke_data(), backend)
        assert not report.partial
        for name in METRIC_NAMES:
            if name == "PPL":
                assert report.values[name] == pytest.approx(math.e)
            else:
                assert report.values[name] == pytest.approx(100.0)
        expected_gm = math.exp((17 * math.log(100.0) + math.log(1.0)) / 18)
        assert report.gm == pytest.approx(expected_gm, rel=1e-9)

    def test_missing_task_partial_report(self):
        data = self._smoke_data()
        data[TaskKind.GENERAL_QA] = []
        report = evaluate_run(data, MockBackend(logprob_per_token=-1.0))
        assert report.partial
        assert report.missing_tasks == [TaskKind.GENERAL_QA.value]
        assert report.gm is None
        assert report.values["BE_qa"] is None
        assert report.to_json()["GM"] is None

    @pytest.mark.parametrize(
        "logprob, wrong_label, undefined_by",
        [(-1.0, True, ["P_pt", "R_pt", "F1_pt"]), (0.0, False, ["PPL"])],
        ids=["zero-metric", "ppl-of-one"],
    )
    def test_undefined_aggregate_keeps_every_value(self, logprob, wrong_label, undefined_by):
        data = self._smoke_data()
        if wrong_label:
            data[TaskKind.PRODUCT_CLASSIFICATION] = [Sample("s1", "shoes", ("jewelry",))]
        report = evaluate_run(data, MockBackend(logprob_per_token=logprob))
        assert not report.partial and report.gm is None
        assert all(report.values[name] is not None for name in METRIC_NAMES)
        payload = report.to_json()
        assert payload["GM"] is None and payload["gm_undefined_by"] == undefined_by
        assert set(payload) == set(METRIC_NAMES) | {"GM", "gm_undefined_by"}

    def test_empty_generation_names_task_and_sample(self):
        data = self._smoke_data()
        data[TaskKind.GENERAL_QA].append(Sample("q2", " \t", ("an answer",)))
        with pytest.raises(ForgeError, match=r"^general_qa: sample 'q2' has an empty generation$"):
            evaluate_run(data, MockBackend(logprob_per_token=-1.0))

    def test_label_normalization_applied(self):
        data = {
            TaskKind.PRODUCT_CLASSIFICATION: [
                Sample("s1", "It belongs to Home & Living!", ("home and living",))
            ]
        }
        report = evaluate_run(data, MockBackend())
        assert report.values["P_pt"] == pytest.approx(100.0)

    def test_each_reference_field_scores_its_own_keys(self):
        title, other = "luxury walnut chess set", "handmade silver ring for women"
        data = {
            TaskKind.ADS_GENERATION: [Sample("a1", title, (title, other))],
            TaskKind.TITLE_REWRITING: [Sample("t1", title, (other, title))],
        }
        values = evaluate_run(data, MockBackend()).values
        assert values["BL_At"] == pytest.approx(100.0) and values["RL_At"] == pytest.approx(100.0)
        assert values["BL_Ad"] < 1.0 and values["RL_Ad"] == 0.0
        assert values["BL_Tq"] == pytest.approx(100.0) and values["RL_Tq"] == pytest.approx(100.0)
        assert values["BL_Tt"] < 1.0 and values["RL_Tt"] == 0.0

    def test_task_table_matches_report(self):
        keys = [key for fields in TASK_REFERENCES.values() for _, ks in fields for key in ks]
        keys += ["PPL", "BE_qa"]
        assert len(keys) == len(set(keys))
        assert set(keys) == set(METRIC_NAMES)
        assert list(TASK_REFERENCES) == list(TaskKind)

    def test_report_json_has_19_fields(self):
        report = evaluate_run(self._smoke_data(), MockBackend(logprob_per_token=-1.0))
        payload = report.to_json()
        assert set(payload) == set(METRIC_NAMES) | {"GM"}

    def test_gm_from_metrics_matches_manual(self):
        values = {name: 50.0 for name in METRIC_NAMES}
        values["PPL"] = 132.86
        manual = [50.0] * 18
        manual[METRIC_NAMES.index("PPL")] = 1 / math.log(132.86)
        assert gm_from_metrics(values) == pytest.approx(geometric_mean(manual))


class _CountingBackend(MockBackend):
    """The mock backend, recording each request's (kind, text) in order and
    refusing the texts in ``fail_on``."""

    def __init__(self, fail_on=()):
        super().__init__()
        self.calls = []
        self.fail_on = set(fail_on)

    def send(self, request):
        self.calls.append((request.kind, request.text))
        if request.text in self.fail_on:
            raise TransportError(f"scorer refused {request.text!r}", status=500)
        return super().send(request)


def _per_sample_scorer_metrics(data, backend):
    """PPL and BE_qa as evaluate_run computed them before it scored each
    distinct text once: one backend call per sample and side."""
    rewriting = data[TaskKind.TITLE_REWRITING]
    ppl = sum(perplexity(backend.score_logprobs(s.generation)) for s in rewriting)
    f1s = []
    for s in data[TaskKind.GENERAL_QA]:
        cand_vectors = backend.embed_tokens(s.generation)
        ref_vectors = backend.embed_tokens(s.references[0])
        f1s.append(bert_style_score(cand_vectors, ref_vectors)[2])
    return {"PPL": ppl / len(rewriting), "BE_qa": sum(f1s) / len(f1s)}


def _per_sample_metrics(data, backend):
    """All 18 values as evaluate_run computed them before it tokenized and
    resolved each distinct text once: every sample's generation and
    references tokenized, and each label generation resolved, on their own."""
    values = _per_sample_scorer_metrics(data, backend)
    for task, fields in TASK_REFERENCES.items():
        samples = data[task]
        if task in LABEL_TASKS:
            predictions = [normalize_label(s.generation) for s in samples]
            gold = [s.references[0] for s in samples]
            values.update(zip(fields[0][1], macro_prf(predictions, gold)))
            continue
        gens = [tokenize(s.generation) for s in samples]
        for i, (_, (bleu_key, rouge_key)) in enumerate(fields):
            refs = [tokenize(s.references[i]) for s in samples]
            bleus = [counter_clip_bleu(g, r) for g, r in zip(gens, refs)]
            rouges = [rouge_l(g, r) for g, r in zip(gens, refs)]
            values[bleu_key] = sum(bleus) / len(bleus)
            values[rouge_key] = sum(rouges) / len(rouges)
    return values


class TestScorerCallsPerDistinctText:
    # Repeated generations in every task, a repeated Q&A reference, one Q&A
    # text that is a generation in one sample and the reference in another,
    # and an ads title that is also a rewriting reference.
    ADS = [
        ("oak desk lamp", "oak desk lamp with dimmer", "warm light for late work"),
        ("brass lamp", "oak desk lamp with dimmer", "warm light for late work"),
        ("oak desk lamp", "brass reading lamp", "oak desk lamp"),
    ]
    LABELS = ["It is Home & Living!", "jewelry", "It is Home & Living!", "jewelry", "shoes?"]
    REWRITES = ["oak desk lamp", "silver ring", "oak desk lamp", "wool scarf", "silver ring"]
    QA = [
        ("yes it fits", "it fits a queen bed"),
        ("ships in two days", "yes it fits"),
        ("yes it fits", "it fits a queen bed"),
        ("no", "it fits a queen bed"),
        ("ships in two days", "two to three days"),
    ]

    def _data(self):
        title = "oak desk lamp with dimmer"
        labels = [
            Sample(f"l{i}", gen, (gold,))
            for i, (gen, gold) in enumerate(zip(self.LABELS, ["home and living", "jewelry"] * 3))
        ]
        return {
            TaskKind.ADS_GENERATION: [
                Sample(f"a{i}", gen, refs) for i, (gen, *refs) in enumerate(self.ADS)
            ],
            TaskKind.TITLE_REWRITING: [
                Sample(f"t{i}", gen, (title, "desk lamp")) for i, gen in enumerate(self.REWRITES)
            ],
            TaskKind.PRODUCT_CLASSIFICATION: labels,
            TaskKind.INTENT_SPECULATION: labels[::-1],
            TaskKind.GENERAL_QA: [
                Sample(f"q{i}", gen, (ref,)) for i, (gen, ref) in enumerate(self.QA)
            ],
        }

    # The distinct tokens of the distinct Q&A texts, in first-seen order.
    QA_TOKENS = "yes it fits a queen bed ships in two days no to three"

    def test_each_distinct_text_is_scored_once_in_first_seen_order(self, monkeypatch):
        bert_calls = []
        score = evalsuite.bert_style_score

        def counted(cand, ref):
            bert_calls.append(1)
            return score(cand, ref)

        monkeypatch.setattr(evalsuite, "bert_style_score", counted)
        backend = _CountingBackend()
        evaluate_run(self._data(), backend)
        assert [text for kind, text in backend.calls if kind == LOGPROBS] == [
            "oak desk lamp", "silver ring", "wool scarf"
        ]
        assert [text for kind, text in backend.calls if kind == EMBED] == [self.QA_TOKENS]
        assert len(bert_calls) == len(self.QA)

    def test_each_distinct_text_is_tokenized_once_per_run_and_resolved_once_per_task(
        self, monkeypatch
    ):
        data = self._data()
        expected = _per_sample_metrics(data, MockBackend())
        calls = {"tokenize": [], "normalize_label": []}
        for name, fn in (("tokenize", tokenize), ("normalize_label", normalize_label)):
            monkeypatch.setattr(
                evalsuite, name, lambda text, fn=fn, seen=calls[name]: seen.append(text) or fn(text)
            )
        report = evaluate_run(data, MockBackend())
        assert Counter(calls["normalize_label"]) == Counter(
            t for task in LABEL_TASKS for t in {s.generation for s in data[task]}
        )
        # The ads title "oak desk lamp with dimmer" is also every rewriting
        # sample's title reference: it is tokenized once.
        texts = {
            t
            for task, samples in data.items()
            if task not in LABEL_TASKS
            for s in samples
            for t in (s.generation, *s.references)
        }
        assert Counter(calls["tokenize"]) == Counter(texts)
        assert report.values == expected

    def test_report_equals_the_per_sample_oracle_bit_for_bit(self):
        data = self._data()
        report = evaluate_run(data, _CountingBackend())
        oracle = _per_sample_scorer_metrics(data, MockBackend())
        assert report.values["PPL"] == oracle["PPL"]
        assert report.values["BE_qa"] == oracle["BE_qa"]
        # The other 16 metrics never call the backend.
        assert report.gm == gm_from_metrics({**report.values, **oracle})

    @pytest.mark.parametrize("chunk", [1, 4, 13, 14])
    def test_embed_chunks_split_the_distinct_tokens(self, monkeypatch, chunk):
        monkeypatch.setattr(evalsuite, "EMBED_CHUNK_TOKENS", chunk)
        data = self._data()
        backend = _CountingBackend()
        report = evaluate_run(data, backend)
        words = self.QA_TOKENS.split()
        assert [text for kind, text in backend.calls if kind == EMBED] == [
            " ".join(words[i : i + chunk]) for i in range(0, len(words), chunk)
        ]
        assert report.values["BE_qa"] == _per_sample_scorer_metrics(data, MockBackend())["BE_qa"]

    @pytest.mark.parametrize(
        "kind, calls",
        [
            (LOGPROBS, ["oak desk lamp", "silver ring", "wool scarf"]),
            (EMBED, ["yes it fits a", "queen bed ships in"]),
        ],
        ids=["ppl", "embed"],
    )
    def test_a_failing_text_surfaces_its_error(self, monkeypatch, kind, calls):
        # Four tokens per embed call: the Q&A tokens take four calls, and the
        # second one is refused.
        monkeypatch.setattr(evalsuite, "EMBED_CHUNK_TOKENS", 4)
        backend = _CountingBackend(fail_on={calls[-1]})
        with pytest.raises(TransportError, match=f"^scorer refused '{calls[-1]}'$"):
            evaluate_run(self._data(), backend)
        # The calls made up to the failure are the ones before it, each once.
        assert [t for k, t in backend.calls if k == kind] == calls

    @pytest.mark.parametrize(
        "answer, message",
        [
            (lambda vectors, n: vectors[:-1], "^6 embedding vectors for 7 tokens$"),
            (lambda vectors, n: vectors + vectors[:1], "^8 embedding vectors for 7 tokens$"),
            (
                lambda vectors, n: [v[:8] for v in vectors] if n else vectors,
                "^embedding width 8 differs from the first chunk's 16$",
            ),
        ],
        ids=["short", "long", "width-across-chunks"],
    )
    def test_embeddings_that_do_not_fit_the_tokens_are_refused(self, monkeypatch, answer, message):
        """A backend answering another vector count than the tokens sent, or
        another width than an earlier chunk's, would put every later row on
        another token."""
        sent = []

        class Misfit(MockBackend):
            def embed_tokens(self, text):
                sent.append(text)
                return answer(super().embed_tokens(text), len(sent) - 1)

        # Seven tokens per embed call: the Q&A tokens take two calls.
        monkeypatch.setattr(evalsuite, "EMBED_CHUNK_TOKENS", 7)
        with pytest.raises(BackendError, match=message):
            evaluate_run(self._data(), Misfit())


class TestHumanEval:
    def test_all_a(self):
        ratings = [
            HumanRating(f"ann{i}", f"s{i}", TaskKind.ADS_GENERATION, "A") for i in range(10)
        ]
        report = human_eval_report(ratings)
        assert report.per_task["ads_generation"] == {"A": 1.0, "B": 0.0, "C": 0.0, "D": 0.0}

    def test_duplicate_rejected(self):
        ratings = [
            HumanRating("ann1", "s1", TaskKind.ADS_GENERATION, "A"),
            HumanRating("ann1", "s1", TaskKind.ADS_GENERATION, "B"),
        ]
        with pytest.raises(ForgeError, match="duplicate rating for"):
            human_eval_report(ratings)

    def test_counting_oracle_hundred_ratings(self):
        rates = ["A", "B", "C", "D"]
        tasks = [TaskKind.ADS_GENERATION, TaskKind.TITLE_REWRITING]
        ratings = [
            HumanRating(f"ann{i % 10}", f"s{i}", tasks[i % 2], rates[(i * 7) % 4])
            for i in range(100)
        ]
        report = human_eval_report(ratings)
        for task in tasks:
            counts = {r: 0 for r in rates}
            total = 0
            for rating in ratings:
                if rating.task is task:
                    counts[rating.rate] += 1
                    total += 1
            assert report.per_task[task.value] == {
                r: counts[r] / total for r in rates
            }
            assert sum(report.per_task[task.value].values()) == pytest.approx(1.0)
        assert report.annotator_counts == {f"ann{i}": 10 for i in range(10)}

    def test_invalid_rate_and_task(self):
        with pytest.raises(ValueError):
            HumanRating("a", "s", TaskKind.ADS_GENERATION, "E")
        with pytest.raises(ValueError):
            HumanRating("a", "s", TaskKind.GENERAL_QA, "A")

    def test_load_ratings(self, tmp_path):
        path = tmp_path / "ratings.jsonl"
        path.write_text(
            json.dumps(
                {"annotator": "ann1", "sample_id": "s1", "task": "ads_generation", "rate": "B"}
            )
            + "\n",
            encoding="utf-8",
        )
        ratings = load_ratings(path)
        assert ratings == [HumanRating("ann1", "s1", TaskKind.ADS_GENERATION, "B")]


class TestRenderTable:
    def test_columns_in_published_order(self):
        report = MetricReport(values={n: 1.0 for n in METRIC_NAMES}, gm=1.0)
        text = render_table([("demo", report)])
        header = text.splitlines()[0].split()
        assert header == ["model", *METRIC_NAMES, "GM"]

    def test_partial_rendered_with_dashes(self):
        values = {n: None for n in METRIC_NAMES}
        report = MetricReport(values=values, gm=None, missing_tasks=["general_qa"])
        text = render_table([("x", report)])
        assert "-" in text.splitlines()[2]
