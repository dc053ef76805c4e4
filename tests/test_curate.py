import json
import math
import os
import random
from array import array
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from ecomforge import curate
from ecomforge.core import ForgeError, TaskKind
from ecomforge.curate import (
    RECOMMENDATION,
    and_join,
    balance,
    build_heldout_packs,
    dedup,
    emit_jsonl,
    emit_pack,
    load_jsonl,
    NearDupIndex,
    pair_tokens,
)
from ecomforge.formulate import InstructionPair, Provenance
from ecomforge.ingest import MalformedLine, write_rows

from oracles import oracle_jaccard, oracle_ngrams


def _pair(i, task=TaskKind.ADS_GENERATION, instruction=None, output=None):
    return InstructionPair(
        id=f"p{i:03d}",
        task=task,
        instruction=instruction or f"Write advertisement number {i} about distinct product {i} today",
        input=f"input text {i}",
        output=output or f"output text {i} with several extra words attached",
    )


def _oracle_dedup(pairs, threshold):
    """O(n^2) oracle over token streams, then greedy keep-earliest."""
    tokens = {p.id: list(pair_tokens(p)) for p in pairs}
    expected = []
    for p in pairs:
        dup = False
        for kept in expected:
            if tokens[p.id] == tokens[kept.id]:
                dup = True
                break
            if oracle_jaccard(tokens[p.id], tokens[kept.id]) >= threshold:
                dup = True
                break
        if not dup:
            expected.append(p)
    return expected


# 0, 1, k/m with m up to 12, and k/m whose float product with m lands a
# hair off k: there a prefix or overlap bound computed carelessly would
# cut off a match (0.56 = 14/25 is the pinned case below).
PROPERTY_THRESHOLDS = sorted(
    {0.0, 1.0, 7 / 25, 14 / 25, 15 / 22, 13 / 23, 15 / 26}
    | {k / m for m in range(2, 13) for k in range(1, m)}
)


# Streams over four words, where near duplicates abound, and runs of one
# sequence of distinct words, whose Jaccard values are ratios of run overlaps.
_RUN_WORDS = [f"u{i}" for i in range(60)]
STREAMS = st.one_of(
    st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=26),
    st.builds(lambda start, n: _RUN_WORDS[start : start + n], st.integers(0, 30), st.integers(1, 30)),
)


def test_property_thresholds_cross_integers():
    near = [
        (t, size)
        for t in PROPERTY_THRESHOLDS
        for size in range(1, 30)
        if t * size != round(t * size) and abs(t * size - round(t * size)) < 1e-9
    ]
    assert len(near) >= 5


def _stream_pair(pair_id, words):
    """A pair whose token stream is ``words`` (no punctuation), even empty."""
    return InstructionPair(
        id=pair_id,
        task=TaskKind.GENERAL_QA,
        instruction=" ".join(words[:1]) or " ",
        input=" ".join(words[1:-1]),
        output=" ".join(words[1:][-1:]) or " ",
    )


def _random_clone_pairs(seed):
    """Edit-perturbed clones over a small vocabulary, so many pairs sit just
    above or below a threshold against an earlier one."""
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(8)]
    texts: list[list[str]] = []
    for _ in range(60):
        if texts and rng.random() < 0.6:
            words = list(rng.choice(texts))
            for _ in range(rng.randint(0, 3)):
                at = rng.randint(0, len(words))
                if rng.random() < 0.5 and words:
                    del words[min(at, len(words) - 1)]
                else:
                    words.insert(at, rng.choice(vocab))
        else:
            words = [rng.choice(vocab) for _ in range(rng.randint(1, 20))]
        texts.append(words or [rng.choice(vocab)])
    return [
        InstructionPair(
            id=f"r{i:03d}",
            task=TaskKind.GENERAL_QA,
            instruction=words[0],
            input=" ".join(words[1:-1]),
            output=words[-1],
        )
        for i, words in enumerate(texts)
    ]


class TestDedup:
    def test_exact_duplicates_collapse(self):
        a = _pair(0)
        b = InstructionPair(id="other", task=a.task, instruction=a.instruction, input=a.input, output=a.output)
        survivors = dedup([a, b], threshold=0.9)
        assert survivors == [a]

    def test_threshold_one_keeps_near_duplicates(self):
        a = _pair(0, instruction="Write a short ad about the red lamp today")
        b = _pair(1, instruction="Write a short ad about the red lamp tonight")
        survivors = dedup([a, b], threshold=1.0)
        assert survivors == [a, b]

    def test_threshold_above_one_drops_only_exact_duplicates(self):
        a = _pair(0, instruction="Write a short ad about the red lamp today")
        b = InstructionPair(id="same", task=a.task, instruction=a.instruction, input=a.input, output=a.output)
        assert dedup([a, b, _pair(1)], threshold=1.5) == [a, _pair(1)]

    def test_near_duplicates_detected(self):
        base = "Write a compelling short advertisement about the glowing salt lamp"
        a = _pair(0, instruction=base)
        b = _pair(1, instruction=base + " now")
        # a and b share input/output lengths; only one trailing token differs.
        b = InstructionPair(id=b.id, task=b.task, instruction=b.instruction, input=a.input, output=a.output)
        assert dedup([a, b], threshold=0.7) == [a]
        assert dedup([a, b], threshold=0.99) == [a, b]

    def test_keeps_earliest(self):
        a, b = _pair(0), _pair(1)
        c = InstructionPair(id="dup", task=a.task, instruction=a.instruction, input=a.input, output=a.output)
        assert dedup([a, b, c], 0.9) == [a, b]

    @pytest.mark.parametrize("threshold", [0, 0.5, 0.7, 0.9, 1.0])
    def test_pairwise_jaccard_oracle(self, threshold):
        # 50-pair fixture with planted near-duplicate clusters.
        pairs = []
        for i in range(50):
            if i % 7 == 3:
                base = pairs[i - 1]
                pairs.append(
                    InstructionPair(
                        id=f"p{i:03d}",
                        task=base.task,
                        instruction=base.instruction + " extra",
                        input=base.input,
                        output=base.output,
                    )
                )
            else:
                pairs.append(_pair(i))
        assert dedup(pairs, threshold) == _oracle_dedup(pairs, threshold)

    @pytest.mark.parametrize("threshold", [0, 0.3, 0.5, 0.56, 0.7, 0.9, 1.0])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_clone_corpus_matches_oracle(self, seed, threshold):
        pairs = _random_clone_pairs(seed)
        assert dedup(pairs, threshold) == _oracle_dedup(pairs, threshold)

    @pytest.mark.parametrize("threshold", PROPERTY_THRESHOLDS)
    def test_every_two_runs_match_oracle(self, threshold):
        # Runs of distinct words give every small overlap ratio, among them
        # the float edges: at t = 0.4 sizes 3 and 4 sharing 2 grams sit at
        # J = 0.4, where t/(1+t) * 7 computes to just above 2.
        runs = [_RUN_WORDS[start : start + n] for start in range(2) for n in range(1, 10)]
        for x, y in product(runs, repeat=2):
            pairs = [_stream_pair("x", x), _stream_pair("y", y)]
            assert dedup(pairs, threshold) == _oracle_dedup(pairs, threshold)

    def test_rounded_up_threshold_product_keeps_match(self):
        # J = 14/25 reaches 0.56 exactly, but 0.56 * 25 rounds up past 14. A
        # prefix of 25 - ceil(0.56 * 25) + 1 = 11 grams would hold only the 11
        # grams unique to the longer pair (the rarest) and miss the match.
        words = [f"t{i}" for i in range(27)]
        short = InstructionPair(
            id="short",
            task=TaskKind.GENERAL_QA,
            instruction=" ".join(words[:15]),
            input="",
            output=words[15],
        )
        long = InstructionPair(
            id="long",
            task=TaskKind.GENERAL_QA,
            instruction=" ".join(words[:15]),
            input="",
            output=" ".join(words[15:]),
        )
        assert 0.56 * 25 > 14
        assert len(oracle_ngrams(pair_tokens(short))) == 14
        assert len(oracle_ngrams(pair_tokens(long))) == 25
        assert oracle_jaccard(pair_tokens(short), pair_tokens(long)) == 0.56
        assert dedup([short, long], 0.56) == [short]

    def test_idempotent(self):
        pairs = [_pair(i) for i in range(20)] + [_pair(0)]
        once = dedup(pairs, 0.9)
        assert dedup(once, 0.9) == once

    def test_jaccard_convention_matches_oracle(self):
        # A pair is dropped at a threshold equal to its Jaccard with the
        # earlier one, and kept at the next float up unless the two streams
        # are equal. Empty streams are equal, so they collapse.
        cases = [
            ([], []),
            (["a"], []),
            (["a", "b"], ["a", "b"]),
            (["a", "b", "c", "d"], ["a", "b", "c", "e"]),
            (["x"] * 5, ["x"] * 5 + ["y"]),
        ]
        for ta, tb in cases:
            a, b = _stream_pair("a", ta), _stream_pair("b", tb)
            j = oracle_jaccard(ta, tb)
            if j > 0:
                assert dedup([a, b], j) == [a]
            assert dedup([a, b], math.nextafter(j, 2)) == ([a] if ta == tb else [a, b])

    @pytest.mark.parametrize("threshold", [0.7, 1.5])
    def test_every_digest_colliding_keeps_survivors(self, monkeypatch, threshold):
        # Streams equal only after tokenizing ("Lamp  RED" vs "lamp red"),
        # equal text, and unequal streams all share one digest; the exact
        # comparison must still tell them apart. Above 1 no pair is a near
        # duplicate, so only that comparison drops case1 and case2.
        pairs = _random_clone_pairs(3) + [
            _stream_pair("case0", ["Lamp  RED", "now"]),
            _stream_pair("case1", ["lamp red", "now"]),
            _stream_pair("case2", ["lamp red", "now"]),
        ]
        expected = _oracle_dedup(pairs, threshold)
        assert dedup(pairs, threshold) == expected
        monkeypatch.setattr(curate, "_digest", lambda tokens: 0)
        assert dedup(pairs, threshold) == expected
        assert [p.id for p in expected if p.id.startswith("case")] == ["case0"]

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(STREAMS, min_size=1, max_size=14), st.sampled_from(PROPERTY_THRESHOLDS))
    def test_matches_oracle_on_tiny_vocabulary(self, streams, threshold):
        pairs = [_stream_pair(f"s{i:02d}", words) for i, words in enumerate(streams)]
        assert dedup(pairs, threshold) == _oracle_dedup(pairs, threshold)


class TestNearDupIndex:
    def test_query_yields_every_match(self):
        index = NearDupIndex(0.5)
        sets = [[0, 1, 2, 3], [0, 1, 2, 4], [5, 6, 7, 8], [0, 1, 2, 3, 9]]
        assert [index.add(array("i", ranks)) for ranks in sets] == [0, 1, 2, 3]
        assert sorted(index.query(array("i", [0, 1, 2, 3]))) == [0, 1, 3]
        assert list(index.query(array("i", [6, 7, 8, 10]))) == [2]
        assert list(index.query(array("i", [11, 12]))) == []

    def test_empty_set_matches_nothing(self):
        index = NearDupIndex(0.5)
        index.add(array("i"))
        assert list(index.query(array("i"))) == []

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            NearDupIndex(0)


class TestBalance:
    def _mixed(self, per_task):
        return [
            _pair(i + 100 * t_index, task=task)
            for t_index, task in enumerate(TaskKind)
            for i in range(per_task)
        ]

    def test_exact_share(self):
        out = balance(self._mixed(25), 20, 0)
        counts = Counter(p.task for p in out)
        assert all(counts[t] == 20 for t in TaskKind)

    def test_short_task_named(self):
        pairs = [p for p in self._mixed(25) if p.task is not TaskKind.GENERAL_QA]
        pairs += [_pair(999, task=TaskKind.GENERAL_QA)]
        with pytest.raises(ForgeError, match="^general_qa: 1 pairs after dedup, need 20$"):
            balance(pairs, 20, 0)

    def test_group_count_oracle_two_seeds(self):
        pairs = self._mixed(30)
        a = balance(pairs, 10, 1)
        b = balance(pairs, 10, 2)
        assert [p.id for p in a] != [p.id for p in b]
        for sample in (a, b):
            counts = Counter(p.task for p in sample)
            assert all(counts[t] == 10 for t in TaskKind)
            assert set(sample) <= set(pairs)

    def test_task_order_then_original_order(self):
        pairs = self._mixed(10)
        out = balance(pairs, 5, 5)
        task_sequence = [p.task for p in out]
        assert task_sequence == sorted(task_sequence, key=list(TaskKind).index)
        for task in TaskKind:
            subset = [p.id for p in out if p.task is task]
            original = [p.id for p in pairs if p.task is task]
            assert subset == [i for i in original if i in set(subset)]


class TestEmitJsonl:
    def test_round_trip_exact(self, tmp_path):
        pairs = [_pair(i) for i in range(16)]
        pairs.append(
            InstructionPair(
                id="exp-1",
                task=TaskKind.GENERAL_QA,
                instruction="What is this?",
                input="",
                output="It is that.",
                provenance=Provenance("expanded", "response_rewrite", "p000", "gpt-3.5-turbo"),
            )
        )
        path = tmp_path / "out.jsonl"
        manifest = emit_jsonl(pairs, path)
        assert manifest.count == 17
        assert path.read_text().count("\n") == 17
        assert load_jsonl(path) == pairs

    def test_empty_set(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        manifest = emit_jsonl([], path)
        assert manifest.count == 0
        assert path.read_bytes() == b""
        with pytest.raises(ForgeError) as excinfo:
            load_jsonl(path)
        assert str(excinfo.value) == f"{path}: no rows"

    def test_rehash_oracle(self, tmp_path):
        import hashlib

        pairs = [_pair(i) for i in range(8)]
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        m1 = emit_jsonl(pairs, p1)
        m2 = emit_jsonl(pairs, p2)
        assert m1.sha256 == m2.sha256
        assert m1.sha256 == hashlib.sha256(p1.read_bytes()).hexdigest()

    def test_emit_load_emit_byte_identical(self, tmp_path):
        pairs = [_pair(i) for i in range(5)]
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        emit_jsonl(pairs, p1)
        emit_jsonl(load_jsonl(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_exact_key_schema(self, tmp_path):
        path = tmp_path / "one.jsonl"
        emit_jsonl([_pair(0)], path)
        obj = json.loads(path.read_text().splitlines()[0])
        assert set(obj) == {"id", "task", "instruction", "input", "output", "provenance"}
        assert set(obj["provenance"]) == {"origin", "strategy", "seed_id", "teacher"}

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path, sidecar = tmp_path / "out.jsonl", tmp_path / "in.jsonl.errors.jsonl"
        emit_jsonl([_pair(0)], path)
        write_rows(sidecar, [MalformedLine(1, "bad")])
        before = {p: p.read_bytes() for p in (path, sidecar)}

        def fail(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", fail)
        with pytest.raises(ForgeError, match="cannot write .*disk full"):
            emit_jsonl([_pair(i) for i in range(5)], path)
        with pytest.raises(OSError, match="disk full"):
            write_rows(sidecar, [MalformedLine(i, "bad") for i in range(5)])
        assert {p: p.read_bytes() for p in before} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in before)

    def test_non_ascii_round_trip(self, tmp_path):
        pair = InstructionPair(
            id="u1",
            task=TaskKind.ADS_GENERATION,
            instruction='Schreibe eine Anzeige fur "Stuhle & Bander" — jetzt',
            input="入力テキスト with café accents",
            output="Ægis señal 'quoted' → done",
        )
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        emit_jsonl([pair], p1)
        loaded = load_jsonl(p1)
        assert loaded == [pair]
        emit_jsonl(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda row: [row], "row is not a JSON object"),
            (lambda row: {**row, "task": "haiku"}, "'haiku' is not a valid TaskKind"),
            (lambda row: {k: v for k, v in row.items() if k != "provenance"},
             "row has no 'provenance' key"),
            (lambda row: {**row, "instruction": ""}, "pair 'p001': empty instruction"),
            (lambda row: {**row, "output": ["a", "b"]},
             "'output' must be a string, got [\"a\", \"b\"]"),
            (lambda row: {**row, "id": 1}, "'id' must be a string, got 1"),
            (lambda row: {**row, "instruction": None}, "'instruction' must be a string, got null"),
            (lambda row: {**row, "input": {"x": 1}}, "'input' must be a string, got {\"x\": 1}"),
            (lambda row: {**row, "provenance": {**row["provenance"], "strategy": ["a"]}},
             "'strategy' must be a string or null, got [\"a\"]"),
            (lambda row: {**row, "provenance": {**row["provenance"], "seed_id": 3}},
             "'seed_id' must be a string or null, got 3"),
            (lambda row: {**row, "provenance": {**row["provenance"], "teacher": True}},
             "'teacher' must be a string or null, got true"),
        ],
        ids=["not-object", "unknown-task", "no-provenance", "empty-instruction",
             "list-output", "int-id", "null-instruction", "object-input",
             "list-strategy", "int-seed-id", "bool-teacher"],
    )
    def test_bad_row_is_refused_with_path_line(self, tmp_path, edit, message):
        path = tmp_path / "pairs.jsonl"
        emit_jsonl([_pair(0), _pair(1)], path)
        first, second = path.read_text(encoding="utf-8").splitlines()
        path.write_text(f"{first}\n{json.dumps(edit(json.loads(second)))}\n", encoding="utf-8")
        with pytest.raises(ForgeError, match=":2: ") as excinfo:
            load_jsonl(path)
        assert str(excinfo.value) == f"{path}:2: {message}"

    def test_extra_key_and_provenance_without_teacher_load(self, tmp_path):
        rows = [
            {"id": "s", "task": "general_qa", "instruction": "Q?", "input": "", "output": "A.",
             "provenance": {"origin": "seed"}, "note": "extra key"},
            {"id": "e", "task": "general_qa", "instruction": "Q2?", "input": "", "output": "A2.",
             "provenance": {"origin": "expanded", "strategy": "response_rewrite", "seed_id": "s"}},
        ]
        path = tmp_path / "pairs.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        assert load_jsonl(path) == [
            InstructionPair("s", TaskKind.GENERAL_QA, "Q?", "", "A."),
            InstructionPair(
                "e", TaskKind.GENERAL_QA, "Q2?", "", "A2.",
                Provenance("expanded", "response_rewrite", "s"),
            ),
        ]


class TestHeldoutPacks:
    def test_scenario_template_matches_published_example(self):
        products = [
            "Himalayan salt lamp",
            "bee house",
            "grow sunflower plant kit",
            "custom baby face mug",
            "puzzle plaque",
        ]
        prompts, _ = build_heldout_packs(["Christmas"], [products], ["gift ideas"])
        assert prompts[0].prompt == (
            "Christmas is almost. Generate an ad for the following products: "
            "Himalayan salt lamp, bee house, grow sunflower plant kit, "
            "custom baby face mug, and puzzle plaque."
        )

    def test_empty_inputs(self):
        needs_sets = "scenario_ads needs scenarios and nonempty product sets"
        with pytest.raises(ForgeError, match=needs_sets):
            build_heldout_packs(["Christmas"], [], ["gift ideas"])
        with pytest.raises(ForgeError, match=needs_sets):
            build_heldout_packs(["Christmas"], [[]], ["gift ideas"])
        with pytest.raises(ForgeError, match=needs_sets):
            build_heldout_packs([], [["a"]], [])
        with pytest.raises(ForgeError, match="recommendation needs at least one intent"):
            build_heldout_packs(["Christmas"], [["a"]], [])

    def test_product_of_cardinalities(self):
        prompts, _ = build_heldout_packs(
            ["Christmas", "Sports Fans", "Mid-year Sale"], [["a", "b"], ["c", "d"]], ["gift ideas"]
        )
        assert len(prompts) == 3 * 2
        assert len({p.id for p in prompts}) == 6

    def test_recommendation_passthrough(self):
        _, prompts = build_heldout_packs(
            ["Christmas"], [["a"]], ["What should I buy for a wedding?"]
        )
        assert prompts[0].prompt == "What should I buy for a wedding?"
        assert prompts[0].id.startswith("heldout-recommendation-")

    def test_and_join_forms(self):
        assert and_join(["a"]) == "a"
        assert and_join(["a", "b"]) == "a and b"
        assert and_join(["a", "b", "c"]) == "a, b, and c"

    def test_emit_pack(self, tmp_path):
        _, prompts = build_heldout_packs(["Christmas"], [["a"]], ["one", "two"])
        path = tmp_path / "pack.jsonl"
        assert emit_pack(prompts, path) == 2
        rows = [json.loads(l) for l in path.read_text().splitlines()]
        assert rows[0]["kind"] == RECOMMENDATION
