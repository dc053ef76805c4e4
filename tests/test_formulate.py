from collections import Counter

import pytest

from ecomforge.core import (
    Action,
    ForgeError,
    ProductRecord,
    TaskKind,
    clean_text,
    is_taxonomy_label,
)
from ecomforge.formulate import (
    SEED_ORIGIN,
    TEMPLATES,
    InstructionPair,
    Provenance,
    QAPair,
    build_seed_set,
    instantiate,
    load_qa_pairs,
    qa_seed,
)

LAMP = ProductRecord(
    id="lamp-1",
    title="Himalayan pink salt lamp bowl massage balls",
    description="Pure authentic. Dimmer switch. Night light. Home decor.",
    taxonomy="home and living",
    query="himalayan salt lamp",
    action=Action.CLICK,
)
QA = QAPair(id="qa-1", question="How am I charged for Ads?", answer="Fees accrue to your payment account.")


def _records(n, with_query=True):
    taxonomies = ["shoes", "jewelry", "clothing", "pet supplies", "weddings"]
    return [
        ProductRecord(
            id=f"r{i:03d}",
            title=f"product title {i} extras",
            description=f"description text {i}",
            taxonomy=taxonomies[i % len(taxonomies)],
            query=f"query {i}" if with_query else None,
            action=Action.PURCHASE,
        )
        for i in range(n)
    ]


class TestInstantiate:
    def test_ads_template(self):
        pair = instantiate(TaskKind.ADS_GENERATION, record=LAMP)
        assert pair.instruction == (
            "Generate a short advertisement for the following product: "
            "Himalayan pink salt lamp bowl massage balls"
        )
        assert pair.input == LAMP.title
        assert pair.output == LAMP.description
        assert pair.provenance == Provenance(SEED_ORIGIN)

    def test_title_rewrite_requires_query(self):
        record = ProductRecord(
            id="x", title="a title", taxonomy="shoes", action=Action.CLICK
        )
        with pytest.raises(ForgeError, match="^title_rewriting requires field 'query'$"):
            instantiate(TaskKind.TITLE_REWRITING, record=record)

    def test_intent_template_and_gold_label(self):
        pair = instantiate(TaskKind.INTENT_SPECULATION, record=LAMP)
        # String-template oracle: substitute the template independently.
        expected = TEMPLATES[TaskKind.INTENT_SPECULATION].format(query=LAMP.query)
        assert pair.instruction == expected
        assert pair.output == "home and living"
        assert pair.input == LAMP.query

    def test_classification_output_is_taxonomy(self):
        pair = instantiate(TaskKind.PRODUCT_CLASSIFICATION, record=LAMP)
        assert pair.output == LAMP.taxonomy
        assert LAMP.title in pair.instruction
        # The gold label never leaks into the instruction.
        assert LAMP.taxonomy not in pair.instruction

    def test_general_qa(self):
        pair = qa_seed(QA)
        assert pair.instruction == QA.question
        assert pair.input == ""
        assert pair.output == QA.answer

    def test_ads_output_falls_back_to_title(self):
        record = ProductRecord(id="x", title="a title", taxonomy="shoes", action=Action.CLICK)
        pair = instantiate(TaskKind.ADS_GENERATION, record=record)
        assert pair.input == pair.output == "a title"

    def test_slot_values_present_in_instruction(self):
        for task in (
            TaskKind.ADS_GENERATION,
            TaskKind.TITLE_REWRITING,
            TaskKind.PRODUCT_CLASSIFICATION,
        ):
            pair = instantiate(task, record=LAMP)
            assert clean_text(LAMP.title) in pair.instruction
        pair = instantiate(TaskKind.INTENT_SPECULATION, record=LAMP)
        assert clean_text(LAMP.query) in pair.instruction

    def test_pair_validation(self):
        with pytest.raises(ValueError, match="instruction"):
            InstructionPair(id="x", task=TaskKind.GENERAL_QA, instruction="", input="", output="y")
        with pytest.raises(ValueError, match="output"):
            InstructionPair(id="x", task=TaskKind.GENERAL_QA, instruction="q", input="", output="")


class TestProvenance:
    def test_seed_provenance_bare(self):
        with pytest.raises(ValueError):
            Provenance(SEED_ORIGIN, strategy="instruction_rewrite")

    def test_expanded_needs_strategy_and_seed(self):
        with pytest.raises(ValueError):
            Provenance("expanded")
        Provenance("expanded", strategy="instruction_rewrite", seed_id="s1")

    def test_unknown_origin(self):
        with pytest.raises(ValueError):
            Provenance("mystery")


class TestBuildSeedSet:
    def _qa_pairs(self, n):
        return [QAPair(id=f"qa{i:03d}", question=f"question {i}?", answer=f"answer {i}.") for i in range(n)]

    def test_default_scale(self):
        seeds = build_seed_set(_records(200), self._qa_pairs(80), per_task=60, seed=0)
        assert len(seeds) == 300
        counts = Counter(p.task for p in seeds)
        assert all(counts[t] == 60 for t in TaskKind)

    def test_minimal(self):
        seeds = build_seed_set(_records(1), self._qa_pairs(1), per_task=1, seed=0)
        assert len(seeds) == 5

    def test_insufficient_records(self):
        records = _records(30, with_query=False)  # no queries: rewriting starves
        with pytest.raises(ForgeError, match="^title_rewriting: 0 eligible records, need 10$"):
            build_seed_set(records, self._qa_pairs(40), per_task=10, seed=0)

    def test_group_count_oracle_two_seeds(self):
        records = _records(200)
        qa = self._qa_pairs(50)
        a = build_seed_set(records, qa, per_task=10, seed=1)
        b = build_seed_set(records, qa, per_task=10, seed=2)
        assert [p.id for p in a] != [p.id for p in b]
        for sample in (a, b):
            groups = Counter(p.task for p in sample)
            assert all(groups[t] == 10 for t in TaskKind)
            assert all(p.provenance.origin == SEED_ORIGIN for p in sample)

    def test_deterministic(self):
        records = _records(120)
        qa = self._qa_pairs(70)
        assert build_seed_set(records, qa, 25, seed=9) == build_seed_set(records, qa, 25, seed=9)

    def test_label_outputs_valid(self):
        seeds = build_seed_set(_records(100), self._qa_pairs(30), per_task=15, seed=3)
        for pair in seeds:
            if pair.task in (TaskKind.PRODUCT_CLASSIFICATION, TaskKind.INTENT_SPECULATION):
                assert is_taxonomy_label(pair.output)


class TestLoadQaPairs:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        path.write_text(
            '{"id": "q1", "question": "How  does ​it work?", "answer": "Like this."}\n',
            encoding="utf-8",
        )
        pairs = load_qa_pairs(path)
        assert pairs == [QAPair(id="q1", question="How does it work?", answer="Like this.")]
