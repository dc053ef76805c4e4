"""Seed-instruction formulation.

Each record task has a fixed template whose slots are filled from a product
record, and one table, ``RECORD_TASKS``, holds the record field each task
takes as input, the fields its output comes from and the fields a record
must have to be eligible. A general Q&A seed is a platform question/answer
pair as it stands. The seed set samples a fixed number of pairs per task,
deterministically.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import NamedTuple

from .core import ForgeError, ProductRecord, TaskKind, clean_text
from .ingest import read_rows, sample, string_field

SEED_ORIGIN = "seed"
EXPANDED_ORIGIN = "expanded"

# Strategy names recorded in provenance.
INSTRUCTION_REWRITE = "instruction_rewrite"
RESPONSE_GENERATION = "response_generation"
RESPONSE_REWRITE = "response_rewrite"

# Instruction templates. The classification/intent templates keep the literal
# phrase "product category": the bracketed slot marks the platform feature,
# and the gold label goes in the output, never the instruction.
TEMPLATES: dict[TaskKind, str] = {
    TaskKind.ADS_GENERATION: "Generate a short advertisement for the following product: {title}",
    TaskKind.TITLE_REWRITING: "Rewrite the product title of {title} according to the following query: {query}.",
    TaskKind.PRODUCT_CLASSIFICATION: "What is the product category of this following product belongs to? {title}",
    TaskKind.INTENT_SPECULATION: "Given the query of {query}, which of the following product category is the customer interested in?",
}


class RecordTask(NamedTuple):
    input: str  # the record field that becomes the pair's input
    output: tuple[str, ...]  # the first non-empty of these becomes the output
    needs: tuple[str, ...]  # optional fields a record must have to be eligible


# Ads take the richest seller text available as reference output; the
# teacher diversifies it during expansion.
RECORD_TASKS: dict[TaskKind, RecordTask] = {
    TaskKind.ADS_GENERATION: RecordTask("title", ("description", "title"), ()),
    TaskKind.TITLE_REWRITING: RecordTask("title", ("title",), ("query",)),
    TaskKind.PRODUCT_CLASSIFICATION: RecordTask("title", ("taxonomy",), ()),
    TaskKind.INTENT_SPECULATION: RecordTask("query", ("taxonomy",), ("query",)),
}

# Tasks whose gold output is a taxonomy label.
LABEL_TASKS = frozenset(t for t, spec in RECORD_TASKS.items() if spec.output == ("taxonomy",))


@dataclass(frozen=True)
class QAPair:
    """A platform question/answer pair feeding the general Q&A task."""

    id: str
    question: str
    answer: str

    def __post_init__(self) -> None:
        for name in ("id", "question", "answer"):
            if not getattr(self, name):
                raise ValueError(f"Q&A pair {self.id!r}: empty {name}")


def load_qa_pairs(path: str | Path) -> list[QAPair]:
    """Load JSONL {id, question, answer} rows of strings, cleaning the text
    fields; a row with a non-string field or an empty one is refused."""
    return read_rows(
        path,
        lambda obj: QAPair(
            id=string_field(obj, "id"),
            question=clean_text(string_field(obj, "question")),
            answer=clean_text(string_field(obj, "answer")),
        ),
    )


@dataclass(frozen=True)
class Provenance:
    origin: str  # "seed" or "expanded"
    strategy: str | None = None
    seed_id: str | None = None
    teacher: str | None = None

    def __post_init__(self) -> None:
        if self.origin == SEED_ORIGIN:
            if self.strategy is not None or self.teacher is not None:
                raise ValueError("seed provenance carries no strategy or teacher")
        elif self.origin == EXPANDED_ORIGIN:
            if self.strategy is None or self.seed_id is None:
                raise ValueError("expanded provenance requires strategy and seed_id")
        else:
            raise ValueError(f"unknown provenance origin {self.origin!r}")


@dataclass(frozen=True)
class InstructionPair:
    """One dataset row: instruction, optional input context, and output."""

    id: str
    task: TaskKind
    instruction: str
    input: str
    output: str
    provenance: Provenance = field(default_factory=lambda: Provenance(SEED_ORIGIN))

    def __post_init__(self) -> None:
        if not self.instruction:
            raise ValueError(f"pair {self.id!r}: empty instruction")
        if not self.output:
            raise ValueError(f"pair {self.id!r}: empty output")


def instantiate(task: TaskKind, record: ProductRecord) -> InstructionPair:
    """Fill a record task's template from ``record`` into a seed pair.

    The input field carries the primary feature text on its own; expansion
    prompts send instruction and input as separate segments.
    """
    spec = RECORD_TASKS[task]
    for name in (spec.input, *spec.needs):
        if not getattr(record, name):
            raise ForgeError(f"{task.value} requires field {name!r}")
    instruction = TEMPLATES[task].format(title=record.title, query=record.query)
    output = next(filter(None, (getattr(record, name) for name in spec.output)), "")
    pair_id = f"seed-{task.value}-{record.id}"
    return InstructionPair(pair_id, task, instruction, getattr(record, spec.input), output)


def qa_seed(qa: QAPair) -> InstructionPair:
    """The general Q&A seed: the question is the instruction, the answer the output."""
    task = TaskKind.GENERAL_QA
    return InstructionPair(f"seed-{task.value}-{qa.id}", task, qa.question, "", qa.answer)


def build_seed_set(
    records: list[ProductRecord],
    qa_pairs: list[QAPair],
    per_task: int,
    seed: int,
) -> list[InstructionPair]:
    """Sample per_task records for each task and instantiate the templates.

    Output is grouped by task (enum order); within a task, selected items
    keep their original order. Deterministic for a given seed.
    """
    pairs: list[InstructionPair] = []
    for task in TaskKind:
        if task is TaskKind.GENERAL_QA:
            pool, make = qa_pairs, qa_seed
        else:
            needs = RECORD_TASKS[task].needs
            pool = [r for r in records if all(getattr(r, name) for name in needs)]
            make = partial(instantiate, task)
        if len(pool) < per_task:
            raise ForgeError(f"{task.value}: {len(pool)} eligible records, need {per_task}")
        pairs.extend(map(make, sample(pool, per_task, seed, task.value)))
    return pairs
