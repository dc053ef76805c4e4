"""Seed-instruction formulation.

Each task has a fixed template whose slots are filled from a product record
(or, for general Q&A, from a platform question/answer pair). The seed set
samples a fixed number of pairs per task, deterministically.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .core import ForgeError, ProductRecord, TaskKind, clean_text
from .ingest import read_rows, shuffle_key

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

LABEL_TASKS = frozenset(
    {TaskKind.PRODUCT_CLASSIFICATION, TaskKind.INTENT_SPECULATION}
)


@dataclass(frozen=True)
class QAPair:
    """A platform question/answer pair feeding the general Q&A task."""

    id: str
    question: str
    answer: str


def load_qa_pairs(path: str | Path) -> list[QAPair]:
    """Load JSONL {id, question, answer} rows, cleaning text fields."""
    return read_rows(
        path,
        lambda obj: QAPair(
            id=str(obj["id"]),
            question=clean_text(str(obj["question"])),
            answer=clean_text(str(obj["answer"])),
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


def _require(task: TaskKind, name: str, value):
    if not value:
        raise ForgeError(f"{task.value} requires field {name!r}")
    return value


def instantiate(
    task: TaskKind,
    record: ProductRecord | None = None,
    qa: QAPair | None = None,
) -> InstructionPair:
    """Fill a task template from a record (or QA pair) into a seed pair.

    The input field carries the primary feature text on its own; expansion
    prompts send instruction and input as separate segments.
    """
    provenance = Provenance(SEED_ORIGIN)
    if task is TaskKind.GENERAL_QA:
        qa = _require(task, "qa", qa)
        return InstructionPair(
            id=f"seed-{task.value}-{qa.id}",
            task=task,
            instruction=_require(task, "question", qa.question),
            input="",
            output=_require(task, "answer", qa.answer),
            provenance=provenance,
        )

    record = _require(task, "record", record)
    pair_id = f"seed-{task.value}-{record.id}"
    title = _require(task, "title", record.title)

    if task is TaskKind.ADS_GENERATION:
        # Reference output is the richest seller text available; the teacher
        # diversifies it during expansion.
        output = record.description or title
        instruction = TEMPLATES[task].format(title=title)
        return InstructionPair(pair_id, task, instruction, title, output, provenance)

    if task is TaskKind.TITLE_REWRITING:
        query = _require(task, "query", record.query)
        instruction = TEMPLATES[task].format(title=title, query=query)
        return InstructionPair(pair_id, task, instruction, title, title, provenance)

    if task is TaskKind.PRODUCT_CLASSIFICATION:
        instruction = TEMPLATES[task].format(title=title)
        return InstructionPair(pair_id, task, instruction, title, record.taxonomy, provenance)

    if task is TaskKind.INTENT_SPECULATION:
        query = _require(task, "query", record.query)
        instruction = TEMPLATES[task].format(query=query)
        return InstructionPair(pair_id, task, instruction, query, record.taxonomy, provenance)

    raise ForgeError(f"unknown task {task!r}")


def _eligible(task: TaskKind, record: ProductRecord) -> bool:
    if task in (TaskKind.TITLE_REWRITING, TaskKind.INTENT_SPECULATION):
        return bool(record.query)
    return True


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
            pool_ids = [qa.id for qa in qa_pairs]
        else:
            pool_ids = [r.id for r in records if _eligible(task, r)]
        if len(pool_ids) < per_task:
            raise ForgeError(f"{task.value}: {len(pool_ids)} eligible records, need {per_task}")
        ranked = sorted(pool_ids, key=lambda i: shuffle_key(seed, f"{task.value}|{i}"))
        chosen = set(ranked[:per_task])
        if task is TaskKind.GENERAL_QA:
            pairs.extend(instantiate(task, qa=qa) for qa in qa_pairs if qa.id in chosen)
        else:
            pairs.extend(
                instantiate(task, record=r)
                for r in records
                if r.id in chosen and _eligible(task, r)
            )
    return pairs
