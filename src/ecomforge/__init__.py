"""E-commerce instruction-dataset construction and evaluation toolkit."""

__version__ = "0.1.0"

from .core import (
    TAXONOMY,
    Action,
    ForgeError,
    ProductRecord,
    TaskKind,
    clean_text,
    normalize_label,
    tokenize,
)
from .formulate import InstructionPair, Provenance, QAPair

__all__ = [
    "TAXONOMY",
    "Action",
    "ForgeError",
    "InstructionPair",
    "ProductRecord",
    "Provenance",
    "QAPair",
    "TaskKind",
    "clean_text",
    "normalize_label",
    "tokenize",
]
