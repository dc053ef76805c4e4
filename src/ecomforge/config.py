"""Pipeline configuration: a single JSON file with dotted-path overrides.

Every knob has a default aimed at the bundled desk-scale demo; a config file
only needs the keys it changes. ``DEFAULTS`` is the one place a setting gets
its default, and ``_validate`` the one place it gets its check: a value of
another type than its default's, or out of range, is refused at load, before
any stage runs. The API key is named by ``api_key_env`` and read from the
environment, never stored in the file.
"""
from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import urlsplit

from .core import ForgeError, TaskKind
from .ingest import read_json

DEFAULTS: dict = {
    "backend": {
        "base_url": "http://localhost:8000/v1",
        "model": "gpt-3.5-turbo",
        "api_key_env": "FORGE_API_KEY",
        "timeout_s": 60.0,
        "max_retries": 3,
        "concurrency": 4,
        "expand_temperature": 0.7,
        "max_tokens": 256,
    },
    "pipeline": {
        "seed_per_task": 60,
        "instruction_rewrites": 4,
        "response_generations": 1,
        "response_rewrites": 1,
        "target_total": 1200,
        "near_dup_threshold": 0.9,
        "split_ratio": 0.8,
        "heldout_scenarios": ["Christmas", "Sports Fans", "Mid-year Sale"],
        "heldout_product_sets": 2,
        "heldout_set_size": 5,
        "heldout_intents": [
            "What products should I buy when planning my wedding?",
            "I'm looking for a gift for a middle-aged woman. Give me some ideas.",
            "I'm looking for a gift for a little kid. What should I choose?",
            "Recommend something for a friend who loves hiking and camping.",
        ],
    },
    "rng_seed": 0,
    "paths": {
        # null data_in/qa_in selects the bundled synthetic demo fixture
        "data_in": None,
        "qa_in": None,
        "out_dir": "forge-out",
    },
}


def _deep_merge(base: dict, override: dict, path: str = "") -> dict:
    """``base`` with ``override`` merged in, as new dicts down each merged
    path; neither argument is changed, and no value is copied, so a deeply
    nested value costs no recursion here."""
    out = dict(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ForgeError(f"unknown config key {where!r}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            out[key] = _deep_merge(base[key], value, where)
        else:
            out[key] = value
    return out


def parse_override(expr: str) -> tuple[str, object]:
    """Parse one --set KEY=VALUE; the value is JSON when it parses, else a
    bare string."""
    if "=" not in expr:
        raise ForgeError(f"--set expects key=value, got {expr!r}")
    key, raw = expr.split("=", 1)
    key = key.strip()
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    except RecursionError:
        raise ForgeError(f"--set {key}: value is nested too deeply to parse") from None
    return key, value


@dataclass(frozen=True)
class PipelineConfig:
    data: dict

    def __getitem__(self, key: str):
        return self.data[key]

    @property
    def rng_seed(self) -> int:
        return self.data["rng_seed"]

    @property
    def out_dir(self) -> Path:
        return Path(self.data["paths"]["out_dir"])

    def hash(self) -> str:
        canonical = json.dumps(self.data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _check_types(default, value, where: str = "") -> None:
    """Refuse a value whose type is not its default's. A float setting also
    takes an int, a setting whose default is null takes a string, and a list
    setting is a non-empty list of strings."""
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ForgeError(f"{where} must be a JSON object")
        for key, sub in default.items():
            _check_types(sub, value[key], f"{where}.{key}" if where else key)
        return
    if isinstance(default, list):
        ok = isinstance(value, list) and len(value) > 0 and all(isinstance(v, str) for v in value)
        kind = "a non-empty list of strings"
    elif default is None:
        ok, kind = value is None or isinstance(value, str), "a string or null"
    elif isinstance(default, float):
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        kind = "a number"
    elif isinstance(default, int):
        ok = isinstance(value, int) and not isinstance(value, bool)
        kind = "an integer"
    else:
        ok, kind = isinstance(value, str), "a string"
    if not ok:
        try:
            shown = json.dumps(value)
        except RecursionError:
            shown = "a value nested too deeply to show"
        raise ForgeError(f"{where} must be {kind}, got {shown}")


def _is_http_url(url: str) -> bool:
    try:
        parts = urlsplit(url)
        return parts.scheme in ("http", "https") and bool(parts.hostname) and parts.port != 0
    except ValueError:  # a port that is not a number in [0, 65535]
        return False


def _validate(cfg: dict) -> None:
    _check_types(DEFAULTS, cfg)
    backend = cfg["backend"]
    pipeline = cfg["pipeline"]
    n_tasks = len(TaskKind)
    checks = [
        (_is_http_url(backend["base_url"]), "backend.base_url must be an http:// or https:// URL"),
        # expand starts up to this many threads, one per seed in flight.
        (1 <= backend["concurrency"] <= 64, "backend.concurrency must be in [1, 64]"),
        (0 <= backend["max_retries"] <= 10, "backend.max_retries must be in [0, 10]"),
        # socket.settimeout overflows on a value near 1e10 s or past it.
        (0 < backend["timeout_s"] <= 3600, "backend.timeout_s must be in (0, 3600]"),
        # JSON request bodies carry it, and JSON has no Infinity or NaN.
        (
            0 <= backend["expand_temperature"] < math.inf,
            "backend.expand_temperature must be finite and >= 0",
        ),
        (backend["max_tokens"] >= 1, "backend.max_tokens must be >= 1"),
        (pipeline["seed_per_task"] >= 1, "pipeline.seed_per_task must be >= 1"),
        (pipeline["instruction_rewrites"] >= 0, "pipeline.instruction_rewrites must be >= 0"),
        (pipeline["response_generations"] >= 0, "pipeline.response_generations must be >= 0"),
        (pipeline["response_rewrites"] >= 0, "pipeline.response_rewrites must be >= 0"),
        (pipeline["target_total"] >= n_tasks, f"pipeline.target_total must be >= {n_tasks}"),
        (
            pipeline["target_total"] % n_tasks == 0,
            f"pipeline.target_total must be divisible by {n_tasks}, one share per task",
        ),
        (
            0.0 <= pipeline["near_dup_threshold"] <= 1.0,
            "pipeline.near_dup_threshold must be in [0, 1]",
        ),
        (0.0 < pipeline["split_ratio"] < 1.0, "pipeline.split_ratio must be in (0, 1)"),
        (pipeline["heldout_product_sets"] >= 1, "pipeline.heldout_product_sets must be >= 1"),
        (pipeline["heldout_set_size"] >= 1, "pipeline.heldout_set_size must be >= 1"),
        (cfg["rng_seed"] >= 0, "rng_seed must be >= 0"),
    ]
    for ok, message in checks:
        if not ok:
            raise ForgeError(message)


def load_config(
    path: str | Path | None = None, overrides: list[str] = ()
) -> PipelineConfig:
    """Defaults, deep-merged with the optional file, then --set overrides."""
    cfg = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            loaded = read_json(path)
        except OSError as exc:
            raise ForgeError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ForgeError(f"{path}: config root must be a JSON object")
        cfg = _deep_merge(cfg, loaded)
    for expr in overrides:
        key, value = parse_override(expr)
        for part in reversed(key.split(".")):
            value = {part: value}
        cfg = _deep_merge(cfg, value)
    _validate(cfg)
    return PipelineConfig(data=cfg)
