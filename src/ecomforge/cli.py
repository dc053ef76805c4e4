"""Command-line entry point: ``forge <stage> [options]``.

Stages mirror the pipeline: formulate (ingest, seed set, held-out packs),
expand (teacher variants), curate (dedup, balance, emit), evaluate (metric
report or replay), lora-verify (adapter math checks), human-eval (rating
distributions), check-manifest (artifact re-verification).

Each recorded stage declares the out-dir files it reads and writes once, in
``STAGES``, through ``_stage``; a run manifest may name no other stage or
file. One rule, ``_verdict``, judges a stage record: a record with any
verdict vouches for none of its files. A stage refuses an input that such a
record lists, quoting the verdict line that check-manifest prints for it.

Exit codes: 0 clean, 2 completed with partial diagnostics, 1 hard failure,
usage errors included.
"""
from __future__ import annotations

import argparse
import fcntl
import functools
import hashlib
import json
import math
import os
import resource
import sys
import time
import unicodedata
from importlib import resources
from pathlib import Path

# Set before the imports below load numpy. forge's matrices (one token
# similarity matrix per Q&A sample, the adapter checks) are small, and an
# OpenBLAS worker thread spins for 20-50 ms of CPU after numpy loads whether
# or not it is ever used. A count the caller set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import curate, evalsuite, expand, formulate, ingest, lora  # noqa: E402
from .config import PipelineConfig, load_config  # noqa: E402
from .core import ForgeError, MemoTable, TaskKind  # noqa: E402
from .modelio import Backend, HttpBackend, MockBackend, RetryPolicy  # noqa: E402

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARTIAL = 2

GENERATION_KEY = "generation"


def demo_data_path(name: str) -> Path:
    return Path(str(resources.files("ecomforge") / "data" / name))


def make_backend(config: PipelineConfig, kind: str) -> Backend:
    backend_cfg = config["backend"]
    if kind == "mock":
        return MockBackend(model=backend_cfg["model"])
    if kind == "http":
        api_key_env = backend_cfg["api_key_env"]
        return HttpBackend(
            base_url=backend_cfg["base_url"],
            model=backend_cfg["model"],
            api_key=os.environ.get(api_key_env),
            timeout_s=backend_cfg["timeout_s"],
            policy=RetryPolicy(max_retries=backend_cfg["max_retries"]),
            concurrency=backend_cfg["concurrency"],
        )
    raise ForgeError(f"unknown backend kind {kind!r}")


# ---------------------------------------------------------------------------
# Run manifest and locking


class OutDirLock:
    """One command instance per out_dir: an exclusive ``flock`` on
    ``.forge.lock``, which the kernel drops when its holder exits, however it
    exits. The holder unlinks the file before it lets go, so a run that wins
    the lock on a file already unlinked opens the path again."""

    def __init__(self, out_dir: Path):
        self.path = out_dir / ".forge.lock"

    def __enter__(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        while True:
            fd = os.open(self.path, os.O_CREAT | os.O_WRONLY)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                if os.path.samestat(os.fstat(fd), os.stat(self.path)):
                    self.fd = fd
                    return self
            except BlockingIOError:
                os.close(fd)
                raise ForgeError(f"another run holds {self.path}") from None
            except FileNotFoundError:
                pass
            os.close(fd)

    def __exit__(self, *exc_info):
        self.path.unlink(missing_ok=True)
        os.close(self.fd)
        return False


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_json(path: Path, obj) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    ingest.write_atomic(path, text.encode("utf-8"))


def _read_stages(out_dir: Path) -> dict:
    """The stage records of ``run_manifest.json``, or {} when there is none.
    A file that is not ``{"stages": {stage: record}}`` is refused, as is a
    stage not in ``STAGES`` or a record whose ``inputs`` or ``outputs`` name a
    file no stage in ``STAGES`` writes, or whose ``unicode`` is not printable."""
    path = out_dir / "run_manifest.json"
    if not path.exists():
        return {}
    files = {name for _, made in STAGES.values() for name in made}
    try:
        stages = ingest.read_json(path)["stages"]
        ok = isinstance(stages, dict) and all(
            stage in STAGES
            and isinstance(record, dict)
            and all(
                isinstance(recorded, dict) and files.issuperset(recorded)
                for recorded in (record.get("inputs", {}), record.get("outputs", {}))
            )
            and str.isprintable(record.get("unicode", ""))
            for stage, record in stages.items()
        )
    except (ForgeError, KeyError, TypeError):
        ok = False
    if not ok:
        raise ForgeError(f"{path} is not a run manifest")
    return stages


def _verdict(out_dir: Path, record: dict, sha256) -> list[tuple[str, str]]:
    """Every reason that a stage record's files are unsafe to read, as (file
    name, state) pairs: recorded outputs that are MISSING or have a HASH
    MISMATCH, recorded inputs that have CHANGED, and ("", "UNICODE ...") for a
    record written under another Unicode version, whose ``clean_text`` can
    strip other characters (a record naming no version is read as it is).
    ``sha256(path)`` is the caller's per-run hash cache."""
    verdict = []
    for key, changed in (("outputs", None), ("inputs", "CHANGED")):
        for name, digest in sorted(record.get(key, {}).items()):
            path = out_dir / name
            if not path.exists():
                verdict.append((name, changed or "MISSING"))
            elif sha256(path) != digest:
                verdict.append((name, changed or "HASH MISMATCH"))
    version = record.get("unicode", unicodedata.unidata_version)
    if version != unicodedata.unidata_version:
        verdict.append(("", f"UNICODE {version} (this Python has {unicodedata.unidata_version})"))
    return verdict


def _verdict_line(stage: str, name: str, state: str) -> str:
    """A verdict entry as check-manifest prints it and a refusal quotes it."""
    return f"{stage}/{name}: {state}" if name else f"{stage}: {state}"


# Each recorded stage's out-dir files: STAGES[name] = (inputs, outputs). An
# input's producer is the one stage whose outputs list it.
STAGES: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {}


def _stage(name: str, inputs: tuple[str, ...] = (), outputs: tuple[str, ...] = ()):
    """Register ``cmd(config, *args)`` as the recorded stage ``name``; a call
    runs it under ``_run_stage``."""
    STAGES[name] = (inputs, outputs)
    return lambda cmd: functools.wraps(cmd)(
        lambda config, *args: _run_stage(config, name, lambda: cmd(config, *args))
    )


def _run_stage(config: PipelineConfig, stage: str, body) -> int:
    """Run ``body()``, which writes the stage's registered outputs and returns
    the exit code, under the out dir's lock, and record the stage in
    ``run_manifest.json``: the config hash, the Unicode and Python versions,
    the sha256 of the inputs and outputs, wall and CPU seconds and the
    process's peak RSS.

    Every registered input must exist. One that its producer's record lists
    is refused, quoting the first entry, while that record has a
    ``_verdict``; an input no record lists is read as it is.
    """
    out_dir = config.out_dir
    inputs, outputs = STAGES[stage]
    started, cpu_started = time.perf_counter(), time.process_time()
    with OutDirLock(out_dir):
        stages = _read_stages(out_dir)
        sha256 = functools.cache(_sha256_file)
        verdict_of = functools.cache(lambda producer: _verdict(out_dir, stages[producer], sha256))
        input_hashes = {}
        for name in inputs:
            path = out_dir / name
            producer = next(other for other, (_, made) in STAGES.items() if name in made)
            if not path.exists():
                raise ForgeError(f"{path} not found; run `forge {producer}` first")
            recorded = stages.get(producer, {}).get("outputs", {})
            if name not in recorded:
                input_hashes[name] = sha256(path)
                continue
            for entry in verdict_of(producer)[:1]:
                line = _verdict_line(producer, *entry)
                raise ForgeError(f"{path} cannot be read: {line}; rerun `forge {producer}`")
            input_hashes[name] = recorded[name]
        code = body()
        stages[stage] = {
            "config_hash": config.hash(),
            "unicode": unicodedata.unidata_version,
            "python": ".".join(map(str, sys.version_info[:3])),
            "inputs": input_hashes,
            "outputs": {name: _sha256_file(out_dir / name) for name in outputs},
            "seconds": round(time.perf_counter() - started, 3),
            "cpu_s": round(time.process_time() - cpu_started, 3),
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        }
        _write_json(out_dir / "run_manifest.json", {"stages": stages})
    return code


# ---------------------------------------------------------------------------
# Stage commands


def _load_splits(config: PipelineConfig) -> tuple[tuple[list, list], tuple[list, list], list]:
    """The (train, test) split of the screened records (``ingest.ScreenedRow``,
    from which a stage builds the records it uses), the (train, test) split of
    the Q&A pairs and the records file's load diagnostics. A null
    ``paths.data_in`` or ``paths.qa_in`` reads the bundled demo file."""
    paths, ratio = config["paths"], config["pipeline"]["split_ratio"]
    records_path = Path(paths["data_in"] or demo_data_path("demo_records.jsonl"))
    records, diagnostics = ingest.load_interactions(records_path)
    records = ingest.filter_by_action(records)
    split = ingest.split_generic(records, ratio, config.rng_seed, lambda r: r.id, records_path)
    qa_path = Path(paths["qa_in"] or demo_data_path("demo_qa.jsonl"))
    qa_pairs = formulate.load_qa_pairs(qa_path)
    qa_split = ingest.split_generic(qa_pairs, ratio, config.rng_seed, lambda q: q.id, qa_path)
    return split, qa_split, diagnostics


def _heldout_product_sets(config: PipelineConfig, test: list) -> list[list[str]]:
    pipeline_cfg = config["pipeline"]
    n_sets = pipeline_cfg["heldout_product_sets"]
    set_size = pipeline_cfg["heldout_set_size"]
    ranked = sorted(test, key=lambda r: ingest.shuffle_key(config.rng_seed, f"heldout|{r.id}"))
    needed = n_sets * set_size
    titles = [r.title for r in ranked[:needed]]
    if len(titles) < needed:
        raise ForgeError(f"test split too small for {n_sets} held-out sets of {set_size}")
    return [titles[i * set_size : (i + 1) * set_size] for i in range(n_sets)]


HELDOUT_PACKS = ("heldout_scenario_ads.jsonl", "heldout_recommendation.jsonl")


@_stage("formulate", outputs=("seeds.jsonl", "ingest.errors.jsonl", *HELDOUT_PACKS))
def cmd_formulate(config: PipelineConfig) -> int:
    out_dir = config.out_dir
    (train, test), (qa_train, _), diagnostics = _load_splits(config)
    pipeline_cfg = config["pipeline"]
    seeds = formulate.build_seed_set(
        [ingest.build_record(r) for r in train],
        qa_train,
        per_task=pipeline_cfg["seed_per_task"],
        seed=config.rng_seed,
    )
    packs = curate.build_heldout_packs(
        pipeline_cfg["heldout_scenarios"],
        _heldout_product_sets(config, test),
        pipeline_cfg["heldout_intents"],
    )
    ingest.write_rows(out_dir / "ingest.errors.jsonl", diagnostics)
    manifest = curate.emit_jsonl(seeds, out_dir / "seeds.jsonl")
    for prompts, name in zip(packs, HELDOUT_PACKS):
        curate.emit_pack(prompts, out_dir / name)
    print(f"formulate: {manifest.count} seed pairs -> {out_dir / 'seeds.jsonl'}")
    for task, count in manifest.per_task.items():
        print(f"  {task}: {count}")
    print(f"  held-out packs: {len(packs[0])} scenario ads, {len(packs[1])} recommendation")
    if diagnostics:
        print(f"  {len(diagnostics)} malformed input lines (see ingest.errors.jsonl)")
    return EXIT_PARTIAL if diagnostics else EXIT_OK


@_stage("expand", inputs=("seeds.jsonl",), outputs=("expanded.jsonl", "diagnostics.jsonl"))
def cmd_expand(config: PipelineConfig, backend_kind: str) -> int:
    out_dir = config.out_dir
    seeds = curate.load_jsonl(out_dir / "seeds.jsonl")
    backend = make_backend(config, backend_kind)
    pipeline_cfg, backend_cfg = config["pipeline"], config["backend"]
    plan = expand.ExpansionPlan(
        instruction_rewrites=pipeline_cfg["instruction_rewrites"],
        response_generations=pipeline_cfg["response_generations"],
        response_rewrites=pipeline_cfg["response_rewrites"],
        rng_seed=config.rng_seed,
        concurrency=backend_cfg["concurrency"],
        temperature=backend_cfg["expand_temperature"],
        max_tokens=backend_cfg["max_tokens"],
    )
    result = expand.expand_corpus(backend, seeds, plan)
    manifest = curate.emit_jsonl(result.pairs, out_dir / "expanded.jsonl")
    ingest.write_rows(out_dir / "diagnostics.jsonl", result.failures)
    print(
        f"expand: {manifest.count} pairs ({len(result.failures)} failed calls) "
        f"-> {out_dir / 'expanded.jsonl'}"
    )
    return EXIT_PARTIAL if result.failures else EXIT_OK


@_stage(
    "curate", inputs=("expanded.jsonl", *HELDOUT_PACKS), outputs=("dataset.jsonl", "manifest.json")
)
def cmd_curate(config: PipelineConfig) -> int:
    out_dir = config.out_dir
    pairs = curate.load_jsonl(out_dir / "expanded.jsonl")
    pipeline_cfg = config["pipeline"]
    deduped = curate.dedup(pairs, pipeline_cfg["near_dup_threshold"])
    per_task = pipeline_cfg["target_total"] // len(TaskKind)
    balanced = curate.balance(deduped, per_task, config.rng_seed)
    training_ids = {p.id for p in balanced}
    for name in HELDOUT_PACKS:
        pack_ids = ingest.read_rows(out_dir / name, lambda row: ingest.string_field(row, "id"))
        if training_ids.intersection(pack_ids):
            raise ForgeError(f"{name} ids overlap the training set")
    dataset_path = out_dir / "dataset.jsonl"
    manifest = curate.emit_jsonl(balanced, dataset_path)
    _write_json(out_dir / "manifest.json", vars(manifest))
    print(f"curate: {manifest.count} pairs -> {dataset_path} (sha256 {manifest.sha256[:12]})")
    for task, count in manifest.per_task.items():
        print(f"  {task}: {count}")
    return EXIT_OK


def _read_generations(path: Path) -> dict[str, str]:
    out: dict[str, str] = {}

    def parse(row: dict) -> None:
        sample_id = ingest.string_field(row, "id")
        generation = ingest.string_field(row, GENERATION_KEY)
        if sample_id in out:
            raise ValueError(f"duplicate id {sample_id!r}")
        out[sample_id] = generation

    ingest.read_rows(path, parse)
    return out


def _build_eval_data(
    config: PipelineConfig, generations_dir: Path
) -> dict[TaskKind, list[evalsuite.Sample]]:
    """Pair each generation with its reference fields from
    ``evalsuite.TASK_REFERENCES``: test records, or test Q&A for general_qa.
    A task without a generations file is left out. Only the test records
    that a sample names are built, each once."""
    (_, test), (_, qa_test), _ = _load_splits(config)
    rows = {r.id: r for r in test}
    records = MemoTable(lambda rec_id: ingest.build_record(rows[rec_id]))
    qa_refs = {q.id: q for q in qa_test}

    data: dict[TaskKind, list[evalsuite.Sample]] = {}
    for task, fields in evalsuite.TASK_REFERENCES.items():
        path = generations_dir / f"{task.value}.jsonl"
        if not path.exists():
            continue
        ids, source, source_name = rows, records, "test split"
        if task is TaskKind.GENERAL_QA:
            ids, source, source_name = qa_refs, qa_refs, "test QA set"
        samples = data[task] = []
        for sample_id, generation in _read_generations(path).items():
            if sample_id not in ids:
                raise ForgeError(f"{task.value}: id {sample_id!r} not in the {source_name}")
            references = tuple(getattr(source[sample_id], name) for name, _ in fields)
            for (name, _), text in zip(fields, references):
                if not text:
                    raise ForgeError(f"{task.value}: record {sample_id!r} has no {name}")
            samples.append(evalsuite.Sample(sample_id, generation, references))
    return data


def cmd_evaluate(
    config: PipelineConfig,
    backend_kind: str,
    generations_dir: Path | None,
    replay_path: Path | None,
) -> int:
    if (generations_dir is None) == (replay_path is None):
        raise ForgeError("evaluate needs one of --generations DIR and --replay FILE")
    if replay_path is not None:
        return _cmd_replay(config, replay_path)
    if not generations_dir.is_dir():
        raise ForgeError(f"generations directory {generations_dir} not found")
    return _cmd_evaluate(config, backend_kind, generations_dir)


@_stage("evaluate", outputs=("report.json", "report.txt"))
def _cmd_evaluate(config: PipelineConfig, backend_kind: str, generations_dir: Path) -> int:
    out_dir = config.out_dir
    data = _build_eval_data(config, generations_dir)
    backend = make_backend(config, backend_kind)
    report = evalsuite.evaluate_run(data, backend)
    payload = report.to_json()
    _write_json(out_dir / "report.json", payload)
    table = evalsuite.render_table([("run", report)])
    ingest.write_atomic(out_dir / "report.txt", (table + "\n").encode("utf-8"))
    print(table)
    if report.partial:
        print(f"partial report; missing tasks: {', '.join(report.missing_tasks)}")
    elif report.gm is None:
        print(f"no GM; undefined by {', '.join(payload['gm_undefined_by'])}")
    return EXIT_OK if report.gm is not None else EXIT_PARTIAL


@_stage("replay", outputs=("replay_report.json",))
def _cmd_replay(config: PipelineConfig, replay_path: Path) -> int:
    if str(replay_path) == "builtin":
        replay_path = demo_data_path("reference_runs.json")
    rows = ingest.read_json(replay_path)
    if not isinstance(rows, list) or not rows:
        raise ForgeError(f"{replay_path} must hold a non-empty JSON list of runs")
    reports: dict[str, evalsuite.MetricReport] = {}
    for i, row in enumerate(rows):
        try:
            name = row["name"]
            metrics = {m: row["metrics"][m] for m in evalsuite.METRIC_NAMES}
        except (KeyError, TypeError) as exc:
            raise ForgeError(f"replay row {i}: missing or bad field ({exc})") from exc
        for metric, value in metrics.items():
            # bool is an int subclass, json.loads reads NaN and Infinity,
            # and an int past the float range overflows in float().
            try:
                finite = type(value) in (int, float) and math.isfinite(float(value))
            except OverflowError:
                finite = False
            if not finite:
                raise ForgeError(
                    f"replay row {i}: {metric} must be a finite number, got {json.dumps(value)}"
                )
            metrics[metric] = float(value)
        if not isinstance(name, str) or not name:
            raise ForgeError(f"replay row {i}: name must be a non-empty string")
        if name in reports:
            raise ForgeError(f"replay row {i}: duplicate name {name!r}")
        undefined = evalsuite.gm_undefined_by(metrics)
        if undefined:
            raise ForgeError(f"replay row {i}: GM undefined by {', '.join(undefined)}")
        gm = evalsuite.gm_from_metrics(metrics)
        reports[name] = evalsuite.MetricReport(values=dict(metrics), gm=gm)
    _write_json(
        config.out_dir / "replay_report.json",
        {name: report.to_json() for name, report in reports.items()},
    )
    print(evalsuite.render_table(list(reports.items())))
    return EXIT_OK


@_stage("lora-verify", outputs=("lora_verify.json",))
def cmd_lora_verify(config: PipelineConfig) -> int:
    rows = lora.verify(config.rng_seed)
    for name, ok, detail in rows:
        print(f"{name:<24s} {'PASS' if ok else 'FAIL'}  {detail}")
    failed = [name for name, ok, _ in rows if not ok]
    if failed:
        raise ForgeError(f"lora-verify failed: {', '.join(failed)}")
    _write_json(config.out_dir / "lora_verify.json", {name: detail for name, _, detail in rows})
    return EXIT_OK


@_stage("human-eval", outputs=("human_eval.json",))
def cmd_human_eval(config: PipelineConfig, ratings_path: Path) -> int:
    ratings = evalsuite.load_ratings(ratings_path)
    if not ratings:
        raise ForgeError(f"{ratings_path} holds no ratings")
    report = evalsuite.human_eval_report(ratings)
    out_path = config.out_dir / "human_eval.json"
    _write_json(out_path, vars(report))
    for task, dist in sorted(report.per_task.items()):
        parts = ", ".join(f"{rate}: {frac:.2f}" for rate, frac in dist.items())
        print(f"{task}: {parts}")
    print(f"annotators: {len(report.annotator_counts)} -> {out_path}")
    return EXIT_OK


def cmd_check_manifest(config: PipelineConfig) -> int:
    """Print each record's outputs as OK or by their ``_verdict`` state, then
    its other verdict entries; exit 1 if any record has a verdict."""
    out_dir = config.out_dir
    if not (out_dir / "run_manifest.json").exists():
        raise ForgeError(f"{out_dir / 'run_manifest.json'} not found")
    sha256 = functools.cache(_sha256_file)
    bad = False
    for stage, record in sorted(_read_stages(out_dir).items()):
        verdict = _verdict(out_dir, record, sha256)
        failed = {name: state for name, state in verdict if state in ("MISSING", "HASH MISMATCH")}
        lines = [(name, failed.get(name, "OK")) for name in sorted(record.get("outputs", {}))]
        for entry in lines + [entry for entry in verdict if entry not in failed.items()]:
            print(_verdict_line(stage, *entry))
        bad = bad or bool(verdict)
    return EXIT_ERROR if bad else EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    """Refuses a usage error with a ForgeError, so it is one ``error:`` line
    and exit 1 like every other refusal. Subparsers share the class."""

    def error(self, message: str):
        raise ForgeError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="forge",
        description="E-commerce instruction-dataset construction and evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, handler, *options: tuple[str, dict]):
        """A command that calls ``handler(config, *values)``, one value per
        extra ``(flag, add_argument keywords)`` option."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, default=None, help="JSON config file")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config value (dotted path, JSON value)",
        )
        dests = [p.add_argument(flag, **kwargs).dest for flag, kwargs in options]
        p.set_defaults(handler=handler, dests=dests)

    backend = ("--backend", {"choices": ("mock", "http"), "default": "mock"})
    add("formulate", "ingest raw interactions and build the seed set", cmd_formulate)
    add("expand", "grow the seed set with teacher variants", cmd_expand, backend)
    add("curate", "dedup, balance, emit the dataset and held-out packs", cmd_curate)
    generations = ("--generations", {"type": Path, "default": None, "metavar": "DIR"})
    replay_help = "aggregate pre-computed metric rows ('builtin' for the bundled set)"
    replay = ("--replay", {"type": Path, "default": None, "metavar": "FILE", "help": replay_help})
    add("evaluate", "compute the metric report", cmd_evaluate, backend, generations, replay)
    add("lora-verify", "verify the adapter math end to end", cmd_lora_verify)
    ratings = ("--ratings", {"type": Path, "required": True, "metavar": "FILE"})
    add("human-eval", "summarize human rating files", cmd_human_eval, ratings)
    add("check-manifest", "re-verify stage outputs and inputs", cmd_check_manifest)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = load_config(args.config, args.overrides)
        return args.handler(config, *(getattr(args, dest) for dest in args.dests))
    except (ForgeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
