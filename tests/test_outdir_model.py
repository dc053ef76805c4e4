"""A stateful model of one out dir: stage runs, edits and crashes.

Hypothesis drives ``forge formulate``, ``expand`` and ``curate`` in process,
through ``cli.main``, on a small demo out dir. Between runs it edits,
truncates or deletes artifacts, hand-edits ``run_manifest.json`` and makes
one ``ingest.write_atomic`` call fail. After every step the model checks the
out dir against verdicts it computes itself, from the manifest JSON and
hashlib: check-manifest prints them and exits 1 exactly when one exists, a
stage refuses every input that such a record vouches for, and a failed
stage leaves the manifest as it was and no lock or temp file behind.
"""
import contextlib
import hashlib
import io
import json
import shutil
import tempfile
import unicodedata
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from ecomforge import cli, ingest

# Each stage's (inputs, outputs) in the out dir, as README lists them.
PIPELINE = {
    "formulate": (
        (),
        (
            "seeds.jsonl",
            "ingest.errors.jsonl",
            "heldout_scenario_ads.jsonl",
            "heldout_recommendation.jsonl",
        ),
    ),
    "expand": (("seeds.jsonl",), ("expanded.jsonl", "diagnostics.jsonl")),
    "curate": (
        ("expanded.jsonl", "heldout_scenario_ads.jsonl", "heldout_recommendation.jsonl"),
        ("dataset.jsonl", "manifest.json"),
    ),
}
PRODUCER = {name: stage for stage, (_, outputs) in PIPELINE.items() for name in outputs}
SMALL = ("pipeline.seed_per_task=5", "pipeline.target_total=50", "pipeline.instruction_rewrites=1")
OTHER_UNICODE = "14.0.0" if unicodedata.unidata_version == "13.0.0" else "13.0.0"
MANIFEST = "run_manifest.json"
SEEDS = st.sampled_from([0, 1])
# No crash, or the k-th ingest.write_atomic call of the run fails: formulate
# makes five such calls, expand and curate three each.
CRASH_AT = st.none() | st.integers(1, 5)
BUILT: dict[int, dict[str, bytes]] = {}


def _state(out_dir: Path, name: str, digest: str) -> str | None:
    path = out_dir / name
    if not path.exists():
        return "MISSING"
    return None if hashlib.sha256(path.read_bytes()).hexdigest() == digest else "HASH MISMATCH"


def _expected(out_dir: Path, stage: str, record: dict) -> tuple[list[str], list[str]]:
    """check-manifest's lines for one record, and the record's verdict lines."""
    outputs = [
        (name, _state(out_dir, name, digest)) for name, digest in sorted(record["outputs"].items())
    ]
    others = [
        f"{stage}/{name}: CHANGED"
        for name, digest in sorted(record["inputs"].items())
        if _state(out_dir, name, digest)
    ]
    version = record.get("unicode", unicodedata.unidata_version)
    if version != unicodedata.unidata_version:
        others.append(f"{stage}: UNICODE {version} (this Python has {unicodedata.unidata_version})")
    lines = [f"{stage}/{name}: {state or 'OK'}" for name, state in outputs]
    verdict = [f"{stage}/{name}: {state}" for name, state in outputs if state] + others
    return lines + others, verdict


class OutDir(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.out = Path(tempfile.mkdtemp(prefix="forge-model-"))

    def teardown(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def _records(self) -> dict:
        path = self.out / MANIFEST
        return json.loads(path.read_text(encoding="utf-8"))["stages"] if path.exists() else {}

    def _write_records(self, records: dict) -> None:
        (self.out / MANIFEST).write_text(json.dumps({"stages": records}), encoding="utf-8")

    def _snapshot(self) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in self.out.iterdir()}

    def _main(self, *argv: str) -> tuple[int, str, str]:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([*argv, "--set", f"paths.out_dir={self.out}"])
        return code, stdout.getvalue(), stderr.getvalue()

    def _refusal(self, stage: str) -> str | None:
        """The error line the stage must stop with before it writes anything."""
        records = self._records()
        for name in PIPELINE[stage][0]:
            path, producer = self.out / name, PRODUCER[name]
            if not path.exists():
                return f"error: {path} not found; run `forge {producer}` first\n"
            record = records.get(producer)
            if record is None or name not in record["outputs"]:
                continue
            verdict = _expected(self.out, producer, record)[1]
            if verdict:
                return f"error: {path} cannot be read: {verdict[0]}; rerun `forge {producer}`\n"
        return None

    def _vouched(self, stage: str) -> bool:
        """Every input is vouched for by its producer's record."""
        records = self._records()
        return all(
            name in records.get(PRODUCER[name], {}).get("outputs", {})
            for name in PIPELINE[stage][0]
        )

    def _run(self, stage: str, seed: int, crash_at: int | None = None) -> None:
        """Run ``stage`` under ``rng_seed=seed``; with ``crash_at`` its
        crash_at-th ``ingest.write_atomic`` call fails before the rename."""
        refusal, vouched, before = self._refusal(stage), self._vouched(stage), self._snapshot()
        argv = [stage, "--set", f"rng_seed={seed}"]
        for override in SMALL:
            argv += ["--set", override]
        calls, write_atomic = [], ingest.write_atomic

        def failing_write(path, data):
            calls.append(path)
            if len(calls) != crash_at:
                return write_atomic(path, data)
            with mock.patch.object(ingest.os, "replace", side_effect=OSError("injected")):
                return write_atomic(path, data)

        with mock.patch.object(ingest, "write_atomic", failing_write):
            code, _, err = self._main(*argv)
        crashed = crash_at is not None and len(calls) >= crash_at
        if refusal is not None:
            assert (code, err) == (cli.EXIT_ERROR, refusal)
            assert self._snapshot() == before
            return
        if code == cli.EXIT_ERROR:
            assert self._snapshot().get(MANIFEST) == before.get(MANIFEST)
        if crashed:
            assert code == cli.EXIT_ERROR, err
        elif vouched:
            assert code in (cli.EXIT_OK, cli.EXIT_PARTIAL), err
        if code != cli.EXIT_ERROR:
            record = self._records()[stage]
            assert set(record["inputs"]) == set(PIPELINE[stage][0])
            assert _expected(self.out, stage, record)[1] == []

    @initialize(seed=SEEDS)
    def build(self, seed):
        """Run formulate, expand and curate; their out dir is kept per seed
        and copied into later examples."""
        if seed not in BUILT:
            for stage in PIPELINE:
                self._run(stage, seed)
            BUILT[seed] = self._snapshot()
        for name, data in BUILT[seed].items():
            (self.out / name).write_bytes(data)

    @rule(seed=SEEDS, crash_at=CRASH_AT)
    def formulate(self, seed, crash_at):
        self._run("formulate", seed, crash_at)

    @rule(seed=SEEDS, crash_at=CRASH_AT)
    def expand(self, seed, crash_at):
        self._run("expand", seed, crash_at)

    @rule(seed=SEEDS, crash_at=CRASH_AT)
    def curate(self, seed, crash_at):
        self._run("curate", seed, crash_at)

    @rule(
        name=st.sampled_from(sorted(PRODUCER)),
        how=st.sampled_from(["append-newline", "drop-last-line", "truncate", "delete"]),
    )
    def edit_artifact(self, name, how):
        path = self.out / name
        if not path.exists():
            return
        data = path.read_bytes()
        if how == "delete":
            path.unlink()
        elif how == "append-newline":
            path.write_bytes(data + b"\n")
        elif how == "drop-last-line":
            path.write_bytes(b"".join(data.splitlines(True)[:-1]))
        else:
            path.write_bytes(data[: len(data) // 2])

    @rule(
        stage=st.sampled_from(sorted(PIPELINE)),
        how=st.sampled_from(
            [
                "output-hash",
                "input-hash",
                "other-unicode",
                "no-unicode",
                "drop-record",
                "drop-manifest",
            ]
        ),
    )
    def edit_record(self, stage, how):
        records = self._records()
        if stage not in records:
            return
        record = records[stage]
        if how == "drop-manifest":
            (self.out / MANIFEST).unlink()
            return
        if how == "drop-record":
            del records[stage]
        elif how in ("output-hash", "input-hash"):
            recorded = record["outputs" if how == "output-hash" else "inputs"]
            for name in sorted(recorded)[:1]:
                recorded[name] = "0" * 64
        elif how == "no-unicode":
            record.pop("unicode", None)
        else:
            record["unicode"] = OTHER_UNICODE
        self._write_records(records)

    @invariant()
    def check_manifest_agrees(self):
        code, out, err = self._main("check-manifest")
        if not (self.out / MANIFEST).exists():
            assert code == cli.EXIT_ERROR and out == "" and MANIFEST in err
            return
        lines, bad = [], False
        for stage, record in sorted(self._records().items()):
            expected, verdict = _expected(self.out, stage, record)
            lines += expected
            bad = bad or bool(verdict)
        assert out.splitlines() == lines
        assert code == (cli.EXIT_ERROR if bad else cli.EXIT_OK)

    @invariant()
    def nothing_left_behind(self):
        names = [p.name for p in self.out.iterdir()]
        assert ".forge.lock" not in names
        assert not [n for n in names if n.startswith(".") and n.endswith(".tmp")]


OutDir.TestCase.settings = settings(
    derandomize=True,
    database=None,
    max_examples=30,
    stateful_step_count=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestOutDir = OutDir.TestCase
