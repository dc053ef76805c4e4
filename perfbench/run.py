#!/usr/bin/env python3
"""The ecomforge benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. It builds the workload's inputs from the
seed (``inputs.py``, recipes in ``workloads.json``), then runs the
workload's ``forge`` stages, one fresh process per pass (``passrun.py``),
until ``--seconds`` have passed. Every pass's artifacts are checked: the
same across passes, equal to the pins in ``reference.json`` at the seeds it
pins (0 to 20, written by ``pin.py``) and, for teacher-http, equal to the
mock backend's on the same inputs.

With ``--trace 0`` it prints the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics, taken from the traced passes' spans. Each metric is
printed with its unit; the last line is one JSON object. A mismatch gives
``"correct": false`` and exit code 1.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import covered, intervals, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench-work"
RUN_BUDGET_S = 170.0
REPORT_REL_TOL = 1e-9
ARTIFACTS = ("seeds.jsonl", "expanded.jsonl", "dataset.jsonl")


class GateError(Exception):
    """A pass's outputs are wrong or differ from their reference."""


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def count_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


def run_child(spec: dict, work: Path, tag: str, deadline: float) -> dict:
    result_path = work / f"{tag}.result.json"
    spec_path = work / f"{tag}.spec.json"
    spec_path.write_text(json.dumps({**spec, "result": str(result_path)}), encoding="utf-8")
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "passrun.py"), str(spec_path)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as exc:
        raise GateError(f"{tag} did not finish within the run budget") from exc
    if proc.returncode != 0:
        raise GateError(f"{tag} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["wall_s"] = time.perf_counter() - started
    return result


def check_pass(workload: dict, out_dir: Path, result: dict) -> dict:
    """Validate one pass's outputs; return the digest passes are compared by."""
    failing = {stage: code for stage, code in result["exit_codes"].items() if code != 0}
    if failing:
        raise GateError(f"stages exited non-zero: {failing}")
    digest: dict = {"rows": {}}
    for name in ARTIFACTS:
        path = out_dir / name
        if path.exists():
            digest[name] = sha256_file(path)
            digest["rows"][name] = count_rows(path)
    manifest_path = out_dir / "run_manifest.json"
    run_manifest = (
        json.loads(manifest_path.read_text(encoding="utf-8")) if manifest_path.exists() else {}
    )
    for stage, info in run_manifest.get("stages", {}).items():
        for name, recorded in info["outputs"].items():
            if sha256_file(out_dir / name) != recorded:
                raise GateError(f"{stage}/{name} does not match run_manifest.json")
    stages = workload["stages"]
    if "expand" in stages:
        failed = count_rows(out_dir / "diagnostics.jsonl")
        if failed:
            raise GateError(f"expand recorded {failed} failed teacher calls")
    if "curate" in stages:
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        share = workload["overrides"]["pipeline.target_total"] // 5
        if manifest["sha256"] != digest["dataset.jsonl"] or set(
            manifest["per_task"].values()
        ) != {share}:
            raise GateError(f"manifest.json is not a balanced {share}-per-task dataset")
        digest["manifest_per_task"] = manifest["per_task"]
    if "evaluate" in stages:
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        values = [v for k, v in report.items() if k != "missing_tasks"]
        if len(values) != 19 or not all(
            isinstance(v, float) and math.isfinite(v) and v > 0 for v in values
        ):
            raise GateError(f"report.json lacks 18 positive metrics plus GM: {report}")
        digest["report"] = report
    return digest


def compare_pins(digest: dict, pins: dict) -> None:
    for key, pinned in pins.items():
        actual = digest.get(key)
        if key == "report":
            same = actual is not None and all(
                math.isclose(actual[m], v, rel_tol=REPORT_REL_TOL) for m, v in pinned.items()
            )
        else:
            same = actual == pinned
        if not same:
            raise GateError(f"{key} differs from the pinned reference: {actual} != {pinned}")


def backend_calls(digest: dict, input_rows: dict[str, int]) -> int:
    """Model calls a pass needs: one completion per teacher variant, one
    logprob call per title rewrite and two embedding calls per Q&A sample."""
    teacher = digest["rows"].get("expanded.jsonl", 0) - digest["rows"].get("seeds.jsonl", 0)
    if "report" not in digest:
        return teacher
    return teacher + input_rows["title_rewriting"] + 2 * input_rows["general_qa"]


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)] if ordered else 0.0


def layer_metrics(result: dict, spans: list[tuple], rows: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans and their
    per-name ``summarize`` rows."""
    counts = result["trace"]["counts"]

    def get(name: str, field: str) -> float:
        return rows.get(name, {}).get(field, 0)

    m: dict[str, float] = {}
    for stage in ("formulate", "expand", "curate", "evaluate"):
        m[f"cli.{stage}_s"] = get(f"cli.{stage}", "total_s")
    m["curate.dedup_s"] = get("curate.dedup", "total_s")
    m["curate.dedup_self_s"] = get("curate.dedup", "self_s")
    m["curate.dedup_in"] = counts.get("curate.dedup_in", 0)
    m["curate.dedup_out"] = counts.get("curate.dedup_out", 0)
    m["curate.dedup_kept_ratio"] = (
        m["curate.dedup_out"] / m["curate.dedup_in"] if m["curate.dedup_in"] else 0.0
    )
    for name in ("balance", "emit_jsonl", "load_jsonl", "heldout"):
        m[f"curate.{name}_s"] = get(f"curate.{name}", "total_s")
    m["curate.emit_bytes"] = counts.get("curate.emit_bytes", 0)

    for kind in ("complete", "logprobs", "embed"):
        m[f"modelio.{kind}_calls"] = get(f"modelio.{kind}", "calls")
    send_spans = intervals(spans, {"modelio.send.http", "modelio.send.mock"})
    sends = [end - start for start, end in send_spans]
    m["modelio.send_busy_s"] = sum(sends)
    m["modelio.send_p50_ms"] = 1000 * percentile(sends, 50)
    m["modelio.send_p99_ms"] = 1000 * percentile(sends, 99)
    m["modelio.send_samples"] = len(sends)
    posts = get("modelio.post", "calls")
    m["modelio.http_posts"] = posts
    m["modelio.retries"] = posts - get("modelio.send.http", "calls")
    m["modelio.retry_wait_s"] = get("modelio.send.http", "self_s")
    sending_wall = covered(send_spans)
    m["modelio.inflight_mean"] = m["modelio.send_busy_s"] / sending_wall if sending_wall else 0.0
    m["modelio.post_ok_ratio"] = counts.get("modelio.post_ok", 0) / posts if posts else 0.0
    m["teacher_calls_per_s"] = (
        get("modelio.complete", "ok") / m["cli.expand_s"] if m["cli.expand_s"] else 0.0
    )
    scorer_ok = get("modelio.logprobs", "ok") + get("modelio.embed", "ok")
    m["scorer_calls_per_s"] = scorer_ok / m["cli.evaluate_s"] if m["cli.evaluate_s"] else 0.0
    attempted = sum(get(f"modelio.{k}", "calls") for k in ("complete", "logprobs", "embed"))
    succeeded = get("modelio.complete", "ok") + scorer_ok
    m["failed_call_frac"] = (attempted - succeeded) / attempted if attempted else 0.0

    m["expand.expand_corpus_s"] = get("expand.expand_corpus", "total_s")
    m["expand.pairs_out"] = counts.get("expand.pairs_out", 0)
    m["expand.failures"] = counts.get("expand.failures", 0)
    m["ingest.load_calls"] = get("ingest.load", "calls")
    m["ingest.rows"] = counts.get("ingest.rows", 0)
    m["ingest.load_s"] = get("ingest.load", "total_s")
    m["ingest.load_self_s"] = get("ingest.load", "self_s")
    for fn in ("clean_text", "tokenize", "normalize_label"):
        m[f"core.{fn}_calls"] = get(f"core.{fn}", "calls")
        m[f"core.{fn}_s"] = get(f"core.{fn}", "total_s")
    m["formulate.build_seed_set_s"] = get("formulate.build_seed_set", "total_s")
    m["formulate.seeds"] = counts.get("formulate.seeds", 0)
    for fn in ("evaluate_run", "bleu", "rouge_l", "bert_style_score", "macro_prf"):
        m[f"evalsuite.{fn}_calls"] = get(f"evalsuite.{fn}", "calls")
        m[f"evalsuite.{fn}_self_s"] = get(f"evalsuite.{fn}", "self_s")
    m["trace.run_s"] = result["run_s"]
    m["trace.spans"] = len(spans)
    return m


def run_workload(args, name: str, workload: dict, spec: dict, work: Path) -> dict:
    import inputs

    deadline = time.perf_counter() + RUN_BUDGET_S
    mix = spec["generation_mix"]["weights"] if "evaluate" in workload["stages"] else None

    setup_s: list[float] = []
    inputs_dir = input_digest = input_rows = None
    for rep in range(spec["setup_reps"]):
        rep_dir = work / f"inputs{rep}"
        started = time.perf_counter()
        rows = inputs.write_inputs(rep_dir, args.seed, workload["records"], workload["qa"], mix)
        generate_s = time.perf_counter() - started
        import_s = run_child({"mode": "import"}, work, f"import{rep}", deadline)["import_s"]
        setup_s.append(generate_s + import_s)
        digest = {p.name: sha256_file(p) for p in sorted(rep_dir.rglob("*.jsonl"))}
        if inputs_dir is None:
            inputs_dir, input_digest, input_rows = rep_dir, digest, rows
        elif digest != input_digest:
            raise GateError("the same seed gave different inputs")
        else:
            shutil.rmtree(rep_dir)

    base = {
        "mode": "pass",
        "inputs": str(inputs_dir),
        "stages": workload["stages"],
        "backend": workload["backend"],
        "overrides": workload["overrides"],
        "fake_session": workload.get("fake_session"),
    }
    modes = (False, True) if args.trace else (False,)
    passes: list[dict] = []
    measure_end = time.perf_counter() + args.seconds
    while True:
        index = len(passes)
        out_dir = work / f"pass{index}"
        traced = modes[index % len(modes)]
        result = run_child(
            {**base, "out_dir": str(out_dir), "trace": traced, "pass_id": index},
            work,
            f"pass{index}",
            deadline,
        )
        result["traced"] = traced
        result["digest"] = check_pass(workload, out_dir, result)
        shutil.rmtree(out_dir)
        passes.append(result)
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= len(modes) and time.perf_counter() + typical > measure_end:
            break

    digest = passes[0]["digest"]
    print(f"digest: {json.dumps(digest, sort_keys=True)}", file=sys.stderr)
    print(f"pass run_s: {[round(p['run_s'], 4) for p in passes]}", file=sys.stderr)
    stage_s = [{k: round(v, 4) for k, v in p["stage_s"].items()} for p in passes]
    print(f"pass stage_s: {stage_s}", file=sys.stderr)
    print(f"setup_s: {[round(s, 4) for s in setup_s]}", file=sys.stderr)
    for result in passes[1:]:
        if result["digest"] != digest:
            raise GateError("passes over the same inputs wrote different artifacts")
    pins = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))["workloads"]
    seed_pins = pins.get(name, {}).get(str(args.seed))
    if seed_pins is None:
        print(
            f"warning: reference.json pins nothing for {name} at seed {args.seed}; "
            "only agreement between passes and with the mock backend is checked",
            file=sys.stderr,
        )
    else:
        compare_pins(digest, seed_pins)
    if workload["backend"] == "http":
        out_dir = work / "mock-reference"
        mock = run_child(
            {**base, "backend": "mock", "out_dir": str(out_dir), "trace": False, "pass_id": -1},
            work,
            "mock-reference",
            deadline,
        )
        if check_pass(workload, out_dir, mock) != digest:
            raise GateError("the HTTP path's artifacts differ from the mock backend's")

    calls = backend_calls(digest, input_rows)
    untraced = [p for p in passes if not p["traced"]]
    if args.trace:
        per_pass = []
        for result in passes:
            if result["traced"]:
                spans = [tuple(span) for span in result["trace"]["spans"]]
                rows = summarize(spans)
                per_pass.append(layer_metrics(result, spans, rows))
        metrics = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - statistics.median(
            p["run_s"] for p in untraced
        )
        ranked = sorted(rows.items(), key=lambda item: -item[1]["self_s"])
        for layer, row in ranked[:8]:
            print(f"self time  {layer:<28} {row['self_s']:10.4f} s")
    else:
        # Times come from the fastest pass: on a shared host a pass only ever
        # loses time to other tenants, so the fastest one is the steadiest
        # reading of the program's own cost.
        metrics = {
            "setup_s": statistics.median(setup_s),
            "run_s": min(p["run_s"] for p in untraced),
            "cpu_s": min(p["cpu_s"] for p in untraced),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        }
    return {"metrics": metrics, "attempted": calls * len(passes), "failed": 0}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "ecomforge" / "cli.py", ROOT / "tools" / "make_demo_data.py"):
        if not needed.is_file():
            print(f"error: {needed} not found; run from the root of a checkout", file=sys.stderr)
            return 2
    spec = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in spec["workloads"]:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(spec['workloads'])}")
    if args.seed is None:
        args.seed = spec["default_seed"]

    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        outcome = run_workload(args, args.workload, spec["workloads"][args.workload], spec, work)
        correct = True
    except GateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        outcome, correct = {"metrics": {}, "attempted": 1, "failed": 1}, False
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    listed = declared["per_layer"] if args.trace else declared["end_to_end"]
    metrics = {}
    if correct:
        for entry in listed:
            value = outcome["metrics"][entry["name"]]
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
            print(f"{entry['name']:<36} {value:>16.6f} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
