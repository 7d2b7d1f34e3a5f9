"""aptbot benchmark: one command per workload, every metric by name and unit.

    python3 bench/run.py --workload request_mix --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports aptbot from ./src and writes
only under ./.bench_out. Workloads (see BENCHMARK.json for why each exists):

  request_mix        scripted `handle_request` plus in-memory rendering
  reference_answers  `plan_oracle` on 1-5 waypoints, then `validate` and `execute`
  cli_cold           a fresh `python -m aptbot run` on the medication scenario

All load is one closed-loop caller with no threads: the next operation
starts when the previous one returns. Each generated input runs many times
across the run and counts at its fastest repetition (see stats.py); raw
wall-clock figures are printed on a line of their own. `--trace 0` prints the end-to-end
metrics; `--trace 1` prints the per-layer metrics from a traced run, the
tracing overhead against an untraced run on the same seed, the oracle
scaling curve and the CLI import-time breakdown. The last line of stdout is
one JSON object; the exit code is 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import spans  # noqa: E402
from stats import summarize  # noqa: E402

WORKLOADS = ("request_mix", "reference_answers", "cli_cold")
BENCH = Path(__file__).resolve().parent
WORKER = str(BENCH / "worker.py")
OUT = Path(".bench_out")
SCENARIO = "scenarios/medication.scenario"
GOLDEN = Path("tests/golden")
ARTIFACTS = ("transcript.txt", "plan.txt", "events.txt")

SETUP_SPAWNS = 6  # fresh set-up processes per run, half before and half after
# Traced runs keep every span in memory; 10 s of request_mix is ~700k spans.
TRACED_SECONDS = 10.0
SUPPLEMENT_SECONDS = 3.0  # traced run of the other in-process workload
WORKER_LIMIT_S = 170.0
# The in-process workload that covers layers the traced workload never calls.
SUPPLEMENT = {
    "request_mix": "reference_answers",
    "reference_answers": "request_mix",
    "cli_cold": "reference_answers",
}


class BenchError(RuntimeError):
    """The program could not be run at all; no result is printed."""


def spawn(argv: list[str], env=None, limit: float | None = WORKER_LIMIT_S):
    """Run a child to completion: (exit code, stdout, stderr, peak RSS MB, wall s)."""
    with tempfile.TemporaryFile(dir=OUT) as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env)
        timer = threading.Timer(limit, proc.kill) if limit else None
        if timer:
            timer.start()
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
            if timer:
                timer.cancel()
        err.seek(0)
        return proc.returncode, out, err.read(), usage.ru_maxrss / 1024, wall


def worker(*args: str) -> tuple[dict, float]:
    code, out, err, rss_mb, _ = spawn([sys.executable, WORKER, *args])
    if code != 0:
        sys.stderr.write(err.decode(errors="replace"))
        raise BenchError(f"worker {' '.join(args[:2])} exited {code}")
    return json.loads(out.decode().splitlines()[-1]), rss_mb


def write_inputs(workload: str, seed: int, work: Path) -> str:
    if workload == "cli_cold":
        return "-"
    cases = gen.request_mix(seed) if workload == "request_mix" else gen.reference_answers(seed)
    path = work / f"{workload}.json"
    path.write_text(json.dumps(cases), encoding="utf-8")
    return str(path)


def setup_samples(workload: str, inputs: str, count: int) -> list[float]:
    return [worker("setup", workload, inputs)[0]["setup_s"] for _ in range(count)]


def run_cli_cold(seconds: float, work: Path, traced: bool) -> dict:
    """Cold CLI runs back to back, each into a fresh directory, checked against the goldens."""
    golden = {name: (GOLDEN / name).read_bytes() for name in ARTIFACTS}
    env = dict(os.environ, PYTHONPATH="src")
    latencies, peaks, failures, aggregates = [], [], [], []
    calls = fulfilled = 0
    deadline = time.perf_counter() + seconds
    started = time.perf_counter()
    while time.perf_counter() < deadline:
        index = len(latencies)
        out = work / f"cli-{index}"
        argv = [sys.executable, "-m", "aptbot"]
        if traced:
            aggregate = work / f"cli-{index}.json"
            argv = [sys.executable, WORKER, "cli", str(aggregate)]
        argv += ["run", "--scenario", SCENARIO, "--out", str(out)]
        # No kill timer: starting its thread would fall inside the timed spawn.
        code, stdout, stderr, rss_mb, wall = spawn(argv, env=env, limit=None)
        latencies.append(wall)
        peaks.append(rss_mb)
        produced = out / "request_001"
        problem = None
        if code != 0 or stdout != b"request 1: fulfilled\n" or stderr:
            problem = f"exit {code}: {stdout[-300:]!r} {stderr[-300:]!r}"
        else:
            for name in ARTIFACTS:
                if (produced / name).read_bytes() != golden[name]:
                    problem = f"{name} differs from tests/golden/{name}"
            transcript = (produced / "transcript.txt").read_text(encoding="utf-8")
            calls += transcript.splitlines().count("=== user ===")
            fulfilled += stdout.count(b": fulfilled\n")
        if problem:
            failures.append(f"cold run {index}: {problem}")
        if traced and code == 0:
            aggregates.append(json.loads(aggregate.read_text(encoding="utf-8")))
        shutil.rmtree(out, ignore_errors=True)
    result = {
        "attempted": len(latencies),
        "failed": len(failures),
        "failures": failures[:5],
        "ops": len(latencies),
        # Every cold run has the same input, so p50 and p90 are both its fastest run.
        **summarize([latencies], time.perf_counter() - started),
        "backend_calls": calls,
        "fulfilled": fulfilled,
        "rss_mb": statistics.median(peaks),
    }
    if traced:
        result["trace"] = spans.merge(aggregates)
    return result


def run_main(workload: str, inputs: str, seconds: float, work: Path,
             spans_path: str | None = None) -> dict:
    if workload == "cli_cold":
        return run_cli_cold(seconds, work, traced=spans_path is not None)
    args = ["run", workload, inputs, repr(seconds)] + ([spans_path] if spans_path else [])
    result, rss_mb = worker(*args)
    result["rss_mb"] = rss_mb
    return result


def composition(result: dict) -> str:
    total = sum(result["paths"].values())
    shares = ", ".join(
        f"{path} {count / total:.1%}" for path, count in sorted(result["paths"].items())
    )
    return f"request_mix composition over {total} requests: {shares}"


def raw_line(result: dict) -> str:
    return (
        f"{result['inputs']} inputs, {result['executions']} timed executions;"
        f" raw wall clock p50 {result['raw_p50_ms']:.4f} ms, p90 {result['raw_p90_ms']:.4f} ms,"
        f" {result['raw_ops_per_s']:.2f} ops/s"
    )


def end_to_end(args, work: Path, inputs: str) -> tuple[dict, dict]:
    before = setup_samples(args.workload, inputs, SETUP_SPAWNS // 2)
    main = run_main(args.workload, inputs, args.seconds, work)
    after = setup_samples(args.workload, inputs, SETUP_SPAWNS - SETUP_SPAWNS // 2)
    setups = before + after + ([main["setup_s"]] if "setup_s" in main else [])
    if main["above_p90"] < 10:
        main["failed"] += 1
        main["failures"].append(f"only {main['above_p90']} samples above the p90")
    if "paths" in main:
        print(composition(main))
    print(raw_line(main))
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": main["p50_ms"],
        "latency_p90_ms": main["p90_ms"],
        "ops_per_s": main["ops_per_s"],
        "ok_share": (main["attempted"] - main["failed"]) / main["attempted"],
        "backend_calls_per_fulfilled": main["backend_calls"] / max(main["fulfilled"], 1),
        "peak_rss_mb": main["rss_mb"],
    }
    return metrics, main


def import_breakdown() -> dict:
    """Interpreter start, `import aptbot.cli` and its `requests` share: fastest of several, in ms."""
    interp = [spawn([sys.executable, "-c", "pass"])[4] for _ in range(9)]
    code = "import time; t = time.perf_counter(); import aptbot.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH="src")
    imports, requests = [], []
    for _ in range(7):
        status, out, err, _, _ = spawn([sys.executable, "-X", "importtime", "-c", code], env=env)
        if status != 0:
            raise BenchError(f"import aptbot.cli failed: {err.decode(errors='replace')[-300:]}")
        imports.append(float(out.decode().split()[-1]) * 1e3)
        for line in err.decode().splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "requests":
                requests.append(int(fields[1]) / 1e3)
    return {
        "cli.interpreter_ms": min(interp) * 1e3,
        "cli.import_ms": min(imports),
        "cli.import_requests_ms": min(requests) if requests else 0.0,
    }


def per_layer(args, work: Path, inputs: str) -> tuple[dict, dict]:
    OUT.mkdir(exist_ok=True)
    plain = run_main(args.workload, inputs, args.seconds, work)
    traced_spans = str(OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    traced = run_main(args.workload, inputs, min(args.seconds, TRACED_SECONDS), work,
                      spans_path=traced_spans)
    other = SUPPLEMENT[args.workload]
    other_spans = str(OUT / f"spans-{args.workload}-seed{args.seed}-supplement-{other}.tsv.gz")
    supplement = run_main(other, write_inputs(other, args.seed, work), SUPPLEMENT_SECONDS,
                          work, spans_path=other_spans)
    written = [p for p in (traced_spans, other_spans) if Path(p).exists()]
    if written:
        print("spans written to " + ", ".join(written))
    if "paths" in traced:
        print(composition(traced))

    own = spans.layer_metrics(traced["trace"], traced["ops"])
    extra = spans.layer_metrics(supplement["trace"], supplement["ops"])
    metrics = {name: (own[name] if own[name][1] else extra[name])[0] for name in own}

    curve_path = work / "curve.json"
    curve_path.write_text(json.dumps(gen.oracle_curve(args.seed)), encoding="utf-8")
    curve, _ = worker("curve", str(curve_path))
    for n, point in curve.items():
        metrics[f"oracle.plan_oracle_ms.{n}"] = point["ms"]
        metrics[f"oracle.orders.{n}"] = point["orders"]
    metrics.update(import_breakdown())
    metrics["trace.overhead_share"] = 1 - traced["ops_per_s"] / plain["ops_per_s"]
    if "paths" in traced:
        pairs = metrics["gateway.history_pairs_per_call"]
        print(f"request_mix mean history pairs per backend call: {pairs:.3f}")
    runs = (plain, traced, supplement)
    totals = {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "failures": [f for r in runs for f in r["failures"]][:5],
    }
    return metrics, totals


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not (Path("src") / "aptbot" / "__init__.py").is_file():
        print("error: run from the root of an aptbot checkout (no src/aptbot)", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        inputs = write_inputs(args.workload, args.seed, work)
        measure = per_layer if args.trace else end_to_end
        metrics, totals = measure(args, work, inputs)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = {m["name"] for m in listed} ^ set(metrics)
    if missing:
        print(f"error: metrics and BENCHMARK.json disagree on {sorted(missing)}", file=sys.stderr)
        return 2
    for failure in totals["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    correct = totals["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
