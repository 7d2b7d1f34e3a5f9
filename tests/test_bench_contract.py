"""The benchmark calls aptbot and its span recorder wraps aptbot functions by
name; keep both working."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import SCENARIO_PATH, child_env

ROOT = Path(__file__).resolve().parents[1]
SPANS_PATH = ROOT / "bench" / "spans.py"

# Run in a child process, so that the installed wrappers stay out of the
# other tests: trace the medication request and print the aggregate.
TRACED_REQUEST = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("bench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
tracer = spans.Tracer()
tracer.install()
from aptbot import agent, cli, scenario
loaded = scenario.load_scenario(sys.argv[2])
tracer.begin_request()
outcome = agent.handle_request(
    loaded.requests[0], loaded.world, cli.fresh_arm(loaded.world), loaded.make_backend(),
    config=loaded.config, templates=loaded.templates,
)
print(json.dumps({"status": outcome.status, **tracer.aggregate()}))
"""


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_is_a_callable_on_aptbot():
    spans = _load_spans()
    targets = [
        (name, module, attr)
        for name, (module, attr) in [*spans.SPANS.items(), *spans.COUNTERS.items()]
    ]
    targets += [
        (name, module, f"{cls}.{attr}")
        for name, (module, cls, attr) in spans.METHOD_SPANS.items()
    ]
    missing = []
    for name, module, path in targets:
        obj = importlib.import_module(module)
        for part in path.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{name} -> {module}.{path}")
    assert missing == []


def test_per_layer_counters_and_spans_see_a_traced_request():
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_REQUEST, str(SPANS_PATH), str(SCENARIO_PATH)],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(proc.stdout.splitlines()[-1])
    assert traced["status"] == "fulfilled"
    sums, spans = traced["sums"], traced["spans"]
    for counter in ("world.travel_time", "world.item_location",
                    "clock.parse_clock", "clock.format_clock"):
        assert sums[counter] > 0, counter
    for span in ("plan.parse_plan", "plan.normalize", "validator.validate", "simulator.execute"):
        assert spans[span][0] > 0, span


@pytest.mark.parametrize("workload", ["request_mix", "reference_answers"])
def test_worker_runs_one_pass_of_each_in_process_workload(tmp_path, workload):
    """One pass of `bench/worker.py` over seed 1's inputs fails no operation:
    the calls the benchmark makes into aptbot still hold. Children write no
    bytecode (`-B`), so nothing lands under `bench/`."""
    inputs = tmp_path / f"{workload}.json"
    write = "import gen, json, pathlib, sys; pathlib.Path(sys.argv[1]).write_text(json.dumps({}))"
    subprocess.run(
        [sys.executable, "-B", "-c", write.format(f"gen.{workload}(1)"), str(inputs)],
        cwd=ROOT / "bench", env=child_env(), check=True, timeout=60,
    )
    proc = subprocess.run(
        [sys.executable, "-B", "bench/worker.py", "run", workload, str(inputs), "0"],
        cwd=ROOT, capture_output=True, text=True, env=child_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0, result["failures"]
    assert result["ops"] == result["attempted"] > 0
