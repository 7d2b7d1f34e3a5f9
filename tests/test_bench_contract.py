"""The benchmark's span recorder wraps aptbot functions by name; keep them resolvable."""

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


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
