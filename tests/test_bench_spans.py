"""The traced benchmark wraps cupi functions by name (bench/worker.py, SPANS);
a renamed or inlined function would drop its span without an error there."""

import importlib
import importlib.util
from pathlib import Path

WORKER = Path(__file__).resolve().parents[1] / "bench" / "worker.py"


def test_every_traced_span_names_a_cupi_function():
    spec = importlib.util.spec_from_file_location("bench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    missing = []
    for name, mod, attr, _ in worker.SPANS:
        owner = importlib.import_module(f"cupi.{mod}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append((name, f"cupi.{mod}.{attr}"))
    assert worker.SPANS
    assert missing == []
