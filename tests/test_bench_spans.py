"""The traced benchmark wraps cupi functions by name (bench/worker.py, SPANS)
and reads the table state of cupi.steenrod directly; a renamed or inlined
function, or a changed table state, would drop its numbers without an error
there."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "bench" / "worker.py"


def load_worker():
    spec = importlib.util.spec_from_file_location("bench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


def test_every_traced_span_names_a_cupi_function():
    worker = load_worker()
    missing = []
    for name, mod, attr, _ in worker.SPANS:
        owner = importlib.import_module(f"cupi.{mod}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append((name, f"cupi.{mod}.{attr}"))
    assert worker.SPANS
    assert missing == []


def test_the_tracer_installs_in_a_fresh_process():
    # Tracer.install imports cupi.cli alone and then looks up the module of
    # every span in sys.modules, so cupi.cli must load all of them
    code = ("import importlib.util as u; "
            f"spec = u.spec_from_file_location('w', {str(WORKER)!r}); "
            "w = u.module_from_spec(spec); "
            "spec.loader.exec_module(w); w.Tracer().install()")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_the_table_state_the_worker_reads_stays():
    # run_probe calls steenrod.ensure_tables, run_cli reports
    # steenrod._LEVEL_BUILT, and _table_terms sums len() over the
    # steenrod._TABLES values
    from cupi import steenrod
    from cupi.chains import TensorChain
    worker = load_worker()
    assert callable(steenrod.ensure_tables)
    steenrod.ensure_tables(2)
    assert type(steenrod._LEVEL_BUILT) is int
    assert steenrod._LEVEL_BUILT >= 2
    assert all(type(t) is TensorChain for t in steenrod._TABLES.values())
    assert worker._table_terms(steenrod) == sum(
        len(t.coeffs) for t in steenrod._TABLES.values())
