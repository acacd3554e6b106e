import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, name) for mod, names in module.TRACED.items() for name in names]


@pytest.mark.parametrize("module_name,qualname", _traced())
def test_traced_name_exists(module_name, qualname):
    # the traced benchmark wraps each name with getattr, so a renamed or
    # deleted function makes every traced batch raise
    owner = importlib.import_module(f"momentforge.{module_name}")
    for part in qualname.split("."):
        assert hasattr(owner, part), f"momentforge.{module_name}.{qualname} is gone"
        owner = getattr(owner, part)
    assert callable(owner)


def test_traced_cli_small_run_is_correct():
    # one untraced and one traced batch: a tracing hook that reads a changed
    # attribute or signature raises only in the traced batch, and its
    # answers must match the untraced ones
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli_small", "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, run.stdout[-2000:]
    assert result["failed"] == 0
