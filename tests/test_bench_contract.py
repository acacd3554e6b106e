import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


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
