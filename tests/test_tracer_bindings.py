"""The benchmark's tracer wraps package functions by (module, attribute)
name; a refactor that drops or renames one of them breaks ``--trace 1``.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "iccbench" / "tracer.py"


def test_every_wrapped_name_resolves():
    spec = importlib.util.spec_from_file_location("iccbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPPED
    for mod_name, attr, label in tracer.WRAPPED:
        mod = importlib.import_module(f"iccover.{mod_name}")
        assert callable(getattr(mod, attr, None)), (mod_name, attr, label)
