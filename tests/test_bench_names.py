"""The benchmark's traced spans name library functions; each name must resolve."""

import importlib
import runpy
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_wrapped_name_resolves_to_a_callable():
    # Tracer.install skips a name that no longer exists, and the metrics of
    # its span then read 0.  run_path compiles the file without caching it.
    for module, name in runpy.run_path(str(SPANS))["WRAPPED"]:
        fn = getattr(importlib.import_module(f"sturmjsr.{module}"), name, None)
        assert callable(fn), f"sturmjsr.{module}.{name}"
