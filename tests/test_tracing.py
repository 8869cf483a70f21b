"""The benchmark's traced names must stay bound in the package.

perfbench/tracing.py wraps each name in TRACED by looking it up in its
domcover module; a rename there would break `run.py --trace 1` only when
the traced run starts.  tracing.py imports only the standard library.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_name_resolves():
    traced = _load_tracing().TRACED
    assert traced
    for qual in traced:
        module, name = qual.split(".")
        assert callable(getattr(importlib.import_module("domcover." + module), name)), qual
