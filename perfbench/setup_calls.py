"""Set-up calls into the package, written as data.

A workload's set-up is one call per operation: ["module.function", *args]
with a function under domcover and JSON-able arguments, or None when the
operation needs no library object.  make() performs one call.  The set-up
probe (child.py setup) times `import domcover` plus make() over one
round's calls, so setup_s holds the package's own work and none of the
benchmark's input generators.  Functions resolve through module attributes
at call time, so the traced run's wrappers see them.  This module imports
nothing from domcover at load time.
"""

from __future__ import annotations

import importlib


def make(call):
    if call is None:
        return None
    path, *args = call
    module, name = path.split(".")
    return getattr(importlib.import_module("domcover." + module), name)(*args)
