"""The benchmark's layer tracer patches functions by (module, attribute)
name. A rename in the package would break only traced benchmark runs, so
every name it hooks is resolved here. The tracer module is loaded from its
file and nothing in it is installed or changed.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_MODULE = _tracer()


@pytest.mark.parametrize(
    "module_name, attr",
    sorted({(m, a) for m, a, _span, _counter
            in _MODULE.LAYER_HOOKS + _MODULE.BOUNDARY_HOOKS}))
def test_tracer_hook_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
