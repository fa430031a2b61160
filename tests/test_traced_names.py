"""Every library name that the benchmark's tracer wraps exists.

``perfbench/tracer.py`` skips a ``TARGETS`` or ``COLUMN_TEST`` name that it
cannot find, so deleting or renaming a traced function would silently zero
its per-layer counters.  The two tuples are read from the tracer's source
with ``ast``; the tracer itself is not imported."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_names():
    values = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in ("TARGETS", "COLUMN_TEST"):
                    values[target.id] = ast.literal_eval(node.value)
    assert set(values) == {"TARGETS", "COLUMN_TEST"} and values["TARGETS"]
    return [(module, attr) for module, attr, _ in values["TARGETS"]] + [values["COLUMN_TEST"]]


@pytest.mark.parametrize("module,attr", _traced_names())
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"spectrapairs.{module}"), attr, None))
