"""The names the benchmark tracer wraps must exist where it looks for them.

``perfbench/spans.py`` reads ``owner.__dict__[attr]`` for every entry of
``TRACED``; a renamed or deleted function would only surface as a KeyError
in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_is_defined_on_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    missing = [(name, getattr(owner, "__name__", owner), attr) for name, owner, attr, _ in spans.TRACED if attr not in vars(owner)]
    assert missing == []
