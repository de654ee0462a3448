"""perfbench's tracer wraps gradsynth functions by name: each must still exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_names():
    # loaded from its file, not imported as a package, and kept out of sys.modules
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED


def test_every_traced_name_resolves_to_a_gradsynth_callable():
    missing = []
    for module, attr in _traced_names():
        owner = importlib.import_module(f"gradsynth.{module}")
        for part in attr.split("."):  # a method resolves through its class
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attr}")
    assert missing == []
