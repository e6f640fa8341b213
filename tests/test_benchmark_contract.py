"""The benchmark's layer tracer finds every function it wraps.

`perfbench/tracing.py` resolves its targets by module and attribute name;
a target that a refactor renamed or removed reads as a null metric in
every traced run.  Loading the tracer here makes such a rename fail the
test suite instead.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_resolves_every_target():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()
