"""The benchmark tracer still finds the library attributes it wraps.

``bench/spans.py`` times each layer by replacing about 20 module and class
attributes.  A refactor that moves one leaves that layer's metric NaN, and
the benchmark reports it only when someone reads the numbers; this test
fails at once instead.
"""
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# targets known to be gone; the tracer skips them and the layer keeps
# its other targets
KNOWN_MISSING = {"adiabat.runner.sandwich_superop"}


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_exists():
    spans = load_spans()
    modules = spans.library_modules()
    originals = vars(modules.runner).copy()
    with spans.Tracer(modules) as tracer:
        assert set(tracer.missing) <= KNOWN_MISSING
        assert set(spans.TIMED_LAYERS) <= tracer.installed
    # leaving the tracer puts every attribute back
    assert vars(modules.runner) == originals
