"""The program names ``bench/run.py --trace 1`` wraps or reads still resolve.

Untraced benchmark runs never touch these names, so a cleanup of ``src/``
could otherwise break the traced run without any failing check.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH_RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_RUN)
    module = importlib.util.module_from_spec(spec)
    # loading writes no __pycache__ into bench/
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def _hooked(bench):
    return [(module, name) for table in (bench.SPANNED, bench.COUNTED)
            for module, names in table for name in names]


def test_spanned_and_counted_names_are_callable(bench):
    for module, name in _hooked(bench):
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_traced_program_wraps_and_restores(bench):
    originals = [(module, name, getattr(module, name)) for module, name in _hooked(bench)]
    with bench.traced_program(bench.Tracer()):
        for module, name, original in originals:
            assert getattr(module, name) is not original, f"{module.__name__}.{name}"
    for module, name, original in originals:
        assert getattr(module, name) is original, f"{module.__name__}.{name}"


def test_layer_metric_names_resolve(bench):
    bench.SCAN.cache_info()
    assert callable(bench.aglrt.candidate_set)
    assert callable(bench.two_stage.tie_break_grid)
    assert callable(bench.trustfusion.ratio_set)
