"""The program names ``bench/run.py --trace 1`` wraps or reads still resolve.

Untraced benchmark runs never touch these names, so a cleanup of ``src/``
could otherwise break the traced run without any failing check.
"""

import importlib.util
import sys
from dataclasses import replace
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


def test_cleared_caches_make_set_up_redo_every_scan(bench, monkeypatch):
    # a memo that clear_program_caches cannot clear would make every later
    # cold set-up free, and the run's SETUP_SHARE loop would never end
    calls = []
    conditional_errors = bench.two_stage.conditional_errors
    monkeypatch.setattr(bench.two_stage, "conditional_errors",
                        lambda *args: calls.append(args) or conditional_errors(*args))
    raw = bench.workload_raw("sweep-n40", 1)
    bench.clear_program_caches()
    config = bench.set_up(raw)[0]
    scans = len(calls)
    assert scans == len(bench.scan_args(config)) > 0
    bench.clear_program_caches()
    bench.set_up(raw)
    assert len(calls) == 2 * scans


def test_cleared_caches_make_aglrt_rebuild_its_plan(bench):
    # the per-model decision plan is memoised; a cold rep must rebuild it,
    # and its set-up builds new value objects, whose memoised sampler
    # arrays are rebuilt with them
    raw = bench.workload_raw("live-n48", 1)
    plan = bench.aglrt._code_constants
    configs = []
    for _ in range(2):
        bench.clear_program_caches()
        assert plan.cache_info().currsize == 0
        config = bench.set_up(raw)[0]
        sc = config.scenario
        trial = bench.simulator.sample_trial(sc, bench.simulator.substream(1, 0))
        for _ in range(3):
            bench.aglrt.aglrt_decide(trial, sc.trust, sc.sensors, sc.prior_h0, sc.prior_h1)
        info = plan.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        configs.append(config)
    first, second = (config.scenario for config in configs)
    assert first == second and first is not second
    assert first.legit_mask is not second.legit_mask
    assert first.trust.cumulative_pmfs[0] is not second.trust.cumulative_pmfs[0]


def test_scan_pmf_calls_do_not_grow_with_the_tie_grid(bench, monkeypatch):
    calls = []
    binom_pmf = bench.two_stage.binom_pmf
    monkeypatch.setattr(bench.two_stage, "binom_pmf",
                        lambda *args: calls.append(args) or binom_pmf(*args))
    config = bench.cli.build_config(bench.workload_raw("live-n48", 1))
    sc = config.scenario
    counts = []
    for delta_p in (0.5, 0.01):
        bench.clear_program_caches()
        del calls[:]
        two_stage_config = replace(config.two_stage, delta_p=delta_p)
        bench.two_stage.optimize_thresholds(sc.trust, sc.sensors, two_stage_config, sc.n,
                                            sc.prior_h0, sc.prior_h1)
        counts.append(len(calls))
    # the conditional-error tables come from a recurrence, not per-cell pmfs
    assert counts == [0, 0]
