#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the trustfusion fusion-center simulator.

Run from the repository root:

    python3 bench/run.py --workload replica --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` next to this directory; nothing needs
installing. The workload seed is an argument of the benchmark and the program
only receives the config built from it. Everything runs in one process on one
thread.

Workloads (why each was chosen):

* ``replica``: the ``hardware-replica`` preset unchanged (N=11, 6 malicious,
  20 000 trials, all six methods, one point, CSV). The paper's headline
  experiment; the per-trial path dominates it (``aglrt`` ~80%), while the
  minimax scan is ~0.5%. A change to ``aglrt``, trial sampling or a batched
  decider shows here; a scan change should not move it.
* ``sweep-n40``: the ``numerical-study`` model at N=40, 11 fractions 0..1,
  500 trials per point, methods ``2sa``, ``oracle``, ``oblivious``,
  ``baseline1``, ``baseline5`` (no ``aglrt``), CSV and SVG. The minimax scan
  is ~85% of it, so a scan or binomial-tail change shows here and an
  ``aglrt`` change should not move it.
* ``live-n48``: a fusion center driving the library API one trial at a time
  (the ``numerical-study`` model at N=48, 29 malicious, ``m_bar`` 0.6).
  Thresholds are computed once, then one closed-loop caller runs 1000 trials
  of ``sample_trial`` -> ``aglrt_decide`` -> ``run_two_stage`` and times each
  call. It measures per-decision latency where the O(N^2) candidate scan of
  ``aglrt`` dominates, and it bypasses ``run_experiment``, so a batched
  experiment path must leave it unchanged.

One rep runs the whole workload from the raw config dict to every output
written. Reps repeat until ``--seconds`` is used up, each from cold caches,
and timings are reported as medians over the reps. The shared host's speed
varies by up to ~1.5x within seconds and between minutes, so every timing is
scaled to a reference host speed: a fixed pure-Python loop that does not
touch the program (``host_probe_ms``) is timed about once a second wherever
the benchmark may pause, and each timed interval is scaled by
``REFERENCE_PROBE_MS`` over the mean probe in and around it. The unscaled
medians are printed in the provenance. After every rep, outside the timed
region, the outputs are checked: structural checks for every seed
(errors == fa + md, n_h0 + n_h1 == trials, the CSV row count), equality with
the first rep, and, for the shipped seeds, the CSV/SVG sha256, every point's
``stream_digest`` and the live hypothesis sequence pinned in
``expected.json``. Seed 1 is the development seed; seed 2 is held out, so a
claim made while looking at seed 1 can be rechecked on it.

``--trace 0`` reports the end-to-end metrics; between reps it also times
extra cold set-ups, so that ``setup_s`` is a median of many samples.
``--trace 1`` alternates untraced reps with traced reps, in which the module
attributes the benchmark calls and the names ``trustfusion.simulator`` and
``trustfusion.two_stage`` look up are wrapped with spans or call counters; it
reports the per-layer metrics, checks that the counts repeat exactly between
traced reps, and writes the spans of the first traced rep to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` and
``failed`` count output checks. The exit code is 0 only when every check
passed.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"
EXPECTED_PATH = BENCH_DIR / "expected.json"

WORKLOADS = ("replica", "sweep-n40", "live-n48")

# Spans that are layer calls made during the decision phase; everything else
# the phase spends is simulator.loop.self_s.
DECISION_LAYERS = ("simulator.sample_trial", "aglrt.aglrt_decide",
                   "two_stage.run_two_stage", "two_stage.optimize_thresholds",
                   "baselines.oracle_decide", "baselines.oblivious_decide",
                   "baselines.reputation_decide")

# Timings are scaled to a host on which host_probe_ms() reads this: its
# typical value on the 2-vCPU Xeon the baseline was recorded on.
REFERENCE_PROBE_MS = 20.0
RATES = ("decisions_per_s",)
# The host's speed changes within seconds, so it is probed about this often
# wherever the benchmark may pause: between reps, between scan calls and
# between live-n48 trials (the probes' time is left out of the timings).
PROBE_EVERY_S = 1.0

# Share of the elapsed time an untraced run spends on extra cold set-ups,
# interleaved with the reps, so that setup_s is a median of many samples.
SETUP_SHARE = 0.15

clock = time.perf_counter


# The program under test is this checkout's src/, never an installed copy.
sys.path.insert(0, str(ROOT / "src"))
try:
    import numpy as np
    import trustfusion
    from trustfusion import aglrt, cli, simulator, two_stage
except ImportError as exc:
    raise SystemExit(f"error: cannot import trustfusion from {ROOT / 'src'}: {exc}")
if Path(trustfusion.__file__).resolve().parent != ROOT / "src" / "trustfusion":
    raise SystemExit(f"error: imported {trustfusion.__file__}, not the one under {ROOT}")

# Module attributes wrapped in a traced rep: the names the benchmark calls and
# the names trustfusion.simulator looks up get spans; the binomial tails that
# trustfusion.two_stage looks up are counted only (~1.3M calls per sweep-n40
# rep, so timing each would inflate the trace).
SPANNED = (
    (cli, ("build_config", "emit_csv", "emit_plot")),
    (simulator, ("run_experiment", "sweep_malicious_fraction", "sample_trial",
                 "aglrt_decide", "oracle_decide", "oblivious_decide",
                 "reputation_decide", "run_two_stage", "optimize_thresholds")),
    (aglrt, ("aglrt_decide",)),
    (two_stage, ("optimize_thresholds", "run_two_stage")),
)
COUNTED = ((two_stage, ("binom_cdf", "binom_pmf")),)
# The memoised scan itself, for cache_info() while its names are wrapped.
SCAN = two_stage.optimize_thresholds


# ---------------------------------------------------------------- workloads


def workload_raw(name: str, seed: int) -> dict:
    """The raw config dict a workload hands to the program."""
    if name == "replica":
        raw = cli.preset_config("hardware-replica")
        raw["seed"] = seed
        return raw
    raw = cli.preset_config("numerical-study")
    if name == "sweep-n40":
        raw.update(n=40, trials=500, seed=seed,
                   methods=["2sa", "oracle", "oblivious", "baseline1", "baseline5"])
        return raw
    if name == "live-n48":
        del raw["sweep"]
        raw.update(n=48, n_malicious=29, m_bar=0.6, trials=1000, seed=seed,
                   methods=["2sa", "aglrt"])
        return raw
    raise AssertionError(name)


def clear_program_caches() -> None:
    """Drop every memo the program keeps, so each rep starts cold."""
    for name, module in list(sys.modules.items()):
        if name == "trustfusion" or name.startswith("trustfusion."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def scan_args(config) -> list:
    """The exact positional arguments of every ``optimize_thresholds`` call
    the run will make, one per point (none without ``2sa``)."""
    if "2sa" not in config.methods:
        return []
    sc = config.scenario
    configs = ([config.two_stage] if config.sweep is None else
               [replace(config.two_stage, m_bar=f) for f in config.sweep])
    return [(sc.trust, sc.sensors, ts, sc.n, sc.prior_h0, sc.prior_h1)
            for ts in configs]


def set_up(raw: dict, speed=None) -> tuple:
    """The offline work before the first decision: the config and every
    point's threshold scan (the run's own scan calls then hit the cache).

    Returns ``(config, thresholds, paused)``: with ``speed``, the host is
    probed between scan calls when due, and ``paused`` is the probes' time.
    """
    config = cli.build_config(raw)
    thresholds, paused = [], 0.0
    for args in scan_args(config):
        if speed is not None and speed.due():
            paused += speed.probe()
        thresholds.append(two_stage.optimize_thresholds(*args))
    return config, thresholds, paused


def batch_rep(raw: dict, out_dir: Path, speed=None) -> dict:
    """One replica / sweep-n40 rep: config, scan, decisions, CSV (+ SVG)."""
    t0 = clock()
    config, _, paused = set_up(raw, speed)
    t1 = clock()
    if config.sweep is None:
        results = [simulator.run_experiment(config)]
    else:
        results = simulator.sweep_malicious_fraction(config)
    t2 = clock()
    outputs = [out_dir / "result.csv"]
    cli.emit_csv(results, outputs[0])
    if config.sweep is not None:
        outputs.append(out_dir / "result.svg")
        cli.emit_plot(results, outputs[1])
    t3 = clock()
    decisions = config.trials * len(config.methods) * len(results)
    return {
        "wall_s": t3 - t0 - paused,
        "setup_s": t1 - t0 - paused,
        "decisions_per_s": decisions / (t2 - t1),
        "phases": {"wall_s": (t0, t3), "setup_s": (t0, t1),
                   "decisions_per_s": (t1, t2)},
        "config": config,
        "results": results,
        "outputs": outputs,
    }


def live_rep(raw: dict, tracer=None, speed=None) -> dict:
    """One live-n48 rep: a closed loop with one caller, each call timed.

    A traced rep opens a ``live.loop`` span around the loop and one
    ``live.trial`` request span per trial. With ``speed``, the host is probed
    between calls when due, and the probes' time is left out.
    """
    t0 = clock()
    config, (thresholds,), set_up_paused = set_up(raw, speed)
    sc = config.scenario
    t1 = clock()
    trial_rng = simulator.substream(config.seed, 0)
    tie_rng = simulator.substream(config.seed, 1)
    trust, sensors, p0, p1, gamma_ts = (sc.trust, sc.sensors, sc.prior_h0,
                                        sc.prior_h1, sc.gamma_ts)
    aglrt_s = []
    two_stage_s = []
    decided = []
    span = tracer.span if tracer is not None else _no_span
    request = tracer.request if tracer is not None else _no_span
    paused = 0.0
    with span("live.loop"):
        for _ in range(config.trials):
            with request("live.trial"):
                trial = simulator.sample_trial(sc, trial_rng)
                a = clock()
                glrt = aglrt.aglrt_decide(trial, trust, sensors, p0, p1)
                b = clock()
                fused = two_stage.run_two_stage(trial, thresholds, trust, sensors,
                                                gamma_ts, tie_rng)
                c = clock()
            aglrt_s.append(b - a)
            two_stage_s.append(c - b)
            decided.append((trial, glrt, fused))
            if speed is not None and speed.due():
                paused += speed.probe()
    t2 = clock()
    return {
        "wall_s": t2 - t0 - set_up_paused - paused,
        "setup_s": t1 - t0 - set_up_paused,
        "decisions_per_s": config.trials * 2 / (t2 - t1 - paused),
        "aglrt_p50_ms": 1e3 * statistics.median(aglrt_s),
        "aglrt_p99_ms": 1e3 * nearest_rank(aglrt_s, 0.99),
        "2sa_p50_us": 1e6 * statistics.median(two_stage_s),
        "phases": {"wall_s": (t0, t2), "setup_s": (t0, t1), "decisions_per_s": (t1, t2),
                   "aglrt_p50_ms": (t1, t2), "aglrt_p99_ms": (t1, t2),
                   "2sa_p50_us": (t1, t2)},
        "config": config,
        "decided": decided,
        "outputs": [],
    }


@contextmanager
def _no_span(name):
    yield


def nearest_rank(values, q: float) -> float:
    """Nearest-rank percentile: at 1000 samples, p99 has 10 values beyond it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ------------------------------------------------------------------- checks


class Checks:
    """Counts output checks attempted and failed; failures go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def exception(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"check failed: exception in {what}", file=sys.stderr)
        traceback.print_exc()


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def rep_digests(workload: str, rep: dict) -> dict:
    """The byte-level fingerprint of one rep's outputs."""
    if workload == "live-n48":
        h = hashlib.sha256()
        for _, glrt, fused in rep["decided"]:
            h.update(bytes((glrt.hypothesis, fused.hypothesis)))
        return {"hypotheses_sha256": h.hexdigest()}
    digests = {path.suffix[1:] + "_sha256": sha256_file(path)
               for path in rep["outputs"]}
    digests["stream_digests"] = [r.stream_digest for r in rep["results"]]
    return digests


def check_rep(workload: str, rep: dict, checks: Checks, first: dict | None,
              pinned: dict | None) -> dict:
    """Structural checks for any seed, plus equality with the first rep's
    digests and with the pinned digests of a shipped seed."""
    config = rep["config"]
    if workload == "live-n48":
        decided = rep["decided"]
        checks.expect(len(decided) == config.trials, "one decision pair per trial")
        checks.expect(all(g.hypothesis in (0, 1) and f.hypothesis in (0, 1)
                          for _, g, f in decided), "hypotheses are 0 or 1")
        checks.expect(all(len(g.t_hat) == len(f.t_hat) == config.scenario.n
                          and 0.0 <= g.adversary_estimate <= 1.0
                          for _, g, f in decided), "labelings and aglrt estimate")
    else:
        for result in rep["results"]:
            for name, st in result.stats.items():
                checks.expect(st.errors == st.fa_count + st.md_count,
                              f"{name}: errors == fa + md")
                checks.expect(st.n_h0 + st.n_h1 == st.trials == config.trials,
                              f"{name}: n_h0 + n_h1 == trials")
        rows = rep["outputs"][0].read_text().splitlines()[1:]
        checks.expect(len(rows) == len(rep["results"]) * len(config.methods),
                      "CSV row count")
    digests = rep_digests(workload, rep)
    if first is not None:
        checks.expect(digests == first, "outputs equal to the first rep's")
    if pinned is not None:
        for key, value in pinned.items():
            checks.expect(digests.get(key) == value, f"pinned {key}")
    return digests


# ------------------------------------------------------------------ tracing


class Tracer:
    """In-memory spans ``(name, start, end, parent, request)`` plus counters.

    ``parent`` and ``request`` are indices into ``spans`` (-1 for none); all
    spans of one rep, or of one live trial, share the request index.
    """

    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.counts = {}
        self.request_id = -1

    def spanned(self, name: str, fn):
        """``fn`` wrapped in a span; inlines ``span`` to keep the per-call
        cost low (replica makes ~140k such calls per rep)."""
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request_id)

        return traced

    def counted(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        def count(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return count

    @contextmanager
    def request(self, name: str):
        """A span that starts a request: its descendants share its index."""
        outer = self.request_id
        self.request_id = len(self.spans)
        try:
            with self.span(name):
                yield
        finally:
            self.request_id = outer

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1]
        self.stack.append(index)
        start = clock()
        try:
            yield
        finally:
            end = clock()
            self.stack.pop()
            self.spans[index] = (name, start, end, parent, self.request_id)

    def write(self, path: Path) -> None:
        with path.open("w") as f:
            f.write("span,parent,request,name,start_us,end_us\n")
            origin = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent, req) in enumerate(self.spans):
                f.write(f"{i},{parent},{req},{name},"
                        f"{1e6 * (start - origin):.3f},{1e6 * (end - origin):.3f}\n")


@contextmanager
def traced_program(tracer: Tracer):
    """Wrap the module attributes listed in SPANNED and COUNTED; each span is
    named after the layer (module) that defines the function."""
    patches = []
    for table, wrap in ((SPANNED, tracer.spanned), (COUNTED, tracer.counted)):
        for module, names in table:
            for name in names:
                fn = getattr(module, name)
                layer = fn.__module__.rsplit(".", 1)[-1]
                patches.append((module, name, fn, wrap(f"{layer}.{name}", fn)))
    for module, name, _, wrapped in patches:
        setattr(module, name, wrapped)
    try:
        yield
    finally:
        for module, name, original, _ in patches:
            setattr(module, name, original)


def layer_metrics(tracer: Tracer, rep: dict, phase: str, checks: Checks) -> dict:
    """Per-layer metrics of one traced rep, from its spans and counters."""
    config = rep["config"]
    by_name = {}
    for name, start, end, _, _ in tracer.spans:
        by_name.setdefault(name, []).append(end - start)

    def calls(name):
        return len(by_name.get(name, ()))

    def busy(name):
        return sum(by_name.get(name, ()))

    def per_call_us(name):
        return 1e6 * busy(name) / calls(name) if calls(name) else 0.0

    # The decision phase and the layer calls inside it, in start order.
    (phase_start, phase_end), = [(s, e) for n, s, e, _, _ in tracer.spans if n == phase]
    inside = sorted((s, e) for n, s, e, _, _ in tracer.spans
                    if n in DECISION_LAYERS and phase_start <= s < phase_end)
    disjoint = all(e0 <= s1 for (_, e0), (s1, _) in zip(inside, inside[1:]))
    contained = all(e <= phase_end for _, e in inside)
    inside_busy = sum(e - s for s, e in inside)
    self_s = (phase_end - phase_start) - inside_busy
    checks.expect(disjoint and contained and self_s >= 0.0,
                  "layer spans are disjoint and inside the decision phase")

    aglrt_us = sorted(1e6 * d for d in by_name.get("aglrt.aglrt_decide", ()))
    n_aglrt = len(aglrt_us)
    sc = config.scenario
    candidates = len(aglrt.candidate_set(sc.n)) if n_aglrt else 0
    info = SCAN.cache_info()
    lookups = info.hits + info.misses
    grid_points = (len(trustfusion.ratio_set(sc.trust))
                   * len(two_stage.tie_break_grid(config.two_stage.delta_p))
                   if "2sa" in config.methods else 0)
    scan = "two_stage.optimize_thresholds"
    metrics = {
        "simulator.sample_trial.calls": calls("simulator.sample_trial"),
        "simulator.sample_trial.busy_s": busy("simulator.sample_trial"),
        "simulator.sample_trial.us_per_call": per_call_us("simulator.sample_trial"),
        "simulator.loop.self_s": self_s,
        "aglrt.aglrt_decide.calls": n_aglrt,
        "aglrt.aglrt_decide.busy_s": busy("aglrt.aglrt_decide"),
        "aglrt.aglrt_decide.p50_us": statistics.median(aglrt_us) if n_aglrt else 0.0,
        "aglrt.aglrt_decide.p99_us": nearest_rank(aglrt_us, 0.99) if n_aglrt else 0.0,
        "aglrt.candidates": candidates,
        "aglrt.comparisons": 2 * candidates * sc.n if n_aglrt else 0,
        f"{scan}.calls": calls(scan),
        f"{scan}.busy_s": busy(scan),
        f"{scan}.cache_hit_ratio": info.hits / lookups if lookups else 0.0,
        "two_stage.scan.grid_points": grid_points,
        "two_stage.scan.us_per_grid_point": (1e6 * busy(scan) / (info.misses * grid_points)
                                             if info.misses and grid_points else 0.0),
        "stats.binom_cdf.calls": tracer.counts["stats.binom_cdf"],
        "stats.binom_pmf.calls": tracer.counts["stats.binom_pmf"],
        "two_stage.run_two_stage.calls": calls("two_stage.run_two_stage"),
        "two_stage.run_two_stage.busy_s": busy("two_stage.run_two_stage"),
        "two_stage.run_two_stage.us_per_call": per_call_us("two_stage.run_two_stage"),
    }
    for decider in ("oracle_decide", "oblivious_decide", "reputation_decide"):
        metrics[f"baselines.{decider}.calls"] = calls(f"baselines.{decider}")
        metrics[f"baselines.{decider}.busy_s"] = busy(f"baselines.{decider}")
    for fn in ("build_config", "emit_csv", "emit_plot"):
        metrics[f"cli.{fn}.busy_s"] = busy(f"cli.{fn}")
    metrics["cli.bytes_written"] = sum(p.stat().st_size for p in rep["outputs"])
    return metrics


def is_count(name: str) -> bool:
    return (name.endswith(".calls") or name in (
        "aglrt.candidates", "aglrt.comparisons", "two_stage.scan.grid_points",
        "cli.bytes_written"))


# --------------------------------------------------------------- provenance


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit() -> str:
    """HEAD of this checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, config, untraced: int, traced: int) -> dict:
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "reps_untraced": untraced,
        "reps_traced": traced,
        "n": config.scenario.n,
        "points": len(config.sweep) if config.sweep else 1,
        "trials_per_point": config.trials,
        "methods": list(config.methods),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "commit": commit(),
    }
    if args.workload == "live-n48":
        # Each percentile is taken over one rep's trials, then the median
        # over reps is reported.
        record["samples_per_percentile"] = config.trials
    return record


# --------------------------------------------------------------------- main


UNITS = {"wall_s": "s", "setup_s": "s", "decisions_per_s": "1/s",
         "peak_rss_mb": "MB", "aglrt_p50_ms": "ms", "aglrt_p99_ms": "ms",
         "2sa_p50_us": "us"}
# Reported in the JSON line; the live-n48 latency percentiles are printed by
# name but left out of it, because every workload must report the same set.
END_TO_END = ("wall_s", "setup_s", "decisions_per_s", "peak_rss_mb")
REP_TIMINGS = ("wall_s", "setup_s", "decisions_per_s",
               "aglrt_p50_ms", "aglrt_p99_ms", "2sa_p50_us")


def layer_unit(name: str) -> str:
    if is_count(name):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us") or ".us_per_" in name:
        return "us"
    return "ratio"


def host_probe_ms() -> float:
    """Median time of three passes of a fixed pure-Python loop that does not
    touch the program: the speed the host gives this process right now."""
    times = []
    for _ in range(3):
        t0 = clock()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append(clock() - t0)
    return 1e3 * statistics.median(times)


class HostSpeed:
    """``(time, host_probe_ms())`` pairs taken through a run, in time order."""

    def __init__(self):
        self.probes = []

    def probe(self) -> float:
        """Takes one probe; returns the seconds it took."""
        t0 = clock()
        self.probes.append((t0, host_probe_ms()))
        return clock() - t0

    def due(self) -> bool:
        return clock() - self.probes[-1][0] >= PROBE_EVERY_S

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_PROBE_MS over the mean probe of ``[start, end]``, taking
        in the last probe before it and the first after it."""
        times = [t for t, _ in self.probes]
        lo = max(bisect.bisect_right(times, start) - 1, 0)
        hi = bisect.bisect_left(times, end) + 1
        return REFERENCE_PROBE_MS / statistics.mean(ms for _, ms in self.probes[lo:hi])

    def scale(self, sample: dict, phases: dict) -> dict:
        """The timings of ``sample`` at the reference speed, each scaled by
        the factor of the interval it was taken in, ``phases[name]``: times
        times the factor, rates over it."""
        scaled = {}
        for name, value in sample.items():
            factor = self.factor(*phases[name])
            scaled[name] = value / factor if name in RATES else value * factor
        return scaled


def run_rep(workload: str, raw: dict, out_dir: Path, traced: bool, speed: HostSpeed):
    """One rep from cold caches; returns ``(rep, tracer or None)``."""
    clear_program_caches()
    gc.collect()
    if not traced:
        if workload == "live-n48":
            return live_rep(raw, speed=speed), None
        return batch_rep(raw, out_dir, speed), None
    tracer = Tracer()
    with traced_program(tracer), tracer.request(f"rep.{workload}"):
        if workload == "live-n48":
            return live_rep(raw, tracer), tracer
        return batch_rep(raw, out_dir), tracer


def cold_set_up_s(raw: dict, speed: HostSpeed) -> float:
    """The time of one set-up alone, from cold caches."""
    clear_program_caches()
    gc.collect()
    t0 = clock()
    paused = set_up(raw, speed)[2]
    return clock() - t0 - paused


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    expected = json.loads(EXPECTED_PATH.read_text())["digests"]
    pinned = expected.get(args.workload, {}).get(str(args.seed))
    raw_json = json.dumps(workload_raw(args.workload, args.seed))
    out_dir = OUT_DIR / f"{args.workload}-{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    phase = {"replica": "simulator.run_experiment",
             "sweep-n40": "simulator.sweep_malicious_fraction",
             "live-n48": "live.loop"}[args.workload]

    # A traced run alternates untraced and traced reps (U T U T ...), so that
    # trace.overhead_frac compares each traced rep with the untraced rep just
    # before it, taken under the same host load.
    plan = [False, True, False, True] if args.trace else [False, False]
    checks = Checks()
    timings, setups = [], []  # (start, end, raw timings) of reps and set-ups
    layers, first, spans, config = [], None, None, None
    extra_s = 0.0
    speed = HostSpeed()
    started = clock()
    speed.probe()
    while True:
        k = len(timings)
        if k >= len(plan):
            spent = clock() - started
            if spent + spent / k > args.seconds:
                break
            plan.append(bool(args.trace) and k % 2 == 1)
        traced = plan[k]
        try:
            rep, tracer = run_rep(args.workload, json.loads(raw_json), out_dir,
                                  traced, speed)
            speed.probe()
            if not args.trace:
                # Extra cold set-ups between reps, up to SETUP_SHARE of the
                # time so far, so setup_s is a median of many samples.
                setups.append((*rep["phases"]["setup_s"], rep["setup_s"]))
                while (extra_s + statistics.median(v for _, _, v in setups)
                       <= SETUP_SHARE * (clock() - started)):
                    t0 = clock()
                    value = cold_set_up_s(json.loads(raw_json), speed)
                    setups.append((t0, clock(), value))
                    extra_s += value
                speed.probe()
        except Exception:
            checks.exception(f"rep {k + 1}")
            break
        config = rep["config"]
        raw = {key: rep[key] for key in REP_TIMINGS if key in rep}
        timings.append((raw, rep["phases"], traced))
        try:
            digests = check_rep(args.workload, rep, checks, first, pinned)
            first = first or digests
            if tracer is not None:
                layers.append(layer_metrics(tracer, rep, phase, checks))
                spans = spans or tracer
        except Exception:
            checks.exception(f"checks of rep {k + 1}")
        del rep, tracer

    metrics, units = {}, UNITS
    scaled = [{**speed.scale(raw, phases), "traced": traced}
              for raw, phases, traced in timings]
    untraced = [r for r in scaled if not r["traced"]]
    traced_reps = [r for r in scaled if r["traced"]]
    if checks.failed == 0:
        if args.trace:
            for name in layers[0]:
                values = [m[name] for m in layers]
                if is_count(name):
                    checks.expect(len(set(values)) == 1,
                                  f"{name} repeats exactly between traced reps")
                    metrics[name] = values[0]
                else:
                    metrics[name] = statistics.median(values)
            metrics["trace.overhead_frac"] = statistics.median(
                t["wall_s"] / u["wall_s"] - 1.0
                for u, t in zip(scaled, scaled[1:]) if t["traced"])
            units = {name: layer_unit(name) for name in metrics}
        else:
            for name in REP_TIMINGS:
                if name in untraced[0]:
                    metrics[name] = statistics.median(r[name] for r in untraced)
            metrics["setup_s"] = statistics.median(
                v * speed.factor(start, end) for start, end, v in setups)
            raw_medians = {name: statistics.median(raw[name] for raw, _, traced
                                                   in timings if not traced)
                           for name in REP_TIMINGS if name in metrics}
            raw_medians["setup_s"] = statistics.median(v for _, _, v in setups)
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"reps {len(untraced)} untraced + {len(traced_reps)} traced")
    for name, value in metrics.items():
        print(f"  {name:<42} {value:>16.7g} {units[name]}")
    print(f"  {'failed_frac':<42} {checks.failed / max(checks.attempted, 1):>16.7g} "
          f"ratio ({checks.failed} of {checks.attempted} output checks)")
    print(f"digests {json.dumps(first, sort_keys=True)}")
    if config is not None:
        record = provenance(args, config, len(untraced), len(traced_reps))
        record["setup_samples"] = len(setups)
        record["host_probe_ms"] = statistics.median(ms for _, ms in speed.probes)
        record["host_probes"] = len(speed.probes)
        if not args.trace and checks.failed == 0:
            record["raw_medians"] = raw_medians
        print(f"provenance {json.dumps(record, sort_keys=True)}")
    if spans is not None:
        spans.write(OUT_DIR / f"{args.workload}-{args.seed}.spans.csv")
    reported = metrics if args.trace or checks.failed else {
        name: metrics[name] for name in END_TO_END}
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in reported.items()},
    }))
    return 1 if checks.failed else 0


if __name__ == "__main__":
    sys.exit(main())
