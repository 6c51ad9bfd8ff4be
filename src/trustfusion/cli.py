"""Command-line front end: runs, sweeps, presets, CSV tables, SVG plots.

The config file is flat JSON with a fixed key set (strict: unknown keys are
rejected). All outputs are pure functions of (config, seed, version); the run
manifest records the effective values and a digest of the config that is
stable under key reordering.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .models import (
    _MAX_ROBOTS,
    LegitimateSensorModel,
    MaliciousStrategy,
    Scenario,
    TrustModel,
    ValidationError,
)
from .selfcheck import run_selftest
from .simulator import (
    ExperimentConfig,
    place_malicious,
    run_experiment,
    sweep_malicious_fraction,
)
from .two_stage import TwoStageConfig, optimize_thresholds

__all__ = [
    "ConfigError",
    "RunManifest",
    "parse_config",
    "emit_csv",
    "emit_plot",
    "preset_config",
    "main",
]


class ConfigError(ValueError):
    """Config file is missing, malformed, or violates the schema."""


# key -> (required, kind); a one-element list kind is a list of that kind
_SCHEMA = {
    "n": (True, "int"),
    "prior_h0": (True, "float"),
    "prior_h1": (True, "float"),
    "p_fa_l": (True, "float"),
    "p_md_l": (True, "float"),
    "attack_p_fa_raw": (True, "float"),
    "attack_p_md_raw": (True, "float"),
    "attack_p_f": (True, "float"),
    "trust_alphabet": (True, ["symbol"]),
    "trust_pmf_legit": (True, ["float"]),
    "trust_pmf_malicious": (True, ["float"]),
    "n_malicious": (True, "int"),
    "m_bar": (True, "float"),
    "delta_p": (True, "float"),
    "trials": (True, "int"),
    "seed": (True, "int"),
    "methods": (True, ["str"]),
    "sweep": (False, ["float"]),
}

# Largest trials * n accepted: each point's stream is held as (trials, n)
# one-byte arrays of reports and scores (200 MB at this cap), and deciding it
# peaks near 9 bytes per cell (2sa's tie draws are float64), about 1 GB.
_MAX_CELLS = 10**8

# Most trust symbols accepted: each of the 2sa scan's |ratio_set| * (1/delta_p + 1)
# grid points sums over the alphabet, so the scan grows as |A|^2 / delta_p
# (64 symbols of distinct ratios at delta_p = 1e-4 take about 6 s on 2 vCPUs).
_MAX_SYMBOLS = 64

_KINDS = {
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
    "str": (str, "a string"),
    "symbol": ((int, float, str), "a number or a string"),
}

_PLOT_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#e377c2", "#7f7f7f",
)


def _check_type(key: str, value, kind):
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"key {key!r} must be a list, got {value!r}")
        for i, item in enumerate(value):
            _check_type(f"{key}[{i}]", item, kind[0])
        return value
    types, name = _KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"key {key!r} must be {name}, got {value!r}")
    return float(value) if kind == "float" else value


def _validate_raw(raw: dict) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = sorted(set(raw) - set(_SCHEMA))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    missing = sorted(k for k, (req, _) in _SCHEMA.items() if req and k not in raw)
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")
    return {k: _check_type(k, v, _SCHEMA[k][1]) for k, v in raw.items()}


def build_config(raw: dict) -> ExperimentConfig:
    """Build a validated experiment from a raw (already type-checked) dict."""
    if raw["seed"] < 0:
        raise ConfigError(f"key 'seed' must be nonnegative, got {raw['seed']!r}")
    # checked before the per-robot truth vector is built
    if raw["n"] > _MAX_ROBOTS:
        raise ConfigError(f"key 'n' must be at most {_MAX_ROBOTS}, got {raw['n']!r}")
    if raw["trials"] * raw["n"] > _MAX_CELLS:
        raise ConfigError(
            f"key 'trials' times 'n' must be at most {_MAX_CELLS}, got "
            f"{raw['trials']!r} * {raw['n']!r}"
        )
    if len(raw["trust_alphabet"]) > _MAX_SYMBOLS:
        raise ConfigError(f"key 'trust_alphabet' must have at most {_MAX_SYMBOLS} symbols, "
                          f"got {len(raw['trust_alphabet'])}")
    sweep = raw.get("sweep")
    # the CSV keys each sweep point by its _fmt label, so no two may print alike
    labels = [_fmt(f) for f in sweep or ()]
    if len(set(labels)) < len(labels):
        raise ConfigError(f"key 'sweep' has duplicate fractions at the CSV's 6 significant "
                          f"digits: {sweep!r}")
    try:
        trust = TrustModel(
            alphabet=tuple(raw["trust_alphabet"]),
            pmf_legit=tuple(float(q) for q in raw["trust_pmf_legit"]),
            pmf_malicious=tuple(float(q) for q in raw["trust_pmf_malicious"]),
        )
        sensors = LegitimateSensorModel(p_fa_l=raw["p_fa_l"], p_md_l=raw["p_md_l"])
        attack = MaliciousStrategy(
            p_fa_m_raw=raw["attack_p_fa_raw"],
            p_md_m_raw=raw["attack_p_md_raw"],
            p_f=raw["attack_p_f"],
        )
        base = Scenario(
            n=raw["n"],
            truth=(1,) * raw["n"],
            prior_h0=raw["prior_h0"],
            prior_h1=raw["prior_h1"],
            sensors=sensors,
            attack=attack,
            trust=trust,
        )
        scenario = place_malicious(base, raw["n_malicious"], raw["seed"])
        two_stage = TwoStageConfig(m_bar=raw["m_bar"], delta_p=raw["delta_p"],
                                   gamma_ts=base.gamma_ts)
        return ExperimentConfig(
            scenario=scenario,
            two_stage=two_stage,
            trials=raw["trials"],
            seed=raw["seed"],
            methods=tuple(raw["methods"]),
            sweep=tuple(float(f) for f in sweep) if sweep is not None else None,
        )
    except ValidationError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def parse_config(path, seed=None, trials=None) -> ExperimentConfig:
    """Load, validate and build a config file; flags override file values."""
    return build_config(load_raw_config(path, seed=seed, trials=trials))


def load_raw_config(path, seed=None, trials=None) -> dict:
    """Validated raw dict with overrides applied (the manifest input)."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return _override(_validate_raw(raw), seed, trials)


def _override(raw: dict, seed, trials) -> dict:
    """``raw`` with the ``--seed`` and ``--trials`` flags that were given."""
    if seed is not None:
        raw["seed"] = seed
    if trials is not None:
        raw["trials"] = trials
    return raw


def preset_config(name: str) -> dict:
    """Built-in reproduction presets (raw config dicts)."""
    if name == "numerical-study":
        return {
            "n": 10,
            "prior_h0": 0.5,
            "prior_h1": 0.5,
            "p_fa_l": 0.15,
            "p_md_l": 0.15,
            "attack_p_fa_raw": 0.0,
            "attack_p_md_raw": 0.0,
            "attack_p_f": 0.99,
            "trust_alphabet": [0, 1],
            "trust_pmf_legit": [0.2, 0.8],
            "trust_pmf_malicious": [0.8, 0.2],
            "n_malicious": 0,
            "m_bar": 0.0,
            "delta_p": 0.01,
            "trials": 1000,
            "seed": 42,
            "methods": ["2sa", "aglrt", "oracle", "oblivious", "baseline1", "baseline5"],
            "sweep": [i / 10 for i in range(11)],
        }
    if name == "hardware-replica":
        return {
            "n": 11,
            "prior_h0": 0.6432,
            "prior_h1": 0.3568,
            "p_fa_l": 0.08,
            "p_md_l": 0.21,
            "attack_p_fa_raw": 0.0,
            "attack_p_md_raw": 0.0,
            "attack_p_f": 0.99,
            "trust_alphabet": [0, 1],
            "trust_pmf_legit": [0.165, 0.835],
            "trust_pmf_malicious": [0.8309, 0.1691],
            "n_malicious": 6,
            "m_bar": 6 / 11,
            "delta_p": 0.01,
            "trials": 20000,
            "seed": 42,
            "methods": ["2sa", "aglrt", "oracle", "oblivious", "baseline1", "baseline5"],
        }
    raise ConfigError(f"unknown preset {name!r}")


def config_digest(raw: dict) -> str:
    """SHA-256 of the canonical JSON form (stable under key reordering)."""
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass
class RunManifest:
    """Provenance record written next to the outputs.

    ``points`` holds one record per sweep point (one for a run): its
    malicious fraction, its trial-stream digest and, when ``2sa`` ran, the
    thresholds the scan chose with the worst-case error they certify.
    """

    config_digest: str
    seed: int
    version: str
    started: str
    finished: str
    outputs: list
    effective_config: dict
    points: list = field(default_factory=list)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.__dict__, indent=2, sort_keys=True) + "\n")


def _fmt(x: float) -> str:
    return format(x, ".6g")


def emit_csv(results, path) -> None:
    """Write one row per (method, sweep point), deterministically ordered."""
    rows = []
    for result in results:
        for name, stats in result.stats.items():
            rows.append((
                name,
                result.malicious_fraction,
                stats.trials,
                stats.error_rate,
                stats.fa_rate,
                stats.md_rate,
                result.seed,
            ))
    rows.sort(key=lambda r: (r[0], r[1]))
    lines = ["method,malicious_fraction,trials,error_rate,fa_rate,md_rate,seed"]
    for name, fraction, trials, err, fa, md, seed in rows:
        lines.append(
            f"{name},{_fmt(fraction)},{trials},{_fmt(err)},{_fmt(fa)},{_fmt(md)},{seed}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def _svg_line(points, color: str) -> str:
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{coords}"/>'
    )


def emit_plot(results, path) -> None:
    """Self-contained SVG: percent error vs malicious fraction per method."""
    if not results:
        raise ValidationError("nothing to plot: no results")
    methods = sorted({name for r in results for name in r.stats})
    if not methods:
        raise ValidationError("nothing to plot: no methods")
    width, height = 720.0, 480.0
    left, right, top, bottom = 70.0, 560.0, 40.0, 420.0

    def sx(fraction: float) -> float:
        return left + (right - left) * fraction

    def sy(percent: float) -> float:
        return bottom - (bottom - top) * percent / 100.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        '<text x="315" y="22" font-family="sans-serif" font-size="15" '
        'text-anchor="middle">Decision error vs malicious fraction</text>',
    ]
    for i in range(6):
        frac = i / 5
        x = sx(frac)
        parts.append(
            f'<line x1="{x:.2f}" y1="{bottom:.2f}" x2="{x:.2f}" '
            f'y2="{bottom + 5:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{bottom + 20:.2f}" font-family="sans-serif" '
            f'font-size="12" text-anchor="middle">{frac:.1f}</text>'
        )
    for i in range(6):
        pct = 20 * i
        y = sy(pct)
        parts.append(
            f'<line x1="{left - 5:.2f}" y1="{y:.2f}" x2="{left:.2f}" '
            f'y2="{y:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<line x1="{left:.2f}" y1="{y:.2f}" x2="{right:.2f}" y2="{y:.2f}" '
            f'stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{left - 10:.2f}" y="{y + 4:.2f}" font-family="sans-serif" '
            f'font-size="12" text-anchor="end">{pct}</text>'
        )
    parts.append(
        f'<line x1="{left:.2f}" y1="{top:.2f}" x2="{left:.2f}" y2="{bottom:.2f}" '
        'stroke="black"/>'
    )
    parts.append(
        f'<line x1="{left:.2f}" y1="{bottom:.2f}" x2="{right:.2f}" '
        f'y2="{bottom:.2f}" stroke="black"/>'
    )
    parts.append(
        f'<text x="{(left + right) / 2:.2f}" y="{height - 12:.2f}" '
        'font-family="sans-serif" font-size="13" text-anchor="middle">'
        "Malicious fraction</text>"
    )
    parts.append(
        f'<text x="18" y="{(top + bottom) / 2:.2f}" font-family="sans-serif" '
        f'font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 18 {(top + bottom) / 2:.2f})">Percent error</text>'
    )
    for idx, name in enumerate(methods):
        color = _PLOT_PALETTE[idx % len(_PLOT_PALETTE)]
        points = sorted(
            (r.malicious_fraction, 100.0 * r.stats[name].error_rate)
            for r in results if name in r.stats
        )
        xy = [(sx(f), sy(p)) for f, p in points]
        if len(xy) > 1:
            parts.append(_svg_line(xy, color))
        for x, y in xy:
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color}"/>')
        ly = top + 18 * idx
        parts.append(
            f'<line x1="{right + 15:.2f}" y1="{ly:.2f}" x2="{right + 45:.2f}" '
            f'y2="{ly:.2f}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{right + 52:.2f}" y="{ly + 4:.2f}" font-family="sans-serif" '
            f'font-size="12">{name}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _point_record(config, result, swept: bool) -> dict:
    """The manifest record of one point; ``2sa``'s thresholds are read from
    the memoised scan the point's run filled, so no scan runs again."""
    record = {"malicious_fraction": result.malicious_fraction,
              "stream_digest": result.stream_digest}
    if "2sa" in result.stats:
        sc = config.scenario
        # a sweep point's scan bounds the malicious share by its own fraction
        two_stage = (replace(config.two_stage, m_bar=result.malicious_fraction)
                     if swept else config.two_stage)
        choice = optimize_thresholds(sc.trust, sc.sensors, two_stage, sc.n,
                                     sc.prior_h0, sc.prior_h1)
        record["2sa"] = {"gamma_t": choice.gamma_t, "p_t": choice.p_t,
                         "worst_case_pe": choice.worst_case_pe}
    return record


def _execute(raw: dict, out_dir: Path, stem: str, want_sweep: bool) -> int:
    config = build_config(raw)
    started = _now()
    out_dir.mkdir(parents=True, exist_ok=True)
    if want_sweep:
        results = sweep_malicious_fraction(config)
    else:
        results = [run_experiment(config)]
    csv_path = out_dir / f"{stem}.csv"
    emit_csv(results, csv_path)
    outputs = [str(csv_path)]
    if want_sweep:
        svg_path = out_dir / f"{stem}.svg"
        emit_plot(results, svg_path)
        outputs.append(str(svg_path))
    manifest = RunManifest(
        config_digest=config_digest(raw),
        seed=config.seed,
        version=__version__,
        started=started,
        finished=_now(),
        outputs=outputs,
        effective_config=raw,
        points=[_point_record(config, result, want_sweep) for result in results],
    )
    manifest_path = out_dir / f"{stem}.manifest.json"
    manifest.write(manifest_path)
    for result in results:
        for name, stats in sorted(result.stats.items()):
            print(
                f"fraction {result.malicious_fraction:.2f}  {name:<14} "
                f"error {100 * stats.error_rate:6.2f}%  "
                f"({stats.errors}/{stats.trials} over {stats.trials} trials)"
            )
    print(f"wrote {', '.join(outputs + [str(manifest_path)])}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trustfusion",
        description="Resilient hypothesis testing experiments: runs, sweeps, presets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, needs_config: bool) -> None:
        if needs_config:
            p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--trials", type=int, default=None,
                       help="override the per-point trial count")

    add_io(sub.add_parser("run", help="single experiment from a config file"), True)
    add_io(sub.add_parser("sweep", help="malicious-fraction sweep from a config file"),
           True)
    repro = sub.add_parser("reproduce", help="run a built-in preset")
    repro.add_argument("preset", choices=["numerical-study", "hardware-replica"])
    add_io(repro, False)
    sub.add_parser("selftest", help="run the built-in verification suites")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command == "selftest":
            ok, lines = run_selftest()
            print("\n".join(lines))
            print("selftest:", "PASS" if ok else "FAIL")
            return 0 if ok else 1
        out = Path(args.out)
        existing = next((p for p in (out, *out.parents) if p.exists()), None)
        if existing is not None and not existing.is_dir():
            raise ConfigError(f"--out {out}: {existing} exists and is not a directory")
        if args.command == "reproduce":
            raw = _override(_validate_raw(preset_config(args.preset)), args.seed,
                            args.trials)
            return _execute(raw, out, args.preset, "sweep" in raw)
        raw = load_raw_config(args.config, seed=args.seed, trials=args.trials)
        if args.command == "sweep" and "sweep" not in raw:
            raise ConfigError("sweep requested but the config has no 'sweep' key")
        stem = Path(args.config).stem
        return _execute(raw, out, stem, args.command == "sweep")
    except (ConfigError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
