"""Config parsing, CSV/SVG emission, presets, subcommands, determinism."""

import csv
import json

import pytest

from test_acceptance import PINNED_SHA256
from trustfusion.cli import (
    ConfigError,
    build_config,
    config_digest,
    emit_csv,
    emit_plot,
    main,
    parse_config,
    preset_config,
)
from trustfusion.models import _MAX_ROBOTS, ValidationError
from trustfusion.simulator import run_experiment, sweep_malicious_fraction
from trustfusion.two_stage import optimize_thresholds


def write_config(tmp_path, overrides=None, drop=None):
    raw = preset_config("hardware-replica")
    raw["trials"] = 20
    if overrides:
        raw.update(overrides)
    for key in drop or ():
        raw.pop(key, None)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


class TestParseConfig:
    def test_numerical_study_preset_values(self):
        raw = preset_config("numerical-study")
        config = build_config(raw)
        assert config.scenario.n == 10
        assert config.scenario.prior_h0 == 0.5
        assert config.scenario.sensors.p_fa_l == 0.15
        assert config.scenario.attack.p_f == 0.99
        assert config.scenario.trust.pmf_legit[1] == 0.8
        assert config.trials == 1000
        assert config.sweep == tuple(i / 10 for i in range(11))

    def test_hardware_replica_preset_values(self):
        raw = preset_config("hardware-replica")
        config = build_config(raw)
        assert config.scenario.n == 11
        assert config.scenario.n_malicious == 6
        assert config.scenario.prior_h0 == 0.6432
        assert config.scenario.sensors.p_md_l == 0.21
        assert config.scenario.trust.pmf_legit[1] == 0.835
        assert config.scenario.trust.pmf_malicious[1] == 0.1691

    def test_roundtrip_file(self, tmp_path):
        path = write_config(tmp_path)
        config = parse_config(path)
        assert config.scenario.n == 11
        assert config.trials == 20

    def test_empty_file_lists_required_keys(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        with pytest.raises(ConfigError, match="missing required config keys.*n.*seed"):
            parse_config(path)

    def test_unknown_key_named(self, tmp_path):
        path = write_config(tmp_path, overrides={"bogus_key": 1})
        with pytest.raises(ConfigError, match="bogus_key"):
            parse_config(path)

    def test_ill_typed_key_named(self, tmp_path):
        path = write_config(tmp_path, overrides={"trials": "many"})
        with pytest.raises(ConfigError, match="trials"):
            parse_config(path)

    def test_invariant_violation_cited(self, tmp_path):
        path = write_config(tmp_path, overrides={"prior_h0": 0.9})
        with pytest.raises(ConfigError, match="priors sum"):
            parse_config(path)

    def test_flag_overrides_beat_file(self, tmp_path):
        path = write_config(tmp_path)
        config = parse_config(path, seed=123, trials=7)
        assert config.seed == 123
        assert config.trials == 7

    def test_sizes_bounded_before_building(self):
        # both are rejected before the robot vector or the grid is allocated
        for key, value in (("n", _MAX_ROBOTS + 1), ("delta_p", 5e-5)):
            raw = preset_config("hardware-replica")
            raw[key] = value
            with pytest.raises(ConfigError, match=key):
                build_config(raw)
        raw = preset_config("hardware-replica")
        raw.update(n=_MAX_ROBOTS, delta_p=1e-4)
        assert build_config(raw).scenario.n == _MAX_ROBOTS

    def test_non_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("not json {")
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config(path)


class TestDigest:
    def test_stable_under_key_reordering(self):
        raw = preset_config("hardware-replica")
        reordered = dict(reversed(list(raw.items())))
        assert config_digest(raw) == config_digest(reordered)

    def test_sensitive_to_values(self):
        raw = preset_config("hardware-replica")
        other = dict(raw)
        other["seed"] = raw["seed"] + 1
        assert config_digest(raw) != config_digest(other)


class TestEmitCsv:
    def _single_result(self):
        raw = preset_config("hardware-replica")
        raw["trials"] = 30
        raw["methods"] = ["oracle"]
        return [run_experiment(build_config(raw))]

    def test_single_method_single_point(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(self._single_result(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "method,malicious_fraction,trials,error_rate,fa_rate,md_rate,seed"
        assert len(lines) == 2
        assert lines[1].startswith("oracle,")

    def test_row_cardinality_and_order(self, tmp_path):
        raw = preset_config("numerical-study")
        raw["trials"] = 10
        raw["methods"] = ["oracle", "2sa", "oblivious", "aglrt", "baseline5"]
        raw["sweep"] = [i / 10 for i in range(11)]
        results = sweep_malicious_fraction(build_config(raw))
        path = tmp_path / "sweep.csv"
        emit_csv(results, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 5 * 11
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == sorted(names)

    def test_baseline_names_with_commas_parse_back(self, tmp_path):
        raw = preset_config("hardware-replica")
        raw["trials"] = 200
        raw["methods"] = ["2sa", "baseline(3,1)", "baseline(10,4.5)"]
        path = tmp_path / "out.csv"
        emit_csv([run_experiment(build_config(raw))], path)
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        # a row with more or fewer fields than the header gets a None key or value
        assert all(None not in row and None not in row.values() for row in rows)
        assert [row["method"] for row in rows] == sorted(raw["methods"])
        for row in rows:
            assert row["trials"] == "200"
            for key in ("error_rate", "fa_rate", "md_rate"):
                assert 0.0 <= float(row[key]) <= 1.0

    def test_byte_identical_rerun(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(self._single_result(), a)
        emit_csv(self._single_result(), b)
        assert a.read_bytes() == b.read_bytes()


class TestEmitPlot:
    def test_polyline_per_method(self, tmp_path):
        raw = preset_config("numerical-study")
        raw["trials"] = 10
        raw["methods"] = ["oracle", "oblivious"]
        raw["sweep"] = [0.0, 0.5, 1.0]
        results = sweep_malicious_fraction(build_config(raw))
        path = tmp_path / "plot.svg"
        emit_plot(results, path)
        text = path.read_text()
        assert text.count("<polyline") == 2
        assert "Malicious fraction" in text and "Percent error" in text
        assert "oracle" in text and "oblivious" in text

    def test_nothing_to_plot(self, tmp_path):
        with pytest.raises(ValidationError, match="nothing to plot"):
            emit_plot([], tmp_path / "plot.svg")


class TestMain:
    def test_missing_config_exits_2(self, tmp_path):
        code = main(["run", "--config", str(tmp_path / "absent.json")])
        assert code == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_run_writes_outputs(self, tmp_path, capsys):
        path = write_config(tmp_path, overrides={"methods": ["oracle", "oblivious"]})
        out = tmp_path / "results"
        code = main(["run", "--config", str(path), "--out", str(out),
                     "--trials", "15"])
        assert code == 0
        assert (out / "config.csv").exists()
        manifest = json.loads((out / "config.manifest.json").read_text())
        assert manifest["effective_config"]["trials"] == 15
        assert manifest["seed"] == 42
        capsys.readouterr()

    @pytest.mark.parametrize("key, value", [
        ("trust_alphabet", [[0], [1]]),
        ("trust_pmf_legit", ["abc", 0.8]),
        ("trust_pmf_legit", ["0.2", 0.8]),
        ("methods", [5]),
    ])
    def test_ill_typed_list_entry_exits_2(self, tmp_path, capsys, key, value):
        path = write_config(tmp_path, overrides={key: value})
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["p_fa_l", "p_md_l"])
    def test_subnormal_sensor_rate_exits_2(self, tmp_path, capsys, key):
        # below the smallest normal double a fusion weight overflows to inf,
        # and every fused method then decides H1 on every trial
        path = write_config(tmp_path, overrides={key: 1e-310, "trials": 2000})
        out = tmp_path / "results"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    def test_nan_trust_pmf_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, overrides={"trust_pmf_malicious": [float("nan"), 0.2]})
        assert "NaN" in path.read_text()
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "pmf_malicious" in capsys.readouterr().err

    def test_pmf_summing_one_ulp_above_one_runs(self, tmp_path, capsys):
        # 0.33 + 0.56 + 0.11 == 1.0000000000000002: trusting every symbol
        # must still give a trust probability of at most 1
        path = write_config(tmp_path, overrides={
            "trust_alphabet": [0, 1, 2],
            "trust_pmf_legit": [0.33, 0.56, 0.11],
            "trust_pmf_malicious": [0.5, 0.2, 0.3],
            "methods": ["2sa"],
        })
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("where", ["flag", "file"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, where):
        path = write_config(tmp_path, overrides={"seed": -1 if where == "file" else 42})
        flag = ["--seed", "-1"] if where == "flag" else []
        assert main(["run", "--config", str(path), "--out", str(tmp_path)] + flag) == 2
        assert "seed" in capsys.readouterr().err

    def test_stream_size_bounded_before_sampling(self, tmp_path, capsys):
        # 11 robots: 9_090_909 trials is the most the 1e8-cell cap admits
        path = write_config(tmp_path, overrides={"methods": ["oracle"]})
        assert main(["run", "--config", str(path), "--out", str(tmp_path),
                     "--trials", "9090910"]) == 2
        assert "trials" in capsys.readouterr().err
        raw = json.loads(path.read_text())
        raw["trials"] = 9_090_909
        assert build_config(raw).trials == 9_090_909

    @pytest.mark.parametrize("method", [
        "baseline(3,1.5.5)", "baseline(3,.)", "baseline(99999999999,1)",
        "baseline(0,0.5)", "baseline(3,3)",
    ])
    def test_malformed_baseline_exits_2_before_sampling(self, tmp_path, capsys,
                                                        monkeypatch, method):
        def no_sampling(*args):
            raise AssertionError("trials drawn for an invalid method")

        monkeypatch.setattr("trustfusion.simulator.sample_trials", no_sampling)
        path = write_config(tmp_path, overrides={"methods": ["2sa", method]})
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert method in capsys.readouterr().err

    def test_baseline_of_window_one_runs(self, tmp_path, capsys):
        # T = 1 is the shortest history window accepted
        path = write_config(tmp_path, overrides={"methods": ["oracle", "baseline(1,0.5)"]})
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        rows = (tmp_path / "config.csv").read_text().splitlines()
        assert any(row.startswith('"baseline(1,0.5)",') for row in rows)

    @pytest.mark.parametrize("inside", [False, True])
    def test_out_through_a_file_exits_2_before_work(self, tmp_path, capsys,
                                                    monkeypatch, inside):
        def no_config(*args):
            raise AssertionError("config built for an unusable --out")

        monkeypatch.setattr("trustfusion.cli.build_config", no_config)
        path = write_config(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("keep")
        out = taken / "sub" if inside else taken
        for argv in (["run", "--config", str(path)], ["reproduce", "hardware-replica"]):
            assert main(argv + ["--out", str(out)]) == 2
            assert "not a directory" in capsys.readouterr().err
        assert taken.read_text() == "keep"

    @pytest.mark.parametrize("key, value", [
        ("sweep", [0.5, 0.25, 0.5]),
        ("methods", ["oracle", "baseline1", "oracle"]),
    ])
    def test_duplicate_entries_exit_2(self, tmp_path, capsys, key, value):
        path = write_config(tmp_path, overrides={key: value})
        command = "sweep" if key == "sweep" else "run"
        assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "duplicate" in capsys.readouterr().err

    def test_sweep_fractions_that_print_alike_exit_2(self, tmp_path, capsys):
        # distinct floats, but both are written to the CSV as 0.5
        path = write_config(tmp_path, overrides={"sweep": [0.5, 0.25, 0.5000001]})
        out = tmp_path / "results"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
        assert "duplicate" in capsys.readouterr().err
        assert not out.exists()

    def test_trust_alphabet_bounded_before_building(self, tmp_path, capsys, monkeypatch):
        def config_for(size):
            pmf = [(i + 1) / (size * (size + 1) / 2) for i in range(size)]
            return {"trust_alphabet": list(range(size)), "trust_pmf_legit": pmf,
                    "trust_pmf_malicious": pmf[::-1]}

        raw = preset_config("hardware-replica")
        raw.update(config_for(64), n=2, n_malicious=1, m_bar=0.5)
        assert len(build_config(raw).scenario.trust.alphabet) == 64

        def no_model(*args, **kwargs):
            raise AssertionError("trust model built for an oversized alphabet")

        monkeypatch.setattr("trustfusion.cli.TrustModel", no_model)
        path = write_config(tmp_path, overrides=config_for(65))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "trust_alphabet" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sweep_requires_sweep_key(self, tmp_path, capsys):
        path = write_config(tmp_path)  # replica preset has no sweep key
        assert main(["sweep", "--config", str(path)]) == 2
        capsys.readouterr()

    def test_reproduce_numerical_study(self, tmp_path, capsys):
        out = tmp_path / "repro"
        code = main(["reproduce", "numerical-study", "--out", str(out),
                     "--trials", "20", "--seed", "7"])
        assert code == 0
        assert (out / "numerical-study.csv").exists()
        assert (out / "numerical-study.svg").exists()
        manifest = json.loads((out / "numerical-study.manifest.json").read_text())
        assert manifest["seed"] == 7
        capsys.readouterr()

    def test_manifest_records_each_point_from_the_memoised_scans(self, tmp_path, capsys):
        out = tmp_path / "repro"
        optimize_thresholds.cache_clear()
        assert main(["reproduce", "numerical-study", "--out", str(out),
                     "--trials", "20", "--seed", "7"]) == 0
        capsys.readouterr()
        manifest = json.loads((out / "numerical-study.manifest.json").read_text())
        points = manifest["points"]
        config = build_config(preset_config("numerical-study"))
        assert [p["malicious_fraction"] for p in points] == list(config.sweep)
        # one scan per point, and the manifest reads none back
        info = optimize_thresholds.cache_info()
        assert (info.misses, info.hits) == (len(points), 0)
        for point in points:
            assert set(point) == {"malicious_fraction", "stream_digest", "2sa"}
            assert len(point["stream_digest"]) == 64
            assert set(point["2sa"]) == {"gamma_t", "p_t", "worst_case_pe"}
            assert 0.0 <= point["2sa"]["p_t"] <= 1.0
            assert 0.0 <= point["2sa"]["worst_case_pe"] <= 1.0

    def test_sweep_past_the_scan_memo_scans_each_point_once(self, tmp_path, capsys):
        # more points than optimize_thresholds' lru_cache holds: the manifest
        # records each point's thresholds from its result, so no scan runs twice
        raw = preset_config("numerical-study")
        raw.update(trials=5, methods=["2sa"], sweep=[i / 129 for i in range(130)])
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(raw))
        optimize_thresholds.cache_clear()
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        info = optimize_thresholds.cache_info()
        assert (info.misses, info.hits) == (130, 0)
        points = json.loads((tmp_path / "out" / "wide.manifest.json").read_text())["points"]
        results = sweep_malicious_fraction(build_config(raw))
        assert len(points) == len(results) == 130
        for point, result in zip(points, results):
            choice = result.thresholds
            assert point["2sa"] == {"gamma_t": choice.gamma_t, "p_t": choice.p_t,
                                    "worst_case_pe": choice.worst_case_pe}

    def test_replica_manifest_digest_is_the_pinned_one(self, tmp_path, capsys):
        out = tmp_path / "repro"
        assert main(["reproduce", "hardware-replica", "--out", str(out)]) == 0
        capsys.readouterr()
        manifest = json.loads((out / "hardware-replica.manifest.json").read_text())
        (point,) = manifest["points"]
        assert point["stream_digest"] == PINNED_SHA256["hardware-replica stream_digest"]
        assert point["malicious_fraction"] == 6 / 11
        assert set(point["2sa"]) == {"gamma_t", "p_t", "worst_case_pe"}

    def test_run_manifest_keeps_the_configured_m_bar(self, tmp_path, capsys):
        # `run` on a config with a sweep key runs one point at the file's m_bar
        raw = preset_config("numerical-study")
        raw.update(trials=20, n_malicious=3, m_bar=0.3)
        path = tmp_path / "study.json"
        path.write_text(json.dumps(raw))
        optimize_thresholds.cache_clear()
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        (point,) = json.loads((tmp_path / "out" / "study.manifest.json").read_text())["points"]
        config = build_config(raw)
        sc = config.scenario
        choice = optimize_thresholds(sc.trust, sc.sensors, config.two_stage, sc.n,
                                     sc.prior_h0, sc.prior_h1)
        assert point["2sa"] == {"gamma_t": choice.gamma_t, "p_t": choice.p_t,
                                "worst_case_pe": choice.worst_case_pe}
        assert optimize_thresholds.cache_info().misses == 1

    def test_manifest_of_a_run_without_2sa_has_no_thresholds(self, tmp_path, capsys):
        path = write_config(tmp_path, overrides={"methods": ["oracle", "aglrt"]})
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        manifest = json.loads((tmp_path / "out" / "config.manifest.json").read_text())
        (point,) = manifest["points"]
        assert set(point) == {"malicious_fraction", "stream_digest"}

    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "selftest: PASS" in out

    def test_reproduce_determinism_small(self, tmp_path, capsys):
        outs = []
        for sub in ("one", "two"):
            out = tmp_path / sub
            assert main(["reproduce", "numerical-study", "--out", str(out),
                         "--trials", "25", "--seed", "42"]) == 0
            outs.append(out)
        capsys.readouterr()
        csv_a = (outs[0] / "numerical-study.csv").read_bytes()
        csv_b = (outs[1] / "numerical-study.csv").read_bytes()
        svg_a = (outs[0] / "numerical-study.svg").read_bytes()
        svg_b = (outs[1] / "numerical-study.svg").read_bytes()
        assert csv_a == csv_b
        assert svg_a == svg_b
