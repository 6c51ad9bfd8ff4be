"""Property test of the CLI: generated configs end in exit 0 or 2, and a run
that exits 0 writes a CSV that parses back to the config's methods."""

import csv
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from trustfusion.cli import main, preset_config
from trustfusion.simulator import KNOWN_METHODS

BASELINES = st.builds("baseline({},{})".format, st.integers(1, 12),
                      st.sampled_from([0, 0.5, 1, 2.5, 4.5, 12]))
# mostly valid rates, plus the subnormal, out-of-range and non-finite ones
RATES = st.one_of(st.floats(0.01, 0.45),
                  st.sampled_from([5e-324, 1e-310, 0.5, math.nan, math.inf]))


@st.composite
def configs(draw) -> dict:
    raw = preset_config("hardware-replica")
    n = draw(st.integers(1, 12))
    raw.update(
        n=n,
        n_malicious=draw(st.integers(0, n)),
        m_bar=draw(st.sampled_from([0.0, 0.3, 0.5, 0.6, 1.0])),
        trials=draw(st.integers(1, 40)),
        seed=draw(st.integers(0, 1000)),
        delta_p=draw(st.sampled_from([0.05, 0.2, 1.0])),
        p_fa_l=draw(RATES),
        p_md_l=draw(RATES),
        methods=draw(st.lists(st.one_of(st.sampled_from(KNOWN_METHODS), BASELINES),
                              min_size=1, max_size=4, unique=True)),
    )
    if draw(st.booleans()):
        raw["sweep"] = draw(st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 1.0]),
                                     min_size=1, max_size=3, unique=True))
    return raw


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(raw=configs())
def test_generated_configs_exit_0_or_2_with_a_parsable_csv(raw):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(raw))
        command = "sweep" if "sweep" in raw else "run"
        code = main([command, "--config", str(config), "--out", tmp])
        assert code in (0, 2)
        if code == 2:
            return
        with open(Path(tmp) / "config.csv", newline="") as f:
            rows = list(csv.reader(f))
    header, rows = rows[0], rows[1:]
    assert len(header) == 7 and all(len(row) == 7 for row in rows)
    assert {row[0] for row in rows} == set(raw["methods"])
    assert len(rows) == len(raw["methods"]) * len(raw.get("sweep", [None]))
    for row in rows:
        for rate in map(float, row[3:6]):
            assert math.isnan(rate) or 0.0 <= rate <= 1.0
