"""Harness: config round-trip, reports, scaling study, atlas, CLI."""

import csv
import json
import math

import pytest

from zetacross import equations, harness
from zetacross.cli import main as cli_main
from zetacross.critline import LadderModel
from zetacross.errors import ConfigError
from zetacross.harness import (
    RunConfig,
    emit_atlas,
    parse_config,
    payload_bytes,
    run,
    scaling_study,
    serialize_config,
    write_report,
)
from zetacross.params import ParameterSet


def test_config_round_trip():
    config = RunConfig(
        U=math.pi / 16,
        L_list=(25, 75),
        ladder=LadderModel("AFFINE", 1.5),
        mode="ASYMPTOTIC",
        seed=77,
        params=ParameterSet(n=(2, 1, 3, 1, 1, 2), p=(-1, 0, 2, 1, -2, 3),
                            k=(0.3, 0.4, 0.5, 0.6, 0.7, 0.8)),
    )
    assert parse_config(serialize_config(config)) == config


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(L_list=())
    with pytest.raises(ConfigError):
        RunConfig(U=2.0)
    with pytest.raises(ConfigError):
        RunConfig(L_list=(5,))  # below desk-scale floor
    with pytest.raises(ConfigError):
        parse_config("wibble = 3\n")


@pytest.fixture(scope="module")
def small_report():
    return run(RunConfig(L_list=(20,)))


def test_report_schema_and_completeness(small_report):
    rep = small_report
    assert rep["schema_version"] == 1
    payload = rep["payload"]
    assert payload["certified"] is True
    assert len(payload["runs"]) == 1
    entry = payload["runs"][0]
    assert len(entry["level_points"]) == 30
    assert len(entry["transmutations"]) == 5
    labels = [e["label"] for e in entry["meta_equations"]]
    assert labels == ["T1xT2", "T1xT3", "T1xT4", "T1xT5", "T2xT3",
                      "T2xT4", "T2xT5", "T3xT4", "T3xT5", "T4xT5"]
    for e in entry["meta_equations"]:
        assert e["residual"] >= 0.0 and math.isfinite(e["residual"])
    assert payload["reconciled_notes"]
    assert payload["interpretation_notes"]


def test_report_payload_reproducible(small_report):
    again = run(RunConfig(L_list=(20,)))
    assert payload_bytes(small_report) == payload_bytes(again)
    # headers may differ (timestamps live there, outside the hashable payload)
    assert small_report["payload"] == again["payload"]


def test_run_builds_each_transmutation_once(monkeypatch):
    calls = []
    real = equations.make_transmutation

    def counting(tid, *args, **kwargs):
        calls.append(tid)
        return real(tid, *args, **kwargs)

    monkeypatch.setattr(equations, "make_transmutation", counting)
    monkeypatch.setattr(harness, "make_transmutation", counting)
    report = run(RunConfig(L_list=(20,)))
    assert report["payload"]["certified"] is True
    assert calls == list(equations.TRANSMUTATION_IDS)


def test_report_json_serializable(small_report, tmp_path):
    out = tmp_path / "report.json"
    write_report(small_report, out)
    loaded = json.loads(out.read_text())
    assert loaded["payload"]["certified"] is True


def test_scaling_study_requirements():
    with pytest.raises(ConfigError):
        scaling_study(RunConfig(L_list=(20, 30, 40), mode="EXACT"))
    with pytest.raises(ConfigError):
        scaling_study(RunConfig(L_list=(20, 30), mode="ASYMPTOTIC"))


def test_scaling_shape_column():
    # lnln(pi L)/ln(pi L) at L = 100, against direct evaluation
    x = math.log(100.0 * math.pi)
    expected = math.log(x) / x
    study = scaling_study(RunConfig(L_list=(20, 50, 100), mode="ASYMPTOTIC"))
    row = study.rows[2]
    assert row.L == 100
    assert row.shape == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(0.3042109, abs=1e-7)
    # shape decreases along increasing L
    shapes = [r.shape for r in study.rows]
    assert shapes == sorted(shapes, reverse=True)


def test_scaling_degenerate_affine_identity():
    study = scaling_study(RunConfig(L_list=(20, 50, 100), mode="ASYMPTOTIC",
                                    ladder=LadderModel("AFFINE", 0.0)))
    for row in study.rows:
        assert row.theta == 1.0
        assert row.ratio == 0.0
    assert study.within_bound


def test_atlas_zero_slots(tmp_path):
    written, warnings = emit_atlas(RunConfig(L_list=(20,)), [], tmp_path)
    assert written == []
    assert warnings == []


def test_atlas_files_certified(tmp_path):
    config = RunConfig(L_list=(20,))
    written, warnings = emit_atlas(config, [(9, 1), (12, 2)], tmp_path, count=20)
    assert warnings == []
    assert [p.name for p in written] == ["slot_9_1.csv", "slot_12_2.csv"]
    with open(written[0]) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 256  # closed-form circle sampling
    assert all(float(r["residual"]) <= 1e-12 for r in rows)
    with open(written[1]) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) >= 2
    assert all(float(r["residual"]) <= 1e-9 for r in rows)


def test_default_config_full_run():
    # the stock configuration certifies 10 equations per window
    report = run(RunConfig())
    payload = report["payload"]
    assert payload["config"]["L_list"] == [20, 100, 500]
    assert payload["certified"] is True
    residuals = [
        e["residual"] for entry in payload["runs"]
        for e in entry["meta_equations"]
    ]
    assert len(residuals) == 30
    assert max(residuals) <= 1e-8


def test_cli_verify_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = cli_main(["verify", "--L", "20", "--out", str(out)])
    assert code == 0
    assert out.exists()
    assert "certified 1/1" in capsys.readouterr().out
    # bad ladder -> config error
    code = cli_main(["verify", "--ladder", "spiral", "--out", str(out)])
    assert code == 2
    # out-of-range modulus in a config file -> config error
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n = 1,1,1,1,1,1\np = 0,1,2,0,1,2\nk = 0.5,0.6,0.7,0.5,0.6,1.5\n")
    code = cli_main(["verify", "--config", str(cfg), "--out", str(out)])
    assert code == 2


def test_cli_scaling(tmp_path):
    out = tmp_path / "scaling.csv"
    code = cli_main(["scaling", "--L", "20,50,100", "--mode", "asymptotic",
                     "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["L"] for r in rows] == ["20", "50", "100"]
    assert set(rows[0]) == {"L", "theta", "abs_dev", "shape", "ratio"}


def test_cli_atlas(tmp_path):
    code = cli_main(["atlas", "--L", "20", "--slots", "9:1",
                     "--out-dir", str(tmp_path / "atlas"), "--count", "10"])
    assert code == 0
    assert (tmp_path / "atlas" / "slot_9_1.csv").exists()
    code = cli_main(["atlas", "--L", "20", "--slots", "bogus",
                     "--out-dir", str(tmp_path / "atlas2")])
    assert code == 2


def test_cli_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli_main(["no-such-command"])
    assert exc.value.code == 2
