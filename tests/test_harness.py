"""Harness: config round-trip, reports, atlas, CLI."""

import csv
import json
import math

import pytest

from zetacross import equations, harness
from zetacross.cli import main as cli_main
from zetacross.critline import LadderModel, build_mother_instance
from zetacross.errors import ConfigError
from zetacross.harness import (
    RunConfig,
    emit_atlas,
    parse_config,
    payload_bytes,
    run,
    write_report,
)
from zetacross.params import ParameterSet


def test_parse_config_reads_every_key():
    config = RunConfig(
        U=math.pi / 16,
        L_list=(25, 75),
        ladder=LadderModel("AFFINE", 1.5),
        params=ParameterSet(n=(2, 1, 3, 1, 1, 2), p=(-1, 0, 2, 1, -2, 3),
                            k=(0.3, 0.4, 0.5, 0.6, 0.7, 0.8)),
    )
    text = (
        "# zetacross run configuration\n"
        f"U = {math.pi / 16!r}\n"
        "L_list = 25,75\n"
        "ladder = affine:1.5\n"
        "n = 2,1,3,1,1,2\n"
        "p = -1,0,2,1,-2,3\n"
        "k = 0.3,0.4,0.5,0.6,0.7,0.8\n"
    )
    assert parse_config(text) == config
    with pytest.raises(ConfigError, match=r"bad value for 'U': 'x'"):
        parse_config("U = x\n")
    with pytest.raises(ConfigError, match="need all of n, p, k"):
        parse_config("n = 1,1,1,1,1,1\n")


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(L_list=())
    with pytest.raises(ConfigError):
        RunConfig(U=2.0)
    with pytest.raises(ConfigError):
        RunConfig(L_list=(5,))  # below desk-scale floor
    with pytest.raises(ConfigError):
        parse_config("wibble = 3\n")
    # the removed mode and seed options are unknown keys like any other
    with pytest.raises(ConfigError):
        parse_config("mode = EXACT\n")
    with pytest.raises(ConfigError):
        parse_config("seed = 1\n")
    # so are the certified bounds, which are fixed, even at their own values
    for line in ("quad_rel = 1e-11", "level_res = 1e-10", "eq_res = 1e-8"):
        with pytest.raises(ConfigError):
            parse_config(line + "\n")
    with pytest.raises(ConfigError):
        build_mother_instance(math.pi / 8, 20, LadderModel(), "ASYMPTOTIC")


@pytest.fixture(scope="module")
def small_report():
    return run(RunConfig(L_list=(20,)))


def test_report_schema_and_completeness(small_report):
    rep = small_report
    assert rep["schema_version"] == 2
    payload = rep["payload"]
    assert set(payload["config"]) == {"U", "L_list", "ladder", "quad_rel",
                                      "level_res", "eq_res", "params"}
    bounds = (1e-11, 1e-10, 1e-8)
    conf = payload["config"]
    assert (conf["quad_rel"], conf["level_res"], conf["eq_res"]) == bounds
    config = RunConfig()
    assert (config.quad_rel, config.level_res, config.eq_res) == bounds
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
    code = cli_main(["verify", "--ladder", "affine:abc", "--out", str(out)])
    assert code == 2
    # out-of-range modulus in a config file -> config error
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n = 1,1,1,1,1,1\np = 0,1,2,0,1,2\nk = 0.5,0.6,0.7,0.5,0.6,1.5\n")
    code = cli_main(["verify", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    # a config file that sets a certified bound -> config error
    cfg.write_text("L_list = 20\nquad_rel = 1e-14\n")
    code = cli_main(["verify", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    # a window narrower than the float spacing is recorded, not a crash
    code = cli_main(["verify", "--U", "1e-15", "--L", "20", "--out", str(out)])
    assert code == 1
    entry = json.loads(out.read_text())["payload"]["runs"][0]
    assert entry["certified"] is False
    assert entry["error"].startswith("DomainError: ")


def test_cli_atlas(tmp_path):
    code = cli_main(["atlas", "--L", "20", "--slots", "9:1",
                     "--out-dir", str(tmp_path / "atlas"), "--count", "10"])
    assert code == 0
    assert (tmp_path / "atlas" / "slot_9_1.csv").exists()
    code = cli_main(["atlas", "--L", "20", "--slots", "bogus",
                     "--out-dir", str(tmp_path / "atlas2")])
    assert code == 2
    # a bad arc step is a usage error caught before any file is written
    out_dir = tmp_path / "atlas3"
    code = cli_main(["atlas", "--L", "20", "--slots", "9:1,8:1",
                     "--out-dir", str(out_dir), "--step", "0.5"])
    assert code == 2
    assert not list(out_dir.glob("*.csv"))
    # a slot outside n = 3..12, l = 1..3 is a usage error, before any file
    for bad in ("2:1", "13:1", "8:4", "8:0", "3:-1"):
        out_dir = tmp_path / f"atlas-{bad.replace(':', '_')}"
        code = cli_main(["atlas", "--L", "20", "--slots", f"9:1,{bad}",
                         "--out-dir", str(out_dir), "--count", "10"])
        assert code == 2
        assert not list(out_dir.glob("*.csv"))
    with pytest.raises(ConfigError, match=r"\(13, 1\)"):
        emit_atlas(RunConfig(L_list=(20,)), [(9, 1), (13, 1)], tmp_path / "atlas4")


def test_cli_usage_error_exits_2():
    for argv in (["no-such-command"], ["scaling"],
                 ["verify", "--mode", "exact"], ["verify", "--seed", "5"]):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
