"""Harness: config round-trip, reports, atlas, CLI."""

import csv
import dataclasses
import hashlib
import json
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetacross import cli, equations
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
from zetacross.levelset import Cosine
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


def test_repeated_L_rejected(tmp_path):
    # a repeated L would run its window twice under one timing and failure key
    with pytest.raises(ConfigError, match="every L must appear once"):
        RunConfig(L_list=(20, 100, 20))
    assert cli_main(["verify", "--L", "20,20", "--out", str(tmp_path / "r.json")]) == 2


def test_windows_lifted_above_the_validated_height_rejected(tmp_path):
    # the lifted window must end at or below Z_VALIDATED_T = 33,000: the
    # asymptotic ladder admits L <= 10,077 at U = pi/8, and the affine
    # ladder's delta is capped through the same height
    RunConfig(L_list=(10000, 10077))
    for config in ({"L_list": (10078,)}, {"L_list": (10 ** 400,)},
                   {"L_list": (20,), "ladder": LadderModel("AFFINE", 1e6)}):
        with pytest.raises(ConfigError, match="lifts past Z's validated t <= 33000"):
            RunConfig(**config)
    out = tmp_path / "r.json"
    for argv in (["--L", "10100"], ["--L", "20", "--ladder", "affine:1e6"]):
        start = time.perf_counter()
        assert cli_main(["verify", *argv, "--out", str(out)]) == 2
        assert time.perf_counter() - start < 1.0


# each key's good value forms, then bad ones; arbitrary text is tried too,
# and good forms are drawn twice as often, so a fair share of draws parse
_FORMS = {
    "U": (["0.3", "0.2"], ["nan", "-inf", "1e-400", "2"]),
    "L_list": (["20", "20,100", "20,,50"], ["5", "-3", ""]),
    "ladder": (["asymptotic", "AFFINE:1.5"], ["affine:-1", "affine", "spiral"]),
    "n": (["1,2,3,1,2,3"], ["0,1,1,1,1,1"]),
    "p": (["-1,0,2,1,-2,3"], ["1,2"]),
    "k": (["0.3,0.4,0.5,0.6,0.7,0.8"], ["0.5,0.6,0.7,0.5,0.6,1.5"]),
}


def _value(key):
    good, bad = _FORMS[key]
    return st.one_of(st.sampled_from(good), st.sampled_from(good),
                     st.sampled_from(bad), st.text(max_size=24))


def _line(key):
    return _value(key).map(lambda val: f"{key} = {val}")


# a line for one key, the three parameter lines together, or any text
_LINES = st.one_of(
    st.sampled_from(["U", "L_list", "ladder"]).flatmap(_line),
    st.sampled_from(sorted(_FORMS)).flatmap(_line),
    st.tuples(_line("n"), _line("p"), _line("k")).map("\n".join),
    st.text(max_size=40),
)
_FLAGS = st.fixed_dictionaries(
    {}, optional={key: _value(key) for key in ("U", "L_list", "ladder")})


@settings(max_examples=400, deadline=None, database=None)
@given(lines=st.lists(_LINES, max_size=5), flags=_FLAGS)
def test_settings_reach_run_config_or_raise_config_error(lines, flags):
    try:
        config = parse_config("\n".join(lines), flags)
    except ConfigError:
        return
    assert isinstance(config, RunConfig)
    # a flag's value is the one its key takes, whatever the file says
    if "U" in flags:
        assert config.U == float(flags["U"])
    if "L_list" in flags:
        assert config.L_list == tuple(int(x) for x in flags["L_list"].split(",") if x)
    if "ladder" in flags:
        assert config.ladder == LadderModel.parse(flags["ladder"])


def test_a_flag_replaces_the_file_line_for_its_key(tmp_path):
    assert parse_config("U = 0.2\nL_list = 30\n", {"U": "0.3"}) == RunConfig(
        U=0.3, L_list=(30,))
    # the file's L_list and ladder lines are never read, so their bad
    # values do not matter; its U line still counts
    cfg = tmp_path / "run.cfg"
    cfg.write_text("U = 0.2\nL_list = 5\nladder = spiral\n")
    args = cli._build_parser().parse_args(
        ["verify", "--config", str(cfg), "--L", "20,30", "--ladder", "affine:2"])
    assert cli._config_from_args(args) == RunConfig(
        U=0.2, L_list=(20, 30), ladder=LadderModel("AFFINE", 2.0))


def test_a_flag_value_with_a_newline_sets_no_other_key():
    # merged key by key, not as config text: the whole value is the
    # flag's own key's value, and the line inside it sets nothing
    with pytest.raises(ConfigError, match="bad value for 'U'"):
        parse_config("L_list = 20\n", {"U": "0.3\nL_list = 50"})
    with pytest.raises(ConfigError, match="ladder model"):
        parse_config("", {"ladder": "asymptotic\nU = 0.2"})


def test_cli_bad_flag_values_exit_2_with_the_file_messages(tmp_path, capsys):
    out = tmp_path / "rep.json"
    for argv, message in ((["--L", "20,x"], "bad value for 'L_list'"),
                          (["--U", "x"], "bad value for 'U'"),
                          (["--ladder", "affine"], "not asymptotic or affine:DELTA"),
                          (["--U", "0.3\nL_list = 50"], "bad value for 'U'")):
        assert cli_main(["verify", *argv, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_file_errors_exit_2_with_one_line_before_the_run(tmp_path, capsys, monkeypatch):
    runs = []
    monkeypatch.setattr(cli, "run", runs.append)
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    for argv in (["verify", "--config", str(tmp_path / "missing.cfg")],
                 ["verify", "--config", str(tmp_path)],
                 ["verify", "--L", "20", "--out", str(tmp_path / "missing" / "r.json")],
                 ["verify", "--L", "20", "--out", str(tmp_path)],
                 ["atlas", "--L", "20", "--slots", "9:1", "--out-dir", str(blocker / "sub")]):
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("file error: ") and err.count("\n") == 1
    # undecodable bytes read as U+FFFD, which makes a bad line: a config error
    cfg = tmp_path / "binary.cfg"
    cfg.write_bytes(b"\xff\xfeU = 0.3\n")
    assert cli_main(["verify", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert runs == []


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
    report = run(RunConfig(L_list=(20,)))
    assert report["payload"]["certified"] is True
    assert calls == list(equations.TRANSMUTATION_IDS)


def test_a_failed_crossbreed_is_its_window_error(monkeypatch):
    # a window is certified exactly when no gate raised: a crossbred
    # equation 1e-6 off fails where it is made and names its pair; the
    # header's failures record carries the gate's fields
    made = equations.make_transmutation

    def skewed(tid, inst, assign):
        t = made(tid, inst, assign)
        if tid != "T2":
            return t
        return dataclasses.replace(t, b=(t.b[0], t.b[1], t.b[2] * (1.0 + 1e-6)))

    monkeypatch.setattr(equations, "make_transmutation", skewed)
    report = run(RunConfig(L_list=(20,)))
    payload = report["payload"]
    entry = payload["runs"][0]
    assert payload["certified"] is False
    assert entry["certified"] is False
    assert entry["error"] == "AccuracyError: crossbreed T1xT2: residual 9.238e-07 exceeds 1.0e-08"
    failure = report["header"]["failures"]["20"]
    assert failure == {"type": "AccuracyError", "stage": "crossbreed", "slot": None,
                       "achieved": pytest.approx(9.238e-7, rel=1e-4), "bound": 1e-8}


def test_a_failed_level_point_names_its_slot_in_the_header(monkeypatch):
    # every modulus 1e-6 high fails the first slot's level gate; the
    # error text is unchanged, and the header names stage, slot and bound
    real = Cosine.abs_value
    monkeypatch.setattr(Cosine, "abs_value", lambda self, s: real(self, s) * (1.0 + 1e-6))
    report = run(RunConfig(L_list=(20,)))
    entry = report["payload"]["runs"][0]
    assert entry["error"] == ("AccuracyError: slot (n=3, l=1): level residual 2.446e-07 "
                              "exceeds tolerance for cosine target 0.244627")
    assert report["header"]["failures"]["20"] == {
        "type": "AccuracyError", "stage": "level", "slot": (3, 1),
        "achieved": pytest.approx(2.446e-7, rel=1e-3), "bound": 1e-10}
    json.dumps(report)  # the record serializes with the rest of the header


def test_payload_sha256_pinned():
    # byte-identity of the default and the mixed EM/RS payloads; a change
    # that moves either updates its pin and says why in CHANGES.md
    pins = {
        (20, 100, 500): "9058ba2a14d2330869ed9b73e03f6e9e80a8db17a886dda7e377519df454099b",
        (20, 100, 500, 700, 2600):
            "0b477eee54ab2524b52e04bda433ace9941c74feec771b9fdea688343550a65f",
    }
    for L_list, digest in pins.items():
        report = run(RunConfig(L_list=L_list))
        assert hashlib.sha256(payload_bytes(report)).hexdigest() == digest
        assert report["header"]["failures"] == {}


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


def test_atlas_listing_pinned(tmp_path):
    # byte-identity of one atlas file per family and generation: the names
    # and bytes of the written files, in sorted order
    slots = [(3, 1), (4, 1), (5, 2), (6, 1), (7, 1), (8, 2), (9, 3), (10, 1), (11, 2), (12, 3)]
    written, warnings = emit_atlas(RunConfig(L_list=(20,)), slots, tmp_path, count=60)
    assert warnings == [] and len(written) == len(slots)
    digest = hashlib.sha256()
    for path in sorted(written):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == "adce59f3fb1d3f124d03de01e3aadfd3edd0c6dc54c8a249ae88a88232ab7609"


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
