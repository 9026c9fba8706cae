"""Report serialization, determinism, and the batch driver surface."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from hkforms import bianchi as bx
from hkforms import nahm, suites
from hkforms.cli import build_parser, load_config, main
from hkforms.report import (
    CSV_FIELDS,
    Records,
    ReportRecord,
    emit_csv,
    emit_json,
    emit_profile_csv,
    report_payload,
)
from hkforms.suites import SuiteConfig, run_suite


def test_bounded_record_pass_fail():
    rec = Records("s", 1.0)
    rec.le("c", "a", 1e-13, 1e-12)
    rec.le("c", "a", 1e-11, 1e-12)
    assert [r.passed for r in rec] == [True, False]
    # the scale multiplies the bound before the comparison
    scaled = Records("s", 100.0)
    scaled.le("c", "a", 1e-11, 1e-12)
    assert scaled == [ReportRecord("s", "c", "a", "le", 1e-11, 1e-12 * 100.0, True)]


def test_exact_and_flag_records_ignore_the_scale():
    rec = Records("s", 1e-6)
    rec.eq("e", "a", 3, 3)
    rec.eq("e", "a", 2, 3)
    rec.flag("f", "a", np.bool_(False))
    assert rec == [ReportRecord("s", "e", "a", "eq", 3.0, 3.0, True),
                   ReportRecord("s", "e", "a", "eq", 2.0, 3.0, False),
                   ReportRecord("s", "f", "a", "eq", 0.0, 1.0, False)]
    assert all(type(r.measured) is float and type(r.passed) is bool for r in rec)


def test_json_roundtrip(tmp_path):
    records = Records("s", 1.0)
    records.le("c1", "a", 0.5, 1.0)
    records.eq("c2", "plumbing", 3.0, 3.0)
    payload = report_payload(records, suite="s", seed=1, tol_scale=1.0, details={})
    data = emit_json(payload, tmp_path / "r.json")
    parsed = json.loads(data)
    assert parsed == payload
    assert parsed["schema"] == 2
    assert parsed["records"][0]["measured"] == 0.5


def test_csv_stable_columns(tmp_path):
    records = Records("s", 1.0)
    for i in range(5):
        records.le(f"c{i}", "a", float(i), 10.0)
    data = emit_csv(records, tmp_path / "r.csv").decode()
    lines = data.strip().split("\n")
    assert lines[0] == ",".join(CSV_FIELDS)
    assert all(len(line.split(",")) == len(CSV_FIELDS) for line in lines)


def test_profile_csv_17_digits(tmp_path):
    data = emit_profile_csv({"x": [1.0 / 3.0], "y": [2.0]}, tmp_path / "p.csv").decode()
    assert "0.33333333333333331" in data


def test_profile_csv_refuses_unequal_columns(tmp_path):
    with pytest.raises(ValueError):
        emit_profile_csv({"x": [1.0, 2.0, 3.0], "y": [1.0]}, tmp_path / "p.csv")


def _read_profile(path: Path) -> dict:
    header, *rows = path.read_text().splitlines()
    columns = zip(*(map(float, row.split(",")) for row in rows), strict=True)
    return dict(zip(header.split(","), map(list, columns), strict=True))


def _keys(node):
    if isinstance(node, dict):
        for key, value in node.items():
            yield key, value
            yield from _keys(value)
    elif isinstance(node, list):
        for value in node:
            yield from _keys(value)


def test_profiles_go_only_to_their_csv_files(tmp_path):
    assert main(["--suite", "all", "--seed", "7", "--out", str(tmp_path), "--format", "csv",
                 "--quiet"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    # the one key ending in "profile" names a Bianchi verdict's profile; no table is left
    assert {(key, type(value)) for key, value in _keys(report) if key.endswith("profile")} \
        == {("profile", str)}
    _, _, profiles = run_suite("all", SuiteConfig(seed=7))
    assert set(profiles) == {"taubnut_radial_profile", "bianchi_density_profile",
                             "nahm_state_profile"}
    assert {p.name for p in tmp_path.iterdir()} \
        == {"report.json", "report.csv"} | {f"{stem}.csv" for stem in profiles}
    for stem, table in profiles.items():
        assert _read_profile(tmp_path / f"{stem}.csv") == table


def test_json_format_still_writes_the_profile_csv(tmp_path):
    assert main(["--suite", "taubnut", "--out", str(tmp_path), "--format", "json",
                 "--quiet"]) == 0
    assert {p.name for p in tmp_path.iterdir()} == {"report.json", "radial_profile.csv"}


def test_nahm_profile_csv_holds_the_state_coefficients(tmp_path):
    assert main(["--suite", "nahm", "--seed", "7", "--out", str(tmp_path), "--quiet"]) == 0
    table = _read_profile(tmp_path / "state_profile.csv")
    assert list(table) == ["s"] + [f"B{i}_{name}" for i in range(4)
                                   for name in ("id", "E1", "E2", "E3")]
    state = nahm.one_pole_state(0.1, 1.0, 2000)   # the suite's state
    assert np.array_equal(table["s"], state.s)
    for i in range(4):
        columns = [table[f"B{i}_{name}"] for name in ("id", "E1", "E2", "E3")]
        assert np.array_equal(np.array(columns).T, state.B[i])


def test_unknown_suite_raises():
    with pytest.raises(ValueError):
        run_suite("unknown", SuiteConfig())


def test_cli_runs_and_exits_zero(tmp_path, capsys):
    code = main(["--suite", "taubnut", "--seed", "3", "--out", str(tmp_path),
                 "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert "taubnut: " in out
    assert "[PASS]" in out
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "report.csv").exists()
    assert (tmp_path / "radial_profile.csv").exists()


def test_cli_reports_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--suite", "quotient", "--seed", "7", "--out", str(a), "--quiet"]) == 0
    assert main(["--suite", "quotient", "--seed", "7", "--out", str(b), "--quiet"]) == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def test_cli_seed_changes_sampled_values(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["--suite", "quotient", "--seed", "1", "--out", str(a), "--quiet"])
    main(["--suite", "quotient", "--seed", "2", "--out", str(b), "--quiet"])
    ra = json.loads((a / "report.json").read_text())
    rb = json.loads((b / "report.json").read_text())
    assert ra["seed"] != rb["seed"]
    assert ra["passed"] and rb["passed"]


def test_cli_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": "taubnut", "seed": 11, "tol_scale": 1.0,
                               "out": str(tmp_path / "from_cfg")}))
    code = main(["--config", str(cfg), "--quiet"])
    assert code == 0
    report = json.loads((tmp_path / "from_cfg" / "report.json").read_text())
    assert report["suite"] == "taubnut"
    assert report["seed"] == 11
    # flag overrides the file
    code = main(["--config", str(cfg), "--seed", "12",
                 "--out", str(tmp_path / "override"), "--quiet"])
    assert code == 0
    report = json.loads((tmp_path / "override" / "report.json").read_text())
    assert report["seed"] == 12


# key: (its flag, the flag's value, a config-file value, the default)
_MERGE_CASES = {
    "suite": (["--suite", "algebra"], "algebra", "taubnut", "all"),
    "seed": (["--seed", "12"], 12, 11, 7),
    "tol_scale": (["--tol-scale", "0.5"], 0.5, 2.5, 1.0),
    "out": (["--out", "flag_out"], Path("flag_out"), "file_out", None),
    "format": (["--format", "json"], "json", "csv", "json"),
}


def _merged(argv: list[str], key: str):
    suite, config, out, fmt = load_config(build_parser().parse_args(argv))
    return {"suite": suite, "seed": config.seed, "tol_scale": config.tol_scale,
            "out": out, "format": fmt}[key]


@pytest.mark.parametrize("key", list(_MERGE_CASES))
def test_load_config_takes_flag_over_file_over_default(tmp_path, monkeypatch, key):
    monkeypatch.chdir(tmp_path)
    argv, flag_value, file_value, default = _MERGE_CASES[key]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: file_value}))
    assert _merged([], key) == default
    assert _merged(["--config", str(cfg)], key) == (Path(file_value) if key == "out"
                                                    else file_value)
    assert _merged(["--config", str(cfg)] + argv, key) == flag_value


def test_cli_tol_scale_tightening_can_fail(tmp_path, capsys):
    # shrinking every tolerance by 1e12 must trip at least one bound
    code = main(["--suite", "taubnut", "--tol-scale", "1e-12", "--quiet"])
    assert code == 1


def test_every_le_bound_follows_tol_scale():
    # fitted slopes and exponents included: doubling tol_scale doubles each bound
    base, _, _ = run_suite("all", SuiteConfig(seed=7, tol_scale=1.0))
    doubled, _, _ = run_suite("all", SuiteConfig(seed=7, tol_scale=2.0))
    assert [(r.suite, r.check, r.mode, r.measured) for r in base] \
        == [(r.suite, r.check, r.mode, r.measured) for r in doubled]
    assert "suite-error" not in {r.check for r in base}
    for r1, r2 in zip(base, doubled):
        if r1.mode == "le":
            assert r2.expected == 2.0 * r1.expected, r1.check
        else:
            assert r2 == r1


def test_algebra_suite_schema():
    records, details, _ = run_suite("algebra", SuiteConfig(seed=7))
    assert all(r.passed for r in records)
    checks = {r.check for r in records}
    for k in (1, 2):
        assert {f"lie-closure-dim-k{k}", f"lie-closure-residual-k{k}",
                f"lie-closure-killing-positive-k{k}",
                f"lie-closure-killing-negative-k{k}"} <= checks
    assert "lie-closure-k1-vs-k2" not in checks
    assert set(details) == {"lie_closure", "middle_kernel_dimensions"}
    assert set(details["lie_closure"]) == {"k1", "k2"}
    for entry in details["lie_closure"].values():
        assert set(entry) == {"smallest_singular_value"}
        assert entry["smallest_singular_value"] > 1.0


def test_bianchi_suite_schema():
    records, details, tables = run_suite("bianchi", SuiteConfig(seed=7))
    assert [r.check for r in records] == [
        "two-monopole-verdicts", "two-monopole-endpoint-exponent", "eguchi-hanson-verdicts",
        "biaxial-taubnut-verdicts", "interpolant-independence",
        "reparametrization-independence", "ansatz-closed", "ansatz-anti-self-dual",
        "cross-module-proportionality", "density-wedge-route"]
    assert all(r.passed for r in records)
    assert set(details) == {"verdicts", "proportionality_constant"}
    assert set(tables) == {"density_profile"}
    profiles = {"two-monopole": bx.atiyah_hitchin_model_profile(),
                "eguchi-hanson": bx.eguchi_hanson_profile(0.5),
                "biaxial-taubnut": bx.biaxial_taubnut_profile(1.0)}
    for v in details["verdicts"]:
        profile = profiles[v["profile"]]
        assert list(v["fitted_exponent"]) == [str(profile.rho_min), str(profile.rho_max)]


def test_bianchi_suite_verdict_schema():
    records, details, _ = run_suite("bianchi", SuiteConfig(seed=7))
    assert all(r.passed for r in records)
    verdicts = details["verdicts"]
    assert {v["profile"] for v in verdicts} == {"two-monopole", "eguchi-hanson",
                                                "biaxial-taubnut"}
    for v in verdicts:
        assert set(v) == {"profile", "axis", "verdict", "endpoint", "fitted_exponent"}


def test_quotient_suite_schema():
    records, details, _ = run_suite("quotient", SuiteConfig(seed=7))
    assert all(r.passed for r in records)
    assert [r.check for r in records[-3:]] == [
        "taubnut-triholomorphic-circle", "calabi-orbit-biaxial", "calabi-is-eguchi-hanson"]
    for tag in ("taubnut", "calabi"):
        entry = details[tag]
        assert set(entry) == {"model", "grid", "max_residuals", "growth"}
        assert set(entry["max_residuals"]) == {"moment", "closedness", "omegas"}
        assert set(entry["growth"]) == {"c1", "c0"}


def test_nahm_suite_schema():
    records, details, _ = run_suite("nahm", SuiteConfig(seed=7))
    assert all(r.passed for r in records)
    assert [r.check for r in records[-5:]] == [
        "grid-halving-order", "linearized-translation", "linearized-gauge",
        "linearized-pole-shift", "linearized-ivp"]
    rec = details["record"]
    for key in ("epsilon", "h", "nahm_residual", "lhs", "rhs", "boundary", "rel_err"):
        assert key in rec


def test_taubnut_suite_schema():
    records, details, profiles = run_suite("taubnut", SuiteConfig(seed=7))
    assert all(r.passed for r in records)
    rec = details["record"]
    assert set(rec) >= {"m", "tau_period", "l2_norm", "closed_form", "rel_err"}
    assert set(details) == {"record"}
    assert set(profiles) == {"radial_profile"}
    profile = profiles["radial_profile"]
    assert set(profile) == {"r", "density"}
    assert len(profile["r"]) == len(profile["density"])


def test_suite_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(tol_scale=0.0)
    # a tolerance scale must be a finite positive real, not a bool or a string
    for scale in (True, False, "1"):
        with pytest.raises(ValueError, match=re.escape(f"not {scale!r}")):
            SuiteConfig(tol_scale=scale)
    # a seed must be a non-negative int; the message names it
    for seed in (-1, -3, True, 1.5, "7"):
        with pytest.raises(ValueError, match=re.escape(f"not {seed!r}")):
            SuiteConfig(seed=seed)
    assert SuiteConfig(seed=0).seed == 0
    # an int past the float range is refused like inf, not with an OverflowError
    with pytest.raises(ValueError, match=re.escape(f"finite and positive, not {10 ** 400}")):
        SuiteConfig(tol_scale=10 ** 400)
    assert SuiteConfig(tol_scale=2).tol_scale == 2


@pytest.mark.parametrize("flag", [["--tol-scale", "nan"], ["--tol-scale", "inf"],
                                  ["--tol-scale=-inf"]])
def test_cli_rejects_non_finite_tol_scale(tmp_path, flag):
    out = tmp_path / "report"
    assert main(["--suite", "taubnut", "--out", str(out), "--quiet"] + flag) == 2
    assert not out.exists()


def _raise(exc):
    def runner(config):
        raise exc
    return runner


def _passing(name):
    def runner(config):
        rec = Records(name, config.tol_scale)
        rec.flag("ran", "plumbing", True)
        return rec, {"ran": True}, {}
    return runner


def _profiled(name):
    def runner(config):
        rec = Records(name, config.tol_scale)
        rec.flag("ran", "plumbing", True)
        return rec, {}, {"x_profile": {"x": [1.0, 2.0]}}
    return runner


def test_a_failing_suite_writes_no_profile_csv(tmp_path, monkeypatch):
    for name in suites.SUITE_NAMES:
        monkeypatch.setitem(suites._RUNNERS, name, _profiled(name))
    monkeypatch.setitem(suites._RUNNERS, "bianchi", _raise(ArithmeticError("no verdict")))
    assert main(["--suite", "all", "--out", str(tmp_path), "--quiet"]) == 1
    assert {p.name for p in tmp_path.iterdir()} == {"report.json"} | {
        f"{name}_x_profile.csv" for name in suites.SUITE_NAMES if name != "bianchi"}
    assert suites.run_suite("bianchi", SuiteConfig())[2] == {}


@pytest.mark.parametrize("exc", [ArithmeticError("no verdict"), RuntimeError("no closure"),
                                 np.linalg.LinAlgError("singular")])
def test_cli_isolates_a_failing_suite(tmp_path, monkeypatch, exc):
    for name in suites.SUITE_NAMES:
        monkeypatch.setitem(suites._RUNNERS, name, _passing(name))
    monkeypatch.setitem(suites._RUNNERS, "bianchi", _raise(exc))
    assert main(["--suite", "all", "--out", str(tmp_path), "--quiet"]) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    checks = [(r["suite"], r["check"], r["anchor"], r["passed"]) for r in report["records"]]
    assert checks == [(name, "suite-error", "plumbing", False) if name == "bianchi"
                      else (name, "ran", "plumbing", True) for name in suites.SUITE_NAMES]
    assert report["counts"] == {"total": 5, "failed": 1}
    assert report["details"]["bianchi"] == {"error": f"{type(exc).__name__}: {exc}"}
    assert report["details"]["nahm"] == {"ran": True}


def test_cli_isolates_a_failing_single_suite(tmp_path, monkeypatch):
    monkeypatch.setitem(suites._RUNNERS, "taubnut", _raise(ArithmeticError("no verdict")))
    assert main(["--suite", "taubnut", "--out", str(tmp_path), "--quiet"]) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert [r["check"] for r in report["records"]] == ["suite-error"]
    assert report["passed"] is False


def test_cli_value_errors_still_exit_2(tmp_path, monkeypatch, capsys):
    # an unknown suite, an unreadable file, a JSON array, an unknown key, an unknown format
    configs = [{"suite": "nosuch"}, None, [1, 2], {"suite": "taubnut", "sed": 3},
               {"suite": "taubnut", "format": "xml"}]
    for i, content in enumerate(configs):
        cfg = tmp_path / f"cfg{i}.json"
        if content is not None:
            cfg.write_text(json.dumps(content))
        out = tmp_path / f"a{i}"
        assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")
    monkeypatch.setitem(suites._RUNNERS, "taubnut", _raise(ValueError("bad input")))
    assert main(["--suite", "taubnut", "--out", str(tmp_path / "b"), "--quiet"]) == 2
    assert not (tmp_path / "b").exists()
    assert capsys.readouterr().err == "error: bad input\n"
    # a negative seed, whatever the suite adds to it before drawing
    for suite, seed in (("algebra", "-1"), ("quotient", "-3")):
        out = tmp_path / f"neg{seed}"
        assert main(["--suite", suite, "--seed", seed, "--out", str(out), "--quiet"]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == \
            f"error: seed must be a non-negative integer, not {seed}\n"


def _no_suite_may_run(monkeypatch):
    for name in suites.SUITE_NAMES:
        monkeypatch.setitem(suites._RUNNERS, name, _raise(AssertionError("a suite ran")))


@pytest.mark.parametrize("key, value", [("seed", 1.5), ("seed", True), ("seed", "7"),
                                        ("tol_scale", "1"), ("tol_scale", False),
                                        ("out", 5), ("suite", 5), ("format", ["csv"])])
def test_cli_refuses_a_config_value_of_the_wrong_json_type(tmp_path, monkeypatch, capsys,
                                                           key, value):
    _no_suite_may_run(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    out = tmp_path / "report"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == \
        f"error: config {cfg}: {key} has the wrong JSON type: {value!r}\n"


def test_cli_refuses_a_config_tol_scale_past_the_float_range(tmp_path, monkeypatch, capsys):
    _no_suite_may_run(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"suite": "taubnut", "tol_scale": 1' + "0" * 400 + "}")
    out = tmp_path / "report"
    assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == \
        f"error: tolerance scale must be finite and positive, not {10 ** 400}\n"


def test_cli_refuses_an_out_that_is_a_file_before_any_suite_runs(tmp_path, monkeypatch,
                                                                  capsys):
    _no_suite_may_run(monkeypatch)
    out = tmp_path / "taken"
    out.write_text("keep")
    assert main(["--suite", "all", "--out", str(out), "--quiet"]) == 2
    assert out.read_text() == "keep"
    assert capsys.readouterr().err == \
        f"error: output path {out} exists and is not a directory\n"


def test_cli_write_error_exits_2(tmp_path, monkeypatch, capsys):
    # the directory cannot be made under a file: an OSError after the suites ran
    monkeypatch.setitem(suites._RUNNERS, "taubnut", _passing("taubnut"))
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "report"
    assert main(["--suite", "taubnut", "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write reports to {out}: ")
    assert "Traceback" not in err


def _reject_constant(name):
    raise AssertionError(f"bare {name} token in report.json")


def test_json_non_finite_values_are_strict(tmp_path):
    records = Records("s", 1.0)
    records.le("nan", "a", math.nan, 1.0)
    records.append(ReportRecord("s", "inf", "a", "eq", math.inf, -math.inf, False))
    assert not records[0].passed
    payload = report_payload(records, suite="s", seed=1, tol_scale=1.0,
                             details={"values": [1.5, math.nan, np.float64(-math.inf)],
                                      "nested": {"x": (math.inf, 2)}})
    emit_json(payload, tmp_path / "r.json")
    parsed = json.loads((tmp_path / "r.json").read_text(), parse_constant=_reject_constant)
    assert parsed["records"][0]["measured"] == "NaN"
    assert parsed["records"][0]["passed"] is False
    assert parsed["records"][1]["measured"] == "Infinity"
    assert parsed["records"][1]["expected"] == "-Infinity"
    assert parsed["details"] == {"values": [1.5, "NaN", "-Infinity"],
                                 "nested": {"x": ["Infinity", 2]}}


_LATER_NAN_CASES = [
    ("taubnut", suites.gh, "ddtheta_residual", "harmonic-form-closed"),
    ("taubnut", suites.gh, "anti_self_duality_residual", "harmonic-form-anti-self-dual"),
    ("bianchi", bx, "closedness_residual", "ansatz-closed"),
    ("quotient", suites.QuotientChart, "closedness_residual", "taubnut-forms-closed"),
    ("quotient", suites.QuotientChart, "beta_exactness_residual", "taubnut-beta-exactness"),
    ("quotient", suites.GroupActionSpec, "moment_residual", "taubnut-moment-residual"),
]


@pytest.mark.parametrize("suite, owner, name, check", _LATER_NAN_CASES,
                         ids=[case[3] for case in _LATER_NAN_CASES])
def test_a_nan_residual_at_a_later_sample_point_fails_its_record(monkeypatch, suite, owner,
                                                                 name, check):
    # Python's max keeps an earlier value when a later one is NaN
    residual = getattr(owner, name)
    calls = []

    def poisoned(*args):
        calls.append(None)
        return math.nan if len(calls) == 2 else residual(*args)

    monkeypatch.setattr(owner, name, poisoned)
    records, _, _ = run_suite(suite, SuiteConfig(seed=7))
    (record,) = [r for r in records if r.check == check]
    assert len(calls) > 2
    assert math.isnan(record.measured) and not record.passed


def test_json_finite_output_unchanged(tmp_path):
    records = Records("s", 1.0)
    records.le("c", "a", 1.0 / 3.0, 1e-300)
    records.flag("f", "a", True)
    payload = report_payload(records, suite="s", seed=1, tol_scale=0.5,
                             details={"xs": [0.1, -2.5e-17, 1e308], "n": 3, "t": (1.0, "a")})
    data = emit_json(payload, tmp_path / "r.json")
    assert data == (json.dumps(payload, sort_keys=True, indent=1) + "\n").encode()
