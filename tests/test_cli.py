from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vanvleck import cli, composition, dynamics, expressions
from vanvleck.cli import main, parse_scenario
from vanvleck.errors import NonFiniteResult
from vanvleck.models import BUILTIN_TAGS

DEMO_CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"
# a factor entry; the method id that keys it names the route
FACTOR_KEYS = {"re", "im", "magnitude", "phase", "branch_note"}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def _free_config(**extra):
    cfg = {
        "model": {"tag": "free_particle", "params": {"mass": 1.0}},
        "x_a": [0.0],
        "x_b": [1.0],
        "t_b": 1.0,
        "methods": ["vvpm", "analytic"],
    }
    cfg.update(extra)
    return cfg


def test_models_subcommand(tmp_path, capsys):
    assert main(["models"]) == 0
    listing = json.loads(capsys.readouterr().out)
    assert set(listing["builtins"]) == {
        "free_particle", "harmonic_oscillator", "magnetic_field",
        "one_dim_potential"}
    assert "params" in listing["builtins"]["free_particle"]


def test_factor_free_particle(tmp_path):
    cfg = _write(tmp_path, "free.json", _free_config())
    out = tmp_path / "report.json"
    assert main(["factor", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert "error" not in report
    dev = report["pairwise_deviations"]["analytic|vvpm"]
    assert dev < 1e-10
    assert report["factors"]["vvpm"]["magnitude"] == pytest.approx(
        0.3989422804014327, rel=1e-12)
    assert report["path"]["action"] == pytest.approx(0.5, abs=1e-10)
    assert report["path"]["p_b"] == [pytest.approx(1.0, abs=1e-10)]
    assert report["path"]["energy_a"] == pytest.approx(0.5, abs=1e-10)


def test_factor_all_methods_close(tmp_path):
    cfg = _write(tmp_path, "all.json", _free_config(
        methods=["vvpm", "analytic", "general", "energy-hessian",
                 "gelfand-yaglom", "short-time", "dalembert"]))
    out = tmp_path / "report.json"
    assert main(["factor", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    for entry in report["factors"].values():
        assert set(entry) == FACTOR_KEYS
    # short-time is only O(dt) accurate; every other pair is tight
    for pair, dev in report["pairwise_deviations"].items():
        if "short-time" not in pair:
            assert dev < 1e-6, pair


def test_factor_time_dependent_gy(tmp_path):
    cfg = _write(tmp_path, "td.json", {
        "model": {"tag": "harmonic_oscillator",
                  "params": {"omega2": "(1 + 0.2*sin(t))^2"}},
        "x_a": [0.0], "x_b": [1.0], "t_b": 1.0,
        "methods": ["vvpm", "gelfand-yaglom"],
    })
    out = tmp_path / "report.json"
    assert main(["factor", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["pairwise_deviations"]["gelfand-yaglom|vvpm"] < 1e-6


def test_factor_focal_point_exit_2(tmp_path):
    cfg = _write(tmp_path, "focal.json", {
        "model": {"tag": "harmonic_oscillator", "params": {"omega2": 1.0}},
        "x_a": [0.0], "x_b": [1.0], "t_b": float(np.pi),
        "methods": ["analytic"],
    })
    out = tmp_path / "report.json"
    assert main(["factor", "--config", str(cfg), "--out", str(out)]) == 2
    report = json.loads(out.read_text())
    assert report["error"]["name"] == "FocalPoint"
    assert "factors" not in report


def test_unknown_key_rejected_before_output(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.json", _free_config(bogus_key=1))
    out = tmp_path / "report.json"
    assert main(["factor", "--config", str(cfg), "--out", str(out)]) == 1
    assert "bogus_key" in capsys.readouterr().err
    assert not out.exists()


def test_method_named_twice_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "twice.json",
                 _free_config(methods=["vvpm", "vvpm", "analytic"]))
    out = tmp_path / "report.json"
    assert main(["factor", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: method 'vvpm' is named twice")
    assert not out.exists()


def test_unknown_nested_keys_rejected(tmp_path):
    bad_model = _free_config()
    bad_model["model"]["params"]["massive"] = 2.0
    cfg = _write(tmp_path, "badm.json", bad_model)
    assert main(["factor", "--config", str(cfg)]) == 1

    bad_numerics = _free_config(numerics={"n_stepz": 100})
    cfg = _write(tmp_path, "badn.json", bad_numerics)
    assert main(["factor", "--config", str(cfg)]) == 1


def test_malformed_json_is_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["factor", "--config", str(path)]) == 1


@pytest.mark.parametrize("field, text", [
    ("x_b", "[NaN]"),
    ("hbar", "Infinity"),
    ("t_a", "-Infinity"),
    ("t_b", "1e999"),
    ("t_b", "1" + "0" * 400),
    ("x_b", "[true]"),
    ("numerics", '{"n_steps": 101}'),
    ("numerics", '{"n_steps": 6}'),
    ("numerics", '{"tol": 0}'),
    ("numerics", '{"max_iter": 0}'),
    ("numerics", '{"series_order": 0}'),
    ("numerics", '{"fd_step": 0}'),
    ("numerics", '{"n_slices": 0}'),
    ("numerics", '{"quad_points": 0}'),
    ("model", '{"tag": "one_dim_potential", '
              '"params": {"potential": "1e999 * x^2"}}'),
    ("model", '{"tag": "harmonic_oscillator", "params": {"omega2": "1/0"}}'),
    ("model", '{"tag": "free_particle", "params": {"mass": [[1, "a"], [0, 1]]}}'),
    ("model", '{"tag": "free_particle", "params": {"mass": [[1, 0], [0, [1]]]}}'),
    ("model", '{"tag": "free_particle", "params": {"mass": [[true]]}}'),
    ("model", '{"tag": "harmonic_oscillator", '
              '"params": {"stiffness": [[1, "a"]]}}'),
    ("numerics", json.dumps({"n_steps": cli.MAX_N_STEPS + 2})),
    ("numerics", json.dumps({"gy_solver": "neumann",
                             "quad_points": cli.MAX_QUAD_POINTS + 1})),
    ("numerics", json.dumps({"gy_solver": "time-ordered",
                             "n_slices": cli.MAX_N_SLICES + 1})),
    *(pytest.param("model", json.dumps(
        {"tag": "one_dim_potential", "params": {"potential": text}}), id=name)
      for name, text in [("parentheses-300", "(" * 300 + "x" + ")" * 300),
                         ("unary-minus-3000", "-" * 3000 + "x"),
                         ("sum-3000", " + ".join(["x"] * 3000)),
                         ("power-chain-3000", "^".join(["x"] * 3000))]),
])
def test_bad_numbers_are_config_errors(tmp_path, capsys, field, text):
    # vvpm alone, so no method refusal can stand in for the number check
    cfg = _free_config(methods=["vvpm"])
    cfg[field] = "@"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg).replace('"@"', text), encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["factor", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("model", [
    pytest.param({"tag": "free_particle", "params": {"mass": 0}}, id="zero"),
    pytest.param({"tag": "one_dim_potential",
                  "params": {"potential": "x^2", "mass": -1}}, id="negative"),
    pytest.param({"tag": "free_particle",
                  "params": {"mass": [[1, 2], [2, 1]], "dim": 2}},
                 id="indefinite-matrix"),
])
def test_non_spd_mass_is_config_error(tmp_path, capsys, model):
    dim = model["params"].get("dim", 1)
    cfg = _write(tmp_path, "mass.json", _free_config(
        model=model, x_a=[0.0] * dim, x_b=[1.0] * dim, methods=["vvpm"]))
    out = tmp_path / "report.json"
    assert main(["factor", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "mass matrix" in err
    assert not out.exists()


@pytest.mark.parametrize("model", [
    pytest.param({"tag": "free_particle", "params": {"dim": 4}}, id="dim-4"),
    pytest.param({"tag": "free_particle", "params": {"dim": 0}}, id="dim-0"),
    pytest.param({"tag": "free_particle",
                  "params": {"mass": np.eye(4).tolist()}}, id="mass-4x4"),
    pytest.param({"tag": "harmonic_oscillator",
                  "params": {"stiffness": np.eye(4).tolist()}},
                 id="stiffness-4x4"),
])
def test_dimension_is_bounded_before_the_model_is_built(tmp_path, capsys,
                                                        monkeypatch, model):
    assert cli.MAX_DIM == 3

    def no_model(*args, **kwargs):
        raise AssertionError("a model was built")

    monkeypatch.setattr(cli, "builtin_model", no_model)
    cfg = _write(tmp_path, "dim.json", _free_config(
        model=model, x_a=[0.0] * 4, x_b=[1.0] * 4, methods=["vvpm"],
        numerics={"n_steps": cli.MAX_N_STEPS}))
    out = tmp_path / "report.json"
    assert main(["factor", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("model, x_b, error", [
    pytest.param({"tag": "one_dim_potential", "params": {"potential": "x^0.5"}},
                 -1.0, "ValueError", id="negative-base"),
    pytest.param({"tag": "harmonic_oscillator",
                  "params": {"omega2": "(-1)^0.5 + t"}},
                 1.0, "ValueError", id="complex-frequency"),
    pytest.param({"tag": "one_dim_potential", "params": {"potential": "x^400"}},
                 10.0, "OverflowError", id="overflow"),
])
def test_expression_arithmetic_failure_is_a_numerical_error(tmp_path, model,
                                                            x_b, error):
    cfg = _write(tmp_path, "arith.json", _free_config(
        model=model, x_a=[1.0], x_b=[x_b], methods=["vvpm"]))
    out = tmp_path / "report.json"
    assert main(["factor", "--config", str(cfg), "--out", str(out)]) == 2
    assert json.loads(out.read_text())["error"]["name"] == error


@pytest.mark.parametrize("command", ["factor", "verify"])
def test_frequency_pole_on_a_grid_time_is_a_zero_division(tmp_path, command):
    # 1/(t-0.5) has its pole at the grid time 0.5, a numpy float: the
    # expression still divides Python floats and raises, where it used to
    # warn and return inf, which ended in NoConvergence
    cfg = {"model": {"tag": "harmonic_oscillator",
                     "params": {"omega2": "1/(t-0.5)"}},
           "x_a": [0.0], "x_b": [1.0], "t_b": 1.0}
    cfg.update({"methods": ["vvpm", "gelfand-yaglom"]} if command == "factor"
               else {"t_mid": 0.3})
    path, out = _write(tmp_path, "pole.json", cfg), tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert json.loads(out.read_text())["error"]["name"] == "ZeroDivisionError"


@pytest.mark.parametrize("command", ["factor", "verify"])
def test_non_finite_report_value_is_a_typed_error(tmp_path, command):
    # the action of this path overflows; the report is written inside the
    # error guard, so this is exit 2 with an error report, not a traceback,
    # also when warnings are errors: the overflow itself does not warn
    cfg = _free_config(x_b=[1e308])
    if command == "verify":
        cfg["t_mid"] = 0.5
    path, out = _write(tmp_path, "big.json", cfg), tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert json.loads(out.read_text())["error"]["name"] == "NonFiniteResult"


@pytest.mark.parametrize("command, extra, error", [
    pytest.param("factor", {"model": {"tag": "harmonic_oscillator",
                                      "params": {"omega2": 1e308}}},
                 "NoConvergence", id="omega2"),
    pytest.param("verify", {"model": {"tag": "harmonic_oscillator",
                                      "params": {"omega2": 1.0}},
                            "x_b": [1e300], "t_mid": 0.5},
                 "NonFiniteResult", id="x_b"),
    # the energy route's determinant is NaN here: an overflow, not a caustic
    pytest.param("factor", {"model": {"tag": "harmonic_oscillator",
                                      "params": {"omega2": 1}},
                            "x_b": [1e300],
                            "methods": ["vvpm", "energy-hessian"]},
                 "NonFiniteResult", id="energy-hessian"),
])
def test_nan_after_an_overflow_is_a_typed_error(tmp_path, capsys, command,
                                                extra, error):
    # the overflow's inf turns into NaN (inf - inf, 0 * inf) further on;
    # that does not warn either, so a warning-as-error is no traceback
    path = _write(tmp_path, "nan.json", _free_config(**extra))
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ""
    assert json.loads(out.read_text())["error"]["name"] == error


def test_constant_string_frequency_is_a_number(tmp_path):
    factors = []
    for omega2 in (2.0, "2.0", "4 / 2"):
        cfg = _write(tmp_path, "const.json", {
            "model": {"tag": "harmonic_oscillator",
                      "params": {"omega2": omega2}},
            "x_a": [0.0], "x_b": [1.0], "t_b": 1.0,
            "methods": ["vvpm", "analytic", "dalembert"],
        })
        out = tmp_path / "report.json"
        assert main(["factor", "--config", str(cfg), "--out", str(out)]) == 0
        factors.append(json.loads(out.read_text())["factors"])
    assert factors[1] == factors[0] and factors[2] == factors[0]


@pytest.mark.parametrize("model", [
    pytest.param({"tag": "harmonic_oscillator",
                  "params": {"omega2": "(1 + 0.2*sin(t))^2"}}, id="omega2"),
    pytest.param({"tag": "one_dim_potential",
                  "params": {"potential": "0.25*x^4*(1+t)"}}, id="potential"),
])
def test_dalembert_rejects_time_dependent_frequency(tmp_path, capsys, model):
    cfg = _write(tmp_path, "tdd.json", {
        "model": model,
        "x_a": [0.0], "x_b": [1.0], "t_b": 1.0,
        "methods": ["vvpm", "dalembert"],
    })
    out = tmp_path / "report.json"
    assert main(["factor", "--config", str(cfg), "--out", str(out)]) == 1
    assert "dalembert" in capsys.readouterr().err
    assert not out.exists()


def test_dalembert_turning_point_between_grid_points(tmp_path):
    # x_a = x_b: v changes sign at t_b / 2, where the coarse RK4 grid
    # leaves |v| near 1e-6 of its maximum, above the vanishing-ratio test
    cfg = _write(tmp_path, "turn.json", {
        "model": {"tag": "harmonic_oscillator", "params": {"omega2": 1.0}},
        "x_a": [0.5], "x_b": [0.5], "t_b": 1.0,
        "methods": ["dalembert"], "numerics": {"n_steps": 8}})
    out = tmp_path / "report.json"
    assert main(["factor", "--config", str(cfg), "--out", str(out)]) == 2
    assert json.loads(out.read_text())["error"]["name"] == "TurningPoint"


def test_report_determinism(tmp_path):
    cfg = _write(tmp_path, "det.json", _free_config(
        methods=["vvpm", "analytic", "gelfand-yaglom"]))
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["factor", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["factor", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_scenario_round_trip():
    raw = _free_config(numerics={"n_steps": 400}, hbar=0.5)
    scenario = parse_scenario(raw)
    assert scenario.raw == raw


def test_verify_free_particle(tmp_path):
    cfg = _write(tmp_path, "vfree.json", {
        "model": {"tag": "free_particle", "params": {"mass": 1.0}},
        "x_a": [0.0], "x_b": [1.0], "t_b": 2.0,
        "t_mid": [0.4, 0.8, 1.0, 1.2, 1.6],
        "numerics": {"n_steps": 200},
    })
    out = tmp_path / "verify.json"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["all_passed"] is True
    for row in report["reports"]:
        assert row["factor_residual"] < 1e-10
        assert row["momentum_mismatch"] < 1e-10
        for key in ("factor_full", "factor_left", "factor_right"):
            assert set(row["diagnostic"][key]) == FACTOR_KEYS


def test_verify_quartic(tmp_path):
    cfg = _write(tmp_path, "vq.json", {
        "model": {"tag": "one_dim_potential",
                  "params": {"potential": "x^4/4"}},
        "x_a": [0.0], "x_b": [1.0], "t_b": 0.5,
        "t_mid": [0.1, 0.25, 0.4],
        "numerics": {"n_steps": 600},
    })
    out = tmp_path / "verify.json"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    for row in report["reports"]:
        assert row["factor_residual"] < 1e-6


def _quartic_verify_config(**extra):
    cfg = {
        "model": {"tag": "one_dim_potential",
                  "params": {"potential": "x^4/4"}},
        "x_a": [0.0], "x_b": [1.0], "t_b": 0.5,
        "t_mid": [0.1, 0.25, 0.4],
        "numerics": {"n_steps": 200},
    }
    cfg.update(extra)
    return cfg


def test_verify_honours_numerics_of_the_through_path(tmp_path):
    cfg = _write(tmp_path, "vmax.json", _quartic_verify_config(
        numerics={"n_steps": 200, "max_iter": 1}))
    out = tmp_path / "verify.json"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
    assert json.loads(out.read_text())["error"]["name"] == "NoConvergence"


def test_verify_solves_the_through_path_once(tmp_path, monkeypatch):
    solves = []
    real_solve = composition.solve_bvp

    def counted_solve(*args, **kwargs):
        solves.append(args)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_bvp", counted_solve)
    monkeypatch.setattr(composition, "solve_bvp", counted_solve)
    cfg = _write(tmp_path, "vonce.json", _quartic_verify_config())
    out = tmp_path / "verify.json"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(solves) == 1 + 2 * 3


@pytest.mark.parametrize("key", ["factor", "momentum"])
@pytest.mark.parametrize("value", [-1.0, 0.0])
def test_verify_non_positive_threshold_is_config_error(
        tmp_path, capsys, monkeypatch, key, value):
    def no_solve(*args, **kwargs):
        raise AssertionError("the through path must not be solved")

    monkeypatch.setattr(cli, "solve_bvp", no_solve)
    cfg = _write(tmp_path, "vthr.json", _quartic_verify_config(
        thresholds={key: value}))
    out = tmp_path / "verify.json"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 1
    assert f"thresholds.{key}" in capsys.readouterr().err
    assert not out.exists()


def test_verify_split_count_is_bounded(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the through path must not be solved")

    monkeypatch.setattr(cli, "solve_bvp", no_solve)
    t_mid = list(np.linspace(0.1, 0.4, cli.MAX_SPLITS + 1))
    cfg = _write(tmp_path, "vsplits.json", _quartic_verify_config(t_mid=t_mid))
    out = tmp_path / "verify.json"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: t_mid may list at most")
    assert not out.exists()


def test_verify_midpoint_offset_is_an_unknown_key(tmp_path, capsys,
                                                 monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the through path must not be solved")

    monkeypatch.setattr(cli, "solve_bvp", no_solve)
    cfg = _write(tmp_path, "voffset.json", _quartic_verify_config(
        midpoint_offset=[0.01]))
    out = tmp_path / "verify.json"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown key 'midpoint_offset'")
    assert not out.exists()


def _output_args(tmp_path, command, via, out):
    """The command line of ``command`` that writes to ``out``, named by
    ``--out`` or by the config's ``output`` key (``via``)."""
    if command == "models":
        return ["models", "--out", out]
    cfg = {"factor": _free_config(), "verify": _quartic_verify_config(),
           "sweep": json.loads((DEMO_CONFIGS / "duration_sweep.json")
                               .read_text())}[command]
    if via == "output":
        cfg["output"] = out
    path = str(_write(tmp_path, "cfg.json", cfg))
    return [command, "--config", path] + (["--out", out] if via == "--out"
                                          else [])


@pytest.mark.parametrize("command, via", [
    ("factor", "--out"), ("factor", "output"), ("verify", "--out"),
    ("sweep", "--out"), ("sweep", "output"), ("models", "--out")])
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_unwritable_output_is_a_config_error_before_any_solve(
        tmp_path, capsys, monkeypatch, command, via, target):
    # an output path that cannot be written ends in exit 1 and one
    # config error line, after the config is validated and before the
    # first solve, not in a traceback after the whole computation
    solves = []
    monkeypatch.setattr(cli, "solve_bvp",
                        lambda *args, **kwargs: solves.append(args))
    out = str(tmp_path / "missing" / "report.json"
              if target == "missing-directory" else tmp_path)
    assert main(_output_args(tmp_path, command, via, out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {out!r}: ")
    assert err.count("\n") == 1
    assert solves == []


@pytest.mark.parametrize("command", ["factor", "verify", "sweep", "models"])
def test_a_writable_output_holds_the_stdout_report(tmp_path, capsys,
                                                   command):
    # checked before the run, a writable path still ends up holding
    # exactly the report that "-" prints, whatever it held before
    assert main(_output_args(tmp_path, command, "--out", "-")) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "report.out"
    out.write_text("a longer stale text than any report could be\n" * 200)
    assert main(_output_args(tmp_path, command, "--out", str(out))) == 0
    assert out.read_text() == printed


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_sweep_duration_matches_closed_form(tmp_path):
    cfg = _write(tmp_path, "sweep.json", {
        "model": {"tag": "harmonic_oscillator", "params": {"omega2": 1.0}},
        "x_a": [0.0], "x_b": [1.0], "t_b": 1.0,
        "methods": ["vvpm", "analytic"],
        "numerics": {"n_steps": 200},
        "sweep": {"parameters": [
            {"name": "T", "start": 0.1, "stop": 3.0, "count": 30}]},
    })
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert len(rows) == 30
    for row in rows:
        t_tot = float(row["T"])
        expected = np.sqrt(1.0 / (2 * np.pi * abs(np.sin(t_tot))))
        assert float(row["vvpm_magnitude"]) == pytest.approx(expected,
                                                             rel=1e-5)
        assert float(row["max_deviation"]) < 1e-6


def test_sweep_hbar_scaling_column(tmp_path):
    cfg = _write(tmp_path, "hbar.json", {
        "model": {"tag": "free_particle", "params": {"mass": 1.0, "dim": 2}},
        "x_a": [0.0, 0.0], "x_b": [1.0, 0.0], "t_b": 1.0,
        "methods": ["vvpm"],
        "numerics": {"n_steps": 100},
        "sweep": {"parameters": [
            {"name": "hbar", "start": 0.5, "stop": 2.0, "count": 4}]},
    })
    out = tmp_path / "hbar.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = _read_csv(out)
    scaled = [float(r["vvpm_magnitude"]) * float(r["hbar"]) for r in rows]
    np.testing.assert_allclose(scaled, scaled[0], rtol=1e-12)


def test_sweep_short_time_limit(tmp_path):
    cfg = _write(tmp_path, "short.json", {
        "model": {"tag": "one_dim_potential",
                  "params": {"potential": "x^4/4"}},
        "x_a": [0.0], "x_b": [0.001], "t_b": 1.0,
        "methods": ["vvpm"],
        "numerics": {"n_steps": 200},
        "sweep": {"parameters": [
            {"name": "T", "start": 0.001, "stop": 0.1, "count": 3}]},
    })
    out = tmp_path / "short.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = sorted(_read_csv(out), key=lambda r: float(r["T"]))
    anchored = [float(r["vvpm_magnitude"]) * np.sqrt(float(r["T"]))
                for r in rows]
    target = 1.0 / np.sqrt(2 * np.pi)
    assert abs(anchored[0] - target) < 1e-5
    assert abs(anchored[0] - target) < abs(anchored[-1] - target)


def test_scenario_parses_its_potential_once(monkeypatch):
    # compile_potential parses the text; the degree (vvpm's affine flow)
    # and dalembert's time check read the compiled V's tree
    parsed = []

    def counted(text, real=expressions.parse_expression):
        parsed.append(text)
        return real(text)

    monkeypatch.setattr(expressions, "parse_expression", counted)
    monkeypatch.setattr(cli, "parse_expression", counted)
    parse_scenario({
        "model": {"tag": "one_dim_potential",
                  "params": {"potential": "0.5*x^2 + 0.1*x^4"}},
        "x_a": [0.0], "x_b": [0.5], "t_b": 1.0,
        "methods": ["vvpm", "dalembert"]})
    assert parsed == ["0.5*x^2 + 0.1*x^4"]


def test_sweep_rows_survive_errors(tmp_path):
    # the 2.0 <= T rows put omega T past pi: FocalPoint recorded per row
    cfg = _write(tmp_path, "err.json", {
        "model": {"tag": "harmonic_oscillator", "params": {"omega2": 4.0}},
        "x_a": [0.0], "x_b": [1.0], "t_b": 1.0,
        "methods": ["analytic"],
        "sweep": {"parameters": [
            {"name": "T", "start": 1.0, "stop": 2.0, "count": 3}]},
    })
    out = tmp_path / "err.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = _read_csv(out)
    errors = [r["error"] for r in rows]
    assert any("FocalPoint" in e for e in errors)
    assert any(e == "" for e in errors)


def test_sweep_error_cell_keeps_its_comma(tmp_path):
    # the T = 4 row lies past the first focal time; its message has a
    # comma, which the CSV quotes rather than rewrites
    cfg = _write(tmp_path, "caustic.json", {
        "model": {"tag": "harmonic_oscillator", "params": {"omega2": 1.0}},
        "x_a": [0.0], "x_b": [0.3], "t_b": 1.0,
        "methods": ["vvpm"],
        "sweep": {"parameters": [
            {"name": "T", "start": 1.0, "stop": 4.0, "count": 2}]},
    })
    out = tmp_path / "caustic.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert [row["error"] for row in rows] == [
        "", "CausticRegion: Van Vleck determinant is -1.321e+00, not positive"]
    assert rows[1]["vvpm_magnitude"] == rows[1]["action"] == ""


def _sweep_config_error(tmp_path, capsys, parameters):
    cfg = _write(tmp_path, "names.json", {
        "model": {"tag": "harmonic_oscillator",
                  "params": {"mass": [[1.0, 0.0], [0.0, 1.0]],
                             "omega2": 1.0}},
        "x_a": [0.0, 0.0], "x_b": [1.0, 0.5], "t_b": 1.0,
        "methods": ["analytic"],
        "sweep": {"parameters": parameters},
    })
    out = tmp_path / "names.csv"
    code = main(["sweep", "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    return code, err, out.exists()


def test_sweep_parameter_named_twice_is_config_error(tmp_path, capsys):
    code, err, written = _sweep_config_error(tmp_path, capsys, [
        {"name": "model.omega2", "start": 0.5, "stop": 1.0, "count": 2},
        {"name": "model.omega2", "start": 2.0, "stop": 3.0, "count": 2}])
    assert code == 1 and not written
    assert err.startswith("config error: ") and "twice" in err


def test_sweep_method_named_twice_is_config_error(tmp_path, capsys):
    # else the CSV header would carry vvpm_magnitude,vvpm_phase twice
    cfg = _write(tmp_path, "twice.json", _free_config(
        methods=["vvpm", "vvpm", "analytic"],
        sweep={"parameters": [
            {"name": "T", "start": 1.0, "stop": 2.0, "count": 2}]}))
    out = tmp_path / "twice.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: method 'vvpm' is named twice")
    assert not out.exists()


def test_sweep_parameter_the_model_lacks_is_config_error(tmp_path, capsys):
    code, err, written = _sweep_config_error(tmp_path, capsys, [
        {"name": "model.omega", "start": 0.5, "stop": 1.0, "count": 2}])
    assert code == 1 and not written
    assert err.startswith("config error: cannot sweep 'model.omega'")


@pytest.mark.parametrize("params, name", [
    ({"omega2": 1.0}, "model.stiffness"),
    ({"stiffness": [[1.0]]}, "model.stiffness"),
    ({"stiffness": [[1.0]]}, "model.omega2")],
    ids=["matrix-on-omega2", "matrix-on-stiffness", "omega2-on-stiffness"])
def test_sweep_name_that_builds_no_model_is_config_error(tmp_path, capsys,
                                                         params, name):
    # a number for a matrix, or omega2 beside a stiffness, would fail
    # every row with "cannot build model"
    cfg = _write(tmp_path, "unbuildable.json", {
        "model": {"tag": "harmonic_oscillator", "params": params},
        "x_a": [0.0], "x_b": [1.0], "t_b": 1.0, "methods": ["vvpm"],
        "sweep": {"parameters": [
            {"name": name, "start": 0.5, "stop": 1.0, "count": 2}]}})
    out = tmp_path / "unbuildable.csv"
    code = main(["sweep", "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1 and not out.exists()
    assert err.startswith(f"config error: cannot sweep {name!r}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("counts", [[10_000_000_000], [101, 100]],
                         ids=["one-huge-count", "product-over-bound"])
def test_sweep_row_count_is_bounded(tmp_path, capsys, monkeypatch, counts):
    assert 101 * 100 > cli.MAX_SWEEP_ROWS >= 100

    def no_grid(*args, **kwargs):
        raise AssertionError("a sweep grid was allocated")

    monkeypatch.setattr(cli.np, "linspace", no_grid)
    names = ["model.omega2", "T"]
    code, err, written = _sweep_config_error(tmp_path, capsys, [
        {"name": name, "start": 0.5, "stop": 1.0, "count": count}
        for name, count in zip(names, counts)])
    assert code == 1 and not written
    assert err.startswith("config error: a sweep may have at most")
    assert err.count("\n") == 1


def test_sweep_runs_in_one_process_one_run_a_row(tmp_path, monkeypatch):
    # the demo sweeps T over 15 rows of an oscillator: one RK4 run each
    runs = []
    real_run = dynamics._rk4_run

    def counted(*args):
        runs.append(args)
        return real_run(*args)

    monkeypatch.setattr(dynamics, "_rk4_run", counted)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(DEMO_CONFIGS / "duration_sweep.json"),
                 "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert len(rows) == 15 and all(row["error"] == "" for row in rows)
    assert len(runs) == 15


def test_quadratic_demo_factor_runs_only_fine_runs(tmp_path, monkeypatch):
    # a degree-2 expression is affine_flow: the path takes one run, no
    # coarse grid runs, and the energy route reads the path's flow
    steps = []
    real_run = dynamics._rk4_run

    def counted(*args):
        steps.append(args[5])
        return real_run(*args)

    monkeypatch.setattr(dynamics, "_rk4_run", counted)
    out = tmp_path / "quadratic.json"
    assert main(["factor", "--config",
                 str(DEMO_CONFIGS / "quadratic_factor.json"),
                 "--out", str(out)]) == 0
    assert steps == [1000]
    for pair, dev in json.loads(out.read_text())[
            "pairwise_deviations"].items():
        # dalembert's velocity quadrature is the one looser route
        assert dev <= (1e-10 if "dalembert" in pair else 1e-12), pair


@pytest.mark.parametrize("potential", ["0.25*x^4", "0*x^4", "sin(x)",
                                       "x^2 + 1/x"])
def test_energy_hessian_on_a_nonlinear_model_is_config_error(
        tmp_path, capsys, potential):
    cfg = _write(tmp_path, "eh.json", _free_config(
        model={"tag": "one_dim_potential", "params": {"potential": potential}},
        methods=["vvpm", "energy-hessian"]))
    out = tmp_path / "report.json"
    assert main(["factor", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "energy-hessian" in err
    assert not out.exists()


@pytest.mark.parametrize("params", [
    {"omega2": -1.0}, {"omega2": 0}, {"omega2": "1 - 2"},
    {"stiffness": [[1.0, 0.0], [0.0, -2.0]], "dim": 2},
], ids=["negative", "zero", "negative-expression", "indefinite-stiffness"])
def test_analytic_without_positive_frequencies_is_config_error(
        tmp_path, capsys, monkeypatch, params):
    # refused by parse_scenario: no path is solved first
    monkeypatch.setattr(cli, "solve_bvp", lambda *args, **kwargs: pytest.fail(
        "a path was solved before the config was checked"))
    dim = params.get("dim", 1)
    cfg = _write(tmp_path, "w2.json", _free_config(
        model={"tag": "harmonic_oscillator", "params": params},
        x_a=[0.0] * dim, x_b=[1.0] * dim, methods=["vvpm", "analytic"]))
    out = tmp_path / "report.json"
    assert main(["factor", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "'analytic'" in err
    assert not out.exists()


@pytest.mark.parametrize("method", ["vvpm", "general", "energy-hessian"])
def test_conjugate_endpoints_are_refused_by_every_flow_route(tmp_path,
                                                             method):
    # omega T = pi with x_a = x_b: dx_b/dv_a vanishes.  general used to
    # take the affine solve's one run and report |F| = 2.5e5, and the
    # energy route failed in its stencil's shooting Jacobian instead
    cfg = _write(tmp_path, "conj.json", {
        "model": {"tag": "harmonic_oscillator", "params": {"omega2": 1}},
        "x_a": [0.0], "x_b": [0.0], "t_b": np.pi, "methods": [method]})
    out = tmp_path / "report.json"
    assert main(["factor", "--config", str(cfg), "--out", str(out)]) == 2
    assert json.loads(out.read_text())["error"]["name"] == "ConjugatePoint"


def test_energy_route_refuses_past_the_first_focal_time(tmp_path):
    # omega T = 4 lies between pi and 2 pi: det(mixed) = 1 / sin 4 < 0.
    # The route used to square it away and report |F| = 0.4586
    cfg = _write(tmp_path, "caustic.json", {
        "model": {"tag": "harmonic_oscillator", "params": {"omega2": 1}},
        "x_a": [0.0], "x_b": [0.3], "t_b": 4.0,
        "methods": ["energy-hessian", "short-time"]})
    out = tmp_path / "report.json"
    assert main(["factor", "--config", str(cfg), "--out", str(out)]) == 2
    assert json.loads(out.read_text())["error"]["name"] == "CausticRegion"


@pytest.mark.parametrize("argv", [
    ["factor"],
    ["sweep", "--config", str(DEMO_CONFIGS / "duration_sweep.json"),
     "--threads", "2"],
    ["factor", "--config"],
    ["frobnicate", "--config", "cfg.json"],
    [],
], ids=["missing-config", "unknown-option", "option-without-value",
        "unknown-command", "no-command"])
def test_usage_errors_are_config_errors(tmp_path, capsys, argv):
    out = tmp_path / "report.out"
    assert main([*argv, "--out", str(out)] if argv else argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ")
    assert captured.err.count("\n") == 1
    assert captured.out == "" and not out.exists()


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--help"])
    assert info.value.code == 0
    assert "--config" in capsys.readouterr().out


def _outcome(capsys, argv, out):
    # exit code, stdout, stderr and the bytes written to ``out``
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err, (
        out.read_bytes() if out.exists() else None)


def test_reused_parser_gives_what_a_fresh_one_gives(tmp_path, capsys):
    # one process, one parser for every call; each call's outcome must be
    # the one a parser built for that call alone gives
    cfg = _write(tmp_path, "grid.json", _free_config(
        numerics={"n_steps": 1000}))
    split = _write(tmp_path, "split.json", _free_config(t_mid=0.5))
    calls = [
        ["factor"],
        ["frobnicate", "--config", str(cfg)],
        ["factor", "--config", str(cfg), "--full-grid"],
        ["factor", "--config", str(cfg)],
        ["--help"],
        ["verify", "--config", str(split)],
        ["models"],
    ]
    outcomes = {}
    for mode in ("reused", "fresh"):
        (tmp_path / mode).mkdir()
        cli._parser.cache_clear()
        for i, argv in enumerate(calls):
            if mode == "fresh":
                cli._parser.cache_clear()
            out = tmp_path / mode / f"{i}.out"
            if argv != ["--help"]:
                argv = [*argv, "--out", str(out)]
            outcomes[mode, i] = _outcome(capsys, argv, out)
        if mode == "reused":
            info = cli._parser.cache_info()
            assert (info.hits, info.misses) == (len(calls) - 1, 1)
    for i in range(len(calls)):
        assert outcomes["reused", i] == outcomes["fresh", i], calls[i]
    codes = [outcomes["reused", i][0] for i in range(len(calls))]
    assert codes == [1, 1, 0, 0, ("SystemExit", 0), 0, 0]
    assert outcomes["reused", 0][2].startswith("config error: ")
    assert outcomes["reused", 1][2].startswith("config error: ")
    assert "{factor,verify,sweep,models}" in outcomes["reused", 4][1]
    full, thinned = (json.loads(outcomes["reused", i][3]) for i in (2, 3))
    assert len(full["path"]["t"]) == 1001
    assert len(thinned["path"]["t"]) == cli.MAX_SERIALIZED_SAMPLES


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "vanvleck", "models"],
        capture_output=True, text=True, check=False)
    assert proc.returncode == 0
    assert "free_particle" in proc.stdout


def test_import_loads_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, vanvleck.cli; print(sorted(m for m in sys.modules "
         "if m == 'scipy' or m.startswith('scipy.')))"],
        capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_cli_runs_with_scipy_blocked(tmp_path):
    cfg = _write(tmp_path, "modes.json", {
        "model": {"tag": "harmonic_oscillator",
                  "params": {"mass": [[2.0, 0.3], [0.3, 1.0]],
                             "stiffness": [[1.0, 0.2], [0.2, 3.0]],
                             "dim": 2}},
        "x_a": [0.0, 0.0], "x_b": [1.0, 0.5], "t_b": 1.0,
        "methods": ["vvpm", "gelfand-yaglom", "analytic"],
        "numerics": {"gy_solver": "time-ordered"},
    })
    factor_out = tmp_path / "factor.json"
    verify_out = tmp_path / "verify.json"
    quartic = DEMO_CONFIGS / "quartic_verify.json"
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from vanvleck.cli import main\n"
        f"assert main(['factor', '--config', {str(cfg)!r}, "
        f"'--out', {str(factor_out)!r}]) == 0\n"
        f"assert main(['verify', '--config', {str(quartic)!r}, "
        f"'--out', {str(verify_out)!r}]) == 0\n")
    subprocess.run([sys.executable, "-c", code], check=True)
    report = json.loads(factor_out.read_text())
    for dev in report["pairwise_deviations"].values():
        assert dev < 1e-6
    assert json.loads(verify_out.read_text())["all_passed"] is True


def test_full_grid_flag(tmp_path, monkeypatch):
    cfg = _write(tmp_path, "grid.json", _free_config(
        numerics={"n_steps": 1000}))
    small = tmp_path / "small.json"
    big = tmp_path / "big.json"
    assert main(["factor", "--config", str(cfg), "--out", str(small)]) == 0
    _check_reports(monkeypatch, ["factor", "--config", str(cfg),
                                 "--out", str(big), "--full-grid"], 0)
    t_small = json.loads(small.read_text())["path"]["t"]
    n_big = len(json.loads(big.read_text())["path"]["t"])
    # the rounded sample indices strictly increase: no time repeats
    assert len(t_small) == cli.MAX_SERIALIZED_SAMPLES
    assert np.all(np.diff(t_small) > 0)
    assert n_big == 1001


# ---------------------------------------------------------------------------
# the canonical writer against json's own encoder


def _stdlib_report(obj) -> str:
    """The report text by the standard library, the oracle of
    ``cli.dumps_canonical``: json's indent encoder, with arrays written as
    their ``tolist()`` and numpy integers and bools as Python ones."""
    def default(value):
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, np.integer):
            return int(value)
        if isinstance(value, np.bool_):
            return bool(value)
        raise TypeError(f"cannot serialize {type(value).__name__}")
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False,
                      ensure_ascii=False, default=default) + "\n"


def _assert_same_text(text: str, expected: str) -> None:
    # names the first difference: pytest's own diff of two long reports
    # takes minutes
    if text != expected:
        at = len(os.path.commonprefix([text, expected]))
        near = slice(max(at - 30, 0), at + 30)
        pytest.fail(f"texts differ at {at}: {text[near]!r} "
                    f"against {expected[near]!r}")


def _check_reports(monkeypatch, argv, code):
    """Run ``main(argv)``, expect exit ``code``, and check that every report
    it wrote is the oracle's text of the same object, byte for byte."""
    written, canonical = [], cli.dumps_canonical

    def recording(obj):
        text = canonical(obj)
        written.append((obj, text))
        return text

    monkeypatch.setattr(cli, "dumps_canonical", recording)
    assert main(argv) == code
    assert written
    for obj, text in written:
        _assert_same_text(text, _stdlib_report(obj))
    out = Path(argv[argv.index("--out") + 1])
    _assert_same_text(out.read_text(encoding="utf-8"), written[-1][1])


@pytest.mark.parametrize("command, config", [
    ("factor", "oscillator_factor.json"),
    ("factor", "quadratic_factor.json"),
    ("verify", "quartic_verify.json"),
])
def test_writer_matches_json_on_demo_reports(tmp_path, monkeypatch, command,
                                             config):
    # the sweep demo writes CSV, not through the writer
    _check_reports(monkeypatch, [command, "--config", str(DEMO_CONFIGS / config),
                                 "--out", str(tmp_path / "report.json")], 0)


def test_writer_matches_json_on_a_full_grid(tmp_path, monkeypatch):
    cfg = json.loads((DEMO_CONFIGS / "oscillator_factor.json").read_text())
    cfg["numerics"]["n_steps"] = 2000
    path = _write(tmp_path, "grid.json", cfg)
    _check_reports(monkeypatch, ["factor", "--config", str(path), "--out",
                                 str(tmp_path / "report.json"), "--full-grid"],
                   0)


def test_writer_matches_json_on_models_and_errors(tmp_path, monkeypatch):
    _check_reports(monkeypatch, ["models", "--out",
                                 str(tmp_path / "models.json")], 0)
    path = _write(tmp_path, "vmax.json", _quartic_verify_config(
        numerics={"n_steps": 200, "max_iter": 1}))
    out = tmp_path / "error.json"
    _check_reports(monkeypatch, ["verify", "--config", str(path),
                                 "--out", str(out)], 2)
    assert json.loads(out.read_text())["error"]["name"] == "NoConvergence"


@pytest.mark.parametrize("obj", [
    {}, [], (), np.zeros(0), np.zeros((2, 0)),
    ((1, (2.5, ())), [[]], [{}]),
    np.array(2.5), np.array(7), np.arange(6).reshape(2, 3),
    np.array([True, False]), np.arange(4, dtype=np.float32) / 3.0,
    np.linspace(-1.0, 1.0, 21).reshape(7, 3),
    np.linspace(0.1, 0.8, 8).reshape(2, 2, 2),
    np.int64(-5), np.bool_(True), np.bool_(False), np.float64(0.1),
    -0.0, 1e-300, 5e-324, 1e300, 2 ** 70, True, None,
    "été → \U0001d53c \" \\ \x00\x1f\n\t\x7f",
    {"b": [1, {"z": np.arange(3.0)}], "a": None, "é": False,
     "": np.arange(3.0).reshape(3, 1), "A": "x"},
])
def test_writer_matches_json_on_synthetic_objects(obj):
    _assert_same_text(cli.dumps_canonical(obj), _stdlib_report(obj))


@pytest.mark.parametrize("obj, value", [
    ({"a": 1.0, "b": float("inf")}, "inf"),
    (np.vstack([np.zeros((200, 2)), [[1.0, float("nan")]],
                np.full((55, 2), float("inf"))]), "nan"),
    ([0.5, -float("inf")], "-inf"),
    ({"x": [np.float64(float("nan"))]}, "nan"),
])
def test_writer_refuses_non_finite_values(obj, value):
    # a literal message: json's own text differs between Python versions
    with pytest.raises(NonFiniteResult) as caught:
        cli.dumps_canonical(obj)
    assert str(caught.value) == (
        "a report value is not finite: Out of range float values are not "
        f"JSON compliant: {value}")


@pytest.mark.parametrize("obj", [{1: "a"}, {"a": 1j}, [np.float32(1.0)],
                                 {"a": object()}])
def test_writer_refuses_other_types(obj):
    with pytest.raises(TypeError):
        cli.dumps_canonical(obj)


# Front-end fuzz.  Sizes are bounded for runtime: numbers, lists and
# dimensions stay small and n_steps is at most 16, so one example takes
# milliseconds and the whole property a few seconds.
_LEAF = st.one_of(st.integers(-3, 3), st.floats(-3.0, 3.0), st.booleans(),
                  st.sampled_from(["x^2", "t", "1/0", "a", ""]))
_VALUE = st.recursive(
    _LEAF, lambda inner: st.lists(inner, max_size=3), max_leaves=6)
_GOOD_PARAMS = {
    "mass": st.floats(0.5, 2.0), "dim": st.integers(1, 3),
    "omega": st.floats(0.2, 1.5), "stiffness": st.floats(0.5, 2.0),
    "omega2": st.floats(0.2, 1.5) | st.just("1 + t/4"),
    "potential": st.sampled_from(["x^2/2", "x^4/4 + x^2", "x^2 + t*x/4"]),
}
_REQUIRED_PARAMS = {"harmonic_oscillator": ["omega2"],
                    "one_dim_potential": ["potential"]}


@st.composite
def _fuzz_configs(draw):
    # each field is drawn from good values or from _LEAF/_VALUE noise, so
    # that runs end in every exit code, not only in config errors
    tag = draw(st.sampled_from(sorted(BUILTIN_TAGS)))
    names = _REQUIRED_PARAMS.get(tag, []) + draw(st.lists(
        st.sampled_from(sorted(BUILTIN_TAGS[tag]["params"])), max_size=2))
    params = {name: draw(_GOOD_PARAMS[name] | _VALUE) for name in names}
    point = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3)
    numerics = draw(st.dictionaries(
        st.sampled_from(["max_iter", "series_order", "quad_points",
                         "n_slices"]), st.integers(0, 12), max_size=2))
    numerics["n_steps"] = draw(st.sampled_from([8, 16]) | st.integers(0, 16))
    numerics["gy_solver"] = draw(st.sampled_from(cli.GY_SOLVERS))
    cfg = {"model": {"tag": tag, "params": params},
           "t_b": draw(st.floats(0.1, 2.0)),
           "methods": draw(st.lists(st.sampled_from(cli.METHOD_IDS),
                                    min_size=1, max_size=3, unique=True)),
           "numerics": numerics}
    if draw(st.booleans()):     # else both endpoints default to the origin
        cfg["x_a"], cfg["x_b"] = draw(point), draw(point)
    command = draw(st.sampled_from(["factor", "verify"]))
    if command == "verify":
        cfg["t_mid"] = draw(st.floats(0.05, 1.0) | _LEAF)
    return command, cfg


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_fuzz_configs())
def test_front_end_exits_are_documented(tmp_path, case):
    command, cfg = case
    path = _write(tmp_path, "fuzz.json", cfg)
    out = tmp_path / "fuzz_report.json"
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--config", str(path), "--out", str(out)])
    assert code in (0, 1, 2)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: ")
        assert not out.exists()
    else:
        json.loads(out.read_text())


@pytest.mark.parametrize("omega, code", [(0.0, 0), (0.7, 1), (None, 1)],
                         ids=["zero", "nonzero", "default"])
def test_gelfand_yaglom_needs_only_a_zero_field(tmp_path, capsys, omega,
                                                code):
    # at omega 0 the vector potential vanishes and the Gelfand-Yaglom
    # route agrees with vvpm; any other omega, the default 1 included, is
    # refused before any computation
    params = {"mass": 1.0, "dim": 2}
    if omega is not None:
        params["omega"] = omega
    cfg = _write(tmp_path, "field.json", {
        "model": {"tag": "magnetic_field", "params": params},
        "x_a": [0.0, 0.0], "x_b": [1.0, 0.5], "t_b": 1.0,
        "methods": ["vvpm", "gelfand-yaglom"]})
    out = tmp_path / "report.json"
    assert main(["factor", "--config", str(cfg), "--out", str(out)]) == code
    if code:
        assert "'gelfand-yaglom'" in capsys.readouterr().err
        assert not out.exists()
    else:
        deviation = json.loads(out.read_text())["pairwise_deviations"]
        assert deviation["gelfand-yaglom|vvpm"] <= 1e-12
