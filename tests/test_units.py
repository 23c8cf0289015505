"""A change of units changes F by its known power and nothing else.

Each case runs ``vanvleck factor`` on a scenario in base units and on the
same scenario rescaled, and requires the rescaled run to exit as the base
run does and every route's F to equal its base value times the power:
- lengths x -> L x with V(x) -> L^2 V(x / L) leave F unchanged;
- masses m -> s m, with a fixed frequency, scale F by s^(D/2);
- durations T -> s T with V -> V / s^2 scale F by s^(-D/2).
The rescalings reach endpoints where Newton's tolerance sits below one
ulp, and masses where m^D over- or underflows a double.
"""

from __future__ import annotations

import json

import pytest

from vanvleck.cli import main

RTOL = 1e-12
LENGTHS = [1e-8, 1e-4, 1e4, 1e8, 1e9, 1e12]


def _factor(tmp_path, cfg):
    """Exit code and {method: F} of one ``factor`` run."""
    path = tmp_path / "scenario.json"
    out = tmp_path / "report.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    code = main(["factor", "--config", str(path), "--out", str(out)])
    factors = json.loads(out.read_text())["factors"] if code == 0 else {}
    return code, {method: complex(entry["re"], entry["im"])
                  for method, entry in factors.items()}


def _assert_scaled(tmp_path, base, scaled, power):
    base_code, base_factors = _factor(tmp_path, base)
    code, factors = _factor(tmp_path, scaled)
    assert code == base_code == 0
    assert factors.keys() == base_factors.keys()
    for method, value in factors.items():
        want = base_factors[method] * power
        assert abs(value - want) <= RTOL * abs(want), method


def _quartic(length=1.0, time=1.0):
    # the quartic demo, 0.25 x^4 on x 0 -> 1 in T = 0.5, in other units
    coefficient = 0.25 / (length * time) ** 2
    return {"model": {"tag": "one_dim_potential", "params": {
                "mass": 1.0, "potential": f"{coefficient!r} * x^4"}},
            "x_a": [0.0], "x_b": [length], "t_b": 0.5 * time,
            "methods": ["vvpm", "general", "gelfand-yaglom", "dalembert"]}


def _oscillator(length=1.0, time=1.0):
    return {"model": {"tag": "harmonic_oscillator", "params": {
                "omega2": 1.3 / time**2, "dim": 2}},
            "x_a": [0.2 * length, -0.1 * length],
            "x_b": [0.7 * length, 0.4 * length], "t_b": time,
            "methods": ["vvpm", "general", "gelfand-yaglom",
                        "energy-hessian", "analytic", "short-time"]}


@pytest.mark.parametrize("length", LENGTHS)
def test_a_length_unit_leaves_the_quartic_factor(tmp_path, length):
    _assert_scaled(tmp_path, _quartic(), _quartic(length=length), 1.0)


@pytest.mark.parametrize("length", LENGTHS)
def test_a_length_unit_leaves_the_oscillator_factor(tmp_path, length):
    _assert_scaled(tmp_path, _oscillator(), _oscillator(length=length), 1.0)


@pytest.mark.parametrize("scale", [1e-3, 1e3])
@pytest.mark.parametrize("scenario", [_quartic, _oscillator],
                         ids=["quartic", "oscillator"])
def test_a_time_unit_scales_the_factor(tmp_path, scenario, scale):
    base = scenario()
    _assert_scaled(tmp_path, base, scenario(time=scale),
                   scale ** (-0.5 * len(base["x_a"])))


def _massive(tag, dim, mass):
    params = {"mass": mass, "dim": dim}
    methods = ["vvpm", "general", "energy-hessian", "analytic", "short-time"]
    if tag == "harmonic_oscillator":
        params["omega2"] = 1.0
    if tag == "magnetic_field":
        params["omega"] = 1.0
    else:
        methods.append("gelfand-yaglom")
    if dim == 1:
        methods.append("dalembert")
    return {"model": {"tag": tag, "params": params},
            "x_a": [0.0] * dim, "x_b": [0.1, 0.2, 0.3][:dim], "t_b": 0.5,
            "methods": methods, "numerics": {"n_steps": 200}}


# masses whose m^D overflows (1e200) or underflows (1e-120) at D = 2, 3;
# at D = 1 m^D is m itself, so the extremes are 1e300 and 1e-300
MASS_CASES = [(tag, dim, mass)
              for tag in ("free_particle", "harmonic_oscillator",
                          "magnetic_field")
              for dim in (1, 2, 3) if tag != "magnetic_field" or dim > 1
              for mass in ((1e300, 1e-300) if dim == 1 else (1e200, 1e-120))]


@pytest.mark.parametrize("tag, dim, mass", MASS_CASES)
def test_a_mass_unit_scales_the_factor(tmp_path, tag, dim, mass):
    _assert_scaled(tmp_path, _massive(tag, dim, 1.0), _massive(tag, dim, mass),
                   mass ** (0.5 * dim))
