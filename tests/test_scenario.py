import copy
import re
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
import yaml

from biphoton import pipeline, scenario
from biphoton.cli import header_line
from biphoton.errors import ConfigError
from biphoton.scenario import (
    BUNDLED_SCENARIOS,
    load_bundled,
    load_scenario,
    scenario_from_dict,
)
from biphoton.sources import RingSource, WaveguideSource


def minimal_dict(**extra):
    data = {
        "name": "unit-test",
        "pumps": [
            {"wavelength_nm": 1544.08},
            {"wavelength_nm": 1556.18},
        ],
        "source": {"kind": "waveguide", "length_mm": 15.0},
    }
    data.update(extra)
    return data


def test_minimal_scenario_defaults():
    sc = scenario_from_dict(minimal_dict())
    assert sc.name == "unit-test"
    assert isinstance(sc.source, WaveguideSource)
    assert sc.source.length == pytest.approx(0.015)
    assert sc.source.dispersion.beta2 == 0.0  # docs/scenarios.md: beta2_s2_per_m defaults to 0
    # default effective linewidth is 80 GHz (FWHM, ordinary frequency)
    assert sc.pumps[0].linewidth_fwhm == pytest.approx(2 * np.pi * 80e9)
    assert sc.grid(51).n_points == 51


def test_ring_scenario_parse():
    sc = scenario_from_dict(
        minimal_dict(
            source={
                "kind": "ring",
                "q_factor": 1.5e4,
                "fsr_nm": 3.025,
                "resonance_nm": 1550.12,
            }
        )
    )
    assert isinstance(sc.source, RingSource)
    assert sc.source.fsr == pytest.approx(3.025e-9)


def test_unknown_key_rejected_with_path():
    with pytest.raises(ConfigError, match="bogus"):
        scenario_from_dict(minimal_dict(bogus=1))
    data = minimal_dict()
    data["source"]["typo_key"] = 2
    with pytest.raises(ConfigError, match="source"):
        scenario_from_dict(data)


def test_missing_required_key():
    data = minimal_dict()
    del data["pumps"]
    with pytest.raises(ConfigError, match="pumps"):
        scenario_from_dict(data)


def test_wrong_type_rejected():
    data = minimal_dict()
    data["pumps"][0]["wavelength_nm"] = "not-a-number"
    with pytest.raises(ConfigError, match="wavelength_nm"):
        scenario_from_dict(data)


def test_pump_count_must_be_two():
    data = minimal_dict()
    data["pumps"] = data["pumps"][:1]
    with pytest.raises(ConfigError, match="pumps"):
        scenario_from_dict(data)


def test_bad_source_kind():
    with pytest.raises(ConfigError, match="kind"):
        scenario_from_dict(minimal_dict(source={"kind": "fiber", "length_mm": 1.0}))


def test_content_hash_deterministic_and_sensitive():
    a = scenario_from_dict(minimal_dict())
    b = scenario_from_dict(minimal_dict())
    assert a.content_hash() == b.content_hash()
    c = scenario_from_dict(minimal_dict(car=99))
    assert c.content_hash() != a.content_hash()
    assert len(a.content_hash()) == 12


def test_bundled_scenarios_all_load():
    assert len(BUNDLED_SCENARIOS) == 5
    for name in BUNDLED_SCENARIOS:
        sc = load_bundled(name)
        assert sc.name
        assert len(sc.pumps) == 2
        assert sc.filter_spec is not None
        assert sc.grid().n_points >= 101


def test_unknown_bundled_name():
    with pytest.raises(ConfigError):
        load_bundled("no-such-scenario")


def test_load_scenario_from_file(tmp_path):
    path = tmp_path / "case.yaml"
    path.write_text(
        "name: file-test\n"
        "pumps:\n"
        "  - {wavelength_nm: 1544.08}\n"
        "  - {wavelength_nm: 1556.18}\n"
        "source: {kind: waveguide, length_mm: 0.24}\n"
        "grid: {span_nm: 2.0, points: 51}\n"
    )
    sc = load_scenario(path)
    assert sc.name == "file-test"
    assert sc.grid().n_points == 51


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_bundled_scenario_parses_alike_under_both_loaders(name):
    assert scenario._LOADER is yaml.CSafeLoader
    text = resources.files("biphoton.scenarios").joinpath(f"{name}.yaml").read_text(encoding="utf-8")
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)
    assert load_bundled(name).raw == yaml.load(text, Loader=yaml.SafeLoader)


MALFORMED_YAML = "name: broken\npumps: [{wavelength_nm: 1544.08}\n"


def test_malformed_scenario_file(tmp_path):
    path = tmp_path / "malformed.yaml"
    path.write_text(MALFORMED_YAML)
    with pytest.raises(ConfigError, match="malformed YAML"):
        load_scenario(path)


def test_empty_scenario_file(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    with pytest.raises(ConfigError):
        load_scenario(path)


def test_fringe_phases_cover_requested_range():
    sc = scenario_from_dict(minimal_dict(fringe={"phase_min": 0.0, "phase_max": 3.14, "steps": 11}))
    phases = sc.fringe.phases()
    assert phases.size == 11
    assert phases[0] == 0.0
    assert phases[-1] == pytest.approx(3.14)


def test_counts_at_their_limits_load():
    data = minimal_dict(grid={"points": scenario.MAX_GRID_POINTS}, fringe={"steps": scenario.MAX_FRINGE_STEPS})
    sc = scenario_from_dict(data)
    assert sc.grid().n_points == sc.grid(scenario.MAX_GRID_POINTS).n_points == 2001
    assert sc.fringe.steps == 10**6
    with pytest.raises(ConfigError, match="^grid points must be <= 2001, got 2002$"):
        sc.grid(2002)


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("pumps0", "wavelength_nm", float("nan")),
        ("pumps1", "linewidth_ghz", float("inf")),
        ("source", "length_mm", float("nan")),
        ("source", "beta2_s2_per_m", float("inf")),
        ("source", "length_mm", 10**400),
    ],
)
def test_non_finite_number_rejected(section, key, value):
    data = minimal_dict()
    target = data["pumps"][int(section[-1])] if section.startswith("pumps") else data[section]
    target[key] = value
    with pytest.raises(ConfigError, match=f"{key}: must be finite"):
        scenario_from_dict(data)


@pytest.mark.parametrize("key", ["q_factor", "fsr_nm", "resonance_nm", "detuning_p1_nm"])
def test_non_finite_ring_number_rejected(key):
    source = {"kind": "ring", "q_factor": 1.5e4, "fsr_nm": 3.025, "resonance_nm": 1550.12}
    source[key] = float("nan")
    with pytest.raises(ConfigError, match=f"source.{key}: must be finite"):
        scenario_from_dict(minimal_dict(source=source))


RING_SOURCE = {"kind": "ring", "q_factor": 1.5e4, "fsr_nm": 3.025, "resonance_nm": 1550.12}


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"source": {**RING_SOURCE, "pump_comb_index": 1.9}}, "pump_comb_index: expected an integer"),
        ({"source": {**RING_SOURCE, "pump_comb_index": 0}}, "pump_comb_index: must be >= 1"),
        ({"source": {**RING_SOURCE, "pump_comb_index": -2}}, "pump_comb_index: must be >= 1"),
        ({"grid": {"points": 401.7}}, "points: expected an integer"),
        ({"grid": {"points": 1}}, "points: must be >= 2"),
        ({"fringe": {"steps": 2.9}}, "steps: expected an integer"),
        ({"squeezing": {"eta": 2}}, r"eta: must be in \[0, 1\]"),
        ({"squeezing": {"xi": -1}}, "xi: must be >= 0"),
    ],
    ids=[
        "comb_index_1.9", "comb_index_0", "comb_index_-2", "points_401.7", "points_1",
        "steps_2.9", "eta_2", "xi_-1",
    ],
)
def test_values_are_not_coerced(extra, message):
    with pytest.raises(ConfigError, match=message):
        scenario_from_dict(minimal_dict(**extra))


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"pumps": [{"wavelength_nm": 1544.08, "shape": "square"}, {"wavelength_nm": 1556.18}]},
         r"pumps\[0\]: unknown pump shape 'square'"),
        ({"filter": {"center_nm": 1550.12, "bandwidth_nm": 0.8, "profile": "triangle"}},
         "filter: unknown filter profile 'triangle'"),
    ],
    ids=["pump_shape", "filter_profile"],
)
def test_domain_constructor_errors_are_config_errors(extra, message):
    with pytest.raises(ConfigError, match=message):
        scenario_from_dict(minimal_dict(**extra))


def test_scenario_path_that_is_a_directory(tmp_path):
    with pytest.raises(ConfigError, match="cannot read scenario file"):
        load_scenario(tmp_path)


def test_scenario_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.txt"  # not *.yaml: conftest reads those as UTF-8
    path.write_bytes("name: café\n".encode("latin-1"))
    with pytest.raises(ConfigError, match="cannot read scenario file"):
        load_scenario(path)


# Every key of every section, each with the scenario around it valid.
FULL_WAVEGUIDE = {
    "kind": "waveguide",
    "length_mm": 15.0,
    "beta2_s2_per_m": -1.5e-20,
    "beta3_s3_per_m": 0.0,
    "reference_wavelength_nm": 1550.12,
}
FULL_RING = {
    "kind": "ring",
    "q_factor": 1.5e4,
    "fsr_nm": 3.025,
    "resonance_nm": 1550.12,
    "pump_comb_index": 2,
    "detuning_p1_nm": 0.0,
    "detuning_p2_nm": 0.0,
}
DELETE = object()
NAN, INF, BIG = float("nan"), float("inf"), 10**400


def full_dict(kind):
    pump = {"linewidth_ghz": 80.0, "shape": "gaussian"}
    return {
        "name": "full",
        "pumps": [{"wavelength_nm": 1544.08, **pump}, {"wavelength_nm": 1556.18, **pump}],
        "source": dict(FULL_WAVEGUIDE if kind == "waveguide" else FULL_RING),
        "filter": {"center_nm": 1550.12, "bandwidth_nm": 0.8, "profile": "rectangle", "rolloff": 0.0},
        "grid": {"center_nm": 1550.12, "span_nm": 1.2, "points": 401},
        "fringe": {"phase_min": 0.0, "phase_max": 6.0, "steps": 181},
        "car": 170,
        "squeezing": {"xi": 0.1, "eta": 1.0},
    }


def edited(kind, edits):
    """``full_dict(kind)`` with ``edits`` applied (see ``apply_edits``)."""
    return apply_edits(full_dict(kind), edits)


def apply_edits(data, edits):
    """``data`` with each dotted path set to its value (or removed); "" is the whole."""
    for path, value in edits.items():
        if not path:
            data = value
            continue
        *parents, key = path.split(".")
        target = data
        for part in parents:
            target = target[int(part)] if isinstance(target, list) else target[part]
        if value is DELETE:
            del target[key]
        else:
            target[key] = copy.deepcopy(value)
    return data


def edits_id(edits):
    return ",".join(
        f"-{path}" if value is DELETE else f"{path}={str(value)[:12]}" for path, value in edits.items()
    )


# (source kind, edits, the full message), for each key and each way it can be wrong
ERROR_MESSAGES = [
    # the top level and its sections
    ("waveguide", {"": []}, "case: expected a mapping, got list"),
    ("waveguide", {"bogus": 1}, "case.bogus: unknown key"),
    ("waveguide", {"name": DELETE}, "case.name: missing required key"),
    ("waveguide", {"pumps": DELETE}, "case.pumps: missing required key"),
    ("waveguide", {"source": DELETE}, "case.source: missing required key"),
    ("waveguide", {"name": 5}, "case.name: expected a string"),
    ("waveguide", {"name": None}, "case.name: expected a string"),
    ("waveguide", {"pumps": {}}, "case.pumps: exactly two pump lines are required"),
    ("waveguide", {"pumps": [{"wavelength_nm": 1544.08}]},
     "case.pumps: exactly two pump lines are required"),
    ("waveguide", {"pumps": [1, {}]}, "case.pumps[0]: expected a mapping, got int"),
    ("waveguide", {"pumps": [{}, {}]}, "case.pumps[0].wavelength_nm: missing required key"),
    ("waveguide", {"source": "x"}, "case.source: expected a mapping, got str"),
    ("waveguide", {"source": {}}, "case.source.kind: must be 'waveguide' or 'ring', got None"),
    ("waveguide", {"source.kind": "fiber"},
     "case.source.kind: must be 'waveguide' or 'ring', got 'fiber'"),
    ("waveguide", {"source.kind": DELETE},
     "case.source.kind: must be 'waveguide' or 'ring', got None"),
    ("waveguide", {"source2": None}, "case.source2: expected a mapping, got NoneType"),
    ("waveguide", {"source2": {}}, "case.source2.kind: must be 'waveguide' or 'ring', got None"),
    ("waveguide", {"filter": []}, "case.filter: expected a mapping, got list"),
    ("waveguide", {"filter": None}, "case.filter: expected a mapping, got NoneType"),
    ("waveguide", {"filter": {}}, "case.filter.center_nm: missing required key"),
    ("waveguide", {"grid": None}, "case.grid: expected a mapping, got NoneType"),
    ("waveguide", {"fringe": "x"}, "case.fringe: expected a mapping, got str"),
    ("waveguide", {"squeezing": 1}, "case.squeezing: expected a mapping, got int"),
    ("waveguide", {"car": "x"}, "case.car: expected a number, got 'x'"),
    ("waveguide", {"car": True}, "case.car: expected a number, got True"),
    ("waveguide", {"car": None}, "case.car: expected a number, got None"),
    ("waveguide", {"car": NAN}, "case.car: must be finite, got nan"),
    ("waveguide", {"car": BIG}, f"case.car: must be finite, got {BIG}"),
    ("waveguide", {"car": 0}, "case.car: must be positive, got 0"),
    ("waveguide", {"car": -1.5}, "case.car: must be positive, got -1.5"),
    # a pump line
    ("waveguide", {"pumps.1.colour": "red"}, "case.pumps[1].colour: unknown key"),
    ("waveguide", {"pumps.1.wavelength_nm": DELETE},
     "case.pumps[1].wavelength_nm: missing required key"),
    ("waveguide", {"pumps.1.wavelength_nm": "x"},
     "case.pumps[1].wavelength_nm: expected a number, got 'x'"),
    ("waveguide", {"pumps.1.wavelength_nm": True},
     "case.pumps[1].wavelength_nm: expected a number, got True"),
    ("waveguide", {"pumps.1.wavelength_nm": None},
     "case.pumps[1].wavelength_nm: expected a number, got None"),
    ("waveguide", {"pumps.1.wavelength_nm": [1]},
     "case.pumps[1].wavelength_nm: expected a number, got [1]"),
    ("waveguide", {"pumps.1.wavelength_nm": NAN},
     "case.pumps[1].wavelength_nm: must be finite, got nan"),
    ("waveguide", {"pumps.1.wavelength_nm": INF},
     "case.pumps[1].wavelength_nm: must be finite, got inf"),
    ("waveguide", {"pumps.1.wavelength_nm": BIG},
     f"case.pumps[1].wavelength_nm: must be finite, got {BIG}"),
    ("waveguide", {"pumps.1.wavelength_nm": 0},
     "case.pumps[1].wavelength_nm: must be positive, got 0"),
    ("waveguide", {"pumps.1.wavelength_nm": -1.5},
     "case.pumps[1].wavelength_nm: must be positive, got -1.5"),
    ("waveguide", {"pumps.1.linewidth_ghz": "x"},
     "case.pumps[1].linewidth_ghz: expected a number, got 'x'"),
    ("waveguide", {"pumps.1.linewidth_ghz": NAN},
     "case.pumps[1].linewidth_ghz: must be finite, got nan"),
    ("waveguide", {"pumps.1.linewidth_ghz": -BIG},
     f"case.pumps[1].linewidth_ghz: must be finite, got {-BIG}"),
    ("waveguide", {"pumps.1.linewidth_ghz": 0},
     "case.pumps[1].linewidth_ghz: must be positive, got 0"),
    ("waveguide", {"pumps.1.shape": "square"}, "case.pumps[1]: unknown pump shape 'square'"),
    ("waveguide", {"pumps.1.shape": 1}, "case.pumps[1]: unknown pump shape 1"),
    ("waveguide", {"pumps.1.amplitude": 1.0}, "case.pumps[1].amplitude: unknown key"),
    # a waveguide source
    ("waveguide", {"source.q_factor": 15000.0}, "case.source.q_factor: unknown key"),
    ("waveguide", {"source.length_mm": DELETE}, "case.source.length_mm: missing required key"),
    ("waveguide", {"source.length_mm": "x"}, "case.source.length_mm: expected a number, got 'x'"),
    ("waveguide", {"source.length_mm": NAN}, "case.source.length_mm: must be finite, got nan"),
    ("waveguide", {"source.length_mm": BIG}, f"case.source.length_mm: must be finite, got {BIG}"),
    ("waveguide", {"source.length_mm": 0}, "case.source.length_mm: must be positive, got 0"),
    ("waveguide", {"source.length_mm": -1.5}, "case.source.length_mm: must be positive, got -1.5"),
    ("waveguide", {"source.reference_wavelength_nm": True},
     "case.source.reference_wavelength_nm: expected a number, got True"),
    ("waveguide", {"source.reference_wavelength_nm": INF},
     "case.source.reference_wavelength_nm: must be finite, got inf"),
    ("waveguide", {"source.reference_wavelength_nm": 0},
     "case.source.reference_wavelength_nm: must be positive, got 0"),
    ("waveguide", {"source.beta2_s2_per_m": "x"},
     "case.source.beta2_s2_per_m: expected a number, got 'x'"),
    ("waveguide", {"source.beta2_s2_per_m": INF},
     "case.source.beta2_s2_per_m: must be finite, got inf"),
    ("waveguide", {"source.beta3_s3_per_m": None},
     "case.source.beta3_s3_per_m: expected a number, got None"),
    ("waveguide", {"source.beta3_s3_per_m": NAN},
     "case.source.beta3_s3_per_m: must be finite, got nan"),
    # a ring source
    ("ring", {"source.length_mm": 15.0}, "case.source.length_mm: unknown key"),
    ("ring", {"source.q_factor": DELETE}, "case.source.q_factor: missing required key"),
    ("ring", {"source.fsr_nm": DELETE}, "case.source.fsr_nm: missing required key"),
    ("ring", {"source.resonance_nm": DELETE}, "case.source.resonance_nm: missing required key"),
    ("ring", {"source.q_factor": "x"}, "case.source.q_factor: expected a number, got 'x'"),
    ("ring", {"source.q_factor": NAN}, "case.source.q_factor: must be finite, got nan"),
    ("ring", {"source.q_factor": 0}, "case.source.q_factor: must be positive, got 0"),
    ("ring", {"source.fsr_nm": None}, "case.source.fsr_nm: expected a number, got None"),
    ("ring", {"source.fsr_nm": INF}, "case.source.fsr_nm: must be finite, got inf"),
    ("ring", {"source.fsr_nm": -1.5}, "case.source.fsr_nm: must be positive, got -1.5"),
    ("ring", {"source.resonance_nm": [1]}, "case.source.resonance_nm: expected a number, got [1]"),
    ("ring", {"source.resonance_nm": -INF}, "case.source.resonance_nm: must be finite, got -inf"),
    ("ring", {"source.resonance_nm": 0}, "case.source.resonance_nm: must be positive, got 0"),
    ("ring", {"source.resonance_nm": 1e-320},
     "case.source: center_wavelength must be finite and positive, got 0.0"),
    ("ring", {"source.pump_comb_index": 2.0},
     "case.source.pump_comb_index: expected an integer, got 2.0"),
    ("ring", {"source.pump_comb_index": 2.5},
     "case.source.pump_comb_index: expected an integer, got 2.5"),
    ("ring", {"source.pump_comb_index": True},
     "case.source.pump_comb_index: expected an integer, got True"),
    ("ring", {"source.pump_comb_index": "2"},
     "case.source.pump_comb_index: expected an integer, got '2'"),
    ("ring", {"source.pump_comb_index": 0}, "case.source.pump_comb_index: must be >= 1, got 0"),
    ("ring", {"source.pump_comb_index": -1}, "case.source.pump_comb_index: must be >= 1, got -1"),
    ("ring", {"source.pump_comb_index": 600},
     "case.source: the pump1 resonance must be at a positive wavelength, got -2.648800000000003e-07 m"),
    ("ring", {"source.detuning_p1_nm": "x"},
     "case.source.detuning_p1_nm: expected a number, got 'x'"),
    ("ring", {"source.detuning_p1_nm": NAN}, "case.source.detuning_p1_nm: must be finite, got nan"),
    ("ring", {"source.detuning_p2_nm": None},
     "case.source.detuning_p2_nm: expected a number, got None"),
    ("ring", {"source.detuning_p2_nm": BIG},
     f"case.source.detuning_p2_nm: must be finite, got {BIG}"),
    ("ring", {"source.detuning_p2_nm": -1600},
     "case.source: the pump2 resonance must be at a positive wavelength, got -4.383000000000031e-08 m"),
    # the filter
    ("waveguide", {"filter.width_nm": 0.8}, "case.filter.width_nm: unknown key"),
    ("waveguide", {"filter.center_nm": DELETE}, "case.filter.center_nm: missing required key"),
    ("waveguide", {"filter.bandwidth_nm": DELETE},
     "case.filter.bandwidth_nm: missing required key"),
    ("waveguide", {"filter.center_nm": "x"}, "case.filter.center_nm: expected a number, got 'x'"),
    ("waveguide", {"filter.center_nm": NAN}, "case.filter.center_nm: must be finite, got nan"),
    ("waveguide", {"filter.center_nm": 0}, "case.filter.center_nm: must be positive, got 0"),
    ("waveguide", {"filter.bandwidth_nm": False},
     "case.filter.bandwidth_nm: expected a number, got False"),
    ("waveguide", {"filter.bandwidth_nm": INF},
     "case.filter.bandwidth_nm: must be finite, got inf"),
    ("waveguide", {"filter.bandwidth_nm": -1.5},
     "case.filter.bandwidth_nm: must be positive, got -1.5"),
    ("waveguide", {"filter.profile": "triangle"}, "case.filter: unknown filter profile 'triangle'"),
    ("waveguide", {"filter.rolloff": "x"}, "case.filter.rolloff: expected a number, got 'x'"),
    ("waveguide", {"filter.rolloff": NAN}, "case.filter.rolloff: must be finite, got nan"),
    ("waveguide", {"filter.rolloff": 2}, "case.filter: rolloff must be in [0, 1], got 2.0"),
    ("waveguide", {"filter.rolloff": 0.5}, "case.filter: rolloff must be 0 for the rectangle profile, got 0.5"),
    # the grid
    ("waveguide", {"grid.step_nm": 0.01}, "case.grid.step_nm: unknown key"),
    ("waveguide", {"grid.center_nm": "x"}, "case.grid.center_nm: expected a number, got 'x'"),
    ("waveguide", {"grid.center_nm": NAN}, "case.grid.center_nm: must be finite, got nan"),
    ("waveguide", {"grid.center_nm": 0}, "case.grid.center_nm: must be positive, got 0"),
    ("waveguide", {"grid.span_nm": None}, "case.grid.span_nm: expected a number, got None"),
    ("waveguide", {"grid.span_nm": INF}, "case.grid.span_nm: must be finite, got inf"),
    ("waveguide", {"grid.span_nm": -1.5}, "case.grid.span_nm: must be positive, got -1.5"),
    ("waveguide", {"grid.span_nm": 5000},
     "case.grid: span too large: lower wavelength edge is non-positive"),
    ("waveguide", {"grid.points": 401.0}, "case.grid.points: expected an integer, got 401.0"),
    ("waveguide", {"grid.points": "401"}, "case.grid.points: expected an integer, got '401'"),
    ("waveguide", {"grid.points": True}, "case.grid.points: expected an integer, got True"),
    ("waveguide", {"grid.points": 1}, "case.grid.points: must be >= 2, got 1"),
    ("waveguide", {"grid.points": -1}, "case.grid.points: must be >= 2, got -1"),
    ("waveguide", {"grid.points": 2002}, "case.grid.points: must be <= 2001, got 2002"),
    ("waveguide", {"grid.points": 10**30}, f"case.grid.points: must be <= 2001, got {10**30}"),
    # the fringe scan
    ("waveguide", {"fringe.phases": 3}, "case.fringe.phases: unknown key"),
    ("waveguide", {"fringe.phase_min": "x"}, "case.fringe.phase_min: expected a number, got 'x'"),
    ("waveguide", {"fringe.phase_min": NAN}, "case.fringe.phase_min: must be finite, got nan"),
    ("waveguide", {"fringe.phase_max": None}, "case.fringe.phase_max: expected a number, got None"),
    ("waveguide", {"fringe.phase_max": -INF}, "case.fringe.phase_max: must be finite, got -inf"),
    ("waveguide", {"fringe.phase_max": 0.0}, "case.fringe: phase_max must exceed phase_min"),
    ("waveguide", {"fringe.steps": 2.0}, "case.fringe.steps: expected an integer, got 2.0"),
    ("waveguide", {"fringe.steps": 1}, "case.fringe.steps: must be >= 2, got 1"),
    ("waveguide", {"fringe.steps": 10**6 + 1}, "case.fringe.steps: must be <= 1000000, got 1000001"),
    ("waveguide", {"fringe.steps": 10**30}, f"case.fringe.steps: must be <= 1000000, got {10**30}"),
    # squeezing
    ("waveguide", {"squeezing.gain": 1}, "case.squeezing.gain: unknown key"),
    ("waveguide", {"squeezing.xi": "x"}, "case.squeezing.xi: expected a number, got 'x'"),
    ("waveguide", {"squeezing.xi": INF}, "case.squeezing.xi: must be finite, got inf"),
    ("waveguide", {"squeezing.xi": -1}, "case.squeezing.xi: must be >= 0, got -1.0"),
    ("waveguide", {"squeezing.eta": None}, "case.squeezing.eta: expected a number, got None"),
    ("waveguide", {"squeezing.eta": NAN}, "case.squeezing.eta: must be finite, got nan"),
    ("waveguide", {"squeezing.eta": 2}, "case.squeezing.eta: must be in [0, 1], got 2.0"),
    ("waveguide", {"squeezing.eta": -0.5}, "case.squeezing.eta: must be in [0, 1], got -0.5"),
    # two faults: the one met first in evaluation order is reported
    ("waveguide", {"bogus": 1, "name": DELETE}, "case.bogus: unknown key"),
    ("waveguide", {"name": DELETE, "pumps.0.wavelength_nm": "x"},
     "case.name: missing required key"),
    ("waveguide", {"name": 5, "pumps.0.wavelength_nm": "x"}, "case.name: expected a string"),
    ("waveguide", {"pumps.0.linewidth_ghz": 0, "pumps.1.wavelength_nm": "x"},
     "case.pumps[0].linewidth_ghz: must be positive, got 0"),
    ("waveguide", {"pumps.1.wavelength_nm": "x", "source.length_mm": 0},
     "case.pumps[1].wavelength_nm: expected a number, got 'x'"),
    ("waveguide", {"source.length_mm": 0, "source2": None},
     "case.source.length_mm: must be positive, got 0"),
    ("waveguide", {"source2": None, "filter.center_nm": "x"},
     "case.source2: expected a mapping, got NoneType"),
    ("waveguide", {"filter.rolloff": 2, "grid.points": 1},
     "case.filter: rolloff must be in [0, 1], got 2.0"),
    ("waveguide", {"grid.points": 1, "fringe.steps": 1}, "case.grid.points: must be >= 2, got 1"),
    ("waveguide", {"fringe.phase_max": 0.0, "car": 0},
     "case.fringe: phase_max must exceed phase_min"),
    ("waveguide", {"car": 0, "squeezing.eta": "x"}, "case.car: must be positive, got 0"),
    ("waveguide", {"pumps.0.colour": 1, "pumps.0.wavelength_nm": DELETE},
     "case.pumps[0].colour: unknown key"),
    ("waveguide", {"pumps.0.wavelength_nm": DELETE, "pumps.0.linewidth_ghz": "x"},
     "case.pumps[0].wavelength_nm: missing required key"),
    ("waveguide", {"source.beta2_s2_per_m": "x", "source.reference_wavelength_nm": "x"},
     "case.source.reference_wavelength_nm: expected a number, got 'x'"),
    ("waveguide", {"source.length_mm": "x", "source.reference_wavelength_nm": "x"},
     "case.source.length_mm: expected a number, got 'x'"),
    ("waveguide", {"source.kind": "fiber", "source.bogus": 1},
     "case.source.kind: must be 'waveguide' or 'ring', got 'fiber'"),
    ("ring", {"source.length_mm": 15.0, "source.q_factor": DELETE},
     "case.source.length_mm: unknown key"),
    ("ring", {"source.q_factor": 0, "source.pump_comb_index": 0},
     "case.source.q_factor: must be positive, got 0"),
    ("waveguide", {"filter.profile": "triangle", "filter.rolloff": "x"},
     "case.filter.rolloff: expected a number, got 'x'"),
    ("waveguide", {"grid.span_nm": 5000, "grid.points": 1},
     "case.grid.points: must be >= 2, got 1"),
    ("waveguide", {"fringe.phase_max": 0.0, "fringe.steps": 1},
     "case.fringe.steps: must be >= 2, got 1"),
    ("waveguide", {"squeezing.xi": -1, "squeezing.eta": "x"},
     "case.squeezing.eta: expected a number, got 'x'"),
    ("waveguide", {"squeezing.xi": -1, "squeezing.eta": 2},
     "case.squeezing.xi: must be >= 0, got -1.0"),
]


@pytest.mark.parametrize(
    "kind, edits, message",
    ERROR_MESSAGES,
    ids=[f"{kind}:{edits_id(edits)}" for kind, edits, _ in ERROR_MESSAGES],
)
def test_error_message(kind, edits, message):
    assert scenario_from_dict(full_dict(kind), name_hint="case")
    with pytest.raises(ConfigError) as info:
        scenario_from_dict(edited(kind, edits), name_hint="case")
    assert str(info.value) == message


DOCS = Path(__file__).resolve().parents[1] / "docs" / "scenarios.md"
SCHEMA = {
    "top": scenario._TOP,
    "pumps": scenario._PUMP,
    "waveguide": scenario._WAVEGUIDE,
    "ring": scenario._RING,
    "filter": scenario._FILTER,
    "grid": scenario._GRID,
    "fringe": scenario._FRINGE,
    "squeezing": scenario._SQUEEZING,
}
# "# required ...", "# optional, default <value> ..." or "# optional ..."
KEY_LINE = re.compile(
    r"^(?P<indent> *)(?:- )?(?P<key>\w+):(?P<value>[^#]*)"
    r"#\s*(?P<status>required|optional)(?:, default (?P<default>[^\s;,]+))?"
)


def test_documented_schema_matches_the_tables():
    # read line by line, not as YAML: the block shows both kinds of source under one key
    block = DOCS.read_text(encoding="utf-8").split("```yaml\n", 1)[1].split("```", 1)[0]
    documented = {name: set() for name in SCHEMA}
    section = None
    for line in block.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        match = KEY_LINE.match(line)
        assert match, f"no key with a required/optional comment: {line!r}"
        key = match["key"]
        if not match["indent"]:
            name, section = "top", key
        elif key == "kind":
            name = section = match["value"].strip()
        else:
            name = section
        row = SCHEMA[name].get(key)
        assert row is not None, f"{name}.{key} is documented but not in the schema"
        assert (match["status"] == "required") == (row.default is scenario._REQUIRED), key
        if match["default"] is not None:
            assert yaml.safe_load(match["default"]) == row.default, key
        elif match["status"] == "optional":  # a section whose keys carry the defaults, or none
            assert row.default in (None, {}), f"{key}: default {row.default} is not documented"
        documented[name].add(key)
    assert documented == {name: set(table) for name, table in SCHEMA.items()}


class Perturbation(NamedTuple):
    """A change to one key of a bundled scenario, made on ACT_POINTS grid points.

    ``condition`` is applied to both sides: the setting under which the key
    acts. A key that needs one, or that can only change with another key,
    is listed in the docs' "Keys with a conditional effect".
    """

    scenario: str
    edits: dict
    condition: dict = {}


WAVEGUIDE, RING = "sipic1_waveguide_15mm", "sipic1_ring"
ACT_POINTS = 121  # filter and grid edits move by more than one step, 0.01 nm (ring), 0.05 nm (waveguide)
PERTURBATIONS = {
    ("top", "name"): Perturbation(RING, {"name": "renamed"}),
    ("top", "pumps"): Perturbation(RING, {"pumps": [{"wavelength_nm": 1543.78}, {"wavelength_nm": 1556.53}]}),
    ("top", "source"): Perturbation(RING, {"source": {**RING_SOURCE, "q_factor": 3e4}}),
    ("top", "source2"): Perturbation(RING, {"source2": {**RING_SOURCE, "resonance_nm": 1550.135}}),
    ("top", "filter"): Perturbation(RING, {"filter": DELETE}),
    ("top", "grid"): Perturbation(RING, {"grid": {"span_nm": 1.0, "points": ACT_POINTS}}),
    ("top", "fringe"): Perturbation(RING, {"fringe": {"steps": 91}}),
    ("top", "car"): Perturbation(RING, {"car": 38}),
    ("top", "squeezing"): Perturbation(RING, {"squeezing": {"xi": 0.2}}),
    ("pumps", "wavelength_nm"): Perturbation(WAVEGUIDE, {"pumps.0.wavelength_nm": 1544.1}),
    ("pumps", "linewidth_ghz"): Perturbation(WAVEGUIDE, {"pumps.1.linewidth_ghz": 90.0}),
    ("pumps", "shape"): Perturbation(WAVEGUIDE, {"pumps.0.shape": "lorentzian"}),
    ("waveguide", "kind"): Perturbation(WAVEGUIDE, {"source": {**RING_SOURCE, "q_factor": 1e4}}),
    ("waveguide", "length_mm"): Perturbation(WAVEGUIDE, {"source.length_mm": 16.0}),
    ("waveguide", "reference_wavelength_nm"): Perturbation(
        WAVEGUIDE, {"source.reference_wavelength_nm": 1540.0}, {"source.beta3_s3_per_m": 1e-38}
    ),
    ("waveguide", "beta2_s2_per_m"): Perturbation(WAVEGUIDE, {"source.beta2_s2_per_m": -1.6e-20}),
    ("waveguide", "beta3_s3_per_m"): Perturbation(WAVEGUIDE, {"source.beta3_s3_per_m": 1e-38}),
    ("ring", "kind"): Perturbation(RING, {"source": FULL_WAVEGUIDE}),
    ("ring", "q_factor"): Perturbation(RING, {"source.q_factor": 1.6e4}),
    ("ring", "fsr_nm"): Perturbation(RING, {"source.fsr_nm": 3.03}),
    ("ring", "resonance_nm"): Perturbation(RING, {"source.resonance_nm": 1550.13}),
    ("ring", "pump_comb_index"): Perturbation(RING, {"source.pump_comb_index": 3}),
    ("ring", "detuning_p1_nm"): Perturbation(RING, {"source.detuning_p1_nm": 0.01}),
    ("ring", "detuning_p2_nm"): Perturbation(RING, {"source.detuning_p2_nm": 0.01}),
    ("filter", "center_nm"): Perturbation(RING, {"filter.center_nm": 1550.15}),
    ("filter", "bandwidth_nm"): Perturbation(RING, {"filter.bandwidth_nm": 0.9}),
    ("filter", "profile"): Perturbation(RING, {"filter.profile": "raised_cosine", "filter.rolloff": 0.5}),
    ("filter", "rolloff"): Perturbation(RING, {"filter.rolloff": 0.5}, {"filter.profile": "raised_cosine"}),
    ("grid", "center_nm"): Perturbation(RING, {"grid.center_nm": 1550.15}),
    ("grid", "span_nm"): Perturbation(RING, {"grid.span_nm": 1.0}),
    ("grid", "points"): Perturbation(RING, {"grid.points": ACT_POINTS + 20}),
    ("fringe", "phase_min"): Perturbation(RING, {"fringe.phase_min": 0.5}),
    ("fringe", "phase_max"): Perturbation(RING, {"fringe.phase_max": 5.0}),
    ("fringe", "steps"): Perturbation(RING, {"fringe.steps": 91}),
    ("squeezing", "xi"): Perturbation(RING, {"squeezing.xi": 0.2}),
    ("squeezing", "eta"): Perturbation(RING, {"squeezing.eta": 0.9}),
}
# every schema row, and every perturbation, so that a row without one and one without a row both fail
SCHEMA_ROWS = sorted({(name, key) for name, table in SCHEMA.items() for key in table} | set(PERTURBATIONS))


def perturbed_scenario(name, *edit_sets):
    """The bundled scenario ``name`` on ACT_POINTS points with each set of dotted-path edits applied."""
    data = apply_edits(copy.deepcopy(load_bundled(name).raw), {"grid.points": ACT_POINTS})
    for edits in edit_sets:
        data = apply_edits(data, edits)
    return scenario_from_dict(data, name_hint=name)


def verb_outputs(sc) -> dict:
    """What the verbs print or write for ``sc``, by name; the header without its hash,
    which changes with any key."""
    lam, jsi = pipeline.joint_intensity(sc)
    report, raw, norm = pipeline.fringe_report(sc)
    return {
        "header": header_line("jsi", sc).partition(" hash=")[0],
        "lambda_nm": lam,
        "jsi": jsi,
        **pipeline.purity_report(sc),
        "schmidt": pipeline.schmidt_spectrum(sc).significant(),
        **{f"fringe.{key}": value for key, value in report.items()},
        "phases": raw.phase_values,
        "p12_raw": raw.probabilities,
        "p12_norm": norm.probabilities,
        **{f"stats.{key}": value for key, value in pipeline.stats_report(sc).items()},
    }


def largest_move(before: dict, after: dict) -> float:
    """The largest change of an output relative to its size; inf where one appears, goes,
    changes shape or changes text. Outputs below 1e-6 on both sides are rounding floors
    here (a self-overlap's phase, the Schmidt tail) and are skipped."""
    worst = 0.0
    for name in before.keys() | after.keys():
        if name not in before or name not in after:
            return np.inf
        a, b = before[name], after[name]
        if isinstance(a, str):
            if a != b:
                return np.inf
            continue
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        if a.shape != b.shape:
            return np.inf
        scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0))
        if scale > 1e-6:
            worst = max(worst, float(np.abs(a - b).max()) / scale)
    return worst


def conditional_keys() -> str:
    """The docs' section on keys with a conditional effect."""
    return DOCS.read_text(encoding="utf-8").split("## Keys with a conditional effect", 1)[1].split("\n## ", 1)[0]


@pytest.mark.filterwarnings("ignore::biphoton.errors.RingDetuningWarning")  # pump_comb_index parks the pumps off comb
@pytest.mark.parametrize("row", SCHEMA_ROWS, ids=[f"{name}.{key}" for name, key in SCHEMA_ROWS])
def test_every_scenario_key_acts(row):
    name, key = row
    assert key in SCHEMA[name], f"{name}.{key} has a perturbation but is not in the schema"
    assert row in PERTURBATIONS, f"{name}.{key}: add a Perturbation under which it acts, or delete the row"
    case = PERTURBATIONS[row]
    if case.condition or len(case.edits) > 1:
        assert f"`{key}`" in conditional_keys(), f"{key} acts only under a condition the docs do not give"
    before = verb_outputs(perturbed_scenario(case.scenario, case.condition))
    after = verb_outputs(perturbed_scenario(case.scenario, case.condition, case.edits))
    assert largest_move(before, after) > 1e-9
