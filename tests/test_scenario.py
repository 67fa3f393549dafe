from importlib import resources

import numpy as np
import pytest
import yaml

from biphoton import scenario
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


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("pumps0", "wavelength_nm", float("nan")),
        ("pumps1", "linewidth_ghz", float("inf")),
        ("pumps0", "amplitude", float("-inf")),
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
