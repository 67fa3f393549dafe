import copy
import dataclasses
import re
import warnings

import numpy as np
import pytest
import yaml

from biphoton import pipeline
from biphoton.cli import (
    build_jsa,
    cmd_fringe,
    cmd_jsi,
    cmd_purity,
    cmd_schmidt,
    cmd_stats,
    cmd_table1,
    main,
    read_jsi,
)
from biphoton.scenario import load_bundled

RING = "sipic1_ring"
N_SMALL = 61


def test_jsi_round_trips_bit_exactly(tmp_path):
    scenario = load_bundled(RING)
    path = tmp_path / "jsi.csv"
    cmd_jsi(scenario, str(path), n_points=N_SMALL)
    grid = read_jsi(str(path))
    _, reference = pipeline.joint_intensity(scenario.with_points(N_SMALL))
    assert grid.shape == (N_SMALL, N_SMALL)
    assert np.array_equal(grid, reference)


def test_jsi_header_carries_scenario_hash(tmp_path):
    scenario = load_bundled(RING)
    path = tmp_path / "jsi.csv"
    cmd_jsi(scenario, str(path), n_points=N_SMALL)
    head = path.read_text().splitlines()[0]
    assert head.startswith("# biphoton jsi schema=1")
    # the hash is of the request: the scenario on the grid it was computed on
    assert f" hash={scenario.with_points(N_SMALL).content_hash()}" in head
    assert scenario.name in head


@pytest.mark.parametrize("flags", [["--no-filter"], ["--grid-points", str(N_SMALL)]])
def test_header_hash_records_the_flags(tmp_path, flags):
    heads = []
    for extra in ([], flags):
        out = tmp_path / "jsi.csv"
        assert main(["jsi", "--scenario", RING, "--out", str(out), *extra]) == 0
        heads.append(out.read_text().splitlines()[0])
    assert heads[0] != heads[1]


def test_purity_report_fields():
    report = cmd_purity(load_bundled(RING), n_points=N_SMALL)
    assert set(report) == {"purity", "schmidt_tail", "survival"}
    assert 0.0 < report["purity"] <= 1.0
    assert 0.0 < report["survival"] <= 1.0


def test_schmidt_csv(tmp_path):
    path = tmp_path / "schmidt.csv"
    cmd_schmidt(load_bundled(RING), str(path), n_points=N_SMALL)
    lines = path.read_text().splitlines()
    assert lines[1] == "mode_index,coefficient"
    coeffs = [float(line.split(",")[1]) for line in lines[2:]]
    assert sum(coeffs) == pytest.approx(1.0, abs=1e-6)
    assert coeffs == sorted(coeffs, reverse=True)


def test_fringe_report_and_csv(tmp_path):
    path = tmp_path / "fringe.csv"
    report = cmd_fringe(load_bundled(RING), str(path), n_points=N_SMALL)
    # a single-source scenario interferes with itself: overlap 1
    assert report["overlap"] == pytest.approx(1.0, abs=1e-9)
    assert report["visibility"] == pytest.approx(1.0, abs=1e-9)
    assert "corrected_visibility" in report  # the scenario carries a CAR
    lines = path.read_text().splitlines()
    assert lines[2] == "phase_rad,p12_raw,p12_norm"
    first = lines[3].split(",")
    assert len(first) == 3


@pytest.mark.parametrize("second_source, builds", [(False, 1), (True, 2)])
def test_fringe_builds_one_jsa_per_source(monkeypatch, second_source, builds):
    scenario = load_bundled(RING)
    if second_source:
        detuned = dataclasses.replace(scenario.source, q_factor=0.9 * scenario.source.q_factor)
        scenario = dataclasses.replace(scenario, source2=detuned)
    calls = []

    def counting_build_jsa(*args, **kwargs):
        calls.append(args)
        return build_jsa(*args, **kwargs)

    monkeypatch.setattr(pipeline, "build_jsa", counting_build_jsa)
    report = cmd_fringe(scenario, n_points=N_SMALL)
    assert len(calls) == builds
    if second_source:
        assert report["overlap"] < 1.0


def test_stats_report():
    report = cmd_stats(load_bundled(RING), n_points=N_SMALL)
    assert 0.0 < report["trigger_probability"] < 1.0
    assert report["mean_photon_number"] > 0.0
    assert report["n_modes"] >= 1


def test_table1_is_deterministic():
    first = cmd_table1("csv", n_points=N_SMALL)
    second = cmd_table1("csv", n_points=N_SMALL)
    assert first == second
    lines = first.splitlines()
    assert lines[1] == "source,observed_visibility,simulated_purity,jsa_overlap"
    assert len(lines) == 7  # header comment + column row + five sources


def test_table1_text_format():
    text = cmd_table1("txt", n_points=N_SMALL)
    assert "Microrings (SiPIC-1)" in text
    assert "%" in text


def test_main_purity_exit_zero(capsys):
    assert main(["purity", "--scenario", RING, "--grid-points", str(N_SMALL)]) == 0
    out = capsys.readouterr().out
    assert "purity=" in out


def test_main_unknown_scenario_exits_two(capsys):
    assert main(["purity", "--scenario", "no-such-thing"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("points", ["0", "1", "-5"])
def test_main_grid_points_below_two_exits_two(capsys, points):
    assert main(["purity", "--scenario", RING, "--grid-points", points]) == 2
    assert "grid points must be >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["purity", "--scenario", RING], ["table1"]], ids=["purity", "table1"])
def test_main_grid_points_over_the_limit_exits_two(capsys, argv):
    assert main(argv + ["--grid-points", str(10**21)]) == 2
    assert capsys.readouterr().err == f"config error: grid points must be <= 2001, got {10**21}\n"


@pytest.mark.parametrize("car", ["0", "-1", "nan", "inf"])
def test_main_non_positive_or_non_finite_car_exits_two(capsys, car):
    argv = ["fringe", "--scenario", RING, "--grid-points", str(N_SMALL), f"--car={car}"]
    assert main(argv) == 2
    assert "--car: must be finite and positive" in capsys.readouterr().err


def test_main_jsi_requires_out(capsys):
    assert main(["jsi", "--scenario", RING]) == 2


def test_main_malformed_yaml_exits_two(tmp_path, capsys):
    path = tmp_path / "malformed.yaml"
    path.write_text("name: broken\npumps: [{wavelength_nm: 1544.08}\n")
    assert main(["purity", "--scenario", str(path)]) == 2
    assert "malformed YAML" in capsys.readouterr().err


def test_main_numeric_failure_exits_three(tmp_path, capsys):
    # a filter far outside the grid annihilates the joint spectrum
    path = tmp_path / "bad.yaml"
    path.write_text(
        "name: bad-filter\n"
        "pumps:\n"
        "  - {wavelength_nm: 1544.08}\n"
        "  - {wavelength_nm: 1556.18}\n"
        "source: {kind: ring, q_factor: 1.5e+4, fsr_nm: 3.025, resonance_nm: 1550.12}\n"
        "filter: {center_nm: 1549.0, bandwidth_nm: 0.01}\n"
        "grid: {span_nm: 1.2, points: 61}\n"
    )
    assert main(["purity", "--scenario", str(path)]) == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "pumps",
    [
        "  - {wavelength_nm: .nan}\n  - {wavelength_nm: 1556.18}\n",
        "  - {wavelength_nm: 1544.08, linewidth_ghz: .inf}\n  - {wavelength_nm: 1556.18}\n",
        "  - {wavelength_nm: 1544.08}\n  - {wavelength_nm: 1556.18, linewidth_ghz: .inf}\n",
    ],
)
def test_main_non_finite_value_exits_two(tmp_path, capsys, pumps):
    path = tmp_path / "non_finite.yaml"
    path.write_text(
        "name: non-finite\n"
        "pumps:\n" + pumps
        + "source: {kind: ring, q_factor: 1.5e+4, fsr_nm: 3.025, resonance_nm: 1550.12}\n"
        "grid: {span_nm: 1.2, points: 61}\n"
    )
    assert main(["purity", "--scenario", str(path)]) == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "verb, key",
    [("purity", "source.pump_comb_index"), ("stats", "grid.points"), ("fringe", "fringe.steps")],
)
def test_main_integer_beyond_float_range_exits_two(tmp_path, capsys, verb, key):
    data = {
        "name": "huge-integer",
        "pumps": [{"wavelength_nm": 1544.08}, {"wavelength_nm": 1556.18}],
        "source": {"kind": "ring", "q_factor": 1.5e4, "fsr_nm": 3.025, "resonance_nm": 1550.12},
        "grid": {"span_nm": 1.2, "points": 61},
    }
    section, name = key.split(".")
    data.setdefault(section, {})[name] = 10**400
    path = tmp_path / "huge.yaml"
    path.write_text(yaml.safe_dump(data))
    assert main([verb, "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: {path}.{key}: must be finite, got {10**400}\n"


@pytest.mark.parametrize(
    "verb, ring_keys, section, message",
    [
        # PyYAML's int() refuses it: "Exceeds the limit (4300 digits) ..."
        ("purity", f", pump_comb_index: 1{'0' * 5000}", "", "malformed YAML in {path}: Exceeds the limit"),
        ("purity", "", f"grid: {{points: {10**30}}}\n",
         f"{{path}}.grid.points: must be <= 2001, got {10**30}"),
        ("fringe", "", f"fringe: {{steps: {10**30}}}\n",
         f"{{path}}.fringe.steps: must be <= 1000000, got {10**30}"),
    ],
    ids=["5000_digits", "grid_points_1e30", "fringe_steps_1e30"],
)
def test_main_huge_integer_exits_two(tmp_path, capsys, verb, ring_keys, section, message):
    path = tmp_path / "huge.yaml"
    path.write_text(
        "name: huge\npumps:\n  - {wavelength_nm: 1544.08}\n  - {wavelength_nm: 1556.18}\n"
        f"source: {{kind: ring, q_factor: 1.5e+4, fsr_nm: 3.025, resonance_nm: 1550.12{ring_keys}}}\n" + section
    )
    assert main([verb, "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: " + message.format(path=path))
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize(
    "section, message",
    [
        ("filter: {center_nm: 1550.12, bandwidth_nm: 0.8, profile: raised_cosine, rolloff: 2}\n",
         r"filter: rolloff must be in \[0, 1\]"),
        ("filter: {center_nm: 1550.12, bandwidth_nm: 0.8, profile: raised_cosine, rolloff: -0.5}\n",
         r"filter: rolloff must be in \[0, 1\]"),
        # a rectangle has no taper: its rolloff is not ignored but refused
        ("filter: {center_nm: 1550.12, bandwidth_nm: 0.8, profile: rectangle, rolloff: 0.5}\n",
         r"filter: rolloff must be 0 for the rectangle profile, got 0\.5$"),
        ("grid: {span_nm: 5000, points: 61}\n", "grid: span too large"),
        # 1e-320 nm is positive but underflows to a 0 m resonance
        ("source2: {kind: ring, q_factor: 1.5e+4, fsr_nm: 3.025, resonance_nm: 1.0e-320}\n",
         "source2: center_wavelength must be finite and positive"),
        # 1e-300 nm is positive, but its angular frequency overflows
        ("source2: {kind: waveguide, length_mm: 1.0, reference_wavelength_nm: 1.0e-300}\n",
         "source2: reference_wavelength must be finite and positive"),
        # 600 FSRs below 1550.12 nm is -265 nm
        ("source2: {kind: ring, q_factor: 1.5e+4, fsr_nm: 3.025, resonance_nm: 1550.12, pump_comb_index: 600}\n",
         "source2: the pump1 resonance must be at a positive wavelength"),
        ("source2: {kind: ring, q_factor: 1.5e+4, fsr_nm: 3.025, resonance_nm: 1550.12, detuning_p2_nm: -1600}\n",
         "source2: the pump2 resonance must be at a positive wavelength"),
    ],
    ids=[
        "rolloff_2", "rolloff_-0.5", "rolloff_rectangle", "span_5000", "resonance_underflow",
        "reference_overflow", "pump1_negative", "pump2_negative",
    ],
)
def test_main_domain_constructor_error_exits_two(tmp_path, capsys, section, message):
    path = tmp_path / "bad_domain.yaml"
    path.write_text(
        "name: bad-domain\n"
        "pumps:\n"
        "  - {wavelength_nm: 1544.08}\n"
        "  - {wavelength_nm: 1556.18}\n"
        "source: {kind: ring, q_factor: 1.5e+4, fsr_nm: 3.025, resonance_nm: 1550.12}\n"
        + section
    )
    assert main(["purity", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert re.search(message, err)


def test_main_under_resolved_ring_exits_three(tmp_path, capsys):
    path = tmp_path / "high_q.yaml"
    path.write_text(
        "name: high-q\n"
        "pumps:\n"
        "  - {wavelength_nm: 1544.08}\n"
        "  - {wavelength_nm: 1556.18}\n"
        "source: {kind: ring, q_factor: 1.0e+7, fsr_nm: 3.025, resonance_nm: 1550.12}\n"
        "grid: {span_nm: 1.2, points: 401}\n"
    )
    assert main(["purity", "--scenario", str(path)]) == 3
    assert "below 2 grid steps" in capsys.readouterr().err


def test_main_scenario_from_file(tmp_path, capsys):
    path = tmp_path / "ok.yaml"
    path.write_text(
        "name: ok\n"
        "pumps:\n"
        "  - {wavelength_nm: 1544.08}\n"
        "  - {wavelength_nm: 1556.18}\n"
        "source: {kind: ring, q_factor: 1.5e+4, fsr_nm: 3.025, resonance_nm: 1550.12}\n"
        "grid: {span_nm: 1.2, points: 61}\n"
    )
    assert main(["purity", "--scenario", str(path)]) == 0


def test_no_filter_flag_changes_result(capsys):
    scenario = load_bundled("sipic1_waveguide_15mm")
    with_filter = cmd_purity(scenario, n_points=101)
    without = cmd_purity(dataclasses.replace(scenario, filter_spec=None), n_points=101)
    assert with_filter["purity"] != without["purity"]
    assert without["survival"] == 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ["purity", "--scenario", RING, "--car", "5"],
        ["purity", "--scenario", RING, "--out", "x.csv"],
        ["purity", "--scenario", RING, "--format", "csv"],
        ["stats", "--scenario", RING, "--out", "x.csv"],
        ["stats", "--scenario", RING, "--car", "5"],
        ["jsi", "--scenario", RING, "--out", "x.csv", "--car", "5"],
        ["schmidt", "--scenario", RING, "--out", "x.csv", "--format", "csv"],
        ["fringe", "--scenario", RING, "--format", "csv"],
        ["table1", "--scenario", RING],
        ["table1", "--no-filter"],
        ["table1", "--out", "x.csv"],
    ],
    ids=lambda argv: "_".join(a.lstrip("-") for a in argv if a != RING),
)
def test_main_rejects_flags_the_verb_does_not_use(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_main_stats_overflow_exits_three(tmp_path, capsys):
    path = tmp_path / "strong.yaml"
    path.write_text(
        "name: strong-squeezing\n"
        "pumps:\n"
        "  - {wavelength_nm: 1544.08}\n"
        "  - {wavelength_nm: 1556.18}\n"
        "source: {kind: ring, q_factor: 1.5e+4, fsr_nm: 3.025, resonance_nm: 1550.12}\n"
        "filter: {center_nm: 1550.12, bandwidth_nm: 0.8}\n"
        "grid: {span_nm: 1.2, points: 61}\n"
        "squeezing: {xi: 1000.0, eta: 0.5}\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["stats", "--scenario", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "mean_photon_number is not finite" in captured.err
    assert "Warning" not in captured.err


def test_main_stats_without_transmission_exits_zero(tmp_path, capsys):
    path = tmp_path / "dark.yaml"
    path.write_text(
        "name: no-transmission\n"
        "pumps:\n"
        "  - {wavelength_nm: 1544.08}\n"
        "  - {wavelength_nm: 1556.18}\n"
        "source: {kind: ring, q_factor: 1.5e+4, fsr_nm: 3.025, resonance_nm: 1550.12}\n"
        "filter: {center_nm: 1550.12, bandwidth_nm: 0.8}\n"
        "grid: {span_nm: 1.2, points: 61}\n"
        "squeezing: {xi: 20.0, eta: 0.0}\n"
    )
    assert main(["stats", "--scenario", str(path)]) == 0
    out = capsys.readouterr().out
    assert "mean_photon_number=0" in out
    assert "trigger_probability=0" in out


@pytest.mark.parametrize("verb", ["jsi", "schmidt", "fringe"])
@pytest.mark.parametrize("target", ["missing_dir", "directory"])
def test_main_unwritable_out_exits_two(tmp_path, capsys, verb, target):
    out = tmp_path / "missing" / "x.csv" if target == "missing_dir" else tmp_path
    argv = [verb, "--scenario", RING, "--grid-points", str(N_SMALL), "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config error: cannot write {out}" in captured.err


@pytest.mark.parametrize("kind", ["directory", "non_utf8"])
def test_main_unreadable_scenario_exits_two(tmp_path, capsys, kind):
    path = tmp_path
    if kind == "non_utf8":
        path = tmp_path / "latin1.txt"  # not *.yaml: conftest reads those as UTF-8
        path.write_bytes("name: café\n".encode("latin-1"))
    assert main(["purity", "--scenario", str(path)]) == 2
    assert "cannot read scenario file" in capsys.readouterr().err


# a CLI flag and the scenario-file edit that asks for the same request
FLAG_EDITS = {
    "no_filter": (["--no-filter"], lambda raw: raw.pop("filter")),
    "grid_points": (["--grid-points", "201"], lambda raw: raw["grid"].update(points=201)),
    "car": (["--car", "50"], lambda raw: raw.update(car=50)),
}
VERBS = ("jsi", "purity", "schmidt", "fringe", "stats")
FLAG_CASES = [(verb, flag) for verb in VERBS for flag in ("no_filter", "grid_points")] + [("fringe", "car")]


@pytest.mark.parametrize("name", [RING, "sipic1_waveguide_0p24mm"])
@pytest.mark.parametrize("verb, flag", FLAG_CASES)
def test_flag_and_scenario_file_agree(tmp_path, capsys, name, verb, flag):
    flags, edit = FLAG_EDITS[flag]
    raw = copy.deepcopy(load_bundled(name).raw)
    edit(raw)
    path = tmp_path / "edited.yaml"
    path.write_text(yaml.safe_dump(raw))
    out = tmp_path / "out.csv"
    results = []
    for argv in ([verb, "--scenario", name] + flags, [verb, "--scenario", str(path)]):
        if verb in ("jsi", "schmidt", "fringe"):
            argv += ["--out", str(out)]
        assert main(argv) == 0
        # the header's hash is of the request, so it agrees too
        written = out.read_text() if out.exists() else None
        results.append((capsys.readouterr(), written))
        out.unlink(missing_ok=True)
    assert results[0] == results[1]
