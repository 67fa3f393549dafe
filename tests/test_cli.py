import dataclasses

import numpy as np
import pytest

from biphoton import cli
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
from biphoton.sources import jsi

RING = "sipic1_ring"
N_SMALL = 61


def test_jsi_round_trips_bit_exactly(tmp_path):
    scenario = load_bundled(RING)
    path = tmp_path / "jsi.csv"
    cmd_jsi(scenario, str(path), n_points=N_SMALL)
    grid = read_jsi(str(path))
    reference = jsi(build_jsa(scenario, n_points=N_SMALL))
    assert grid.shape == (N_SMALL, N_SMALL)
    assert np.array_equal(grid, reference)


def test_jsi_header_carries_scenario_hash(tmp_path):
    scenario = load_bundled(RING)
    path = tmp_path / "jsi.csv"
    cmd_jsi(scenario, str(path), n_points=N_SMALL)
    head = path.read_text().splitlines()[0]
    assert head.startswith("# biphoton jsi schema=1")
    assert scenario.content_hash() in head
    assert scenario.name in head


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

    monkeypatch.setattr(cli, "build_jsa", counting_build_jsa)
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


def test_main_jsi_requires_out(capsys):
    assert main(["jsi", "--scenario", RING]) == 2


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
    with_filter = cmd_purity(scenario, n_points=101, filtered=True)
    without = cmd_purity(scenario, n_points=101, filtered=False)
    assert with_filter["purity"] != without["purity"]
    assert without["survival"] == 1.0
