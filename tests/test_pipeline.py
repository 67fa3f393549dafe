"""The filtered JSA built on the filter passband only, against the whole-grid build."""
import copy
import dataclasses

import numpy as np
import pytest
import yaml

from biphoton import cli, pipeline, sources
from biphoton.cli import main
from biphoton.errors import ConfigError, DegenerateInputError
from biphoton.scenario import BUNDLED_SCENARIOS, load_bundled, load_scenario
from biphoton.schmidt import jsa_overlap, purity, schmidt_decompose
from biphoton.sources import MIN_SURVIVAL, JointSpectralAmplitude, RingSource, norm2_bound, sum_abs2
from biphoton.spectral import FilterSpec, omega_to_wavelength, sample_filter

import whole_grid

WAVEGUIDE = "sipic1_waveguide_15mm"
RING = "sipic1_ring"
# far in the 15 mm guide's tail: survival 2.5e-44 on the whole grid, so
# every filtered verb must fail, although the window alone looks healthy
TAIL_FILTER = {"center_nm": 1547.5, "bandwidth_nm": 1.5}
# closer in: survival about 8e-8, above MIN_SURVIVAL, but the window's
# bound cannot certify it, so the whole grid decides
FALLBACK_FILTER = {"center_nm": 1548.75, "bandwidth_nm": 1.5}


def with_filter(scenario, spec):
    return dataclasses.replace(scenario, filter_spec=spec)


def passband(scenario, n_points):
    """(lo, hi, grid): the filter passband's first and last scenario-grid index, and its sub-grid."""
    grid = scenario.grid(n_points)
    lo, hi = pipeline._passband_window(sample_filter(scenario.filter_spec, grid))
    return lo, hi, grid.sub_grid(lo, hi)


def cut_to_passband(scenario, n_points, jsa):
    """The values of a filtered whole-grid JSA on the passband; it is zero elsewhere."""
    lo, hi, _ = passband(scenario, n_points)
    cut = jsa.values[lo : hi + 1, lo : hi + 1]
    assert np.count_nonzero(cut) == np.count_nonzero(jsa.values)
    return cut


def on_passband(scenario, n_points, jsa):
    """A filtered whole-grid JSA, cut to the passband and renormalized there."""
    window = passband(scenario, n_points)[2]
    cut = cut_to_passband(scenario, n_points, jsa)
    values = cut / np.sqrt(sum_abs2(cut) * window.step * window.step)
    return JointSpectralAmplitude(window, values)


def assert_matches_whole_grid(scenario, n_points):
    """The windowed JSA, and a ring's survival from its factors, against the whole-grid build."""
    windowed = pipeline.build_jsa(scenario.with_points(n_points))
    reference, expected_survival = whole_grid.of_scenario(scenario, n_points)
    assert windowed.grid == passband(scenario, n_points)[2]
    expected = schmidt_decompose(reference).purity
    assert schmidt_decompose(windowed).purity == pytest.approx(expected, rel=1e-11, abs=0.0)
    cut = cut_to_passband(scenario, n_points, reference)
    scale = np.max(np.abs(cut))
    assert np.max(np.abs(windowed.values - cut)) <= 1e-9 * scale
    if isinstance(scenario.source, RingSource):  # one set of factors, so no node trim on the window
        block = on_passband(scenario, n_points, reference).values
        assert np.max(np.abs(windowed.values - block)) <= 1e-13 * np.max(np.abs(block))
        survival = pipeline.purity_report(scenario.with_points(n_points))["survival"]
        assert survival == pytest.approx(expected_survival, rel=1e-12, abs=0.0)
    return windowed


def scenario_file(tmp_path, name, filter_section):
    """A bundled scenario with another filter, on 201 points, written to a file."""
    raw = copy.deepcopy(load_bundled(name).raw)
    raw.update(name=f"{name}-variant", filter=filter_section)
    raw["grid"]["points"] = 201
    path = tmp_path / "variant.yaml"
    path.write_text(yaml.safe_dump(raw))
    return str(path)


def out_flag(tmp_path, verb):
    return ["--out", str(tmp_path / "out.csv")] if verb in ("jsi", "schmidt") else []


def waveguide_builds(monkeypatch, record=lambda source, grid: grid.n_points):
    """A list that gets ``record(source, grid)`` for every waveguide build: the
    filtered window and every whole-grid JSA run ``sources._waveguide_values``."""
    builds = []
    build = sources._waveguide_values

    def spy(pump1, pump2, source, grid):
        builds.append(record(source, grid))
        return build(pump1, pump2, source, grid)

    monkeypatch.setattr(sources, "_waveguide_values", spy)
    return builds


@pytest.mark.parametrize("n_points", [201, 401, 801])
@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_window_matches_whole_grid_on_bundled_scenarios(name, n_points):
    assert_matches_whole_grid(load_bundled(name), n_points)


@pytest.mark.parametrize("name", [WAVEGUIDE, RING])
def test_window_matches_whole_grid_with_raised_cosine(name):
    scenario = load_bundled(name)
    spec = dataclasses.replace(scenario.filter_spec, profile="raised_cosine", rolloff=0.5)
    assert_matches_whole_grid(with_filter(scenario, spec), 201)


@pytest.mark.parametrize("center_nm", [1549.62, 1550.62], ids=["short_edge", "long_edge"])
def test_window_matches_whole_grid_when_filter_overhangs_grid(center_nm):
    scenario = with_filter(load_bundled(RING), FilterSpec(center_nm * 1e-9, 0.8e-9))
    passed = np.flatnonzero(sample_filter(scenario.filter_spec, scenario.grid(201)))
    assert passed[0] == 0 or passed[-1] == 200  # the band runs off one end of the grid
    assert_matches_whole_grid(scenario, 201)


def one_point_filter(scenario, index, n_points):
    center = float(scenario.grid(n_points).wavelengths()[index])
    return with_filter(scenario, FilterSpec(center, 0.004e-9))


@pytest.mark.parametrize("index", [60, 100, 140])
def test_one_point_passband(index):
    scenario = one_point_filter(load_bundled(RING), index, 201)
    assert np.count_nonzero(sample_filter(scenario.filter_spec, scenario.grid(201))) == 1
    windowed = assert_matches_whole_grid(scenario, 201)
    lo = passband(scenario, 201)[0]
    assert windowed.values.shape == (2, 2)  # widened to 2 points
    assert np.count_nonzero(windowed.values) == 1
    assert windowed.values[index - lo, index - lo] != 0


@pytest.mark.parametrize("index, window", [(0, (0, 1)), (200, (199, 200))])
def test_one_point_passband_at_grid_end(index, window):
    # the window widens to 2 points inside the grid; this far from the
    # energy-conservation line both builds find survival below 1e-12
    scenario = one_point_filter(load_bundled(RING), index, 201)
    samples = sample_filter(scenario.filter_spec, scenario.grid(201))
    assert pipeline._passband_window(samples) == window
    with pytest.raises(DegenerateInputError, match="filter annihilates"):
        whole_grid.of_scenario(scenario, 201)
    with pytest.raises(DegenerateInputError, match="filter annihilates"):
        pipeline.build_jsa(scenario.with_points(201))
    with pytest.raises(DegenerateInputError, match="filter annihilates"):
        pipeline.purity_report(scenario.with_points(201))  # survival from the ring's factors


def test_bundled_window_needs_no_whole_grid_build(monkeypatch):
    sizes = waveguide_builds(monkeypatch)
    pipeline.build_jsa(load_bundled(WAVEGUIDE))
    assert sizes == [54]  # the 0.8 nm passband of the 401-point grid


def test_bundled_window_is_normalized_once(monkeypatch):
    # the window's raw values are filtered and then normalized on the passband, once
    calls = []
    normalize = sources._normalize

    def spy(grid, values, context):
        calls.append(grid.n_points)
        return normalize(grid, values, context)

    for module in (sources, pipeline):
        monkeypatch.setattr(module, "_normalize", spy)
    pipeline.build_jsa(load_bundled(WAVEGUIDE).with_points(401))
    assert calls == [54]


@pytest.mark.parametrize("verb", ["jsi", "purity", "schmidt", "fringe", "stats"])
def test_filter_without_grid_point_exits_three(tmp_path, capsys, verb):
    path = scenario_file(tmp_path, RING, {"center_nm": 1549.0, "bandwidth_nm": 0.01})
    argv = [verb, "--scenario", path] + out_flag(tmp_path, verb)
    assert main(argv) == 3
    assert "filter annihilates the joint spectrum" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["purity", "schmidt", "fringe", "stats"])
def test_tail_filter_exits_three_on_every_verb(tmp_path, capsys, verb):
    path = scenario_file(tmp_path, WAVEGUIDE, TAIL_FILTER)
    argv = [verb, "--scenario", path] + out_flag(tmp_path, verb)
    assert main(argv) == 3
    assert "filter annihilates the joint spectrum" in capsys.readouterr().err


def test_uncertified_window_falls_back_to_whole_grid(tmp_path, monkeypatch, capsys):
    scenario = load_scenario(scenario_file(tmp_path, WAVEGUIDE, FALLBACK_FILTER))
    reference, survival = whole_grid.of_scenario(scenario)
    assert 1e-12 <= survival <= 1e-6
    sizes = waveguide_builds(monkeypatch)
    windowed = pipeline.build_jsa(scenario)
    assert sizes[-1] == 201 and len(sizes) == 2  # the window, then the whole grid
    monkeypatch.undo()
    # bit for bit: the raw whole grid, filtered, cut to the passband and normalized there
    grid, samples = scenario.axis, sample_filter(scenario.filter_spec, scenario.axis)
    raw = whole_grid.raw(*scenario.pumps, scenario.source, grid) * (samples[:, None] * samples[None, :])
    cut = on_passband(scenario, None, JointSpectralAmplitude(grid, raw))
    assert windowed.grid == cut.grid
    assert np.array_equal(windowed.values, cut.values)
    # and the whole grid, filtered, normalized, cut and renormalized, to rounding
    old = on_passband(scenario, None, reference).values
    assert np.max(np.abs(windowed.values - old)) <= 1e-12 * np.max(np.abs(old))
    purity = schmidt_decompose(windowed).purity
    assert purity == pytest.approx(schmidt_decompose(reference).purity, rel=1e-12, abs=0.0)
    assert main(["stats", "--scenario", scenario_file(tmp_path, WAVEGUIDE, FALLBACK_FILTER)]) == 0
    assert "n_modes=" in capsys.readouterr().out


def test_source_pair_on_different_paths_shares_the_passband_grid(tmp_path, monkeypatch):
    # the 15 mm guide falls back to the whole grid; the 0.24 mm guide is certified on its window
    scenario = load_scenario(scenario_file(tmp_path, WAVEGUIDE, FALLBACK_FILTER))
    scenario = dataclasses.replace(scenario, source2=load_bundled("sipic1_waveguide_0p24mm").source)
    sizes = waveguide_builds(monkeypatch, lambda source, grid: (source.length, grid.n_points))
    jsa1 = pipeline.build_jsa(scenario)
    jsa2 = pipeline.build_jsa(dataclasses.replace(scenario, source=scenario.source2))
    monkeypatch.undo()
    short, long = scenario.source2.length, scenario.source.length
    assert sizes == [(long, 52), (long, 201), (short, 52)]
    assert jsa1.grid == jsa2.grid == passband(scenario, None)[2]
    overlap = pipeline.scenario_overlap(scenario)
    whole1, whole2 = (
        whole_grid.of_scenario(dataclasses.replace(scenario, source=source))[0]
        for source in (scenario.source, scenario.source2)
    )
    expected = jsa_overlap(whole1, whole2).magnitude
    assert overlap.magnitude == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert 0.0 < overlap.magnitude < 1.0


def test_purity_survival_is_the_whole_grid_survival():
    for name in (WAVEGUIDE, RING):
        scenario = load_bundled(name)
        report = pipeline.purity_report(scenario.with_points(201))
        expected = whole_grid.of_scenario(scenario, 201)[1]
        if name == WAVEGUIDE:  # the raw whole grid's filtered over unfiltered sum
            assert report["survival"] == expected
        # a ring's from its factors: the same sums, taken in another order
        assert report["survival"] == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert report["purity"] == pipeline.schmidt_spectrum(scenario.with_points(201)).purity


def test_fallback_purity_builds_the_whole_grid_once(tmp_path, monkeypatch):
    scenario = load_scenario(scenario_file(tmp_path, WAVEGUIDE, FALLBACK_FILTER))
    sizes = waveguide_builds(monkeypatch)
    report = pipeline.purity_report(scenario)
    monkeypatch.undo()
    assert sizes == [52, 201]  # the window, then the whole grid, which gives the survival too
    assert report["survival"] == whole_grid.of_scenario(scenario)[1]
    assert report["purity"] == pipeline.schmidt_spectrum(scenario).purity


@pytest.mark.parametrize("name", [WAVEGUIDE, "sipic1_waveguide_0p24mm", RING])
def test_filter_wider_than_grid_passes_everything_from_one_build(monkeypatch, name):
    # the whole band is the passband: one whole-grid evaluation, survival exactly 1
    scenario = load_bundled(name)
    scenario = with_filter(scenario, FilterSpec(scenario.filter_spec.center_wavelength, 8e-9))
    assert np.all(sample_filter(scenario.filter_spec, scenario.axis) == 1.0)
    sizes = waveguide_builds(monkeypatch)
    report = pipeline.purity_report(scenario)
    assert report["survival"] == 1.0
    assert sizes == ([] if name == RING else [401])


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_no_filter_is_the_all_pass_filter(name):
    scenario = with_filter(load_bundled(name), None).with_points(201)
    grid = scenario.axis
    assert grid.sub_grid(0, grid.n_points - 1) == grid
    expected = whole_grid.of_scenario(scenario)[0]
    jsa = pipeline.build_jsa(scenario)
    assert jsa.grid == expected.grid
    assert np.array_equal(jsa.values, expected.values)
    assert pipeline.purity_report(scenario)["survival"] == 1.0


def test_empty_passband_message_is_the_survival_check():
    with pytest.raises(DegenerateInputError) as empty:
        pipeline._passband_window(np.zeros(5))
    with pytest.raises(DegenerateInputError) as zero:
        sources._require_survival(0.0)
    assert str(empty.value) == str(zero.value) == "filter annihilates the joint spectrum (survival 0.000e+00)"


@pytest.mark.parametrize("filtered", [True, False])
def test_unsupported_source_type_is_a_config_error(filtered):
    scenario = dataclasses.replace(load_bundled(WAVEGUIDE), source=object())
    if not filtered:
        scenario = with_filter(scenario, None)
    with pytest.raises(ConfigError, match="^scenario source has unsupported type object$"):
        pipeline.build_jsa(scenario.with_points(201))


@pytest.mark.parametrize("flags", [[], ["--no-filter"]], ids=["filtered", "no_filter"])
@pytest.mark.parametrize("verb", ["jsi", "purity", "schmidt", "fringe", "stats"])
def test_unsupported_source_type_exits_two(tmp_path, monkeypatch, capsys, verb, flags):
    scenario = dataclasses.replace(load_bundled(WAVEGUIDE), source=object())
    monkeypatch.setattr(cli, "load_bundled", lambda name: scenario)
    argv = [verb, "--scenario", WAVEGUIDE, "--grid-points", "201"] + flags + out_flag(tmp_path, verb)
    assert main(argv) == 2
    assert capsys.readouterr().err == "config error: scenario source has unsupported type object\n"


@pytest.mark.parametrize("verb", ["purity", "schmidt", "jsi"])
def test_filtered_ring_request_evaluates_the_factors_once(tmp_path, monkeypatch, verb):
    grids = []

    def spy(pump1, pump2, ring, grid):
        grids.append(grid)
        return ring_factors(pump1, pump2, ring, grid)

    def no_bound(*args):
        raise AssertionError("a ring's survival comes from its factors, not from norm2_bound")

    ring_factors = sources._ring_factors
    monkeypatch.setattr(sources, "_ring_factors", spy)
    monkeypatch.setattr(sources, "norm2_bound", no_bound)
    assert main([verb, "--scenario", RING] + out_flag(tmp_path, verb)) == 0
    assert grids == [load_bundled(RING).grid()]  # once, on the scenario grid: no window, no fallback


def embedded_then_filtered(scenario, n_points):
    """The reference (decision, JSA). A waveguide's window build is embedded in
    the scenario grid, then filtered there if its filtered norm over the
    unfiltered norm's bound clears MIN_SURVIVAL, else the whole grid decides;
    a ring's JSA is built and filtered on the whole grid."""
    grid = scenario.grid(n_points)
    lo, hi, window = passband(scenario, n_points)
    ring = isinstance(scenario.source, RingSource)
    if not ring:
        values = np.zeros((grid.n_points, grid.n_points), dtype=complex)
        values[lo : hi + 1, lo : hi + 1] = sources._waveguide_values(*scenario.pumps, scenario.source, window)
        norm2 = sum_abs2(values) * window.step * window.step
        bound = norm2_bound(scenario.pumps[0], scenario.pumps[1], grid)
        try:
            embedded, survival = whole_grid.filtered(grid, values, scenario.filter_spec)
            if survival * norm2 >= MIN_SURVIVAL * bound:
                return "window", embedded
        except DegenerateInputError:
            pass
    try:
        return "factors" if ring else "whole grid", whole_grid.of_scenario(scenario, n_points)[0]
    except DegenerateInputError:
        return "exit 3", None


def block_filtered(scenario, n_points, monkeypatch):
    """(decision, JSA) of ``pipeline.build_jsa``, the decision read from the grids
    that the waveguide's values and the ring's factors were evaluated on."""
    grids = []

    def spy(evaluate):
        def run(pump1, pump2, source, grid):
            grids.append(grid)
            return evaluate(pump1, pump2, source, grid)

        return run

    monkeypatch.setattr(sources, "_waveguide_values", spy(sources._waveguide_values))
    monkeypatch.setattr(sources, "_ring_factors", spy(sources._ring_factors))
    try:
        out = pipeline.build_jsa(scenario.with_points(n_points))
    except DegenerateInputError:
        out = None
    finally:
        monkeypatch.undo()
    if out is None:
        return "exit 3", None
    window, whole = passband(scenario, n_points)[2], scenario.grid(n_points)
    if isinstance(scenario.source, RingSource):
        decisions = {(whole,): "factors"}
    else:
        decisions = {(window,): "window", (window, whole): "whole grid"}
    return decisions.get(tuple(grids), f"unexpected builds on {grids}"), out


def certified(scenario):
    """The decision of a bundled filter: rings use their factors, waveguides their window."""
    return "factors" if isinstance(scenario.source, RingSource) else "window"


def assert_block_filtering_decides_alike(scenario, n_points, monkeypatch, expected_decision):
    decision, out = block_filtered(scenario, n_points, monkeypatch)
    reference_decision, reference = embedded_then_filtered(scenario, n_points)
    assert decision == reference_decision == expected_decision
    if reference is not None:
        expected = schmidt_decompose(reference).purity
        assert schmidt_decompose(out).purity == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n_points", [201, 401, 801])
@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_block_filtering_matches_embedded_filtering(monkeypatch, name, n_points):
    scenario = load_bundled(name)
    assert_block_filtering_decides_alike(scenario, n_points, monkeypatch, certified(scenario))


@pytest.mark.parametrize("name", [WAVEGUIDE, RING])
def test_block_filtering_matches_embedded_filtering_with_raised_cosine(monkeypatch, name):
    scenario = load_bundled(name)
    spec = dataclasses.replace(scenario.filter_spec, profile="raised_cosine", rolloff=0.5)
    scenario = with_filter(scenario, spec)
    assert_block_filtering_decides_alike(scenario, 201, monkeypatch, certified(scenario))


@pytest.mark.parametrize(
    "filter_section, decision", [(FALLBACK_FILTER, "whole grid"), (TAIL_FILTER, "exit 3")]
)
def test_block_filtering_keeps_fallback_and_exit_three(tmp_path, monkeypatch, filter_section, decision):
    scenario = load_scenario(scenario_file(tmp_path, WAVEGUIDE, filter_section))
    assert_block_filtering_decides_alike(scenario, None, monkeypatch, decision)


@pytest.mark.parametrize("index", [0, 200])
def test_block_filtering_keeps_ring_exit_three(monkeypatch, index):
    scenario = one_point_filter(load_bundled(RING), index, 201)
    assert_block_filtering_decides_alike(scenario, 201, monkeypatch, "exit 3")


@pytest.mark.parametrize(
    "name, n_points, half_width", [(RING, 401, 13.5), (WAVEGUIDE, 201, 10.5), (WAVEGUIDE, 801, 10.5)]
)
def test_block_filtering_with_filter_edges_midway_between_grid_points(
    monkeypatch, name, n_points, half_width
):
    # both edges aimed at the midpoint of two grid points: rounding puts them
    # on either side, so the window's own points would snap them otherwise
    scenario = load_bundled(name)
    grid = scenario.grid(n_points)
    center = (n_points - 1) // 2
    lam_lo, lam_hi = (
        float(omega_to_wavelength(grid.omega_min + (center + sign * half_width) * grid.step))
        for sign in (1, -1)
    )
    spec = FilterSpec((lam_lo + lam_hi) / 2.0, lam_hi - lam_lo)
    scenario = with_filter(scenario, spec)
    lo, hi, window = passband(scenario, n_points)
    assert not np.array_equal(sample_filter(spec, window), sample_filter(spec, grid)[lo : hi + 1])
    assert_block_filtering_decides_alike(scenario, n_points, monkeypatch, certified(scenario))


def assert_purities_agree(scenario, n_points, table1_purity=None):
    """purity_report, the Schmidt spectrum's sum of r^2 and Tr rho^2 of the
    passband JSA agree; so does table1's purity, where given."""
    scenario = scenario.with_points(n_points)
    expected = pipeline.schmidt_spectrum(scenario).purity
    others = [pipeline.purity_report(scenario)["purity"]]
    others.append(purity(pipeline.build_jsa(scenario)))
    if table1_purity is not None:
        others.append(table1_purity)
    assert others == pytest.approx([expected] * len(others), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n_points", [201, 401, 801])
def test_table1_purity_matches_schmidt_spectrum(n_points):
    rows = pipeline.table1(n_points)
    for (_, name, _), (_, _, table1_purity, _) in zip(pipeline.TABLE1_ROWS, rows):
        assert_purities_agree(load_bundled(name), n_points, table1_purity)


def test_purities_agree_on_whole_grid_fallback(tmp_path):
    scenario = load_scenario(scenario_file(tmp_path, WAVEGUIDE, FALLBACK_FILTER))
    # the whole-grid fallback, cut to the same passband grid as a certified window
    assert pipeline.build_jsa(scenario).grid == passband(scenario, None)[2]
    assert_purities_agree(scenario, None)


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_stats_mode_count_matches_embedded_spectrum(name):
    # the reference decomposes the whole grid's filtered JSA, not the block stats_report reads
    scenario = load_bundled(name)
    reference = schmidt_decompose(on_passband(scenario, None, whole_grid.of_scenario(scenario)[0]))
    assert pipeline.stats_report(scenario)["n_modes"] == reference.significant().size
