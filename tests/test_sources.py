from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
import yaml

from biphoton import pipeline, sources
from biphoton.dispersion import DispersionModel, k_of_omega
from biphoton.errors import (
    DegenerateInputError,
    GridMismatchError,
    InvalidArgumentError,
    RingDetuningWarning,
    UnderResolvedError,
)
from biphoton.sources import JointSpectralAmplitude, RingSource, WaveguideSource
from biphoton.scenario import BUNDLED_SCENARIOS, load_bundled, scenario_from_dict
from biphoton.spectral import (
    FilterSpec,
    FrequencyGrid,
    PumpLine,
    make_grid,
    pump_amplitude,
    sample_filter,
    wavelength_to_omega,
)

import whole_grid
from oracles import naive_ring_jsa, naive_waveguide_jsa

W0 = float(wavelength_to_omega(1550.12e-9))
GHZ = 2 * np.pi * 1e9


def pumps():
    return (
        PumpLine(1544.08e-9, 80 * GHZ),
        PumpLine(1556.18e-9, 80 * GHZ),
    )


def waveguide():
    return WaveguideSource(
        length=0.015,
        dispersion=DispersionModel(reference_omega=W0, beta2=-1.5e-20, beta3=0.0),
    )


def ring():
    return RingSource(q_factor=1.5e4, fsr=3.025e-9, center_wavelength=1550.12e-9)


def whole_band(pump1, pump2, source, grid, samples=None):
    """(values, survival) of the package's filtered block on every point of ``grid``; all-pass by default."""
    samples = np.ones(grid.n_points) if samples is None else samples
    return pipeline._builders(source)(pump1, pump2, source, grid, samples, 0, grid.n_points - 1)


def test_waveguide_jsa_is_unit_normalized():
    p1, p2 = pumps()
    out, _ = whole_grid.jsa(p1, p2, waveguide(), make_grid(1550.12e-9, 6e-9, 61))
    assert out.norm_squared() == pytest.approx(1.0, abs=1e-10)


def test_ring_jsa_is_unit_normalized():
    p1, p2 = pumps()
    out, _ = whole_grid.jsa(p1, p2, ring(), make_grid(1550.12e-9, 1.2e-9, 61))
    assert out.norm_squared() == pytest.approx(1.0, abs=1e-10)


# Oracle comparisons use max|fast - slow| / max|slow|: every entry of a
# unit-L2 JSA is tiny in absolute terms, so an absolute bound passes
# anything. A JSA shifted by one row scores about 1.
WAVEGUIDE_ORACLE_TOL = 1e-9
RING_ORACLE_TOL = 1e-10


def oracle_error(fast, slow):
    return float(np.max(np.abs(fast.values - slow)) / np.max(np.abs(slow)))


def lorentzian_pumps():
    return tuple(replace(p, shape="lorentzian") for p in pumps())


def test_waveguide_matches_naive_quadrature(oracle_quadrature):
    p1, p2 = pumps()
    grid = make_grid(1550.12e-9, 4e-9, 17)
    fast, _ = whole_grid.jsa(p1, p2, waveguide(), grid)
    slow = naive_waveguide_jsa(p1, p2, waveguide(), grid, **oracle_quadrature)
    assert oracle_error(fast, slow) <= WAVEGUIDE_ORACLE_TOL


def test_ring_matches_naive_quadrature(oracle_quadrature):
    p1, p2 = pumps()
    grid = make_grid(1550.12e-9, 0.8e-9, 21)
    fast, _ = whole_grid.jsa(p1, p2, ring(), grid)
    slow = naive_ring_jsa(p1, p2, ring(), grid, **oracle_quadrature)
    assert oracle_error(fast, slow) <= RING_ORACLE_TOL


@pytest.mark.parametrize(
    "case, pump_pair, source, n_points",
    [
        ("even_n", pumps(), waveguide(), 16),
        ("short_0p24mm", pumps(), WaveguideSource(0.24e-3, DispersionModel(W0, beta2=-2e-24)), 17),
        ("beta3", pumps(), WaveguideSource(0.015, DispersionModel(W0, beta2=-1.5e-20, beta3=4e-33)), 17),
        ("lorentzian_pump", lorentzian_pumps(), waveguide(), 18),
        # 1 um long: |x| = L|dk|/2 stays below the 1e-4 cutoff of the series branch
        ("series_branch", pumps(), WaveguideSource(1e-6, DispersionModel(W0, beta2=-2e-24)), 17),
    ],
)
def test_waveguide_oracle_cases(oracle_quadrature, case, pump_pair, source, n_points):
    grid = make_grid(1550.12e-9, 4e-9, n_points)
    fast, _ = whole_grid.jsa(*pump_pair, source, grid)
    slow = naive_waveguide_jsa(*pump_pair, source, grid, **oracle_quadrature)
    assert oracle_error(fast, slow) <= WAVEGUIDE_ORACLE_TOL, case


SHORT_GUIDE = WaveguideSource(0.24e-3, DispersionModel(W0, beta2=-2e-24))


def series_fraction(pump1, source, grid):
    """Fraction of (node, ws, wi) kernel entries with |x| below the series cutoff."""
    nodes, _ = sources._pump_quadrature(pump1)
    w = grid.points()
    k = lambda omega: k_of_omega(source.dispersion, omega)  # noqa: E731
    sums = w[:, None] + w[None, :]
    x = (k(w)[:, None] + k(w)[None, :]) - (k(nodes)[:, None, None] + k(sums - nodes[:, None, None]))
    return float(np.mean(np.abs(source.length / 2.0 * x) < sources.SINC_SERIES_CUTOFF))


@pytest.mark.parametrize(
    "case, pump_pair, source",
    [
        ("gaussian", pumps(), waveguide()),
        ("lorentzian_pump", lorentzian_pumps(), waveguide()),
        ("beta3", pumps(), WaveguideSource(0.015, DispersionModel(W0, beta2=-1.5e-20, beta3=4e-33))),
        ("series_branch", pumps(), SHORT_GUIDE),
    ],
)
def test_waveguide_node_blocks_agree(monkeypatch, case, pump_pair, source):
    # 31 points: 496 pairs, so the default block holds 66 of the 257 nodes
    grid = make_grid(1550.12e-9, 4e-9, 31)
    if case == "series_branch":
        assert 0.0 < series_fraction(pump_pair[0], source, grid) < 0.1
    default = sources._waveguide_values(*pump_pair, source, grid)
    scale = np.max(np.abs(default))
    for entries in (1, 1 << 40):  # one node per block, all nodes in one block
        monkeypatch.setattr(sources, "_BLOCK_ENTRIES", entries)
        values = sources._waveguide_values(*pump_pair, source, grid)
        assert np.max(np.abs(values - default)) <= 1e-13 * scale, (case, entries)
        assert np.array_equal(values, values.T)


@pytest.mark.parametrize(
    "case, pump_pair, source, n_points",
    [
        ("even_n", pumps(), ring(), 24),
        ("lorentzian_pump", lorentzian_pumps(), ring(), 21),
        # pump-1 resonance moved by three of its linewidths
        ("detuned", pumps(), replace(ring(), detuning_p1=3 * ring().resonance("pump1").fwhm), 21),
    ],
)
def test_ring_oracle_cases(oracle_quadrature, case, pump_pair, source, n_points):
    grid = make_grid(1550.12e-9, 0.8e-9, n_points)
    fast, _ = whole_grid.jsa(*pump_pair, source, grid)
    slow = naive_ring_jsa(*pump_pair, source, grid, **oracle_quadrature)
    assert oracle_error(fast, slow) <= RING_ORACLE_TOL, case


@pytest.mark.parametrize("n_points", [201, 401, 801])
@pytest.mark.parametrize("name", ["sipic1_ring", "sipic2_ring"])
def test_ring_jsa_is_the_mirrored_triangle_of_its_factors(name, n_points):
    sc = load_bundled(name)
    grid = sc.grid(n_points)
    values = whole_grid.jsa(*sc.pumps, sc.source, grid)[0].values
    assert np.array_equal(values, values.T)
    # h[s + i] * l[s] * l[i] on s <= i, mirrored, from the same factors
    h, lor = sources._ring_factors(*sc.pumps, sc.source, grid)
    s, i = np.triu_indices(n_points)
    reference = np.empty((n_points, n_points), dtype=complex)
    reference[s, i] = reference[i, s] = lor[s] * lor[i] * h[s + i]
    reference /= np.sqrt(np.sum(np.abs(reference) ** 2) * grid.step**2)
    assert np.max(np.abs(values - reference)) <= 1e-13 * np.max(np.abs(reference))


@pytest.mark.parametrize("name", ["sipic1_waveguide_15mm", "sipic2_waveguide_15mm"])
def test_dispersionless_waveguide_is_the_closed_form_pump_convolution(name):
    # beta2 = beta3 = 0 makes the kernel 1, and two Gaussian pumps of width
    # sigma convolve to exp(-(S/2 - mean pump)^2 / sigma^2) on S = ws + wi
    data = yaml.safe_load(resources.files("biphoton.scenarios").joinpath(f"{name}.yaml").read_text())
    data["source"].update(beta2_s2_per_m=0.0, beta3_s3_per_m=0.0)
    sc = scenario_from_dict(data, name)
    p1, p2 = sc.pumps
    assert p1.linewidth_fwhm == p2.linewidth_fwhm
    grid = sc.grid(201)
    values = whole_grid.jsa(p1, p2, sc.source, grid)[0].values
    sigma = p1.linewidth_fwhm / (2.0 * np.sqrt(2.0 * np.log(2.0)))
    w = grid.points()
    half_sum = (w[:, None] + w[None, :]) / 2.0
    exact = np.exp(-(((half_sum - (p1.center_omega + p2.center_omega) / 2.0) / sigma) ** 2))
    exact /= np.sqrt(np.sum(exact**2) * grid.step**2)
    assert np.max(np.abs(values - exact)) <= 1e-11 * np.max(exact)


def all_node_product(pump1, pump2, grid):
    """``sources._pump_product`` on every quadrature node, none dropped."""
    nodes, weights = sources._pump_quadrature(pump1)
    sums = 2.0 * grid.omega_min + np.arange(2 * grid.n_points - 1) * grid.step
    product = pump_amplitude(pump2, sums[None, :] - nodes[:, None])
    product *= (weights * pump_amplitude(pump1, nodes))[:, None]
    return nodes, sums, product


BETA3_GUIDE = WaveguideSource(0.015, DispersionModel(W0, beta2=-1.5e-20, beta3=4e-33))
SERIES_GUIDE = WaveguideSource(1e-6, DispersionModel(W0, beta2=-2e-24))


@pytest.mark.parametrize(
    "case, naive, tol, source, span, n_points",
    [
        ("beta3", naive_waveguide_jsa, WAVEGUIDE_ORACLE_TOL, BETA3_GUIDE, 4e-9, 16),
        ("series_branch", naive_waveguide_jsa, WAVEGUIDE_ORACLE_TOL, SERIES_GUIDE, 4e-9, 16),
        ("ring", naive_ring_jsa, RING_ORACLE_TOL, ring(), 0.8e-9, 21),
    ],
)
def test_node_trim_matches_every_node_at_default_quadrature(monkeypatch, case, naive, tol, source, span, n_points):
    # 16 nodes per FWHM over +-8 FWHM: 257 nodes, of which these Gaussian pumps keep 106-125
    grid = make_grid(1550.12e-9, span, n_points)
    fast, _ = whole_grid.jsa(*pumps(), source, grid)
    assert sources._pump_product(*pumps(), grid)[0].size <= 125, case
    assert oracle_error(fast, naive(*pumps(), source, grid)) <= tol, case
    # the same kernel on all 257 nodes: the dropped ones are below the rounding
    monkeypatch.setattr(sources, "_pump_product", all_node_product)
    every = whole_grid.jsa(*pumps(), source, grid)[0].values
    assert np.max(np.abs(fast.values - every)) <= 1e-13 * np.max(np.abs(every)), case


@pytest.mark.parametrize("points_per_fwhm, halfwidth_fwhms", [(8, 4.0), (16, 8.0), (32, 8.0)])
@pytest.mark.parametrize("name", ["sipic1_waveguide_0p24mm", "sipic1_ring"])
def test_norm2_bound_follows_the_quadrature(monkeypatch, points_per_fwhm, halfwidth_fwhms, name):
    # the survival certificate and the builders read the same quadrature constants
    monkeypatch.setattr(sources, "POINTS_PER_FWHM", points_per_fwhm)
    monkeypatch.setattr(sources, "HALFWIDTH_FWHMS", halfwidth_fwhms)
    sc = load_bundled(name)
    grid = sc.grid(201)
    raw = whole_grid.raw(*sc.pumps, sc.source, grid)
    assert sources.sum_abs2(raw) * grid.step * grid.step <= sources.norm2_bound(*sc.pumps, grid)


def test_lorentzian_pumps_keep_every_node():
    nodes, _, _ = sources._pump_product(*lorentzian_pumps(), make_grid(1550.12e-9, 4e-9, 54))
    assert nodes.size == 257


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_bundled_passbands_keep_106_to_107_nodes(name):
    sc = load_bundled(name)
    grid = sc.grid()
    lo, hi = pipeline._passband_window(sample_filter(sc.filter_spec, grid))
    window = FrequencyGrid(grid.omega_min + lo * grid.step, grid.omega_min + hi * grid.step, hi - lo + 1)
    nodes, sums, product = sources._pump_product(*sc.pumps, window)
    assert 106 <= nodes.size <= 107
    every = all_node_product(*sc.pumps, window)
    start = int(np.flatnonzero(every[0] == nodes[0])[0])
    # the kept rows are the all-node rows, bit for bit
    assert np.array_equal(product, every[2][start : start + nodes.size])


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("which", [0, 1])
def test_nan_pump_center_is_degenerate(which):
    # a NaN bound keeps every node, so the blocks' non-finite check still fires
    lines = list(pumps())
    lines[which] = replace(lines[which], center_wavelength=float("nan"))
    with pytest.raises(DegenerateInputError, match="non-finite"):
        whole_band(*lines, waveguide(), make_grid(1550.12e-9, 6e-9, 41))
    with pytest.raises(DegenerateInputError, match="non-finite"):
        whole_band(*lines, ring(), make_grid(1550.12e-9, 1.2e-9, 41))


@pytest.mark.parametrize("size", [1, 54 * 54, 401 * 401])
def test_sum_abs2_in_runs(size):
    rng = np.random.default_rng(size)
    values = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    total = sources.sum_abs2(values)
    assert total == pytest.approx(np.sum(np.abs(values) ** 2), rel=1e-13)
    if size == 401 * 401:
        block = values.reshape(401, 401)
        assert sources.sum_abs2(block) == total
        # a non-contiguous block: every other column
        columns = block[:, ::2]
        assert sources.sum_abs2(columns) == pytest.approx(np.sum(np.abs(columns) ** 2), rel=1e-13)


def test_ring_resonance_comb_placement():
    r = ring()
    assert r.resonance("pump1").center_wavelength == pytest.approx(1550.12e-9 - 2 * 3.025e-9)
    assert r.resonance("pump2").center_wavelength == pytest.approx(1550.12e-9 + 2 * 3.025e-9)
    assert r.resonance("signal").fwhm == pytest.approx(1550.12e-9 / 1.5e4)
    with pytest.raises(InvalidArgumentError):
        r.resonance("pump3")


def test_ring_lorentzian_peak_and_width():
    res = ring().resonance("signal")
    assert abs(res.amplitude(res.center_omega)) == pytest.approx(1.0)
    half_point = res.center_omega + res.fwhm_omega / 2
    assert abs(res.amplitude(half_point)) ** 2 == pytest.approx(0.5, rel=1e-12)


def test_ring_detuning_warning():
    p1, p2 = pumps()
    detuned = RingSource(
        q_factor=1.5e4, fsr=3.025e-9, center_wavelength=1550.12e-9, detuning_p1=2e-9
    )
    with pytest.warns(RingDetuningWarning):
        whole_band(p1, p2, detuned, make_grid(1550.12e-9, 1.2e-9, 41))


def test_ring_resonance_narrower_than_two_grid_steps_is_rejected():
    # Q = 1e7: a 0.16 pm resonance on a 3 pm grid step
    p1, p2 = pumps()
    high_q = replace(ring(), q_factor=1e7)
    with pytest.raises(UnderResolvedError, match="signal resonance"):
        whole_band(p1, p2, high_q, make_grid(1550.12e-9, 1.2e-9, 401))


@pytest.mark.parametrize("which", [0, 1])
def test_pump_narrower_than_two_grid_steps_is_rejected(which):
    lines = list(pumps())
    lines[which] = replace(lines[which], linewidth_fwhm=0.001 * GHZ)
    grid = make_grid(1550.12e-9, 1.2e-9, 401)
    with pytest.raises(UnderResolvedError, match=f"pump{which + 1}"):
        whole_band(*lines, ring(), grid)
    with pytest.raises(UnderResolvedError, match=f"pump{which + 1}"):
        whole_band(*lines, waveguide(), make_grid(1550.12e-9, 6e-9, 401))


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_resolution_guard_accepts_bundled_scenarios(name):
    # 201 points is the coarsest grid the tests and the benchmark use; finer grids pass a fortiori
    sc = replace(load_bundled(name), filter_spec=None)
    out = pipeline.build_jsa(sc.with_points(201))
    assert out.norm_squared() == pytest.approx(1.0, abs=1e-10)


def test_resolution_guard_accepts_q_4e4_ring_at_201_points():
    sc = load_bundled("sipic1_ring")
    sc = replace(sc, source=replace(sc.source, q_factor=4e4), filter_spec=None)
    out = pipeline.build_jsa(sc.with_points(201))
    assert out.norm_squared() == pytest.approx(1.0, abs=1e-10)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_builder_non_finite_output_is_degenerate(monkeypatch):
    p1, p2 = pumps()
    nan_dispersion = WaveguideSource(0.015, DispersionModel(W0, beta2=float("nan")))
    with pytest.raises(DegenerateInputError, match="non-finite"):
        whole_band(p1, p2, nan_dispersion, make_grid(1550.12e-9, 6e-9, 41))
    # an infinite pump amplitude: no valid input yields one, so the profile is patched
    monkeypatch.setattr(sources, "pump_amplitude", lambda line, omega: pump_amplitude(line, omega) * np.inf)
    with pytest.raises(DegenerateInputError, match="non-finite"):
        whole_band(p1, p2, ring(), make_grid(1550.12e-9, 1.2e-9, 41))


def test_builder_degenerate_when_pumps_cannot_conserve_energy():
    # second pump far away: b(ws + wi - w) underflows to zero everywhere
    p1 = PumpLine(1544.08e-9, 80 * GHZ)
    p2 = PumpLine(1300e-9, 80 * GHZ)
    with pytest.raises(DegenerateInputError):
        whole_band(p1, p2, waveguide(), make_grid(1550.12e-9, 2e-9, 21))


def test_jsi_nonnegative():
    p1, p2 = pumps()
    values, _ = whole_band(p1, p2, ring(), make_grid(1550.12e-9, 1.2e-9, 41))
    intensity = np.abs(values) ** 2
    assert np.all(intensity >= 0.0)
    assert intensity.shape == (41, 41)


def test_apply_filter_annihilation_raises():
    # a filter that passes no point of the grid
    grid = make_grid(1550.12e-9, 1.2e-9, 41)
    off_band = sample_filter(FilterSpec(1549e-9, 0.01e-9), grid)
    with pytest.raises(DegenerateInputError):
        whole_band(*pumps(), ring(), grid, off_band)


def test_jsa_shape_mismatch_rejected():
    grid = make_grid(1550.12e-9, 1e-9, 11)
    with pytest.raises(GridMismatchError):
        JointSpectralAmplitude(grid, np.zeros((11, 12), dtype=complex))


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: WaveguideSource(float("nan"), waveguide().dispersion), id="length"),
        pytest.param(lambda: replace(ring(), q_factor=float("nan")), id="q_factor"),
        pytest.param(lambda: replace(ring(), fsr=float("nan")), id="fsr"),
    ],
)
def test_nan_source_parameters_are_invalid(make):
    with pytest.raises(InvalidArgumentError):
        make()


@pytest.mark.parametrize(
    "field, value",
    [
        ("center_wavelength", 0.0),
        ("center_wavelength", float("nan")),
        ("center_wavelength", float("inf")),
        ("center_wavelength", -1550e-9),
        ("pump_comb_index", 0),
        ("pump_comb_index", 1.5),
        ("pump_comb_index", True),
        ("detuning_p1", float("nan")),
        ("detuning_p2", float("inf")),
    ],
)
def test_bad_ring_geometry_is_invalid(field, value):
    with pytest.raises(InvalidArgumentError, match=field):
        replace(ring(), **{field: value})


@pytest.mark.parametrize(
    "which, fields",
    [
        ("pump1", {"pump_comb_index": 600}),  # -265 nm
        ("pump1", {"detuning_p1": -1600e-9}),
        ("pump2", {"detuning_p2": -1600e-9}),
    ],
)
def test_pump_resonance_at_non_positive_wavelength_is_invalid(which, fields):
    with pytest.raises(InvalidArgumentError, match=f"the {which} resonance must be at a positive wavelength"):
        replace(ring(), **fields)


def test_source_validation():
    with pytest.raises(InvalidArgumentError):
        WaveguideSource(length=-1.0, dispersion=waveguide().dispersion)
    with pytest.raises(InvalidArgumentError):
        RingSource(q_factor=-1.0, fsr=3e-9, center_wavelength=1550e-9)
    with pytest.raises(InvalidArgumentError):
        RingSource(q_factor=1e4, fsr=-3e-9, center_wavelength=1550e-9)
