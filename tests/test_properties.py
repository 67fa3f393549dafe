"""Property tests of the JSA builders over random devices, pumps and grids, and of scenario parsing."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biphoton import sources
from biphoton.dispersion import DispersionModel
from biphoton.errors import ConfigError
from biphoton.scenario import Scenario, scenario_from_dict
from biphoton.schmidt import jsa_overlap, purity, schmidt_decompose
from biphoton.sources import (
    RingSource,
    WaveguideSource,
    apply_filter,
    build_ring_jsa,
    build_waveguide_jsa,
)
from biphoton.spectral import (
    FilterSpec,
    PumpLine,
    make_grid,
    omega_to_wavelength,
    pump_amplitude,
    wavelength_to_omega,
)
from test_scenario import edited, full_dict

W0 = float(wavelength_to_omega(1550.12e-9))
GHZ = 2 * np.pi * 1e9
CENTER = 1550.12e-9
# a tapered band inside both the waveguide (3 nm) and the ring (1.2 nm) grids
BAND = FilterSpec(CENTER, 0.6e-9, "raised_cosine", 0.5)

pump_pairs = st.builds(
    lambda linewidth_ghz, shape: (
        PumpLine(1544.08e-9, linewidth_ghz * GHZ, shape),
        PumpLine(1556.18e-9, linewidth_ghz * GHZ, shape),
    ),
    st.floats(40.0, 160.0),
    st.sampled_from(["gaussian", "lorentzian"]),
)
waveguides = st.builds(
    lambda length_mm, beta2, beta3: WaveguideSource(
        length_mm * 1e-3, DispersionModel(W0, beta2=beta2, beta3=beta3)
    ),
    st.floats(0.1, 20.0),
    st.floats(-3e-20, -1e-24),
    st.floats(-5e-33, 5e-33),
)
rings = st.builds(
    lambda q, detune: RingSource(
        q_factor=q, fsr=3.025e-9, center_wavelength=CENTER, detuning_p1=detune * 1544.07e-9 / q
    ),
    st.floats(5e3, 2e4),
    st.floats(-5.0, 5.0),
)


def build_waveguide(pump_pair, source, n_points):
    # 3 nm over >= 30 points resolves a 40 GHz pump by > 2 grid steps
    return build_waveguide_jsa(*pump_pair, source, make_grid(CENTER, 3e-9, n_points))


def build_ring(pump_pair, source, n_points):
    # 1.2 nm over >= 41 points resolves a Q = 2e4 resonance by > 2 grid steps
    return build_ring_jsa(*pump_pair, source, make_grid(CENTER, 1.2e-9, n_points))


def check_properties(build, pump_pair, source, n_points):
    for n in (n_points, n_points + 1):  # one odd and one even grid
        out = build(pump_pair, source, n)
        for jsa in (out, apply_filter(out, BAND)):
            assert np.array_equal(jsa.values, jsa.values.T)
        assert out.norm_squared() == pytest.approx(1.0, abs=1e-12)
        p = purity(out)
        assert 0.0 < p <= 1.0
        assert jsa_overlap(out, out).magnitude == pytest.approx(1.0, abs=1e-12)


PROPERTY_SETTINGS = settings(max_examples=30, deadline=None)


@PROPERTY_SETTINGS
@given(pump_pair=pump_pairs, source=waveguides, n_points=st.integers(30, 64))
def test_waveguide_builder_properties(pump_pair, source, n_points):
    check_properties(build_waveguide, pump_pair, source, n_points)


@PROPERTY_SETTINGS
@given(pump_pair=pump_pairs, source=rings, n_points=st.integers(41, 80))
def test_ring_builder_properties(pump_pair, source, n_points):
    check_properties(build_ring, pump_pair, source, n_points)


def check_purity_without_svd(out):
    for jsa in (out, apply_filter(out, BAND)):
        assert purity(jsa) == pytest.approx(schmidt_decompose(jsa).purity, rel=1e-12, abs=0.0)


@PROPERTY_SETTINGS
@given(pump_pair=pump_pairs, source=waveguides, n_points=st.integers(30, 64))
def test_waveguide_purity_matches_schmidt_spectrum(pump_pair, source, n_points):
    check_purity_without_svd(build_waveguide(pump_pair, source, n_points))


@PROPERTY_SETTINGS
@given(pump_pair=pump_pairs, source=rings, n_points=st.integers(41, 80))
def test_ring_purity_matches_schmidt_spectrum(pump_pair, source, n_points):
    check_purity_without_svd(build_ring(pump_pair, source, n_points))


shapes = st.sampled_from(["gaussian", "lorentzian"])


@PROPERTY_SETTINGS
@given(
    pump1_nm=st.floats(1540.0, 1560.0),
    linewidths_ghz=st.tuples(st.floats(10.0, 200.0), st.floats(10.0, 200.0)),
    shape_pair=st.tuples(shapes, shapes),
    detune_ghz=st.floats(-2000.0, 2000.0),
    span_nm=st.floats(0.1, 10.0),
    n_points=st.integers(2, 120),
)
def test_node_peaks_bound_the_pump_product(
    pump1_nm, linewidths_ghz, shape_pair, detune_ghz, span_nm, n_points
):
    # pump 2 sits detune_ghz from energy conservation about the grid centre, so
    # the pump-2 line falls inside the sums' range as well as beyond either end
    pump1 = PumpLine(pump1_nm * 1e-9, linewidths_ghz[0] * GHZ, shape_pair[0])
    omega2 = 2.0 * W0 - pump1.center_omega + detune_ghz * GHZ
    pump2 = PumpLine(float(omega_to_wavelength(omega2)), linewidths_ghz[1] * GHZ, shape_pair[1])
    grid = make_grid(CENTER, span_nm * 1e-9, n_points)
    nodes, weights = sources._pump_quadrature(pump1)
    sums = 2.0 * grid.omega_min + np.arange(2 * n_points - 1) * grid.step
    a = weights * pump_amplitude(pump1, nodes)
    largest = np.abs(a[:, None] * pump_amplitude(pump2, sums[None, :] - nodes[:, None])).max(axis=1)
    # a few ulps for |a * b| against |a| * |b|, and an absolute 1e-300 where they are subnormal
    assert np.all(sources._node_peaks(a, pump2, nodes, sums) >= largest * (1.0 - 1e-15) - 1e-300)



def key_paths(data, prefix=""):
    """The dotted path of every key in every section of ``data``."""
    items = enumerate(data) if isinstance(data, list) else data.items()
    for key, value in items:
        path = f"{prefix}{key}"
        if not isinstance(data, list):
            yield path
        if isinstance(value, (dict, list)):
            yield from key_paths(value, path + ".")


# (source kind, dotted path); source2 is absent from the scenarios, so it is set as a whole
SCENARIO_KEYS = sorted(
    {(kind, path) for kind in ("waveguide", "ring") for path in key_paths(full_dict(kind))}
    | {("waveguide", "source2")}
)
any_values = st.one_of(
    st.integers(-3, 3),
    st.integers(),
    st.sampled_from([10**400, -(10**400)]),
    st.floats(),  # nan and +-inf included
    st.text(max_size=4),
    st.none(),
    st.booleans(),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(SCENARIO_KEYS), value=any_values)
@example(key=("ring", "source.pump_comb_index"), value=10**400)
@example(key=("waveguide", "source.reference_wavelength_nm"), value=1e-300)
def test_any_scenario_value_loads_or_is_a_config_error(key, value):
    kind, path = key
    try:
        assert isinstance(scenario_from_dict(edited(kind, {path: value})), Scenario)
    except ConfigError:
        pass
