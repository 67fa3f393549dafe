"""Property tests of the JSA builders over random devices, pumps and grids."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton import sources
from biphoton.dispersion import DispersionModel
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


def check_properties(build, pump_pair, source, n_points, phase):
    p1, p2 = pump_pair
    turned_pumps = (replace(p1, relative_amplitude=np.exp(1j * phase)), p2)
    for n in (n_points, n_points + 1):  # one odd and one even grid
        out = build(pump_pair, source, n)
        for jsa in (out, apply_filter(out, BAND)):
            assert np.array_equal(jsa.values, jsa.values.T)
        assert out.norm_squared() == pytest.approx(1.0, abs=1e-12)
        p = purity(out)
        assert 0.0 < p <= 1.0
        assert purity(build(turned_pumps, source, n)) == pytest.approx(p, rel=1e-12)
        assert jsa_overlap(out, out).magnitude == pytest.approx(1.0, abs=1e-12)


PROPERTY_SETTINGS = settings(max_examples=30, deadline=None)
phases = st.floats(0.0, 2 * np.pi)


@PROPERTY_SETTINGS
@given(pump_pair=pump_pairs, source=waveguides, n_points=st.integers(30, 64), phase=phases)
def test_waveguide_builder_properties(pump_pair, source, n_points, phase):
    check_properties(build_waveguide, pump_pair, source, n_points, phase)


@PROPERTY_SETTINGS
@given(pump_pair=pump_pairs, source=rings, n_points=st.integers(41, 80), phase=phases)
def test_ring_builder_properties(pump_pair, source, n_points, phase):
    check_properties(build_ring, pump_pair, source, n_points, phase)


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
    nodes, weights = sources._pump_quadrature(pump1, 16, 8.0)
    sums = 2.0 * grid.omega_min + np.arange(2 * n_points - 1) * grid.step
    a = weights * pump_amplitude(pump1, nodes)
    largest = np.abs(a[:, None] * pump_amplitude(pump2, sums[None, :] - nodes[:, None])).max(axis=1)
    # a few ulps for |a * b| against |a| * |b|, and an absolute 1e-300 where they are subnormal
    assert np.all(sources._node_peaks(a, pump2, nodes, sums) >= largest * (1.0 - 1e-15) - 1e-300)
