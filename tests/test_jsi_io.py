"""The JSI CSV writer and reader: same text as formatting each entry, bit-exact read-back."""
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from biphoton import pipeline
from biphoton.cli import _csv_rows, _write, cmd_jsi, fmt, header_line, read_jsi
from biphoton.errors import ConfigError
from biphoton.scenario import BUNDLED_SCENARIOS, load_bundled
from biphoton.spectral import FrequencyGrid, sample_filter, wavelength_to_omega
from oracles import jsi_frame

# the entries a writer that keys on values rather than bit patterns gets wrong,
# plus the subnormal and infinite ends of float64
NEGATIVE_NAN, PAYLOAD_NAN = np.array([0xFFF8000000000000, 0x7FF8000000000001], dtype=np.uint64).view(np.float64)
SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, NEGATIVE_NAN, PAYLOAD_NAN, 5e-324, -1e-310, 2.2250738585072014e-308]


@st.composite
def matrices(draw):
    """Small float64 matrices drawn from a few values, so entries repeat."""
    pool = draw(st.lists(st.one_of(st.sampled_from(SPECIAL), st.floats(width=64)), min_size=1, max_size=6))
    shape = draw(array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=7))
    return draw(arrays(np.float64, shape, elements=st.sampled_from(pool)))


def per_value_rows(values):
    return [",".join(fmt(v) for v in row) for row in values]


def per_value_jsi(scenario):
    """(text, lo): the JSI file as written by formatting every entry of its N x N frame on its own,
    and the scenario-grid index of the passband's first point."""
    lam, lo, block = pipeline.joint_intensity(scenario)
    lam_max, lam_min = fmt(lam[0]), fmt(lam[-1])
    lines = [
        header_line("jsi", scenario),
        f"# nx={lam.size} ny={lam.size} lambda_s_nm_max={lam_max} lambda_s_nm_min={lam_min} "
        f"lambda_i_nm_max={lam_max} lambda_i_nm_min={lam_min}",
    ]
    return "\n".join(lines + per_value_rows(jsi_frame(lam.size, lo, block))) + "\n", lo


def on_grid_edge(scenario, edge):
    """The scenario on a grid moved so that one end is at its filter's centre, where the JSI
    peaks, with a filter at that end: one point on the top grid point, or the bundled filter
    overhanging the low edge."""
    spec, grid = scenario.filter_spec, scenario.axis
    omega_c, width = float(wavelength_to_omega(spec.center_wavelength)), grid.omega_max - grid.omega_min
    if edge == "top_point":
        top = FrequencyGrid(omega_c - width, omega_c, grid.n_points)
        return replace(scenario, axis=top, filter_spec=replace(spec, bandwidth=0.001e-9))
    return replace(scenario, axis=FrequencyGrid(omega_c, omega_c + width, grid.n_points))


@settings(max_examples=200, deadline=None)
@given(values=matrices())
@example(values=np.array([[0.0, -0.0]]))
@example(values=np.array([[-0.0], [0.0]]))
@example(values=np.array([[-0.0]]))
@example(values=np.array([[1.5, 0.0, -0.0, 1.5, np.nan]]))
def test_csv_rows_match_per_value_formatting(values):
    assert _csv_rows(values) == per_value_rows(values)


@settings(max_examples=100, deadline=None)
@given(values=matrices())
@example(values=np.array([[0.0, -0.0]]))
@example(values=np.array([[5e-324]]))
def test_read_jsi_returns_written_values_bit_for_bit(tmp_path_factory, values):
    path = tmp_path_factory.getbasetemp() / "round_trip.csv"
    _write(str(path), [header_line("jsi")] + _csv_rows(values))
    back = read_jsi(str(path))
    # the text keeps every bit but a NaN's sign and payload
    expected = np.where(np.isnan(values), np.nan, values)
    assert back.shape == values.shape
    assert np.array_equal(back.view(np.uint64), expected.view(np.uint64))


# the bundled filter, none, and passbands at the grid's ends: a one-point filter on the top
# grid point, which the pipeline widens to lo = N - 2, and a filter overhanging the low edge
@pytest.mark.parametrize("filtered", [True, False, "top_point", "low_edge"])
@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_cmd_jsi_matches_per_value_writer(tmp_path, name, filtered):
    scenario = load_bundled(name)
    if filtered is False:
        scenario = replace(scenario, filter_spec=None)
    elif filtered is not True:
        scenario = on_grid_edge(scenario, filtered)
    path = tmp_path / "jsi.csv"
    for n_points in (61, 201, 401):
        cmd_jsi(scenario, str(path), n_points)
        sc = scenario.with_points(n_points)
        text, lo = per_value_jsi(sc)
        assert path.read_bytes() == text.encode()
        if filtered == "top_point":
            assert np.flatnonzero(sample_filter(sc.filter_spec, sc.axis)).tolist() == [n_points - 1]
            assert lo == n_points - 2
        if filtered == "low_edge":
            assert lo == 0


def test_cmd_jsi_builds_nothing_the_size_of_the_grid(tmp_path):
    # the 0.8 nm filter keeps 135 of 1001 points per axis; one 1001 x 1001 float64 array is 8 MB
    tracemalloc.start()
    try:
        cmd_jsi(load_bundled("sipic1_waveguide_15mm"), str(tmp_path / "jsi.csv"), 1001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 1001**2


@pytest.mark.parametrize(
    "text",
    [
        "",
        "# biphoton jsi schema=1\n# nx=0 ny=0\n",
        "1.0,2.0\n3.0\n",
        "1.0,2.0\n3.0,abc\n",
    ],
    ids=["empty", "header_only", "ragged", "non_numeric"],
)
def test_read_jsi_rejects_malformed_files(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ConfigError, match="cannot read JSI file"):
        read_jsi(str(path))


def test_read_jsi_rejects_a_file_shorter_than_its_header(tmp_path):
    path = tmp_path / "jsi.csv"
    cmd_jsi(load_bundled("sipic1_ring"), str(path), 61)
    lines = path.read_text().splitlines(keepends=True)
    assert read_jsi(str(path)).shape == (61, 61)
    path.write_text("".join(lines[:-5]))  # the last 5 rows cut off
    with pytest.raises(ConfigError, match="header declares nx=61 ny=61, data is 56 x 61"):
        read_jsi(str(path))
