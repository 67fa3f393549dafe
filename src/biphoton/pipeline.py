"""One pipeline from a scenario to the numbers every report prints.

Scenario -> filtered JSA -> Schmidt spectrum, overlap, fringes and
squeezing statistics. Each report takes one ``Scenario``, whose grid,
filter, CAR and source are the whole request. A scenario without a
filter is filtered by an all-pass filter, so its passband is the whole
grid. The CLI only formats what these return. Each source kind's
filtered block lives in ``sources``; this module finds the filter
passband, dispatches and normalizes the block.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import ConfigError, DegenerateInputError
from .fringes import corrected_visibility, extract_visibility, fringe_scan
from .scenario import Scenario, load_bundled
from .schmidt import (
    OverlapResult,
    jsa_overlap,
    overlap_from_visibility,
    purity,
    schmidt_decompose,
    visibility_from_overlap,
)
from .sources import (
    RingSource,
    WaveguideSource,
    _normalize,
    _require_survival,
    filtered_ring_block,
    filtered_waveguide_block,
)
from .spectral import sample_filter
from .squeezing import SqueezingSpec, mean_photon_number, trigger_probability

# Table rows: (label, bundled scenario, observed fringe visibility)
TABLE1_ROWS = (
    ("15-mm waveguides (SiPIC-1)", "sipic1_waveguide_15mm", 0.988),
    ("Microrings (SiPIC-1)", "sipic1_ring", 0.80),
    ("0.24-mm waveguides (SiPIC-1)", "sipic1_waveguide_0p24mm", 0.988),
    ("15-mm waveguides (SiPIC-2)", "sipic2_waveguide_15mm", 0.99),
    ("Microrings (SiPIC-2)", "sipic2_ring", 0.94),
)


def _builders(source):
    """The filtered-block function of the source's kind, from ``sources``."""
    if isinstance(source, WaveguideSource):
        return filtered_waveguide_block
    if isinstance(source, RingSource):
        return filtered_ring_block
    raise ConfigError(f"scenario source has unsupported type {type(source).__name__}")


def _passband_window(samples: np.ndarray):
    """Indices (lo, hi) of the first and last filter sample that passes, widened to 2 points."""
    support = np.flatnonzero(samples)
    if support.size == 0:
        _require_survival(0.0)
    lo, hi = int(support[0]), int(support[-1])
    if hi == lo:
        lo, hi = (lo, lo + 1) if lo + 1 < samples.size else (lo - 1, lo)
    return lo, hi


def _filtered_jsa(scenario: Scenario):
    """(JSA, survival): the filtered JSA, normalized on the passband sub-grid.

    The passband is scenario-grid points lo to hi, where the filter is
    sampled; without a filter every sample is 1, so the passband is the
    whole grid. The source's block function gives the block and the whole
    grid's survival, or None where a waveguide's window only bounded it.
    """
    grid, spec = scenario.axis, scenario.filter_spec
    samples = np.ones(grid.n_points) if spec is None else sample_filter(spec, grid)
    lo, hi = _passband_window(samples)
    values, survival = _builders(scenario.source)(*scenario.pumps, scenario.source, grid, samples, lo, hi)
    return _normalize(grid.sub_grid(lo, hi), values, "filtering"), survival


def build_jsa(scenario: Scenario):
    """The scenario's normalized JSA on its filter passband: the whole grid without a filter."""
    return _filtered_jsa(scenario)[0]


def scenario_overlap(scenario: Scenario):
    """Overlap (N, delta) between the scenario's source pair.

    With a single source the pair is two nominally identical devices; the
    builders are deterministic, so the overlap is exactly 1 with phase 0 by
    construction. The JSA is still built, so that it raises as a pair's
    would. A second JSA is built only for a distinct ``source2``.
    """
    jsa1 = build_jsa(scenario)
    if scenario.source2 is None:
        return OverlapResult(magnitude=1.0, phase=0.0)
    return jsa_overlap(jsa1, build_jsa(replace(scenario, source=scenario.source2)))


def joint_intensity(scenario: Scenario):
    """(wavelengths_nm, lo, block): the scenario grid's wavelengths [nm], shared by signal
    and idler, and the JSI on the filter passband from grid point lo on; zero outside it."""
    grid = scenario.axis
    jsa = build_jsa(scenario)
    lo = round((jsa.grid.omega_min - grid.omega_min) / grid.step)
    # the block has unit norm on the window's step, which rounding puts a
    # little off the scenario grid's (5e-11 relative on a 2-point window)
    scale = jsa.grid.step / grid.step
    return grid.wavelengths() * 1e9, lo, np.abs(jsa.values * scale) ** 2


def schmidt_spectrum(scenario: Scenario):
    """The Schmidt spectrum of the scenario's JSA, decomposed on the filter passband."""
    return schmidt_decompose(build_jsa(scenario))


def purity_report(scenario: Scenario) -> dict:
    """Purity and Schmidt tail of the scenario's JSA, and the filter survival.

    Survival is the filtered over the unfiltered norm squared of one
    unnormalized evaluation on the whole grid: at most 1, and exactly 1
    where the filter passes every point, as without a filter. Where a
    waveguide's window only bounded it, the block's whole-band call gives it.
    """
    jsa, survival = _filtered_jsa(scenario)
    if survival is None:
        grid = scenario.axis
        whole_band = (sample_filter(scenario.filter_spec, grid), 0, grid.n_points - 1)
        survival = filtered_waveguide_block(*scenario.pumps, scenario.source, grid, *whole_band)[1]
    spectrum = schmidt_decompose(jsa)
    return {"purity": spectrum.purity, "schmidt_tail": spectrum.tail, "survival": survival}


def fringe_report(scenario: Scenario):
    """(report, raw p12 scan, normalised p12 scan); the scenario's CAR, if any, corrects the visibility."""
    overlap = scenario_overlap(scenario)
    phases = scenario.fringe.phases()
    raw = fringe_scan(overlap.magnitude, overlap.phase, phases, normalized=False)
    norm = fringe_scan(overlap.magnitude, overlap.phase, phases, normalized=True)
    visibility = visibility_from_overlap(overlap.magnitude)
    report = {
        "overlap": overlap.magnitude,
        "delta": overlap.phase,
        "visibility": visibility,
        "visibility_scan": extract_visibility(raw),
    }
    if scenario.car is not None:
        report["car"] = scenario.car
        report["corrected_visibility"] = corrected_visibility(visibility, scenario.car)
    return report, raw, norm


def stats_report(scenario: Scenario) -> dict:
    """Squeezed-state statistics from the scenario's Schmidt spectrum."""
    spectrum = schmidt_spectrum(scenario)
    settings = scenario.squeezing
    # strong squeezing overflows sinh, in the spec's per-mode arrays: a typed
    # error, not a warning and an inf
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        spec = SqueezingSpec(settings.xi, spectrum.coefficients, transmissions=settings.eta)
        moments = {
            "mean_photon_number": mean_photon_number(spec),
            "trigger_probability": trigger_probability(spec),
        }
    for name, value in moments.items():
        if not np.isfinite(value):
            raise DegenerateInputError(f"{name} is not finite ({value}); squeezing too strong")
    n_modes = int(spectrum.significant().size)
    return {"xi": settings.xi, "eta": settings.eta, **moments, "n_modes": n_modes}


def table1(n_points: int = None) -> list:
    """(label, observed visibility, simulated purity, overlap) per TABLE1_ROWS entry.

    Simulated purity is Tr rho^2 of the filtered JSA on its passband
    (``schmidt.purity``, no Schmidt spectrum); the overlap column is
    deduced from the observed visibility via N = V/(2-V).
    """
    rows = []
    for label, name, observed_v in TABLE1_ROWS:
        jsa = build_jsa(load_bundled(name).with_points(n_points))
        rows.append((label, observed_v, purity(jsa), overlap_from_visibility(observed_v)))
    return rows
