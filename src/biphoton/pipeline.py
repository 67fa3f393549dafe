"""One pipeline from a scenario to the numbers every report prints.

Scenario -> JSA (optionally filtered) -> Schmidt spectrum, overlap,
fringes and squeezing statistics. The CLI only formats what these return.
"""
from __future__ import annotations

from .errors import ConfigError
from .fringes import corrected_visibility, extract_visibility, fringe_scan
from .scenario import Scenario, load_bundled
from .schmidt import jsa_overlap, overlap_from_visibility, schmidt_decompose, visibility_from_overlap
from .sources import (
    RingSource,
    WaveguideSource,
    apply_filter,
    build_ring_jsa,
    build_waveguide_jsa,
    jsi,
)
from .squeezing import SqueezingSpec, mean_photon_number, trigger_probability

# Table rows: (label, bundled scenario, observed fringe visibility)
TABLE1_ROWS = (
    ("15-mm waveguides (SiPIC-1)", "sipic1_waveguide_15mm", 0.988),
    ("Microrings (SiPIC-1)", "sipic1_ring", 0.80),
    ("0.24-mm waveguides (SiPIC-1)", "sipic1_waveguide_0p24mm", 0.988),
    ("15-mm waveguides (SiPIC-2)", "sipic2_waveguide_15mm", 0.99),
    ("Microrings (SiPIC-2)", "sipic2_ring", 0.94),
)


def build_jsa(scenario: Scenario, source=None, n_points: int = None, filtered: bool = True):
    """Build (and optionally filter) the JSA described by a scenario."""
    source = source or scenario.source
    grid = scenario.grid(n_points)
    if isinstance(source, WaveguideSource):
        out = build_waveguide_jsa(scenario.pumps[0], scenario.pumps[1], source, grid)
    elif isinstance(source, RingSource):
        out = build_ring_jsa(scenario.pumps[0], scenario.pumps[1], source, grid)
    else:
        raise ConfigError(f"scenario source has unsupported type {type(source).__name__}")
    if filtered and scenario.filter_spec is not None:
        out = apply_filter(out, scenario.filter_spec)
    return out


def scenario_overlap(scenario: Scenario, n_points: int = None, filtered: bool = True):
    """Overlap (N, delta) between the scenario's source pair.

    With a single source the pair is two nominally identical devices; the
    builders are deterministic, so the one JSA is overlapped with itself
    (magnitude 1 by construction). A second JSA is built only for a
    distinct ``source2``.
    """
    jsa1 = build_jsa(scenario, scenario.source, n_points, filtered)
    if scenario.source2 is None:
        return jsa_overlap(jsa1, jsa1)
    return jsa_overlap(jsa1, build_jsa(scenario, scenario.source2, n_points, filtered))


def joint_intensity(scenario: Scenario, n_points: int = None, filtered: bool = True):
    """Grid wavelengths [nm], shared by signal and idler, and the JSI on that grid."""
    out = build_jsa(scenario, n_points=n_points, filtered=filtered)
    return out.grid.wavelengths() * 1e9, jsi(out)


def schmidt_spectrum(scenario: Scenario, n_points: int = None, filtered: bool = True):
    """The scenario's JSA and its Schmidt spectrum."""
    out = build_jsa(scenario, n_points=n_points, filtered=filtered)
    return out, schmidt_decompose(out)


def fringe_report(scenario: Scenario, n_points: int = None, filtered: bool = True, car: float = None):
    """(report, raw p12 scan, normalised p12 scan); ``car`` overrides the scenario's CAR."""
    overlap = scenario_overlap(scenario, n_points, filtered)
    phases = scenario.fringe.phases()
    raw = fringe_scan(overlap.magnitude, overlap.phase, phases, normalized=False)
    norm = fringe_scan(overlap.magnitude, overlap.phase, phases, normalized=True)
    visibility = visibility_from_overlap(overlap.magnitude)
    car = car if car is not None else scenario.car
    report = {
        "overlap": overlap.magnitude,
        "delta": overlap.phase,
        "visibility": visibility,
        "visibility_scan": extract_visibility(raw),
    }
    if car is not None:
        report["car"] = car
        report["corrected_visibility"] = corrected_visibility(visibility, car)
    return report, raw, norm


def stats_report(scenario: Scenario, n_points: int = None, filtered: bool = True) -> dict:
    """Squeezed-state statistics from the scenario's Schmidt spectrum."""
    _, spectrum = schmidt_spectrum(scenario, n_points, filtered)
    settings = scenario.squeezing
    spec = SqueezingSpec(settings.xi, spectrum.coefficients, transmissions=settings.eta)
    return {
        "xi": settings.xi,
        "eta": settings.eta,
        "mean_photon_number": mean_photon_number(spec),
        "trigger_probability": trigger_probability(spec),
        "n_modes": int(spectrum.significant().size),
    }


def table1(n_points: int = None) -> list:
    """(label, observed visibility, simulated purity, overlap) per TABLE1_ROWS entry.

    Simulated purity comes from the filtered JSA; the overlap column is
    deduced from the observed visibility via N = V/(2-V).
    """
    rows = []
    for label, name, observed_v in TABLE1_ROWS:
        _, spectrum = schmidt_spectrum(load_bundled(name), n_points)
        rows.append((label, observed_v, spectrum.purity, overlap_from_visibility(observed_v)))
    return rows
