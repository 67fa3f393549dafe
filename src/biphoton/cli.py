"""Command-line harness: JSA/JSI exports, purity and overlap reports, fringes.

Verbs: jsi | purity | schmidt | fringe | stats | table1. All numeric
output is deterministic given the scenario file: values are formatted by
one shared routine using shortest round-trip decimal representation, and
files carry a header with the schema version and a scenario content hash.

Exit codes: 0 success, 2 configuration error, 3 numeric/degenerate input.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .errors import BiphotonError, ConfigError
from .fringes import corrected_visibility, extract_visibility, fringe_scan
from .scenario import (
    BUNDLED_SCENARIOS,
    Scenario,
    SqueezingSettings,
    load_bundled,
    load_scenario,
)
from .schmidt import (
    jsa_overlap,
    overlap_from_visibility,
    purity,
    schmidt_decompose,
    visibility_from_overlap,
)
from .sources import (
    RingSource,
    WaveguideSource,
    apply_filter,
    build_ring_jsa,
    build_waveguide_jsa,
    jsi,
)
from .spectral import omega_to_wavelength
from .squeezing import SqueezingSpec, mean_photon_number, trigger_probability

# Table rows: (label, bundled scenario, observed fringe visibility)
TABLE1_ROWS = (
    ("15-mm waveguides (SiPIC-1)", "sipic1_waveguide_15mm", 0.988),
    ("Microrings (SiPIC-1)", "sipic1_ring", 0.80),
    ("0.24-mm waveguides (SiPIC-1)", "sipic1_waveguide_0p24mm", 0.988),
    ("15-mm waveguides (SiPIC-2)", "sipic2_waveguide_15mm", 0.99),
    ("Microrings (SiPIC-2)", "sipic2_ring", 0.94),
)


def fmt(value: float) -> str:
    """Shared numeric formatting: shortest decimal that round-trips the float."""
    return repr(float(value))


def header_line(kind: str, scenario: Scenario = None) -> str:
    tag = f"# biphoton {kind} schema=1 version={__version__}"
    if scenario is not None:
        tag += f" scenario={scenario.name} hash={scenario.content_hash()}"
    return tag


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
        out = apply_filter(out, scenario.filter_spec, scenario.filter_spec)
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


def cmd_jsi(scenario: Scenario, out_path: str, n_points: int = None, filtered: bool = True) -> str:
    """Write the JSI grid as CSV with a self-describing header; returns the path."""
    out = build_jsa(scenario, n_points=n_points, filtered=filtered)
    intensity = jsi(out)
    lam_s = omega_to_wavelength(out.grid_s.points()) * 1e9
    lam_i = omega_to_wavelength(out.grid_i.points()) * 1e9
    lines = [header_line("jsi", scenario)]
    lines.append(
        "# nx={} ny={} lambda_s_nm_max={} lambda_s_nm_min={} "
        "lambda_i_nm_max={} lambda_i_nm_min={}".format(
            out.grid_s.n_points,
            out.grid_i.n_points,
            fmt(lam_s[0]),
            fmt(lam_s[-1]),
            fmt(lam_i[0]),
            fmt(lam_i[-1]),
        )
    )
    for row in intensity:
        lines.append(",".join(fmt(v) for v in row))
    _write(out_path, lines)
    return out_path


def read_jsi(path: str) -> np.ndarray:
    """Read back a JSI grid written by cmd_jsi."""
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("#"):
                continue
            rows.append([float(tok) for tok in line.strip().split(",")])
    return np.array(rows)


def cmd_purity(scenario: Scenario, n_points: int = None, filtered: bool = True) -> dict:
    """Purity report: {purity, schmidt_tail, survival}."""
    out = build_jsa(scenario, n_points=n_points, filtered=filtered)
    spectrum = schmidt_decompose(out)
    r = spectrum.coefficients
    reported = spectrum.significant()
    return {
        "purity": float(np.sum(r**2)),
        "schmidt_tail": float(np.sum(r) - np.sum(reported)),
        "survival": out.survival,
    }


def cmd_schmidt(scenario: Scenario, out_path: str, n_points: int = None, filtered: bool = True) -> str:
    """Write the Schmidt coefficient spectrum as CSV (index, coefficient)."""
    out = build_jsa(scenario, n_points=n_points, filtered=filtered)
    spectrum = schmidt_decompose(out)
    lines = [header_line("schmidt", scenario), "mode_index,coefficient"]
    for idx, r in enumerate(spectrum.significant()):
        lines.append(f"{idx},{fmt(r)}")
    _write(out_path, lines)
    return out_path


def cmd_fringe(
    scenario: Scenario,
    out_path: str = None,
    n_points: int = None,
    filtered: bool = True,
    car: float = None,
) -> dict:
    """Fringe CSV plus the extracted visibility and overlap."""
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
    if out_path is not None:
        lines = [header_line("fringe", scenario)]
        lines.append(
            "# overlap={} delta={} visibility={}".format(
                fmt(overlap.magnitude), fmt(overlap.phase), fmt(visibility)
            )
        )
        lines.append("phase_rad,p12_raw,p12_norm")
        for phi, p_raw, p_norm in zip(phases, raw.probabilities, norm.probabilities):
            lines.append(f"{fmt(phi)},{fmt(p_raw)},{fmt(p_norm)}")
        _write(out_path, lines)
        report["path"] = out_path
    return report


def cmd_stats(scenario: Scenario, n_points: int = None, filtered: bool = True) -> dict:
    """Squeezed-state statistics from the scenario's Schmidt spectrum."""
    out = build_jsa(scenario, n_points=n_points, filtered=filtered)
    spectrum = schmidt_decompose(out)
    settings = scenario.squeezing or SqueezingSettings()
    spec = SqueezingSpec(
        global_xi=settings.xi,
        schmidt_coefficients=spectrum.coefficients,
        transmissions=np.full(spectrum.coefficients.shape, settings.eta),
    )
    return {
        "xi": settings.xi,
        "eta": settings.eta,
        "mean_photon_number": mean_photon_number(spec),
        "trigger_probability": trigger_probability(spec),
        "n_modes": int(spectrum.significant().size),
    }


def cmd_table1(fmt_kind: str = "txt", n_points: int = None) -> str:
    """Summary table over the five bundled source scenarios.

    Simulated purity comes from the filtered JSA; the overlap column is
    deduced from the observed visibility via N = V/(2-V).
    """
    rows = []
    for label, name, observed_v in TABLE1_ROWS:
        scenario = load_bundled(name)
        report = cmd_purity(scenario, n_points=n_points, filtered=True)
        rows.append(
            (label, observed_v, report["purity"], overlap_from_visibility(observed_v))
        )
    if fmt_kind == "csv":
        lines = [header_line("table1")]
        lines.append("source,observed_visibility,simulated_purity,jsa_overlap")
        for label, v, p, n in rows:
            lines.append(f"{label},{fmt(v)},{fmt(p)},{fmt(n)}")
        return "\n".join(lines) + "\n"
    width = max(len(r[0]) for r in rows)
    lines = [header_line("table1")]
    lines.append(
        f"{'source':<{width}}  {'visibility':>10}  {'purity':>8}  {'overlap':>8}"
    )
    for label, v, p, n in rows:
        lines.append(f"{label:<{width}}  {100 * v:>9.1f}%  {100 * p:>7.1f}%  {100 * n:>7.1f}%")
    return "\n".join(lines) + "\n"


def _write(path: str, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def _resolve_scenario(ref: str) -> Scenario:
    if ref is None:
        raise ConfigError("--scenario is required for this command")
    if os.path.exists(ref):
        return load_scenario(ref)
    if ref in BUNDLED_SCENARIOS:
        return load_bundled(ref)
    raise ConfigError(f"scenario {ref!r} is neither a readable file nor a bundled name")


def _report(report: dict):
    print(" ".join(f"{key}={fmt(v) if isinstance(v, float) else v}" for key, v in report.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="biphoton",
        description="Photon-pair source simulator: joint spectra, purity, HOM fringes.",
    )
    parser.add_argument("command", choices=["jsi", "purity", "schmidt", "fringe", "stats", "table1"])
    parser.add_argument("--scenario", help="scenario file path or bundled scenario name")
    parser.add_argument("--out", help="output file path (jsi/schmidt/fringe)")
    parser.add_argument("--grid-points", type=int, default=None, help="override grid point count")
    parser.add_argument("--no-filter", action="store_true", help="skip the band-pass filter")
    parser.add_argument("--car", type=float, default=None, help="coincidence-to-accidental ratio")
    parser.add_argument("--format", choices=["csv", "txt"], default="txt", dest="fmt")
    args = parser.parse_args(argv)
    filtered = not args.no_filter
    try:
        if args.command == "table1":
            sys.stdout.write(cmd_table1(args.fmt, n_points=args.grid_points))
            return 0
        scenario = _resolve_scenario(args.scenario)
        if args.command == "jsi":
            if not args.out:
                raise ConfigError("jsi requires --out")
            cmd_jsi(scenario, args.out, args.grid_points, filtered)
            print(f"wrote {args.out}")
        elif args.command == "purity":
            _report(cmd_purity(scenario, args.grid_points, filtered))
        elif args.command == "schmidt":
            if not args.out:
                raise ConfigError("schmidt requires --out")
            cmd_schmidt(scenario, args.out, args.grid_points, filtered)
            print(f"wrote {args.out}")
        elif args.command == "fringe":
            report = cmd_fringe(scenario, args.out, args.grid_points, filtered, args.car)
            _report(report)
        elif args.command == "stats":
            _report(cmd_stats(scenario, args.grid_points, filtered))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BiphotonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
