"""Command-line harness: JSA/JSI exports, purity and overlap reports, fringes.

Verbs: jsi | purity | schmidt | fringe | stats | table1. This module only
parses arguments and formats output; the numbers come from ``pipeline``.
``--no-filter``, ``--car`` and ``--grid-points`` edit the request's
scenario before anything is computed. All numeric output is deterministic
given the scenario file: values are formatted by one shared routine using
shortest round-trip decimal representation, and files carry a header with
the schema version and a hash of the scenario as the flags edited it.

Exit codes: 0 success, 2 configuration error, 3 numeric/degenerate input.
"""
from __future__ import annotations

import argparse
import itertools
import math
import os
import re
import sys
import warnings
from dataclasses import replace

import numpy as np

from . import __version__
from . import pipeline
from .errors import BiphotonError, ConfigError
# re-exported as part of the cli API; a filtered build_jsa is on the filter passband sub-grid
from .pipeline import TABLE1_ROWS, build_jsa
from .scenario import BUNDLED_SCENARIOS, Scenario, load_bundled, load_scenario


def fmt(value: float) -> str:
    """Shared numeric formatting: shortest decimal that round-trips the float."""
    return repr(float(value))


def header_line(kind: str, scenario: Scenario = None) -> str:
    tag = f"# biphoton {kind} schema=1 version={__version__}"
    if scenario is not None:
        tag += f" scenario={scenario.name} hash={scenario.content_hash()}"
    return tag


def cmd_jsi(scenario: Scenario, out_path: str, n_points: int = None) -> str:
    """Write the N x N JSI as CSV under a self-describing header, formatting only its passband block."""
    scenario = scenario.with_points(n_points)
    lam, lo, block = pipeline.joint_intensity(scenario)
    # signal and idler share the grid; the header keeps both axes for readers
    n, hi = lam.size, lo + len(block)
    lam_max, lam_min = fmt(lam[0]), fmt(lam[-1])
    lines = [header_line("jsi", scenario)]
    lines.append(
        f"# nx={n} ny={n} lambda_s_nm_max={lam_max} lambda_s_nm_min={lam_min} "
        f"lambda_i_nm_max={lam_max} lambda_i_nm_min={lam_min}"
    )
    zeros, before, after = ",".join(["0.0"] * n), "0.0," * lo, ",0.0" * (n - hi)
    rows = (before + row + after for row in _csv_rows(block))
    _write(out_path, itertools.chain(lines, [zeros] * lo, rows, [zeros] * (n - hi)))
    return out_path


def _csv_rows(values: np.ndarray):
    """The rows of a float64 matrix as ``fmt`` CSV lines, each joined as it is taken.

    Each distinct value is formatted once."""
    # distinct bit patterns, not values: -0.0 and 0.0 print differently
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    text = np.array([fmt(v) for v in bits.view(np.float64)], dtype=object)
    for row in inverse.reshape(values.shape):
        yield ",".join(text[row])


def read_jsi(path: str) -> np.ndarray:
    """Read back a JSI grid written by cmd_jsi; a malformed file raises ConfigError.

    A ``# nx=.. ny=..`` header line, where the file has one, fixes the data
    shape to nx rows of ny values, so a cut-off file does not pass for a
    smaller grid.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle, warnings.catch_warnings():
            shape = _declared_shape(handle)
            warnings.simplefilter("error", UserWarning)  # numpy only warns on a file without data rows
            values = np.loadtxt(handle, delimiter=",", comments="#", ndmin=2)
        if shape is not None and values.shape != shape:
            rows, cols = values.shape
            raise ValueError(f"header declares nx={shape[0]} ny={shape[1]}, data is {rows} x {cols}")
        return values
    except (OSError, ValueError, UserWarning) as exc:
        raise ConfigError(f"cannot read JSI file {path}: {exc}") from exc


def _declared_shape(handle):
    """(nx, ny) from the ``# nx=.. ny=..`` line of the leading comments, or None;
    ``handle`` is rewound to the start."""
    shape = None
    for line in iter(handle.readline, ""):
        if not line.startswith("#"):
            break
        declared = re.search(r"\bnx=(\d+) ny=(\d+)\b", line)
        if declared:
            shape = int(declared[1]), int(declared[2])
            break
    handle.seek(0)
    return shape


def cmd_purity(scenario: Scenario, n_points: int = None) -> dict:
    """Purity report: {purity, schmidt_tail, survival}."""
    return pipeline.purity_report(scenario.with_points(n_points))


def cmd_schmidt(scenario: Scenario, out_path: str, n_points: int = None) -> str:
    """Write the Schmidt coefficient spectrum as CSV (index, coefficient)."""
    scenario = scenario.with_points(n_points)
    spectrum = pipeline.schmidt_spectrum(scenario)
    lines = [header_line("schmidt", scenario), "mode_index,coefficient"]
    for idx, r in enumerate(spectrum.significant()):
        lines.append(f"{idx},{fmt(r)}")
    _write(out_path, lines)
    return out_path


def cmd_fringe(scenario: Scenario, out_path: str = None, n_points: int = None) -> dict:
    """Fringe CSV plus the extracted visibility and overlap."""
    scenario = scenario.with_points(n_points)
    report, raw, norm = pipeline.fringe_report(scenario)
    if out_path is not None:
        lines = [
            header_line("fringe", scenario),
            f"# overlap={fmt(report['overlap'])} delta={fmt(report['delta'])} "
            f"visibility={fmt(report['visibility'])}",
            "phase_rad,p12_raw,p12_norm",
        ]
        for phi, p_raw, p_norm in zip(raw.phase_values, raw.probabilities, norm.probabilities):
            lines.append(f"{fmt(phi)},{fmt(p_raw)},{fmt(p_norm)}")
        _write(out_path, lines)
        report["path"] = out_path
    return report


def cmd_stats(scenario: Scenario, n_points: int = None) -> dict:
    """Squeezed-state statistics from the scenario's Schmidt spectrum."""
    return pipeline.stats_report(scenario.with_points(n_points))


def cmd_table1(fmt_kind: str = "txt", n_points: int = None) -> str:
    """Summary table over the five bundled source scenarios (see ``pipeline.table1``)."""
    rows = pipeline.table1(n_points)
    lines = [header_line("table1")]
    if fmt_kind == "csv":
        lines.append("source,observed_visibility,simulated_purity,jsa_overlap")
        for label, v, p, n in rows:
            lines.append(f"{label},{fmt(v)},{fmt(p)},{fmt(n)}")
    else:
        width = max(len(r[0]) for r in rows)
        lines.append(f"{'source':<{width}}  {'visibility':>10}  {'purity':>8}  {'overlap':>8}")
        for label, v, p, n in rows:
            lines.append(f"{label:<{width}}  {100 * v:>9.1f}%  {100 * p:>7.1f}%  {100 * n:>7.1f}%")
    return "\n".join(lines) + "\n"


def _write(path: str, lines):
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(line + "\n" for line in lines)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


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
    # one subcommand per verb, each accepting only the flags it uses
    verbs = parser.add_subparsers(dest="command", required=True)
    for verb in ("jsi", "purity", "schmidt", "fringe", "stats", "table1"):
        sub = verbs.add_parser(verb)
        sub.add_argument("--grid-points", type=int, default=None, help="override grid point count")
        if verb == "table1":
            sub.add_argument("--format", choices=["csv", "txt"], default="txt", dest="fmt")
            continue
        sub.add_argument("--scenario", help="scenario file path or bundled scenario name")
        sub.add_argument("--no-filter", action="store_true", help="skip the band-pass filter")
        if verb in ("jsi", "schmidt", "fringe"):
            sub.add_argument("--out", help="output file path")
        if verb == "fringe":
            sub.add_argument("--car", type=float, help="coincidence-to-accidental ratio")
    args = parser.parse_args(argv)
    try:
        if args.command == "table1":
            sys.stdout.write(cmd_table1(args.fmt, n_points=args.grid_points))
            return 0
        scenario = _resolve_scenario(args.scenario)
        if args.command in ("jsi", "schmidt") and not args.out:
            raise ConfigError(f"{args.command} requires --out")
        if args.no_filter:
            scenario = replace(scenario, filter_spec=None)
        if getattr(args, "car", None) is not None:
            # the scenario file's rule for car, applied to the flag
            if not (math.isfinite(args.car) and args.car > 0):
                raise ConfigError(f"--car: must be finite and positive, got {args.car}")
            scenario = replace(scenario, car=args.car)
        if args.command == "jsi":
            cmd_jsi(scenario, args.out, args.grid_points)
            print(f"wrote {args.out}")
        elif args.command == "purity":
            _report(cmd_purity(scenario, args.grid_points))
        elif args.command == "schmidt":
            cmd_schmidt(scenario, args.out, args.grid_points)
            print(f"wrote {args.out}")
        elif args.command == "fringe":
            _report(cmd_fringe(scenario, args.out, args.grid_points))
        elif args.command == "stats":
            _report(cmd_stats(scenario, args.grid_points))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BiphotonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
