"""Scenario files: strict YAML schema, validation, and bundled presets.

A scenario bundles two pump lines, a source description (waveguide or
ring, optionally a second source for a pair), the output band-pass
filter, grid settings, fringe-scan settings, and optional CAR/squeezing
inputs. Wavelengths are written in nm and linewidths in GHz in the files;
they are converted to SI on load. The full schema is documented in
docs/scenarios.md.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import Callable, NamedTuple

import numpy as np
import yaml

from .dispersion import DispersionModel
from .errors import ConfigError, InvalidArgumentError
from .spectral import FilterSpec, FrequencyGrid, PumpLine, make_grid, wavelength_to_omega
from .sources import RingSource, WaveguideSource

# libyaml's safe loader where PyYAML was built with it (same resolver, about 5x faster)
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_GHZ = 2.0 * np.pi * 1e9  # linewidths are quoted as ordinary-frequency FWHM
# Upper bounds on the counts, for memory. A whole-grid waveguide build peaks near 4.5 N x N
# complex arrays (16 N^2 bytes each): about 290 MB at 2001 points; a filtered jsi export there
# adds about 8 MB of peak RSS on the bundled 15 mm guide and 160 MB on the bundled ring. A
# fringe scan keeps about 250 bytes per step: 250 MB at 10**6.
MAX_GRID_POINTS = 2001
MAX_FRINGE_STEPS = 10**6


@dataclass(frozen=True)
class FringeSettings:
    phase_min: float = 0.0
    phase_max: float = 2.0 * np.pi
    steps: int = 181

    def phases(self) -> np.ndarray:
        return self.phase_min + np.arange(self.steps) * (
            (self.phase_max - self.phase_min) / (self.steps - 1)
        )


@dataclass(frozen=True)
class SqueezingSettings:
    xi: float = 0.1
    eta: float = 1.0


@dataclass(frozen=True)
class Scenario:
    name: str
    pumps: tuple
    source: object  # WaveguideSource | RingSource
    axis: FrequencyGrid  # the scenario grid, built once at parse time
    source2: object = None  # optional second source of a pair
    filter_spec: FilterSpec = None
    fringe: FringeSettings = field(default_factory=FringeSettings)
    car: float = None
    squeezing: SqueezingSettings = field(default_factory=SqueezingSettings)
    raw: dict = field(default_factory=dict, repr=False)

    def grid(self, n_points: int = None) -> FrequencyGrid:
        """The scenario grid, or the same band sampled at ``n_points`` points."""
        if n_points is None:
            return self.axis
        if n_points < 2:
            raise ConfigError(f"grid points must be >= 2, got {n_points}")
        if n_points > MAX_GRID_POINTS:
            raise ConfigError(f"grid points must be <= {MAX_GRID_POINTS}, got {n_points}")
        return replace(self.axis, n_points=n_points)

    def with_points(self, n_points: int = None) -> "Scenario":
        """The scenario, or a copy whose grid samples the same band at ``n_points`` points."""
        return self if n_points is None else replace(self, axis=self.grid(n_points))

    def content_hash(self) -> str:
        """Hash of the request for output headers: the repr of every field but ``raw``,
        so a CLI flag's edit changes it and a file with the same values does not."""
        return hashlib.sha256(repr(self).encode()).hexdigest()[:12]


DEFAULT_LINEWIDTH_GHZ = 80.0  # effective CW linewidth; see docs/scenarios.md

# What a row's value must be, as its "expected ..." message names it; None passes any value.
_NUMBER = ("a number", (int, float))
_INTEGER = ("an integer", int)
_REQUIRED = object()


class _Row(NamedTuple):
    """How one scenario key becomes one constructor argument (``arg`` None: read, not passed)."""

    arg: str
    expects: tuple = None  # _NUMBER, _INTEGER or None
    default: object = _REQUIRED  # in file units; None leaves an absent key out, as None
    scale: float = 1.0  # file units to SI, for numbers
    rule: Callable = None  # (value, path) -> value, raising ConfigError


def _positive(value, path: str):
    if value <= 0:
        raise ConfigError(f"{path}: must be positive, got {value}")
    return value


def _in_range(minimum: int, maximum=math.inf):
    def rule(value, path: str):
        if value < minimum:
            raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
        if value > maximum:
            raise ConfigError(f"{path}: must be <= {maximum}, got {value}")
        return value

    return rule


def _fields(section, table: dict, path: str) -> dict:
    """Validate one scenario section against its table; return the constructor's keyword arguments.

    The checks run in one order, so a section with several faults always
    reports the same one: the mapping, unknown keys, missing required keys,
    then row by row the type, finiteness, the row's rule and the unit scale.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(section).__name__}")
    for key in section:
        if key not in table:
            raise ConfigError(f"{path}.{key}: unknown key")
    for key, row in table.items():
        if row.default is _REQUIRED and key not in section:
            raise ConfigError(f"{path}.{key}: missing required key")
    kwargs = {}
    for key, (arg, expects, default, scale, rule) in table.items():
        value = section.get(key, default)
        if key in section or value is not None:  # an absent key without a default stays None
            where = f"{path}.{key}"
            if expects is not None:
                expected, types = expects
                if isinstance(value, bool) or not isinstance(value, types):
                    raise ConfigError(f"{where}: expected {expected}, got {value!r}")
                try:
                    finite = math.isfinite(value)
                except OverflowError:  # an integer beyond the float range
                    finite = False
                if not finite:
                    raise ConfigError(f"{where}: must be finite, got {value!r}")
            if rule is not None:
                value = rule(value, where)
            if expects is _NUMBER:
                value = float(value) * scale
        if arg is not None:
            kwargs[arg] = value
    return kwargs


def _build(path: str, constructor, **kwargs):
    """Call a domain constructor; its InvalidArgumentError becomes a ConfigError at ``path``."""
    try:
        return constructor(**kwargs)
    except InvalidArgumentError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _section(table: dict, constructor):
    """The rule for a sub-section: validate it against ``table``, then build it."""
    return lambda section, path: _build(path, constructor, **_fields(section, table, path))


def _waveguide(length, reference_wavelength, beta2, beta3) -> WaveguideSource:
    # a positive wavelength such as 1e-300 nm can still give an infinite omega
    with np.errstate(divide="ignore", over="ignore"):
        reference_omega = float(wavelength_to_omega(reference_wavelength))
    if not math.isfinite(reference_omega):
        raise InvalidArgumentError(
            f"reference_wavelength must be finite and positive, got {reference_wavelength}"
        )
    model = DispersionModel(reference_omega=reference_omega, beta2=beta2, beta3=beta3)
    return WaveguideSource(length=length, dispersion=model)


_PUMP = {
    "wavelength_nm": _Row("center_wavelength", _NUMBER, _REQUIRED, 1e-9, _positive),
    "linewidth_ghz": _Row("linewidth_fwhm", _NUMBER, DEFAULT_LINEWIDTH_GHZ, _GHZ, _positive),
    "shape": _Row("shape", None, "gaussian"),
}
_WAVEGUIDE = {
    "kind": _Row(None),
    "length_mm": _Row("length", _NUMBER, _REQUIRED, 1e-3, _positive),
    "reference_wavelength_nm": _Row("reference_wavelength", _NUMBER, 1550.12, 1e-9, _positive),
    "beta2_s2_per_m": _Row("beta2", _NUMBER, 0.0),
    "beta3_s3_per_m": _Row("beta3", _NUMBER, 0.0),
}
_RING = {
    "kind": _Row(None),
    "q_factor": _Row("q_factor", _NUMBER, rule=_positive),
    "fsr_nm": _Row("fsr", _NUMBER, _REQUIRED, 1e-9, _positive),
    "resonance_nm": _Row("center_wavelength", _NUMBER, _REQUIRED, 1e-9, _positive),
    "pump_comb_index": _Row("pump_comb_index", _INTEGER, 2, rule=_in_range(1)),
    "detuning_p1_nm": _Row("detuning_p1", _NUMBER, 0.0, 1e-9),
    "detuning_p2_nm": _Row("detuning_p2", _NUMBER, 0.0, 1e-9),
}
_SOURCES = {"waveguide": (_WAVEGUIDE, _waveguide), "ring": (_RING, RingSource)}
_FILTER = {
    "center_nm": _Row("center_wavelength", _NUMBER, _REQUIRED, 1e-9, _positive),
    "bandwidth_nm": _Row("bandwidth", _NUMBER, _REQUIRED, 1e-9, _positive),
    "profile": _Row("profile", None, "rectangle"),
    "rolloff": _Row("rolloff", _NUMBER, 0.0),
}
_GRID = {
    "center_nm": _Row("center_wavelength", _NUMBER, 1550.12, 1e-9, _positive),
    "span_nm": _Row("span", _NUMBER, 1.2, 1e-9, _positive),
    "points": _Row("n_points", _INTEGER, 401, rule=_in_range(2, MAX_GRID_POINTS)),
}
_FRINGE = {
    "phase_min": _Row("phase_min", _NUMBER, 0.0),
    "phase_max": _Row("phase_max", _NUMBER, 2.0 * np.pi),
    "steps": _Row("steps", _INTEGER, 181, rule=_in_range(2, MAX_FRINGE_STEPS)),
}
_SQUEEZING = {"xi": _Row("xi", _NUMBER, 0.1), "eta": _Row("eta", _NUMBER, 1.0)}


def _name(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string")
    return value


def _pumps(value, path: str) -> tuple:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{path}: exactly two pump lines are required")
    return tuple(_section(_PUMP, PumpLine)(pump, f"{path}[{i}]") for i, pump in enumerate(value))


def _source(section, path: str):
    # not a mapping: _fields reports it
    kind = section.get("kind") if isinstance(section, dict) else "waveguide"
    if kind not in ("waveguide", "ring"):  # a tuple: kind may be unhashable
        raise ConfigError(f"{path}.kind: must be 'waveguide' or 'ring', got {kind!r}")
    return _section(*_SOURCES[kind])(section, path)


def _fringe(section, path: str) -> FringeSettings:
    fringe = FringeSettings(**_fields(section, _FRINGE, path))
    if not fringe.phase_max > fringe.phase_min:
        raise ConfigError(f"{path}: phase_max must exceed phase_min")
    return fringe


def _squeezing(section, path: str) -> SqueezingSettings:
    squeezing = SqueezingSettings(**_fields(section, _SQUEEZING, path))
    if squeezing.xi < 0:
        raise ConfigError(f"{path}.xi: must be >= 0, got {squeezing.xi}")
    if not 0.0 <= squeezing.eta <= 1.0:
        raise ConfigError(f"{path}.eta: must be in [0, 1], got {squeezing.eta}")
    return squeezing


_TOP = {
    "name": _Row("name", rule=_name),
    "pumps": _Row("pumps", rule=_pumps),
    "source": _Row("source", rule=_source),
    "source2": _Row("source2", default=None, rule=_source),
    "filter": _Row("filter_spec", default=None, rule=_section(_FILTER, FilterSpec)),
    "grid": _Row("axis", default={}, rule=_section(_GRID, make_grid)),
    "fringe": _Row("fringe", default={}, rule=_fringe),
    "car": _Row("car", _NUMBER, None, rule=_positive),
    "squeezing": _Row("squeezing", default={}, rule=_squeezing),
}


def scenario_from_dict(data: dict, name_hint: str = "<dict>") -> Scenario:
    """Validate a scenario mapping (strict: unknown keys fail) and convert it to SI."""
    return Scenario(**_fields(data, _TOP, name_hint), raw=data)


def load_scenario(path) -> Scenario:
    """Load and validate a scenario YAML file (strict: unknown keys fail)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = yaml.load(handle, Loader=_LOADER)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: e.g. an integer over 4300 digits
        # cut Python's advice to call sys.set_int_max_str_digits(), which a CLI user cannot follow
        raise ConfigError(f"malformed YAML in {path}: {str(exc).partition('; use sys.')[0]}") from exc
    if data is None:
        raise ConfigError(f"{path}: empty scenario; missing required key 'pumps'")
    return scenario_from_dict(data, name_hint=str(path))


BUNDLED_SCENARIOS = (
    "sipic1_waveguide_15mm",
    "sipic1_ring",
    "sipic1_waveguide_0p24mm",
    "sipic2_waveguide_15mm",
    "sipic2_ring",
)


def load_bundled(name: str) -> Scenario:
    """Load one of the scenarios shipped with the package."""
    if name not in BUNDLED_SCENARIOS:
        raise ConfigError(f"unknown bundled scenario {name!r}; choose from {BUNDLED_SCENARIOS}")
    ref = resources.files("biphoton.scenarios").joinpath(f"{name}.yaml")
    data = yaml.load(ref.read_text(encoding="utf-8"), Loader=_LOADER)
    return scenario_from_dict(data, name_hint=name)
