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
import json
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np
import yaml

from .dispersion import DispersionModel
from .errors import ConfigError
from .spectral import FilterSpec, FrequencyGrid, PumpLine, make_grid, wavelength_to_omega
from .sources import RingSource, WaveguideSource

SCHEMA_VERSION = 1

_GHZ = 2.0 * np.pi * 1e9  # linewidths are quoted as ordinary-frequency FWHM


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
    source2: object = None  # optional second source of a pair
    filter_spec: FilterSpec = None
    grid_center: float = 1550.12e-9
    grid_span: float = 1.2e-9
    grid_points: int = 401
    fringe: FringeSettings = field(default_factory=FringeSettings)
    car: float = None
    squeezing: SqueezingSettings = None
    raw: dict = field(default_factory=dict, repr=False)

    def grid(self, n_points: int = None) -> FrequencyGrid:
        if n_points is None:
            n_points = self.grid_points
        elif n_points < 2:
            raise ConfigError(f"grid points must be >= 2, got {n_points}")
        return make_grid(self.grid_center, self.grid_span, n_points)

    def content_hash(self) -> str:
        """Deterministic hash of the scenario contents (for output headers)."""
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


_PUMP_KEYS = {"wavelength_nm": True, "linewidth_ghz": False, "shape": False, "amplitude": False}
_WG_KEYS = {
    "kind": True,
    "length_mm": True,
    "beta2_s2_per_m": False,
    "beta3_s3_per_m": False,
    "reference_wavelength_nm": False,
}
_RING_KEYS = {
    "kind": True,
    "q_factor": True,
    "fsr_nm": True,
    "resonance_nm": True,
    "pump_comb_index": False,
    "detuning_p1_nm": False,
    "detuning_p2_nm": False,
}
_FILTER_KEYS = {
    "center_nm": True,
    "bandwidth_nm": True,
    "profile": False,
    "rolloff": False,
}
_GRID_KEYS = {"center_nm": False, "span_nm": False, "points": False}
_FRINGE_KEYS = {"phase_min": False, "phase_max": False, "steps": False}
_SQUEEZE_KEYS = {"xi": False, "eta": False}
_TOP_KEYS = {
    "name": True,
    "pumps": True,
    "source": True,
    "source2": False,
    "filter": False,
    "grid": False,
    "fringe": False,
    "car": False,
    "squeezing": False,
}

DEFAULT_LINEWIDTH_GHZ = 80.0  # effective CW linewidth; see docs/scenarios.md


def _require_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(obj).__name__}")
    return obj


def _check_keys(section: dict, allowed: dict, path: str):
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")
    for key, required in allowed.items():
        if required and key not in section:
            raise ConfigError(f"{path}.{key}: missing required key")


def _number(section: dict, key: str, path: str, default=None, positive: bool = False):
    if key not in section:
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{path}.{key}: must be finite, got {section[key]!r}")
    if positive and value <= 0:
        raise ConfigError(f"{path}.{key}: must be positive, got {section[key]}")
    return value


def _integer(section: dict, key: str, path: str, default: int, minimum: int = None) -> int:
    if key not in section:
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}.{key}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}.{key}: must be >= {minimum}, got {value}")
    return value


def _parse_pump(section, path: str) -> PumpLine:
    section = _require_mapping(section, path)
    _check_keys(section, _PUMP_KEYS, path)
    wavelength = _number(section, "wavelength_nm", path, positive=True) * 1e-9
    linewidth = _number(section, "linewidth_ghz", path, DEFAULT_LINEWIDTH_GHZ, positive=True)
    shape = section.get("shape", "gaussian")
    if shape not in ("gaussian", "lorentzian"):
        raise ConfigError(f"{path}.shape: must be 'gaussian' or 'lorentzian', got {shape!r}")
    amplitude = complex(_number(section, "amplitude", path, 1.0))
    return PumpLine(
        center_wavelength=wavelength,
        linewidth_fwhm=linewidth * _GHZ,
        shape=shape,
        relative_amplitude=amplitude,
    )


def _parse_source(section, path: str):
    section = _require_mapping(section, path)
    kind = section.get("kind")
    if kind == "waveguide":
        _check_keys(section, _WG_KEYS, path)
        length = _number(section, "length_mm", path, positive=True) * 1e-3
        ref_nm = _number(section, "reference_wavelength_nm", path, 1550.12, positive=True)
        model = DispersionModel(
            reference_omega=float(wavelength_to_omega(ref_nm * 1e-9)),
            beta2=_number(section, "beta2_s2_per_m", path, 0.0),
            beta3=_number(section, "beta3_s3_per_m", path, 0.0),
        )
        return WaveguideSource(length=length, dispersion=model)
    if kind == "ring":
        _check_keys(section, _RING_KEYS, path)
        return RingSource(
            q_factor=_number(section, "q_factor", path, positive=True),
            fsr=_number(section, "fsr_nm", path, positive=True) * 1e-9,
            center_wavelength=_number(section, "resonance_nm", path, positive=True) * 1e-9,
            pump_comb_index=_integer(section, "pump_comb_index", path, 2),
            detuning_p1=_number(section, "detuning_p1_nm", path, 0.0) * 1e-9,
            detuning_p2=_number(section, "detuning_p2_nm", path, 0.0) * 1e-9,
        )
    raise ConfigError(f"{path}.kind: must be 'waveguide' or 'ring', got {kind!r}")


def scenario_from_dict(data: dict, name_hint: str = "<dict>") -> Scenario:
    data = _require_mapping(data, name_hint)
    _check_keys(data, _TOP_KEYS, name_hint)
    if not isinstance(data.get("name"), str):
        raise ConfigError(f"{name_hint}.name: expected a string")
    pumps = data["pumps"]
    if not isinstance(pumps, list) or len(pumps) != 2:
        raise ConfigError(f"{name_hint}.pumps: exactly two pump lines are required")
    pump_lines = tuple(
        _parse_pump(p, f"{name_hint}.pumps[{i}]") for i, p in enumerate(pumps)
    )
    source = _parse_source(data["source"], f"{name_hint}.source")
    source2 = (
        _parse_source(data["source2"], f"{name_hint}.source2") if "source2" in data else None
    )
    filter_spec = None
    if "filter" in data:
        fsec = _require_mapping(data["filter"], f"{name_hint}.filter")
        _check_keys(fsec, _FILTER_KEYS, f"{name_hint}.filter")
        profile = fsec.get("profile", "rectangle")
        if profile not in ("rectangle", "raised_cosine"):
            raise ConfigError(f"{name_hint}.filter.profile: unknown profile {profile!r}")
        filter_spec = FilterSpec(
            center_wavelength=_number(fsec, "center_nm", f"{name_hint}.filter", positive=True)
            * 1e-9,
            bandwidth=_number(fsec, "bandwidth_nm", f"{name_hint}.filter", positive=True) * 1e-9,
            profile=profile,
            rolloff=_number(fsec, "rolloff", f"{name_hint}.filter", 0.0),
        )
    grid_center, grid_span, grid_points = 1550.12e-9, 1.2e-9, 401
    if "grid" in data:
        gsec = _require_mapping(data["grid"], f"{name_hint}.grid")
        _check_keys(gsec, _GRID_KEYS, f"{name_hint}.grid")
        grid_center = _number(gsec, "center_nm", f"{name_hint}.grid", 1550.12, positive=True) * 1e-9
        grid_span = _number(gsec, "span_nm", f"{name_hint}.grid", 1.2, positive=True) * 1e-9
        grid_points = _integer(gsec, "points", f"{name_hint}.grid", 401, minimum=2)
    fringe = FringeSettings()
    if "fringe" in data:
        frsec = _require_mapping(data["fringe"], f"{name_hint}.fringe")
        _check_keys(frsec, _FRINGE_KEYS, f"{name_hint}.fringe")
        fringe = FringeSettings(
            phase_min=_number(frsec, "phase_min", f"{name_hint}.fringe", 0.0),
            phase_max=_number(frsec, "phase_max", f"{name_hint}.fringe", 2.0 * np.pi),
            steps=_integer(frsec, "steps", f"{name_hint}.fringe", 181, minimum=2),
        )
        if not fringe.phase_max > fringe.phase_min:
            raise ConfigError(f"{name_hint}.fringe: phase_max must exceed phase_min")
    car = _number(data, "car", name_hint, None, positive=True) if "car" in data else None
    squeezing = None
    if "squeezing" in data:
        ssec = _require_mapping(data["squeezing"], f"{name_hint}.squeezing")
        _check_keys(ssec, _SQUEEZE_KEYS, f"{name_hint}.squeezing")
        squeezing = SqueezingSettings(
            xi=_number(ssec, "xi", f"{name_hint}.squeezing", 0.1),
            eta=_number(ssec, "eta", f"{name_hint}.squeezing", 1.0),
        )
        if squeezing.xi < 0:
            raise ConfigError(f"{name_hint}.squeezing.xi: must be >= 0, got {squeezing.xi}")
        if not 0.0 <= squeezing.eta <= 1.0:
            raise ConfigError(f"{name_hint}.squeezing.eta: must be in [0, 1], got {squeezing.eta}")
    return Scenario(
        name=data["name"],
        pumps=pump_lines,
        source=source,
        source2=source2,
        filter_spec=filter_spec,
        grid_center=grid_center,
        grid_span=grid_span,
        grid_points=grid_points,
        fringe=fringe,
        car=car,
        squeezing=squeezing,
        raw=data,
    )


def load_scenario(path) -> Scenario:
    """Load and validate a scenario YAML file (strict: unknown keys fail)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = yaml.safe_load(handle)
    except FileNotFoundError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML in {path}: {exc}") from exc
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
    data = yaml.safe_load(ref.read_text(encoding="utf-8"))
    return scenario_from_dict(data, name_hint=name)
