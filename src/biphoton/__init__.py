"""Simulation toolkit for integrated degenerate photon-pair sources.

Builds joint spectral amplitudes for spiral-waveguide and microring
sources pumped by two CW lasers, and derives spectral purity, source
overlap, interference fringes, and squeezed-state photon statistics.
"""
from .errors import (
    BiphotonError,
    ConfigError,
    CoverageError,
    DegenerateInputError,
    GridMismatchError,
    InvalidArgumentError,
    RingDetuningWarning,
    TruncationError,
    UnderResolvedError,
)
from .spectral import (
    C_VACUUM,
    FilterSpec,
    FrequencyGrid,
    PumpLine,
    make_grid,
    omega_to_wavelength,
    pump_amplitude,
    sample_filter,
    wavelength_to_omega,
)
from .dispersion import DispersionModel, k_of_omega
from .sources import (
    JointSpectralAmplitude,
    RingSource,
    WaveguideSource,
)
from .schmidt import (
    OverlapResult,
    SchmidtSpectrum,
    jsa_overlap,
    overlap_from_visibility,
    purity,
    schmidt_decompose,
    visibility_from_overlap,
)
from .squeezing import (
    SqueezingSpec,
    lossy_density_diagonal,
    mean_photon_number,
    trigger_probability,
)
from .fringes import (
    FringeScan,
    accidental_fraction,
    classical_transmission,
    corrected_visibility,
    extract_visibility,
    fringe_scan,
    reverse_hom_coincidence,
    two_mzi_coincidences,
)
from .scenario import (
    BUNDLED_SCENARIOS,
    Scenario,
    load_bundled,
    load_scenario,
    scenario_from_dict,
)

__version__ = "1.0.0"
