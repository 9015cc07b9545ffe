"""Wave-controlled bias for varactor-tuned reflective surfaces.

The toolkit models a row of reflective unit cells biased through a
single slow-wave transmission line: a standing wave set up on the
line is peak-rectified at each tap, the resulting dc pattern tunes
each cell's varactor, and the per-cell reflection coefficients form
a far-field array factor.  Steering reduces to choosing the drive
frequency and amplitude of the standing wave.
"""

from .btl import (
    BtlDesign,
    Excitation,
    MicrostripSpec,
    Mode,
    Termination,
    effective_permittivity,
    fundamental_frequency,
    rectified_bias,
    slowness_factor,
    standing_wave_amplitude,
)
from .cascade import CascadeNetwork, build_network, solve_taps
from .config import RunConfig, config_from_dict, load_bundled_config, load_config
from .constants import C0, ETA0, MU0
from .errors import (
    ClampWarning,
    ConfigError,
    FitError,
    InputError,
    ParseError,
    SolverError,
    WavectlError,
)
from .radiation import (
    RadiationPattern,
    array_factor,
    default_theta_grid,
)
from .steering import (
    SearchSpec,
    evaluate_operating_point,
    optimize_single_beam,
    specular_scan,
)
from .unitcell import (
    CellCircuit,
    ImpedanceSamples,
    VaractorTable,
    equivalent_impedance,
    fit_circuit_model,
    ingest_impedance,
    reflection_profile,
    synthesize_samples,
)

__version__ = "0.1.0"

__all__ = [
    "BtlDesign",
    "C0",
    "CascadeNetwork",
    "CellCircuit",
    "ClampWarning",
    "ConfigError",
    "ETA0",
    "Excitation",
    "FitError",
    "ImpedanceSamples",
    "InputError",
    "MU0",
    "MicrostripSpec",
    "Mode",
    "ParseError",
    "RadiationPattern",
    "RunConfig",
    "SearchSpec",
    "SolverError",
    "Termination",
    "VaractorTable",
    "WavectlError",
    "array_factor",
    "build_network",
    "config_from_dict",
    "default_theta_grid",
    "effective_permittivity",
    "equivalent_impedance",
    "evaluate_operating_point",
    "fit_circuit_model",
    "fundamental_frequency",
    "ingest_impedance",
    "load_bundled_config",
    "load_config",
    "optimize_single_beam",
    "rectified_bias",
    "reflection_profile",
    "slowness_factor",
    "solve_taps",
    "specular_scan",
    "standing_wave_amplitude",
    "synthesize_samples",
    "__version__",
]
