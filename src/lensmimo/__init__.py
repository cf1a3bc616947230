"""Link-level simulator for millimeter-wave MIMO with lens antenna arrays.

Core pieces: sinc-profile lens array responses with an aperture-integration
oracle, a sparse multipath channel generator with one factored per-path
response core (PathResponses) behind every channel form, path division
multiplexing transceivers (orthogonal ideal-angle form, MRC/MMSE combining,
path grouping), a conventional uniform-planar-array benchmark, and a Monte
Carlo experiment harness with CLI and CSV output.
"""
from .arrays import (
    LensArrayConfig,
    LensOracleConfig,
    UpaConfig,
    lens_response,
    lens_response_oracle,
    lens_response_spatial,
    spatial_decompose,
    upa_response,
)
from .channel import (
    ChannelStats,
    PathResponses,
    PathSet,
    TappedChannel,
    path_responses,
    sample_paths,
)
from .errors import (
    AccuracyError,
    ConfigError,
    DegenerateInputError,
    IdealAngleError,
    InvalidInputError,
    LensMimoError,
    NumericalError,
    StatisticalValidityError,
    UnsupportedConfigurationError,
)
from .experiments import (
    ExperimentConfig,
    ResultRow,
    preset,
    preset_names,
    run_experiment,
    sweep,
)
from .grouping import (
    GroupPartition,
    check_separation,
    group_channels,
    group_paths,
    grouped_capacity,
)
from .numerics import (
    PowerAllocation,
    eigen_gains,
    hermitian_solve,
    water_fill,
    waterfill_capacity,
)
from .opdm import opdm_decompose
from .pdm import (
    IpcMatrix,
    SinrReport,
    ipc_coefficients,
    mmse_combiners,
    mrc_combiners,
    mrt_precoders,
    pdm_sinr,
    simulate_symbols,
)
from .selection import SupportSets, restrict_to_support, support_sets
from .upa import (
    OfdmConfig,
    eigenmode_capacity,
    ofdm_capacity,
    power_select_antennas,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
