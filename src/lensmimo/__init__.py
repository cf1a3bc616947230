"""Link-level simulator for millimeter-wave MIMO with lens antenna arrays.

Core pieces: sinc-profile lens array responses, a sparse multipath channel
generator with one factored per-path response core (PathResponses) that
every scheme reads, path division multiplexing transceivers (orthogonal
ideal-angle form, MRC/MMSE combining, path grouping), a conventional
uniform-planar-array benchmark, and a Monte Carlo experiment harness with
CLI and CSV output. The package holds only what a sweep runs; the
antenna-space SINR decomposition and its symbol-level simulation, the
inter-path coupling, the dense channel, the MRT precoders and the MRC and
MMSE combiners are test oracles kept next to the tests.
"""
from .arrays import LensArrayConfig, UpaConfig
from .channel import ChannelStats, PathResponses, PathSet, path_responses, sample_paths
from .errors import (
    ConfigError,
    DegenerateInputError,
    InvalidInputError,
    LensMimoError,
    NumericalError,
)
from .experiments import (
    ExperimentConfig,
    ResultRow,
    preset,
    preset_names,
    run_experiment,
    sweep,
)
from .grouping import group_channels, grouped_capacity, path_groups
from .numerics import eigen_gains, normalized_solve, water_fill, waterfill_capacity
from .opdm import is_ideal, path_gains
from .pdm import mmse_sinr, mrc_sinr, sum_rate
from .selection import SupportSets, support_sets
from .upa import (
    OfdmConfig,
    eigenmode_capacity,
    ofdm_capacity,
    power_select_antennas,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
