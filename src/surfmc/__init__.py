"""Surface-code decoders and Monte Carlo benchmark harness.

Decoders: plain minimum-weight perfect matching, class-forced matching with
correlated scoring, a single-temperature Metropolis decoder, and a
free-energy-integral variant, validated against exact brute-force enumeration
on small codes.
"""

from .errors import (
    ConfigError,
    DecoderInternalError,
    InconsistentHypothesisError,
    InfeasibleMatchingError,
    InvalidMoveError,
    InvalidParameterError,
)
from .geometry import (
    CLASS_I,
    CLASS_X,
    CLASS_Y,
    CLASS_Z,
    EQUIV_CLASSES,
    CodeLayout,
    EquivalenceClass,
    PauliFrame,
    Stabilizer,
    Syndrome,
    build_layout,
)
from .harness import (
    ExperimentConfig,
    fatal_pattern_suite,
    oracle_check,
    run_campaign,
    scaling_probe,
    write_plot_data,
    write_results_csv,
)
from .matching import (
    ClassChainSet,
    DecoderVerdict,
    Matching,
    decode_both,
    decode_enhanced,
    decode_standard,
    min_weight_perfect_matching,
    refine_frame,
)
from .mcmc import (
    MetropolisChain,
    SingleTempConfig,
    decode_free_energy,
    decode_single_temperature,
    default_single_temp_config,
    free_energy_temperatures,
    parallel_sweep_schedule,
    run_parallel_sweep,
    zero_temperature_score,
)
from .noise import NoiseModel, beta_bar, chain_energy, error_score, sample_frame
from .oracle import (
    ClassOrbit,
    enumerate_orbit,
    exact_boltzmann,
    exact_class_distribution,
    exact_decoder,
)
from .spacetime import (
    MeasurementModel,
    MeasurementRecord,
    SpacetimeChain,
    SpacetimeHypothesis,
    deformation_move,
    initial_hypothesis,
    sample_record,
    spacetime_energy,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
