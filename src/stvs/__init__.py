"""Short-term voltage stability indices from post-fault voltage records.

The pipeline decomposes multi-channel post-fault voltage into
oscillatory components and a recovery trend, estimates finite-time /
finite-size Lyapunov exponent series for each part, and scores the
divergence-factor distributions against a shifted reversed Gompertz
reference via KL divergence.  Two indices result: a system-level
oscillation index and a per-generator recovery (trip-prediction) index,
each with a critical value, a classification and a signed margin.
"""

from .distribution import (
    gompertz_reference_table,
    kl_divergence_table,
)
from .embed import (
    augment_rocov,
    delay_embed,
    normalize_channels,
)
from .emd import (
    DecompositionResult,
    decompose,
    decompose_signals,
    filter_imfs_by_frequency,
    zero_crossing_frequency,
)
from .errors import (
    ComputationError,
    StvsError,
    TriviallySafe,
    TriviallyTripping,
    ValidationError,
)
from .indices import (
    AssessmentConfig,
    StabilityAssessment,
    assess,
    classify,
    imf_threshold,
    oscillation_index,
)
from .ingest import (
    Channel,
    VoltageTrajectory,
    detect_fault_clear_index,
    estimate_prefault_voltage,
    extract_post_fault_window,
    load_trajectory,
    write_trajectory,
)
from .lyapunov import (
    ExponentSeries,
    fsle_oscillation_series,
    fsle_residual_series,
    ftle_window,
    noise_bias_variance,
)
from .oel import (
    GeneratorSpec,
    OELCharacteristic,
    TuningResult,
    construct_critical_signals,
    fit_qv,
    load_generator_config,
    tune_gamma,
    voltage_cap,
)
from .stream import Monitor
from .synth import (
    ScenarioParams,
    TwoTimescaleParams,
    analytic_ftle,
    simulate_two_timescale,
    synth_scenario,
)

__version__ = "0.1.0"
