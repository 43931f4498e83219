"""Short-term voltage stability indices from post-fault voltage records.

The pipeline decomposes multi-channel post-fault voltage into
oscillatory components and a recovery trend, estimates finite-time /
finite-size Lyapunov exponent series for each part, and scores the
divergence-factor distributions against a shifted reversed Gompertz
reference via KL divergence.  Two indices result: a system-level
oscillation index and a per-generator recovery (trip-prediction) index,
each with a critical value, a classification and a signed margin.

The package root holds what a caller of the whole pipeline needs; each
lower-level step is imported from the module that defines it.
"""

from .errors import ComputationError, StvsError, ValidationError
from .indices import AssessmentConfig, StabilityAssessment, assess
from .ingest import Channel, VoltageTrajectory, load_trajectory, write_trajectory
from .oel import GeneratorSpec, load_generator_config
from .stream import Monitor
from .synth import ScenarioParams, synth_scenario

__version__ = "0.1.0"
