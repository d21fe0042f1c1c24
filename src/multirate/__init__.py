"""Structure-preserving multirate time integration for slow/fast mechanical systems."""

from .analysis import (
    ConvergenceTable,
    EnergySeries,
    ErrorNorms,
    StabilityReport,
    angular_momentum_series,
    convergence_study,
    empirical_stability_probe,
    energy_series,
    error_norms,
    propagation_matrix,
    stability_report,
)
from .discretization import interval_momenta
from .errors import (
    AbortedStepError,
    AlignmentError,
    ConfigurationError,
    DivergenceError,
    EvaluationError,
    IntegrationError,
    MultirateError,
)
from .model import (
    MultirateSystem,
    QuadratureSpec,
    SlowPlacement,
    State,
    TimeGrid,
    Trajectory,
    build_time_grid,
    momenta_from_velocities,
    validate_system,
)
from .schemes import pq_step
from .solver import (
    IntegrationStats,
    IntegratorMode,
    MacroStep,
    SolverConfig,
    StepStats,
    TrajectoryCertificate,
    explicit_macro_step,
    initial_step,
    integrate,
    macro_flow_map,
    macro_step,
    verify_trajectory,
)
from .systems import FpuConfig, SpringRingConfig, build_fpu, build_spring_ring

__version__ = "0.1.0"
