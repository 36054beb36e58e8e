"""chebcast: Chebyshev ridge-regression feature forecasting for ODE samplers.

The package forecasts denoiser features across skipped solver steps by
fitting per-channel Chebyshev coefficients online, alongside naive-reuse and
Taylor baselines, precomputed activation schedules, analytic sandbox
denoisers for ground-truth comparisons, and numerical verification of the
associated approximation error bounds.
"""

from .basis import EllipseBound, basis_matrix, basis_row, project_time, truncation_bound
from .bounds import (
    spectral_bound,
    taylor_worst_case,
    verify_cheb_decay,
    verify_spectral_bound,
    verify_taylor_attainment,
)
from .denoisers import (
    BlockStack,
    ExponentialChannel,
    FunctionFamily,
    GaussianMixtureFlow,
    PolynomialChannel,
    SineChannel,
    evaluate_denoiser,
)
from .forecasters import spectral_weights, taylor_weights
from .plan import ForecasterChoice, SolverConfig
from .ridge import RidgeFitError, leading_triangle, min_singular
from .sandbox import (
    SamplerError,
    TrajectoryRecord,
    oracle_run,
    rmse_vs_oracle,
    run_sampler,
    sample_initial_latent,
    sweep_report,
    trajectory_to_csv,
)
from .schedule import ActivationSchedule, ScheduleParams, adaptive_schedule, uniform_schedule

__version__ = "0.1.0"
