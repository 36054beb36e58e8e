"""chebcast: Chebyshev ridge-regression feature forecasting for ODE samplers.

The package forecasts denoiser features across skipped solver steps by
fitting per-channel Chebyshev coefficients online, alongside naive-reuse and
Taylor baselines, precomputed activation schedules, analytic sandbox
denoisers for ground-truth comparisons, and numerical verification of the
associated approximation error bounds.
"""

from .basis import EllipseBound, basis_matrix, basis_row, eval_cheb, project_time, truncation_bound
from .bounds import (
    spectral_bound,
    taylor_worst_case,
    verify_cheb_decay,
    verify_spectral_bound,
    verify_taylor_attainment,
)
from .forecasters import (
    FeatureCache,
    SpectralConfig,
    SpectralForecaster,
    SpectralState,
    TaylorForecaster,
    naive_forecast,
    spectral_fit,
    spectral_forecast,
    taylor_forecast,
)
from .ridge import (
    CoefficientMatrix,
    DesignMatrix,
    RidgeFitError,
    build_design,
    min_singular,
    ridge_objective,
    solve_ridge,
)
from .sandbox import (
    BlockStack,
    ExponentialChannel,
    ForecasterChoice,
    FunctionFamily,
    GaussianMixtureFlow,
    PolynomialChannel,
    SamplerError,
    SineChannel,
    SolverConfig,
    TrajectoryRecord,
    euler_step,
    evaluate_denoiser,
    oracle_run,
    rmse_vs_oracle,
    run_sampler,
    sample_initial_latent,
    sweep_report,
    trajectory_to_csv,
)
from .schedule import ActivationSchedule, ScheduleParams, adaptive_schedule, uniform_schedule

__version__ = "0.1.0"
