"""Extended Boussinesq water-wave modelling over a flat bottom.

A split finite-volume/finite-difference solver for a one-parameter family
of weakly nonlinear, fully dispersive shallow water systems, together with
the dispersion analysis used to tune the correction parameter and the
closed-form reference solutions used for validation.
"""

from .core import (BlowUpError, ConfigurationError, Grid, HyperbolicityError,
                   KernelBuildError, ModelVariant, PhysParams, StallError, State,
                   relative_l2_error)
from .dispersion import (DispersionInstabilityError, DispersionKind,
                         DispersionModel, omega, omega_squared, optimize_alpha,
                         stability_bound, velocities, weighted_error)
from .analytic import (SolitaryWaveSpec, base_wave, corrected_solution,
                       corrector_source, dam_break_profile, heap_profile)
from .splitting import ConversionOperator, RunState, StrangSolver, choose_dt
from .dispersive import DispersiveOperators, build_operators, rk4_fd_step
from .hyperbolic import Workspace, hyperbolic_rhs, limiter, reconstruction_deltas, rk4_fv_step
from .scenarios import (ConvergenceReport, ScenarioConfig, ScenarioResult,
                        builtin_names, builtin_scenario, run_convergence,
                        run_dispersion_report, run_scenario, stability_demo,
                        strang_steps)

__version__ = "0.1.0"
