"""Solver and verification tools for a two-dimensional non-isentropic
magnetohydrodynamic boundary layer with a non-degenerate tangential field.

The wall layer is rewritten in stream-function coordinates, where the system
for v = (u1, theta, h1^2/2) is quasilinear with a known symmetrizer; it is
solved by a frozen-coefficient iteration whose stages are linear IMEX steps,
and the result is pulled back to physical variables.  See the module
docstrings for the details of each stage.
"""

from .coeffs import (advection_radius, eval_advection, eval_diffusion,
                     eval_lower_order, eval_symmetrizer)
from .diagnostics import (NormSpec, OutflowConsistencyReport, ResidualReport,
                          discrete_norm, energy_functional,
                          outflow_consistency, residual_transformed,
                          trace_check)
from .errors import (CFLError, ConfigError, DegenerateStateError,
                     GridSizingError, LinearSolveError, MhblError,
                     MissingTimeLevelError, NondegeneracyError,
                     PositivityError, PreconditionError, SnapshotFormatError)
from .fields import (AdmissibilityReport, Grid, OutflowData, OutflowSpec,
                     Params, State, make_grid, sample_outflow,
                     validate_admissibility)
from .mms import (ManufacturedCase, StudyResult, case_library,
                  convergence_study, manufacture_source, solve_case,
                  write_study_csv)
from .picard import (Background, CompatibilitySet, IterationReport,
                     build_background, build_zeroth_approx,
                     compatibility_derivatives, cutoff_phi, picard_solve)
from .snapshots import Snapshot, emit_plot_data, read_snapshot, write_snapshot
from .stepper import (BlockTridiag, FrozenCoeffs, Trajectory, apply_bcs,
                      apply_derivative, solve_linear_problem, step_linear)
from .transform import (PhysicalState, check_physical_constraints,
                        initial_eta_map, pullback_physical, residual_original,
                        stream_from_h1)

__version__ = "0.1.0"
