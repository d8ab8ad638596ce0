"""Solver and verification tools for a two-dimensional non-isentropic
magnetohydrodynamic boundary layer with a non-degenerate tangential field.

The wall layer is rewritten in stream-function coordinates, where the system
for v = (u1, theta, h1^2/2) is quasilinear with a known symmetrizer; it is
solved by a frozen-coefficient iteration whose stages are linear IMEX steps,
and the result is pulled back to physical variables.  See the module
docstrings for the details of each stage.

The names below are resolved on first use (PEP 562), so importing the
package, or only its command line, loads neither numpy nor scipy; the
command line can then set the numerical backend's thread count before it
loads.  Of scipy, the solver loads only the f2py LAPACK module, from its
file (see mhbl.stepper); scipy.linalg comes in only with scipy.interpolate,
for a rough pullback row.
"""

import importlib

_EXPORTS = {
    "coeffs": ("matrices",),
    "diagnostics": ("OutflowConsistencyReport", "ResidualReport",
                    "discrete_norm", "energy_functional",
                    "outflow_consistency", "residual_transformed",
                    "trace_check"),
    "errors": ("CFLError", "ConfigError", "DegenerateStateError",
               "GridSizingError", "LinearSolveError", "MhblError",
               "MissingTimeLevelError", "NonConvergenceError",
               "NondegeneracyError",
               "PositivityError", "PreconditionError", "SnapshotFormatError"),
    "fields": ("AdmissibilityReport", "Grid", "OutflowData", "OutflowSpec",
               "Params", "State", "make_grid", "sample_outflow"),
    "mms": ("ManufacturedCase", "StudyResult", "case_library",
            "convergence_study", "manufacture_source", "solve_case",
            "write_study_csv"),
    "picard": ("Background", "IterateRecord", "IterationReport",
               "build_background", "build_zeroth_approx",
               "compatibility_derivatives", "cutoff_phi", "picard_solve"),
    "snapshots": ("Snapshot", "emit_plot_data", "read_snapshot",
                  "write_snapshot"),
    "stepper": ("BlockTridiag", "FrozenCoeffs", "Trajectory",
                "apply_derivative", "solve_linear_problem"),
    "transform": ("PhysicalState", "check_physical_constraints",
                  "initial_eta_map", "pullback_physical", "residual_original",
                  "stream_from_h1", "time_differences"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    # not cached: mhbl.<name> is always the submodule's current binding
    if name in _SOURCE:
        return getattr(importlib.import_module(f".{_SOURCE[name]}", __name__),
                       name)
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SOURCE) | set(_EXPORTS))
