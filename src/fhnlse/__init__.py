"""Spectral laboratory for a fractional Schrodinger equation with a
Hartree-type nonlocal interaction on a periodic box.

The package computes mass-constrained energy minimizers by preconditioned
descent on the mass sphere, checks their qualitative properties (negative energy,
mass-scaling law, radial symmetry via rearrangement, subadditivity), and
probes orbital stability by evolving perturbed minimizers with a Strang
splitting integrator.
"""

from .dynamics import Trajectory, evolve
from .errors import NonConvergenceError, NumericalAbort
from .fields import Field, gaussian, mass, plane_wave, random_band_limited
from .grid import Grid, PhysicsParams
from .groundstate import (
    AlignResult,
    GroundState,
    ScalingResult,
    ScalingRow,
    SolveOptions,
    SubadditivityResult,
    align,
    minimize,
    require_converged,
    scaling_experiment,
    subadditivity_check,
)
from .kernel import HartreeKernel, hartree_direct
from .rearrange import symmetric_rearrange
from .snapshots import read_field, write_csv, write_field, write_json
from .spectral import energy, energy_gradient, h_alpha_norm, lagrange_multiplier
from .stability import StabilityReport, perturb, stability_run
from .verify import CheckResult, run_checks

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AlignResult",
    "CheckResult",
    "Field",
    "Grid",
    "GroundState",
    "HartreeKernel",
    "NonConvergenceError",
    "NumericalAbort",
    "PhysicsParams",
    "ScalingResult",
    "ScalingRow",
    "SolveOptions",
    "StabilityReport",
    "SubadditivityResult",
    "Trajectory",
    "align",
    "energy",
    "energy_gradient",
    "evolve",
    "gaussian",
    "h_alpha_norm",
    "hartree_direct",
    "lagrange_multiplier",
    "mass",
    "minimize",
    "perturb",
    "plane_wave",
    "random_band_limited",
    "read_field",
    "require_converged",
    "run_checks",
    "scaling_experiment",
    "stability_run",
    "subadditivity_check",
    "symmetric_rearrange",
    "write_csv",
    "write_field",
    "write_json",
]
