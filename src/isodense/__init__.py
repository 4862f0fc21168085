"""Weighted isoperimetric solvers for the radial density r**p + a.

Closed-form and numerical minimum-perimeter regions at fixed weighted mass
on the line, in the plane, and in space, plus a constrained polygonal
curve evolver that validates the closed forms.
"""

from .density import (
    Density,
    Dimension,
    critical_mass,
    critical_offset,
    critical_offset_1d,
)
from .evolver import (
    EvolveReport,
    PolyCurve,
    evolve_2d,
    evolve_3d_axisym,
    isoperimetric_quotient,
    weighted_mass_2d,
    weighted_perimeter_2d,
)
from .interval1d import (
    ContourGrid,
    Interval,
    IntervalBranch,
    IntervalSolution,
    brute_force_oracle,
    contour_curvatures,
    contour_grid,
    mass1d,
    perimeter1d,
    reduce_intervals,
    solve_general,
    solve_p1,
    solve_p2,
    solve_p_lt_1,
    solve_symmetric,
)
from .numerics import NumericError, bisect, golden_min
from .radial import (
    BallBranch,
    BallSolution,
    circle_polar_profile,
    generalized_curvature,
    offcenter_p2_2d,
    offcenter_p2_3d,
    offcenter_quadrature_2d,
    offcenter_quadrature_3d,
    solve_2d_p2,
    solve_3d_p2,
    symmetric_ball,
)

__version__ = "0.1.0"

__all__ = [
    "Density",
    "Dimension",
    "critical_mass",
    "critical_offset",
    "critical_offset_1d",
    "Interval",
    "IntervalBranch",
    "IntervalSolution",
    "ContourGrid",
    "perimeter1d",
    "mass1d",
    "solve_p2",
    "solve_p1",
    "solve_p_lt_1",
    "solve_symmetric",
    "solve_general",
    "brute_force_oracle",
    "reduce_intervals",
    "contour_grid",
    "contour_curvatures",
    "BallBranch",
    "BallSolution",
    "symmetric_ball",
    "offcenter_p2_2d",
    "offcenter_p2_3d",
    "offcenter_quadrature_2d",
    "offcenter_quadrature_3d",
    "solve_2d_p2",
    "solve_3d_p2",
    "generalized_curvature",
    "circle_polar_profile",
    "PolyCurve",
    "EvolveReport",
    "weighted_perimeter_2d",
    "weighted_mass_2d",
    "evolve_2d",
    "evolve_3d_axisym",
    "isoperimetric_quotient",
    "NumericError",
    "bisect",
    "golden_min",
]
