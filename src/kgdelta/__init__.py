"""Numerical laboratory for the damped Klein-Gordon equation on the line
with an attractive/repulsive delta potential at the origin:

    u_tt - u_xx + 2 alpha u_t + u - gamma delta_0 u = |u|^{p-1} u,
    p > 2, alpha > 0, gamma < 2.

Submodules: closed-form soliton profiles (profiles), the grid, the discrete
operator with its solves and the grid functionals (field), the damped
leapfrog evolution (evolution), modulation analysis around moving solitons
(modulation), certified decay/blowup classification and threshold shooting
(experiments), Nehari-level descent (variational), and the `kg` command
line front-end (cli).
"""
from .errors import (
    BracketError,
    ConfigError,
    GridError,
    KgError,
    NoConvergenceError,
    NumericError,
    OutOfTubeError,
    ParameterError,
    SingularSystemError,
)
from .field import GridSpec, PhysParams, State, make_grid

__all__ = [
    "BracketError",
    "ConfigError",
    "GridError",
    "GridSpec",
    "KgError",
    "NoConvergenceError",
    "NumericError",
    "OutOfTubeError",
    "ParameterError",
    "PhysParams",
    "SingularSystemError",
    "State",
    "make_grid",
]

__version__ = "0.1.0"
