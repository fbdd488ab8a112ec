"""Electrostatic subproblem of the gauge-coupled standing wave.

For a matter profile u and coupling q > 0, the reduced potential phi_u is
the unique solution of the screened Poisson equation

    -lap phi + q^2 u^2 phi = q u^2,

equivalently the minimizer of the quadratic functional

    K(u, phi) = integral of |grad phi|^2 + (q phi - 1)^2 u^2.

The discretization assembles exactly the stationarity equations of the
discrete quadratic form, including a Robin closure at the truncation
radius that accounts for the A/r far field, so the identity
K(u, phi_u) = integral of (1 - q phi_u) u^2 holds to round-off and the
bounds 0 <= phi_u <= 1/q transfer to the grid (the discrete operator is
an M-matrix).

The screened mass K(u) replaces ||u||^2 in every charge formula of the
gauge-coupled theory: charge C = -q omega K(u), so fixing C = q sigma
gives omega = -sigma/K and the reduced energy

    E_sigma(u) = integral of |grad u|^2/2 + W(u)  +  sigma^2 / (2 K(u)).

``ScreenedPoisson`` holds the grid-only part of the matrix; its
``potential`` is the one assembly and solve, and its ``mass`` returns K
in its one energy form together with the phi_u it solved for.
``solve_phi`` and ``screened_mass`` are its wrappers for a validated
``RadialProfile``; the minimizer builds one kernel per grid and calls it
on the arrays of its projected iterates; it rejects a vortex grid.

This module provides phi_u and K(u) alone; the functionals built on them
(``functionals.deficiency``, ``reduced_energy``, ``stationary_operator``)
live in ``functionals``, which imports this module and not the reverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import (FOUR_PI, InvariantError, RadialGrid, RadialProfile, Tridiagonal, TridiagonalFactor,
                   trapezoid_weights)

_BOUND_SLACK = 1e-10
# K must exceed this multiple of eps^2 ||u||^2: K is a sum of (q phi - 1)^2
# u^2 whose factors 1 - q phi are resolved only to about eps, so a smaller
# K is round-off, not the screened mass
_MASS_FLOOR = 1e6 * float(np.finfo(float).eps) ** 2
_FLOAT_MAX = float(np.finfo(float).max)


@dataclass
class GaugePotential:
    """Reduced electrostatic potential on the same grid as its source."""

    grid: RadialGrid
    values: np.ndarray
    coupling: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n + 1,):
            raise ValueError("potential samples do not match the grid")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @cached_property
    def screen(self) -> np.ndarray:
        """The factor (1 - q phi)^2 by which the potential screens omega^2 in the matter equation."""
        screen = (1.0 - self.coupling * self.values) ** 2
        screen.setflags(write=False)
        return screen


class ScreenedPoisson:
    """The grid-only part of the screened Poisson matrix, built once for a grid.

    Its ``matrix``, a ``Tridiagonal``, holds the flux sums a_{i-1} + a_i on
    the diagonal and -a_i beside it, the Robin entry and the origin row;
    ``potential`` adds only the b_i q^2 u_i^2 diagonal and the source.
    The node masses b_i = w_i r_i^2 carry 1 at the origin, whose row
    collocates 3 phi''(0) + q^2 u_0^2 phi_0 = q u_0^2.  Every array is
    read-only, so one kernel serves every profile on its grid (a whole
    descent, for the minimizer).
    """

    def __init__(self, grid: RadialGrid):
        if not isinstance(grid, RadialGrid):
            raise ValueError(f"the gauge-coupled theory is radial; a {type(grid).__name__} is not a RadialGrid")
        self.grid = grid
        # the grid's cell fluxes a_i = r_i r_{i+1} / h and node masses b_i = w_i r_i^2
        a = grid.flux
        b = trapezoid_weights(grid.n, grid.h) * grid.nodes**2
        self.mass_scale = max(float(b.max()), 1.0)
        # origin row: collocation of the regular limit 3 phi''(0) (the grid Laplacian's origin
        # row), decoupled from the energy rows because the first cell carries zero weight; Robin
        # closure: the exterior A/r tail contributes r_max * phi_n^2 to the quadratic form, hence
        # + r_max on the last diagonal entry
        lap = grid.laplacian_matrix
        self.matrix = Tridiagonal(-a, np.concatenate(([-lap.diag[0]], a[:-1] + a[1:], [a[-1] + grid.r_max])),
                                  np.append(-lap.upper[0], -a[1:]))
        b[0] = 1.0
        for arr in (*self.matrix, b):
            arr.setflags(write=False)
        self.node_mass = b

    def potential(self, uu: np.ndarray, q: float) -> GaugePotential:
        """phi_u for the squared amplitude uu = u^2 by a direct tridiagonal solve.

        The one assembly of the screened Poisson matrix; every gauge-coupled
        path checks its coupling here.  ``uu`` is trusted to be the square
        of a nonnegative profile vanishing at r_max.

        Precondition: a profile that vanishes on a core r_1 .. r_{i-1} couples
        the core to its innermost charged node i only through the flux
        a_{i-1}, so that flux must stay above the float resolution of node i's
        diagonal, eps (a_{i-1} + a_i + b_i q^2 u_i^2).  Below it the pivoting
        of the solve can leave the core's potential to round-off; a phi that
        then misses its bounds is rejected with ValueError.  A phi outside its
        bounds otherwise is a solver defect (InvariantError); a phi within
        them is returned as solved.
        """
        if not (q > 0 and q * q < np.inf):
            raise ValueError(f"coupling q must be positive with a finite square, got {q!r}")
        # the diagonal adds (b_i q^2) u_i^2, and q^2 u_0^2 at the origin, to O(1)
        # fluxes; checked by division, since the products themselves may overflow
        if q > math.sqrt(_FLOAT_MAX / 2.0 / (self.mass_scale * max(uu.max(), 1.0))):
            raise ValueError(f"coupling q = {q!r} overflows the screened Poisson matrix on this grid")
        # (b_i q^2) u_i^2 onto the flux sums, in the order of a whole assembly,
        # so phi keeps its bits
        matrix = self.matrix._replace(diag=self.matrix.diag + self.node_mass * q**2 * uu)
        rhs = q * self.node_mass * uu
        factor = TridiagonalFactor(matrix)
        phi = factor.solve(rhs)
        # one step of iterative refinement, on the same factor: the Dirichlet rows
        # are stiff at fine grids and downstream finite differences of K(u) see
        # the solve noise
        phi = phi + factor.solve(rhs - matrix.apply(phi))

        slack = _BOUND_SLACK * max(1.0, 1.0 / q)
        if not (phi.min() >= -slack and phi.max() <= 1.0 / q + slack):
            i = int(np.argmax(uu[1:] > 0.0)) + 1  # the innermost charged node past the origin
            if i > 1 and self.grid.flux[i - 1] < np.finfo(float).eps * matrix.diag[i]:
                raise ValueError(f"coupling q = {q!r} decouples the uncharged core r < {self.grid.nodes[i]:.6g} "
                                 "from the profile below float resolution")
            raise InvariantError("screened potential violated its a priori bounds; solver defect")
        return GaugePotential(self.grid, np.clip(phi, 0.0, 1.0 / q), q)

    def mass(self, uu: np.ndarray, q: float) -> tuple[float, GaugePotential]:
        """K(u) in its energy form, and the potential phi_u of ``potential`` it is evaluated at.

        K is the field energy of phi_u, including the exterior tail
        4 pi R phi(R)^2 of the A/r continuation implied by the Robin closure.
        The energy form is stationary in phi, so solve noise enters K only at
        second order; the source form would leak it into finite differences.
        A coupling so strong that K falls below 1e6 eps^2 ||u||^2, where
        round-off in 1 - q phi dominates it, is rejected.
        """
        phi = self.potential(uu, q)
        grid = self.grid
        p = phi.values
        k = grid.dirichlet(p) + FOUR_PI * grid.r_max * p[-1] ** 2 + grid.integrate(phi.screen * uu)
        if k < _MASS_FLOOR * grid.integrate(uu):
            raise ValueError(f"coupling q = {q!r} screens K(u) = {k:.3g} below float resolution")
        return k, phi


def solve_phi(u: RadialProfile, q: float) -> GaugePotential:
    """The reduced potential phi_u of a validated profile; see ``ScreenedPoisson.potential``."""
    return ScreenedPoisson(u.grid).potential(u.values**2, q)


def screened_mass(u: RadialProfile, q: float) -> tuple[float, GaugePotential]:
    """K(u) in its energy form, and the potential phi_u it is evaluated at;
    see ``ScreenedPoisson.mass``."""
    return ScreenedPoisson(u.grid).mass(u.values**2, q)
