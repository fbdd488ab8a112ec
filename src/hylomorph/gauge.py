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

This module provides phi_u and K(u) alone; the functionals built on them
(``functionals.deficiency``, ``reduced_energy``, ``stationary_operator``)
live in ``functionals``, which imports this module and not the reverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (FOUR_PI, InvariantError, RadialGrid, RadialProfile, TridiagonalFactor, banded_matvec,
                   gradient_sq_integral, integrate_radial, trapezoid_weights)

_BOUND_SLACK = 1e-10
# K must exceed this multiple of eps^2 ||u||^2: K is a sum of (q phi - 1)^2
# u^2 whose factors 1 - q phi are resolved only to about eps, so a smaller
# K is round-off, not the screened mass
_MASS_FLOOR = 1e6 * float(np.finfo(float).eps) ** 2


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

    @property
    def screen(self) -> np.ndarray:
        """The factor (1 - q phi)^2 by which the potential screens omega^2 in the matter equation."""
        return (1.0 - self.coupling * self.values) ** 2


def solve_phi(u: RadialProfile, q: float) -> GaugePotential:
    """Solve the screened Poisson subproblem by a direct tridiagonal solve.

    Every gauge-coupled path checks its coupling here."""
    if not (q > 0 and q * q < np.inf):
        raise ValueError(f"coupling q must be positive with a finite square, got {q!r}")
    grid = u.grid
    uu = u.values**2

    # the grid's cell fluxes a_i = r_i r_{i+1} / h and node masses b_i = w_i r_i^2
    a = grid.flux
    b = trapezoid_weights(grid.n, grid.h) * grid.nodes**2
    # the diagonal adds (b_i q^2) u_i^2, and q^2 u_0^2 at the origin, to O(1)
    # fluxes; checked by division, since the products themselves may overflow
    if q > np.sqrt(np.finfo(float).max / 2.0 / (max(b.max(), 1.0) * max(uu.max(), 1.0))):
        raise ValueError(f"coupling q = {q!r} overflows the screened Poisson matrix on this grid")

    ab = np.zeros((3, grid.n + 1))
    rhs = q * b * uu
    ab[1, 1:-1] = a[:-1] + a[1:] + b[1:-1] * q**2 * uu[1:-1]
    # Robin closure: the exterior A/r tail contributes r_max * phi_n^2 to the
    # quadratic form, hence + r_max on the last diagonal entry
    ab[1, -1] = a[-1] + grid.r_max + b[-1] * q**2 * uu[-1]
    ab[0, 2:] = -a[1:]
    ab[2, :-1] = -a

    # origin row: collocation of the regular limit 3 phi''(0) (the grid
    # Laplacian's origin row), decoupled from the energy rows because the
    # first cell carries zero weight
    ab[1, 0] = -grid.laplacian_bands[1, 0] + q**2 * uu[0]
    ab[0, 1] = -grid.laplacian_bands[0, 1]
    rhs[0] = q * uu[0]

    factor = TridiagonalFactor(ab)
    phi = factor.solve(rhs)
    # one step of iterative refinement, on the same factor: the Dirichlet rows
    # are stiff at fine grids and downstream finite differences of K(u) see
    # the solve noise
    phi = phi + factor.solve(rhs - banded_matvec(ab, phi))

    slack = _BOUND_SLACK * max(1.0, 1.0 / q)
    if not (phi.min() >= -slack and phi.max() <= 1.0 / q + slack):
        raise InvariantError("screened potential violated its a priori bounds; solver defect")
    return GaugePotential(grid, np.clip(phi, 0.0, 1.0 / q), q)


def _energy_form(u: RadialProfile, phi: GaugePotential) -> float:
    """K as field energy, including the exterior tail 4 pi R phi(R)^2 of the
    A/r continuation implied by the Robin closure."""
    grid = u.grid
    p = phi.values
    grad_part = gradient_sq_integral(grid, p)
    tail = FOUR_PI * grid.r_max * p[-1] ** 2
    mass_part = integrate_radial(grid, (phi.coupling * p - 1.0) ** 2 * u.values**2)
    return grad_part + tail + mass_part


def screened_mass_two_forms(u: RadialProfile, phi: GaugePotential) -> tuple[float, float]:
    """K evaluated as field energy and as screened source; equal at the solution."""
    return _energy_form(u, phi), integrate_radial(u.grid, (1.0 - phi.coupling * phi.values) * u.values**2)


def screened_mass(u: RadialProfile, q: float) -> tuple[float, GaugePotential]:
    """K(u) in its energy form, and the potential phi_u it is evaluated at.

    The energy form is stationary in phi, so solve noise enters K only at
    second order; the source form would leak it into finite differences.
    A coupling so strong that K falls below 1e6 eps^2 ||u||^2, where round-off
    in 1 - q phi dominates it, is rejected.
    """
    phi = solve_phi(u, q)
    k = _energy_form(u, phi)
    if k < _MASS_FLOOR * u.mass2:
        raise ValueError(f"coupling q = {q!r} screens K(u) = {k:.3g} below float resolution")
    return k, phi
