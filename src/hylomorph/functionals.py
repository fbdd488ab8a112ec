"""Energy, charge and reduced-energy functionals on the standing-wave ansatz.

A standing wave u(x) e^{-i omega t} carries energy
E(u, omega) = integral of |grad u|^2/2 + W(u) + omega^2 u^2/2 and charge
C(u, omega) = -omega * integral of u^2.  Fixing the charge to sigma > 0
solves the constraint in closed form, omega = -sigma / ||u||^2, and turns
the constrained search into unconstrained minimization of

    E_sigma(u) = integral of |grad u|^2/2 + W(u)  +  sigma^2 / (2 ||u||^2).

The gauge-coupled theory replaces ||u||^2 by the screened mass K(u) of
``gauge.screened_mass``; ``deficiency`` gives the pair (J, K) of both
theories, and E_sigma = J + m sigma + (sigma - m K)^2 / (2 K) for either.
A vortex adds the centrifugal potential V = ell^2/r^2 of its winding, so
``reduced_energy``, its first variation ``stationary_operator`` and the functionals
of a profile serve all three theories (a gauge-coupled profile is radial).
Throughout, sigma > 0 and omega < 0 by convention.
"""

from __future__ import annotations

import numpy as np

from .gauge import screened_mass
from .grid import Profile
from .model import NonlinearSpec, eval_nonlinearity, eval_remainder


def deficiency(u: Profile, spec: NonlinearSpec, q: float = 0.0) -> tuple[float, float]:
    """The deficiency J and the mass K of the hylomorphy test at coupling q.

    K is ||u||^2 at q = 0 and the screened mass K(u) otherwise, and
    J = integral of |grad u|^2/2 + V u^2/2 + R(u)  +  m^2 (||u||^2 - K) / 2;
    negative values of J open a charge window.
    """
    mass2 = u.mass2
    k = mass2 if q == 0.0 else screened_mass(u, q)[0]
    r_int = u.grid.integrate(eval_remainder(spec, u.values, 0))
    # q * integral of phi u^2 = ||u||^2 - K by the same quadrature, exactly
    kinetic = gradient_energy(u.grid, u.values, u.grid.centrifugal(u.winding))
    return 0.5 * kinetic + r_int + 0.5 * spec.mass**2 * (mass2 - k), k


def gradient_energy(grid, u: np.ndarray, potential: np.ndarray | float) -> float:
    """Integral of |grad u|^2 + V u^2, twice the kinetic energy T of E_sigma and J.

    ``grid`` is a RadialGrid or a vortex AxisymGrid.  V is the centrifugal
    ell^2/r^2 of a vortex and 0, whose term is skipped, radially.
    """
    dirichlet = grid.dirichlet(u)
    if not np.isscalar(potential) or potential:
        dirichlet += grid.integrate(potential * u * u)
    return dirichlet


def reduced_energy(grid, u: np.ndarray, spec: NonlinearSpec, sigma: float, k: float,
                   potential: np.ndarray | float = 0.0) -> float:
    """E_sigma(u) = integral of |grad u|^2/2 + V u^2/2 + W(u)  +  sigma^2 / (2 K).

    ``grid`` is a RadialGrid or a vortex AxisymGrid.  K is the mass
    ||u||^2 in the ungauged theory and the screened mass K(u) in the
    gauge-coupled one; at sigma = 0 the charge term is dropped.  V is that
    of ``gradient_energy``.
    """
    return (0.5 * gradient_energy(grid, u, potential) + grid.integrate(eval_nonlinearity(spec, u, 0))
            + charge_energy(sigma, k))


def charge_energy(sigma: float, k: float) -> float:
    """The term sigma^2 / (2 K); infinite when a vanishing profile must carry sigma > 0."""
    if k > 0:
        return sigma**2 / (2.0 * k)
    return np.inf if sigma else 0.0


def stationary_operator(grid, u: np.ndarray, spec: NonlinearSpec, omega2: float,
                        screen: np.ndarray | float = 1.0,
                        potential: np.ndarray | float = 0.0) -> np.ndarray:
    """-lap u + W'(u) + (V - omega^2 s) u with the grid's Dirichlet nodes zeroed.

    The screen is s = 1 for the ungauged equation and s = (1 - q phi)^2
    for the gauge-coupled one; the potential V is that of
    ``reduced_energy``.  At omega^2 = (sigma/K)^2 this is the first
    variation of E_sigma; it vanishes on solutions of the stationary system.
    """
    g = -grid.laplacian(u) + eval_nonlinearity(spec, u, 1) + (potential - omega2 * screen) * u
    return grid.zero_boundary(g)


def reduced_energy_sigma(u: Profile, sigma: float, spec: NonlinearSpec) -> tuple[float, float]:
    """Energy at fixed charge after eliminating the frequency.

    Returns (E_sigma, omega_star).  The zero profile cannot carry a
    nonzero charge.
    """
    mass2 = u.mass2
    if sigma != 0.0 and mass2 <= 0.0:
        raise ValueError("zero profile cannot satisfy a nonzero charge constraint")
    omega = -sigma / mass2 if sigma else 0.0
    return reduced_energy(u.grid, u.values, spec, sigma, mass2, u.grid.centrifugal(u.winding)), omega


def sigma_window(u: Profile, spec: NonlinearSpec, q: float = 0.0) -> tuple[float, float] | None:
    """Charge interval on which this profile certifies a binding minimizer.

    With (J, K) from ``deficiency`` at coupling q, the ratio E_sigma/sigma
    drops below the mass exactly for sigma in (m K - sqrt(2 K |J|),
    m K + sqrt(2 K |J|)); the window is empty unless J < 0.
    """
    j, k = deficiency(u, spec, q)
    if j >= 0.0 or k <= 0.0:
        return None
    half_width = np.sqrt(2.0 * k * abs(j))
    center = spec.mass * k
    return center - half_width, center + half_width
